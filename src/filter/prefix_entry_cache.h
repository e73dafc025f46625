// Prefix Entry Cache (PEC): the second CN-wide cache tier next to the
// succinct filter cache. Where the cuckoo filter answers "does an inner
// node with this prefix *exist*?", the PEC answers "where is it?": it maps
// a prefix hash to the 8-byte INHT payload {node type, 48-bit address},
// letting a search skip the hash-entry read entirely (3 RTTs -> 2).
//
// Coherence is by validation, not invalidation messages: the cached payload
// is only a *hint*, and the fetched node is verified against the prefix
// hash, type and depth exactly as an INHT-read candidate would be
// (SphinxIndex::validate_start). A stale entry therefore costs at most one
// wasted node read -- or zero, when the speculative read is doorbell-fused
// with the INHT group read -- never a wrong answer.
//
// Concurrency mirrors the cuckoo filter: the cache is shared by all workers
// of one compute node; slots are a pair of relaxed atomics (tag word +
// payload word), lookups and inserts are lock-free, and eviction reuses the
// paper's hotness-bit second-chance policy (Sec. III-B). Torn tag/payload
// pairs are harmless: a mismatched payload fails remote validation and the
// slot is purged via invalidate_if().
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/hash.h"

namespace sphinx::filter {

struct PrefixEntryCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;
  uint64_t evictions = 0;      // second-chance / rotation replacements
  uint64_t invalidations = 0;  // stale entries purged after validation
};

class PrefixEntryCache {
 public:
  static constexpr uint32_t kWays = 4;            // slots per set
  static constexpr uint64_t kHotBit = 1ULL << 63;  // in the payload word
  static constexpr uint64_t kSlotBytes = 16;       // tag + payload
  static constexpr uint64_t kAddrMask = (1ULL << 48) - 1;

  // Sizes the cache to approximately `budget_bytes` of slot storage
  // (rounded down to a power-of-two set count, like the cuckoo filter).
  static std::unique_ptr<PrefixEntryCache> with_budget(uint64_t budget_bytes);

  // `num_sets` is rounded up to a power of two.
  explicit PrefixEntryCache(uint64_t num_sets);

  // Looks up `prefix_hash`. On a hit stores the cached INHT payload (hot
  // bit stripped) in *payload_out and the *pre-lookup* hotness in *was_hot,
  // then marks the entry hot. Cold hits are low-confidence: the entry was
  // not recently validated, so callers hedge with speculative fusion.
  bool lookup(uint64_t prefix_hash, uint64_t* payload_out, bool* was_hot);

  // Upserts `prefix_hash -> payload` (payload must have the hot bit clear,
  // which pack_inht_payload guarantees: 51 significant bits). An existing
  // entry for the hash is replaced in place, keeping its hotness; new
  // entries start cold. Under pressure a random cold victim is replaced
  // (second chance); when every way is hot, all hotness in the set is
  // cleared and a rotating victim is evicted.
  void insert(uint64_t prefix_hash, uint64_t payload);

  // Purges the entry for `prefix_hash` only if it still points at
  // `addr48` -- a concurrent refresh with the node's new address must not
  // be dropped. Returns true when a slot was cleared.
  bool invalidate_if(uint64_t prefix_hash, uint64_t addr48);

  uint64_t num_sets() const { return num_sets_; }
  uint64_t capacity() const { return num_sets_ * kWays; }
  uint64_t memory_bytes() const { return capacity() * kSlotBytes; }

  // Approximate number of live entries.
  uint64_t size() const;

  PrefixEntryCacheStats stats() const;
  void reset_stats();

 private:
  struct Slot {
    std::atomic<uint64_t> tag;      // prefix hash; 0 = empty
    std::atomic<uint64_t> payload;  // kHotBit | inht payload; 0 = unset
  };

  // Hash 0 would collide with the empty-tag sentinel; remap it (the same
  // trick the cuckoo filter plays with fingerprint 0).
  static uint64_t tag_of(uint64_t hash) { return hash == 0 ? 1 : hash; }
  uint64_t set_index(uint64_t hash) const {
    // Remix so the set index is independent of the bits the cuckoo filter
    // and the consistent-hash ring consume.
    return splitmix64(hash) & (num_sets_ - 1);
  }
  Slot* set_of(uint64_t index) { return slots_.get() + index * kWays; }
  const Slot* set_of(uint64_t index) const {
    return slots_.get() + index * kWays;
  }
  uint64_t next_random();

  uint64_t num_sets_;  // power of two
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> rng_state_{0x2545f4914f6cdd1dULL};

  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  mutable std::atomic<uint64_t> inserts_{0};
  mutable std::atomic<uint64_t> evictions_{0};
  mutable std::atomic<uint64_t> invalidations_{0};
};

}  // namespace sphinx::filter
