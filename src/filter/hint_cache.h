// Hint cache: the set-associative, CN-wide cache behind the two location
// tiers next to the succinct filter cache. Sphinx runs two instances of it:
//
//   * the Prefix Entry Cache (PEC) maps a *prefix* hash to the 8-byte INHT
//     payload {node type, 48-bit address} (core/inht.h), so a search skips
//     the hash-entry read (3 RTTs -> 2). Where the filter answers "does an
//     inner node with this prefix exist?", the PEC answers "where is it?";
//   * the Leaf Address Cache (LAC) maps a *full-key* hash straight to the
//     leaf's address and size (pack_lac_payload below), so a warm point
//     read is one speculative leaf read (2 RTTs -> 1).
//
// Coherence is by validation, not invalidation messages: a cached payload
// is only a *hint*. A PEC-named node is verified against the prefix hash,
// type and depth exactly as an INHT-read candidate would be
// (SphinxIndex::validate_start); a LAC-named leaf exactly as a descent-found
// leaf would be -- unit count against the header, CRC, Idle status, and a
// byte-exact compare of the stored key against the searched key, the guard
// that also makes descents immune to recycled blocks (DESIGN.md sect. 14).
// A stale, ABA-recycled or tag-colliding entry therefore costs at most one
// wasted read -- or zero, when the read is doorbell-fused with its
// fallback -- never a wrong answer. Stale entries are purged via
// invalidate_if() keyed on the address, so a concurrent refresh with the
// new address is never dropped.
//
// A slot is a single 8-byte word: tag(9) | hot(1) | payload(54), where a
// payload keeps its 48-bit address in the low bits. The hot set a workload
// touches is large, so the cache buys entry density with a short tag: a
// false tag match costs one wasted speculative read (caught by validation
// and purged), at a ~1/512 rate per occupied way, while an entry takes half
// the bytes a {64-bit tag, payload} pair would. One-word slots also make
// every transition a single store or CAS: no torn tag/payload pairs exist.
// Eviction keeps the paper's hotness-bit second-chance policy (Sec. III-B),
// shared by all workers of one compute node.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/hash.h"

namespace sphinx::filter {

struct HintCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;
  uint64_t evictions = 0;      // second-chance / rotation replacements
  uint64_t invalidations = 0;  // stale entries purged after validation
};
// The per-tier names benchmark/sphinx_benchmark.cpp reads stats through.
using PrefixEntryCacheStats = HintCacheStats;
using LeafAddrCacheStats = HintCacheStats;

class HintCache {
 public:
  static constexpr uint32_t kWays = 4;        // slots per set
  static constexpr uint64_t kSlotBytes = 8;   // one packed word
  static constexpr uint64_t kAddrMask = (1ULL << 48) - 1;  // payload addr48

  // Slot word layout (0 = empty slot).
  static constexpr uint32_t kTagShift = 55;   // [63:55] 9-bit tag, nonzero
  static constexpr uint64_t kHotBit = 1ULL << 54;
  static constexpr uint64_t kPayloadMask = kHotBit - 1;

  // Sizes the cache to approximately `budget_bytes` of slot storage
  // (rounded down to a power-of-two set count, like the cuckoo filter).
  static std::unique_ptr<HintCache> with_budget(uint64_t budget_bytes);

  // `num_sets` is rounded up to a power of two.
  explicit HintCache(uint64_t num_sets);

  // Looks up `hash`. On a hit stores the cached payload in *payload_out
  // and the *pre-lookup* hotness in *was_hot, then marks the entry hot.
  // Cold hits are low-confidence: the entry was not recently validated, so
  // callers hedge the speculative read with a fused fallback read.
  bool lookup(uint64_t hash, uint64_t* payload_out, bool* was_hot);

  // Upserts `hash -> payload` (payload must fit kPayloadMask). An existing
  // entry for the hash is replaced in place -- a type switch or an
  // out-of-place update moved the target -- keeping its hotness; new
  // entries start cold. Under pressure a random cold victim is replaced
  // (second chance); when every way is hot, all hotness in the set is
  // cleared and a rotating victim is evicted.
  void insert(uint64_t hash, uint64_t payload);

  // Purges the entry for `hash` only if it still points at `addr48` -- a
  // concurrent refresh with the new address must not be dropped. Returns
  // true when a slot was cleared.
  bool invalidate_if(uint64_t hash, uint64_t addr48);

  uint64_t num_sets() const { return num_sets_; }
  uint64_t capacity() const { return num_sets_ * kWays; }
  uint64_t memory_bytes() const { return capacity() * kSlotBytes; }

  // Approximate number of live entries.
  uint64_t size() const;

  HintCacheStats stats() const;
  void reset_stats();

 private:
  // Tag bits come from the hash's high end (set_index consumes remixed low
  // bits); 0 would collide with the empty-slot sentinel, so it remaps to 1
  // (the same trick the cuckoo filter plays with fingerprint 0).
  static uint64_t tag_of(uint64_t hash) {
    const uint64_t t = hash >> kTagShift;
    return (t == 0 ? 1 : t) << kTagShift;
  }
  static uint64_t word_tag(uint64_t word) {
    return word >> kTagShift << kTagShift;
  }
  uint64_t set_index(uint64_t hash) const {
    // Remix so the set index is independent of the bits the cuckoo filter
    // and the consistent-hash ring consume.
    return splitmix64(hash) & (num_sets_ - 1);
  }
  std::atomic<uint64_t>* set_of(uint64_t index) {
    return slots_.get() + index * kWays;
  }
  uint64_t next_random();

  uint64_t num_sets_;  // power of two
  std::unique_ptr<std::atomic<uint64_t>[]> slots_;
  std::atomic<uint64_t> rng_state_{0x9e3779b97f4a7c15ULL};

  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  mutable std::atomic<uint64_t> inserts_{0};
  mutable std::atomic<uint64_t> evictions_{0};
  mutable std::atomic<uint64_t> invalidations_{0};
};

// LAC payload layout: units<<48 | addr48. Leaf unit counts are six bits
// (pack_leaf_slot asserts units < 64), so the packed value spans 54 bits.
// (The PEC's INHT payload, type<<48 | addr48, spans 51.)
inline uint64_t pack_lac_payload(uint32_t units, uint64_t addr48) {
  return (static_cast<uint64_t>(units) << 48) | (addr48 & HintCache::kAddrMask);
}
inline uint32_t lac_payload_units(uint64_t payload) {
  return static_cast<uint32_t>((payload >> 48) & 0x3f);
}
inline uint64_t lac_payload_addr48(uint64_t payload) {
  return payload & HintCache::kAddrMask;
}

}  // namespace sphinx::filter
