// One-sided extendible hash table in the spirit of RACE hashing (Zuo et al.,
// ATC'21), used as the Inner Node Hash Table substrate.
//
// MN-side layout:
//   descriptor word (bootstrap slot): global_depth:8 | directory offset:48
//   dir lock word   (bootstrap slot): 0 = free, else a lease
//                                     1<<63 | owner:8 << 23 | stamp:23
//   directory:  2^global_depth segment offsets (8 B each)
//   segment:    64 B header | kGroupsPerSegment groups
//   group:      kSlotsPerGroup 8-byte entries (128 B -> one RDMA READ)
//
// Client-side access costs (what the paper's analysis depends on):
//   search: 1 READ of one 128 B group            == 1 round trip
//   insert: 1 group READ + (CAS + header READ)   == 2 round trips
//   update/erase: piggybacks on a prior search; 1 CAS
//
// Concurrency: lock-free reads; segment splits take a per-segment lock and
// bump a version so in-flight inserts can detect displacement and retry.
// Readers racing a split can transiently miss an entry; callers (Sphinx)
// treat a miss as a cache-style miss and fall back, so this never affects
// index correctness.
//
// Crash tolerance: both locks are crash-recoverable. The dir lock carries
// an {owner, stamp} lease; a waiter that watches the identical lease word
// for a full lease period (rdma/retry_policy.h) CASes it over. Segment
// locks are only ever taken while holding the dir lock, so any locked
// segment header observed *under* the dir lock belongs to a crashed
// splitter; recover_segment() rolls the half-finished split back (sibling
// never became visible) or forward (redoes the sibling merge, directory
// writes and cleaned-segment publish from the live segment contents).
// Mutators confirm raced entries with a version-bracketed group read
// (stable_search) -- a plain search can observe an entry mid-split that
// the splitter's cleaned-segment write then clobbers.
//
// Hash-bit usage: directory index = low bits [0, gd) (gd <= 16 enforced);
// group index = bits [16, 16+log2(groups)); fingerprint = bits [52, 64).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "memnode/cluster.h"
#include "memnode/remote_allocator.h"
#include "racehash/race_entry.h"
#include "rdma/retry_policy.h"
#include "rdma/stats.h"

namespace sphinx::race {

constexpr uint32_t kSlotsPerGroup = 16;           // 128 B per group
constexpr uint32_t kGroupBytes = kSlotsPerGroup * 8;
constexpr uint32_t kGroupsPerSegment = 512;       // 64 KiB of groups
constexpr uint32_t kSegmentHeaderBytes = 64;
constexpr uint32_t kSegmentBytes =
    kSegmentHeaderBytes + kGroupsPerSegment * kGroupBytes;
constexpr uint32_t kMaxGlobalDepth = 16;

// Identifies one table instance (Sphinx creates one per MN).
struct TableRef {
  uint32_t mn = 0;
  rdma::GlobalAddr descriptor;  // gd:8 | dir offset:48
  rdma::GlobalAddr dir_lock;
};

// Recomputes the 64-bit placement hash of a stored payload; needed only
// during segment splits (mirrors RACE re-reading KV blocks). May issue
// verbs on the caller's endpoint.
using Rehasher = std::function<uint64_t(uint64_t payload)>;

// Creates an empty table on `mn` with 2^initial_depth segments and returns
// its ref. Uses an unmetered loader endpoint internally.
TableRef create_table(mem::Cluster& cluster, uint32_t mn,
                      uint8_t initial_depth = 1);

struct RaceStats {
  uint64_t searches = 0;
  uint64_t inserts = 0;
  uint64_t insert_retries = 0;
  uint64_t splits = 0;
  uint64_t dir_doublings = 0;
  uint64_t dir_refreshes = 0;
  rdma::RecoveryStats recovery;  // lease expiries / reclaims / timeouts
  rdma::BackoffHistogram backoff;
};

// Per-client handle. Not thread-safe (one per worker, like an Endpoint).
class RaceClient {
 public:
  RaceClient(mem::Cluster& cluster, rdma::Endpoint& endpoint,
             mem::RemoteAllocator& allocator, const TableRef& table,
             Rehasher rehasher);

  // Remote address + parse context for one probe; lets callers batch
  // several probes (possibly across tables) into a single doorbell batch.
  struct Probe {
    rdma::GlobalAddr group_addr;
    uint64_t hash = 0;
  };

  // Resolves the group address for `hash` from the cached directory.
  Probe plan_probe(uint64_t hash);

  // Extracts payloads whose fingerprint matches `hash` from a 128 B group
  // image fetched via a Probe.
  static void match_group(uint64_t hash, const uint64_t group[kSlotsPerGroup],
                          std::vector<uint64_t>& payloads_out);

  // Single-probe search: one READ round trip. Returns all fp-matching
  // payloads (usually 0 or 1). The one-op driver of the two halves below.
  void search(uint64_t hash, std::vector<uint64_t>& payloads_out);

  // search() split at its round trip, so a caller can share the doorbell
  // with other reads. post_search() appends the segment header and group
  // reads for `hash` to `batch` (refreshing an empty directory cache
  // first; attempt 0 counts the search). After the batch executed,
  // finish_search() checks the header against the cached directory: true
  // appends the group's fp-matching payloads; false means the directory
  // was stale and has been refreshed, and the caller re-posts while
  // attempt + 1 < kSearchAttempts (after that the search found nothing).
  struct SearchRead {
    uint64_t header = 0;
    uint64_t group[kSlotsPerGroup];
  };
  static constexpr uint32_t kSearchAttempts = 3;
  void post_search(uint64_t hash, uint32_t attempt, rdma::DoorbellBatch* batch,
                   SearchRead* read);
  bool finish_search(uint64_t hash, const SearchRead& read,
                     std::vector<uint64_t>& payloads_out);

  // Inserts (hash -> payload). Returns false only if the table failed to
  // make room (pathological). Duplicate suppression is the caller's job.
  bool insert(uint64_t hash, uint64_t payload);

  // Replaces old_payload with new_payload for `hash`. Returns false when
  // no matching live entry was found.
  bool update(uint64_t hash, uint64_t old_payload, uint64_t new_payload);

  // Removes the entry (hash -> payload). Returns false when absent.
  bool erase(uint64_t hash, uint64_t payload);

  // Re-reads descriptor + directory from the MN (charged to the endpoint).
  void refresh_directory();

  const RaceStats& stats() const { return stats_; }

  // Approximate CN-side memory held by the cached directory (for the
  // paper's "directory cache is 2-5% of the filter cache" accounting).
  uint64_t directory_cache_bytes() const {
    return dir_cache_.size() * sizeof(uint64_t) + sizeof(*this);
  }

 private:
  uint64_t dir_index(uint64_t hash) const {
    return hash & ((1ULL << global_depth_) - 1);
  }
  static uint32_t group_index(uint64_t hash) {
    return static_cast<uint32_t>((hash >> 16) % kGroupsPerSegment);
  }
  rdma::GlobalAddr group_addr(uint64_t segment_offset, uint64_t hash) const {
    return rdma::GlobalAddr(
        table_.mn, segment_offset + kSegmentHeaderBytes +
                       static_cast<uint64_t>(group_index(hash)) * kGroupBytes);
  }

  // Splits the segment containing `hash`; returns true if the split
  // happened (or someone else's concurrent split was detected).
  bool split_segment(uint64_t hash);
  bool double_directory();

  // Writes a full segment image whose header word unlocks the segment. The
  // body (words 1..end) goes first and the header word last, in one
  // doorbell round trip (verbs apply in post order): a reader that sees the
  // unlocked header therefore also sees the new group bytes, so no insert
  // can be acknowledged into a slot the publish is about to overwrite.
  void publish_segment(rdma::GlobalAddr addr, const uint64_t* image,
                       rdma::FaultSite site);

  // ---- crash-tolerant locking ----------------------------------------------

  // Acquires the directory lock, reclaiming an expired (crashed-holder)
  // lease. Returns false once the retry budget is exhausted.
  bool lock_directory();
  void unlock_directory();

  // Feeds one locked-segment-header observation into the lease watch; once
  // it expires, takes the dir lock and recovers the orphaned segment.
  void note_busy_segment(uint64_t seg_offset, uint64_t header);

  // Pre: caller holds the dir lock, `locked_header` was just read from the
  // segment at `seg_offset` and is locked -- which, under the dir lock,
  // proves its holder crashed. Rolls the split back or forward.
  void recover_segment(uint64_t seg_offset, uint64_t locked_header);

  // Presence/absence decided only from a group image bracketed by two
  // identical *unlocked* header reads in one doorbell batch, so an
  // in-flight split can never produce a false verdict. Used by mutators to
  // confirm entries after racing a split. Returns false when no stable
  // bracket was achieved within the retry budget.
  bool stable_search(uint64_t hash, std::vector<uint64_t>& payloads_out);

  mem::Cluster& cluster_;
  rdma::Endpoint& endpoint_;
  mem::RemoteAllocator& allocator_;
  TableRef table_;
  Rehasher rehasher_;

  // Client-side directory cache.
  uint8_t global_depth_ = 0;
  std::vector<uint64_t> dir_cache_;  // segment offsets
  RaceStats stats_;
  rdma::RetryPolicyConfig retry_cfg_;
  rdma::LockWatch dir_watch_;  // dir lock lease expiry
  rdma::LockWatch seg_watch_;  // segment lock lease expiry
};

}  // namespace sphinx::race
