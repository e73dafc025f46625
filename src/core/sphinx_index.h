// SphinxIndex: the paper's hybrid index. An adaptive radix tree on
// disaggregated memory whose inner nodes are additionally indexed by the
// Inner Node Hash Table (Sec. III-A), fronted on each compute node by a
// Succinct Filter Cache (Sec. III-B) and a Prefix Entry Cache.
//
// Search path (Sec. IV): hash all prefixes of the key locally, find the
// longest prefix present in the filter cache, read that prefix's hash
// entry (1 RTT), read the inner node it points to (1 RTT), then descend --
// normally straight to the leaf (1 RTT): three round trips end to end.
// The Prefix Entry Cache (a filter/hint_cache.h instance) removes the first
// hop on a hit: it caches the 8-byte hash entry itself, so the node read
// starts immediately and a search costs two round trips. Cached entries
// are hints only -- every fetched node is re-verified (type, depth, full
// prefix hash, status), and stale entries are purged on validation failure.
// Cold (low-confidence) entries are hedged with speculative doorbell
// fusion: the node read and the INHT group read issue in one batch, so a
// stale entry costs zero extra round trips.
// Filter misses fall back to reading the hash entries of *all* prefixes in
// one doorbell-batched round trip (the Theta(L)-bandwidth base mechanism);
// hash-table misses fall back to a plain root-to-leaf traversal, which also
// repopulates the filter via on_visit_inner().
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "art/remote_tree.h"
#include "common/metrics.h"
#include "core/inht.h"
#include "filter/cuckoo_filter.h"
#include "filter/hint_cache.h"

namespace sphinx::core {

// Shared bootstrap state for one Sphinx instance (tree + per-MN INHT).
struct SphinxRefs {
  art::TreeRef tree;
  std::vector<race::TableRef> inht;
};

SphinxRefs create_sphinx(mem::Cluster& cluster,
                         uint8_t inht_initial_depth = 4);

struct SphinxStats {
  uint64_t filter_hits = 0;        // filter said "present" for some prefix
  uint64_t fp_rejects = 0;         // filter hit not confirmed by INHT/node
  uint64_t start_successes = 0;    // descents started below the root
  uint64_t parallel_fallbacks = 0; // multi-prefix doorbell reads issued
  uint64_t root_fallbacks = 0;     // find_start gave up -> root traversal
  uint64_t inht_update_misses = 0; // type-switch entry CAS lost a race
  uint64_t inht_insert_fails = 0;  // INHT insert gave up (table full / faults)
  uint64_t pec_hits = 0;           // prefix entry cache had a payload
  uint64_t pec_stale = 0;          // cached payload failed node validation
  uint64_t speculative_wins = 0;   // fused cold-hit read validated
  uint64_t speculative_losses = 0; // fused read stale; group rescued the op
  uint64_t scan_start_successes = 0;  // scans entered below the root
  uint64_t scan_root_fallbacks = 0;   // scan entry search failed -> root
  uint64_t lac_hits = 0;         // leaf address cache had a binding
  uint64_t lac_stale = 0;        // cached binding failed leaf validation
  uint64_t lac_fused_wins = 0;   // cold-hit fused leaf read validated
  uint64_t lac_fused_losses = 0; // stale leaf; fused inner seeded fallback
  uint64_t lac_wrong_value = 0;  // 1-RTT return failed final audit (== 0!)
  uint64_t batch_ops = 0;           // ops in batches of two or more
  uint64_t batch_fused_ops = 0;     // ops completed by the LAC round
  uint64_t batch_fused_rounds = 0;  // LAC rounds (LAC-hit leaf reads) issued
  uint64_t batch_serial_ops = 0;    // batch ops the LAC round did not finish
  uint64_t batch_shared_rounds = 0; // the other rounds of staged searches
  uint64_t batch_shared_ops = 0;    // searches those rounds decided
  // Insert walk locks (DESIGN.md Sec. 16): the lock CAS an insert's start
  // walk posts with the read of a node an entry names, when it won on
  uint64_t insert_walk_locks = 0;          // a node with a free slot, or a
                                           // full one the insert then grew
  uint64_t insert_walk_lock_releases = 0;  // a node whose slot was taken
  uint64_t insert_walk_lock_rejects = 0;   // a block failing validation

  SphinxStats& operator+=(const SphinxStats& o);
};

// Field registry: merge and JSON emission iterate this table instead of
// hand-rolling per-counter code (see common/metrics.h).
inline constexpr metrics::Field<SphinxStats> kSphinxStatsFields[] = {
    {"filter_hits", &SphinxStats::filter_hits},
    {"fp_rejects", &SphinxStats::fp_rejects},
    {"start_successes", &SphinxStats::start_successes},
    {"parallel_fallbacks", &SphinxStats::parallel_fallbacks},
    {"root_fallbacks", &SphinxStats::root_fallbacks},
    {"inht_update_misses", &SphinxStats::inht_update_misses},
    {"inht_insert_fails", &SphinxStats::inht_insert_fails},
    {"pec_hits", &SphinxStats::pec_hits},
    {"pec_stale", &SphinxStats::pec_stale},
    {"speculative_wins", &SphinxStats::speculative_wins},
    {"speculative_losses", &SphinxStats::speculative_losses},
    {"scan_start_successes", &SphinxStats::scan_start_successes},
    {"scan_root_fallbacks", &SphinxStats::scan_root_fallbacks},
    {"lac_hits", &SphinxStats::lac_hits},
    {"lac_stale", &SphinxStats::lac_stale},
    {"lac_fused_wins", &SphinxStats::lac_fused_wins},
    {"lac_fused_losses", &SphinxStats::lac_fused_losses},
    {"lac_wrong_value", &SphinxStats::lac_wrong_value},
    {"batch_ops", &SphinxStats::batch_ops},
    {"batch_fused_ops", &SphinxStats::batch_fused_ops},
    {"batch_fused_rounds", &SphinxStats::batch_fused_rounds},
    {"batch_serial_ops", &SphinxStats::batch_serial_ops},
    {"batch_shared_rounds", &SphinxStats::batch_shared_rounds},
    {"batch_shared_ops", &SphinxStats::batch_shared_ops},
    {"insert_walk_locks", &SphinxStats::insert_walk_locks},
    {"insert_walk_lock_releases", &SphinxStats::insert_walk_lock_releases},
    {"insert_walk_lock_rejects", &SphinxStats::insert_walk_lock_rejects},
};

inline SphinxStats& SphinxStats::operator+=(const SphinxStats& o) {
  metrics::add(*this, o, kSphinxStatsFields);
  return *this;
}

class SphinxIndex final : public art::RemoteTree {
 public:
  // `filter` is the CN-wide succinct filter cache shared by every worker of
  // this compute node; pass nullptr to run INHT-only. `pec` (prefix entry
  // cache) and `lac` (leaf address cache) are two CN-wide hint caches,
  // likewise shared and likewise optional: the PEC maps prefix hashes to
  // INHT payloads, the LAC full-key hashes to leaf bindings. A null
  // pointer is the one off-switch for each tier, and a PEC or LAC requires
  // the filter: the start walk probes the PEC only at prefix lengths the
  // filter admits. Cold PEC and LAC hits always hedge with doorbell fusion
  // (run_staged(), post_walk()).
  SphinxIndex(mem::Cluster& cluster, rdma::Endpoint& endpoint,
              mem::RemoteAllocator& allocator, const SphinxRefs& refs,
              filter::CuckooFilter* filter, filter::HintCache* pec = nullptr,
              filter::HintCache* lac = nullptr,
              const art::TreeConfig& config = art::TreeConfig());

  const char* name() const override { return "Sphinx"; }

  // Point read: the one-op case of the staged engine (run_staged). On a
  // LAC hit the leaf is read speculatively (one round trip, doorbell-fused
  // with a PEC-hinted fallback inner read when the entry is cold) and
  // validated in hand; misses and stale entries go on through the normal
  // SFC/PEC/INHT search. Every round has one read, so this costs exactly
  // what the serial walk does.
  bool search(Slice key, std::string* value_out) override;

  // Pipelined multi-op execution with cross-op doorbell fusion: the same
  // staged engine as search(), over every op of the batch. Each round
  // carries the next dependent read of every search still walking, so K
  // searches cost the round trips of the longest, not their sum; mutations
  // run serially after the rounds.
  void execute_batch(BatchOp* ops, size_t count) override;

  const SphinxStats& sphinx_stats() const { return sstats_; }
  InhtClient& inht() { return inht_; }
  filter::CuckooFilter* filter() { return filter_; }
  filter::HintCache* pec() { return pec_; }
  filter::HintCache* lac() { return lac_; }

 protected:
  bool find_start(const art::TerminatedKey& key, PathEntry* out) override;

  // Scan entry: same SFC -> PEC/INHT machinery, but capped at `max_depth`
  // so the entry node's subtree covers the whole scan window (Sec. IV
  // applied to range starts).
  bool find_scan_start(const art::TerminatedKey& key, uint32_t max_depth,
                       PathEntry* out) override;

  // Every inner node a scan frontier expands is a freshly verified
  // (prefix, node) binding: feed both CN cache tiers, so scans warm the
  // same state point descents rely on. Mirrors on_visit_inner plus the PEC
  // refresh from on_inner_switched.
  void on_scan_inner(rdma::GlobalAddr addr,
                     const art::InnerImage& image) override {
    if (filter_ != nullptr) {
      endpoint_.advance_local(rdma::kFilterProbeNs);
      filter_->insert(image.prefix_hash_full());
    }
    if (pec_ != nullptr) {
      endpoint_.advance_local(rdma::kHintProbeNs);
      pec_->insert(image.prefix_hash_full(),
                   pack_inht_payload(image.type(), addr));
    }
  }

  void on_visit_inner(const art::TerminatedKey& key,
                      const PathEntry& entry) override {
    (void)key;
    // Track every inner-node prefix we learn about (Sec. IV, Search:
    // "the client updates the succinct filter cache for any prefixes not
    // present in the cache").
    if (filter_ != nullptr && entry.image.depth() > 0) {
      endpoint_.advance_local(rdma::kFilterProbeNs);
      filter_->insert(entry.image.prefix_hash_full());
    }
  }

  void on_inner_created(Slice full_prefix, const art::InnerImage& image,
                        rdma::GlobalAddr addr) override {
    (void)full_prefix;
    // A failed insert (table full, or injected CAS losses exhausting the
    // retry budget) is tolerable: searches fall back to the parallel-read /
    // root path, and on_inner_switched re-inserts the entry later.
    if (!inht_.insert(image.prefix_hash_full(), image.type(), addr)) {
      sstats_.inht_insert_fails++;
    }
    if (filter_ != nullptr) filter_->insert(image.prefix_hash_full());
    if (pec_ != nullptr) {
      pec_->insert(image.prefix_hash_full(),
                   pack_inht_payload(image.type(), addr));
    }
  }

  void on_inner_switched(const art::InnerImage& old_image,
                         rdma::GlobalAddr old_addr,
                         const art::InnerImage& new_image,
                         rdma::GlobalAddr new_addr) override {
    const uint64_t hash = new_image.prefix_hash_full();
    if (!inht_.update(hash, old_image.type(), old_addr, new_image.type(),
                      new_addr)) {
      // The entry vanished (e.g. its insert lost a race earlier); make the
      // table eventually consistent by inserting the fresh payload.
      sstats_.inht_update_misses++;
      inht_.insert(hash, new_image.type(), new_addr);
    }
    // The filter is untouched: the node's full prefix -- the only thing the
    // filter tracks -- is unchanged by a type switch (Sec. III-B). The PEC
    // caches the *entry*, which did change: refresh it in place so this
    // CN's next search for the prefix goes straight to the new node.
    if (pec_ != nullptr) {
      pec_->insert(hash, pack_inht_payload(new_image.type(), new_addr));
    }
  }

  // A node observed stale with its image in hand: purge the PEC entry for
  // its prefix, but only if it still names this address (a concurrent
  // refresh with the successor node's address must survive).
  void invalidate_inner(rdma::GlobalAddr addr,
                        const art::InnerImage& image) override {
    if (pec_ != nullptr) {
      pec_->invalidate_if(image.prefix_hash_full(), addr.to48());
    }
  }

  // A freshly verified key -> leaf binding (point read, write-side leaf
  // install, scan emit): feed the leaf address cache. The full terminated
  // key hashes with the same prefix_hash the leaf's MN placement uses.
  void note_leaf_at(Slice terminated_key, rdma::GlobalAddr addr,
                    uint32_t units) override {
    if (lac_ == nullptr) return;
    endpoint_.advance_local(rdma::kHintProbeNs);
    lac_->insert(art::prefix_hash(terminated_key),
                 filter::pack_lac_payload(units, addr.to48()));
  }

  // The key's leaf was retired at the delete's linearization point: purge
  // the binding, but only if it still names this address (a concurrent
  // reinsert's refresh with the new leaf address must survive).
  void note_leaf_retired(Slice terminated_key,
                         rdma::GlobalAddr addr) override {
    if (lac_ == nullptr) return;
    endpoint_.advance_local(rdma::kHintProbeNs);
    lac_->invalidate_if(art::prefix_hash(terminated_key), addr.to48());
  }

 private:
  // One start search (Sec. IV): the SFC -> PEC/INHT walk over the key's
  // prefix lengths, longest first, then the parallel multi-prefix INHT
  // read. It is split into post and resolve steps: post_walk() runs the
  // walk's local work until it needs a read and posts that read into a
  // doorbell batch; resolve_walk() consumes the read once the batch has
  // executed. start_search() is the one-op driver; run_staged() drives
  // one walk per in-flight search through shared rounds. An insert's walk
  // also locks each node an entry names in the doorbell that reads it
  // (RemoteTree::post_walk_lock, DESIGN.md Sec. 16).
  struct StartWalk {
    enum class Step : uint8_t {
      kScan,           // probe SFC, then PEC, at `len` (local)
      kInhtSearch,     // post the INHT header + group read for `len`
      kCandidate,      // post the node read of payloads[candidate]
      kParallel,       // post every prefix's INHT group read
      kParallelNext,   // match the parallel read's group at `len` (local)
      kPecRead,        // in flight: hot PEC entry's node
      kFusedRead,      // in flight: cold PEC entry's node + INHT group
      kInhtRead,       // in flight: INHT header + group
      kCandidateRead,  // in flight: candidate node
      kParallelRead,   // in flight: every prefix's INHT group
      kFound,          // *out holds a verified start node
      kFailed,         // no verified start below the root
    };
    Step step = Step::kFailed;
    uint32_t max_len = 0;
    uint32_t len = 0;
    bool parallel = false;  // candidates come from the parallel read
    uint32_t inht_attempt = 0;
    uint64_t pec_payload = 0;
    size_t candidate = 0;
    std::vector<uint64_t> hashes;    // [l]: hash of the key's first l bytes
    std::vector<uint64_t> payloads;  // INHT candidates for `len`
    std::vector<std::array<uint64_t, race::kSlotsPerGroup>> groups;
    std::array<uint64_t, race::kSlotsPerGroup> fused_group;
    race::RaceClient::SearchRead inht_read;
    PathEntry* out = nullptr;  // where fetched start nodes land
  };
  void begin_walk(StartWalk& w, const art::TerminatedKey& key,
                  uint32_t max_len, PathEntry* out);
  // Returns false once the walk has ended (kFound or kFailed); otherwise
  // it posted one read into `batch` and set *phase to its phase.
  bool post_walk(StartWalk& w, rdma::DoorbellBatch* batch,
                 rdma::Phase* phase);
  // `batch` is the executed doorbell post_walk posted into.
  void resolve_walk(StartWalk& w, const rdma::DoorbellBatch& batch);
  // Posts the READ of the node an entry names (type `type` at `addr`) for
  // the prefix at w.len, after an insert's walk lock; returns the phase of
  // the doorbell: kLeafWrite when it carries the insert's leaf, else
  // `phase`.
  rdma::Phase post_entry_read(StartWalk& w, rdma::DoorbellBatch* batch,
                              art::NodeType type, rdma::GlobalAddr addr,
                              rdma::Phase phase);
  // validate_start() for that read, settling its walk lock.
  bool validate_entry_read(StartWalk& w, const rdma::DoorbellBatch& batch,
                           art::NodeType type, rdma::GlobalAddr addr);
  // The walk found nothing at `len`: go on with the next shorter prefix.
  void walk_missed(StartWalk& w);

  // Shared body of find_start/find_scan_start: longest verified prefix of
  // `key` no longer than `max_len`. Bumps the shared path counters
  // (filter/PEC/parallel) but not the outcome counters -- those belong to
  // the wrappers.
  bool start_search(const art::TerminatedKey& key, uint32_t max_len,
                    PathEntry* out);

  // The staged engine behind search() and execute_batch(). Each search op
  // runs attempt 0 of RemoteTree::search's retry loop as a chain of
  // dependent reads, and every round posts each in-flight op's next read
  // into ONE doorbell batch, so a batch costs its longest search's round
  // trips instead of their sum:
  //   1. probe the LAC for every search op locally; a cold hit also plans
  //      the PEC-hinted inner read of its fallback, a miss begins its
  //      start walk;
  //   2. the first round carries every hit's speculative leaf read, the
  //      planned inner reads and each miss's first read;
  //   3. each leaf is validated in hand (unit count, CRC, liveness,
  //      byte-exact key compare, lac_wrong_value audit); a stale binding
  //      is purged and its op goes on as a staged descent -- from the
  //      fused inner node when that validated, else from a start walk;
  //   4. later rounds carry the next read of every op still walking: a
  //      PEC-hinted node, an INHT group, an INHT candidate node, the root,
  //      a child node or a leaf;
  //   5. an attempt 0 that ends elsewhere than a found leaf or an absent
  //      verdict continues in search_attempts() from attempt 1, after
  //      the rounds and in batch order, with the RetryPolicy it was given
  //      before attempt 0; mutations run serially there too.
  // A round is charged to kLacFusedRead when it carries LAC-hit leaf
  // reads, else whole to the phase of the first op in batch order that
  // posted into it. Reports what the rounds did; execute_batch turns that
  // into the batch_* counters, which count only batches of two or more.
  struct StagedOutcome {
    bool fused_round = false;  // the round carrying LAC-hit reads was issued
    size_t fused_ops = 0;      // ops that round completed by their LAC hit
    size_t shared_rounds = 0;  // every other round
    size_t shared_ops = 0;     // searches the staged attempt 0 decided
  };
  StagedOutcome run_staged(BatchOp* ops, size_t count);

  // Per-op state for run_staged (reused across calls; grown once to the
  // pipeline depth, never shrunk, so steady state is allocation-free).
  struct BatchSlot {
    enum class Stage : uint8_t {
      kIdle,     // not a search
      kLacRead,  // rides the first round with a speculative leaf read
      kWalk,     // start walk (post_walk / resolve_walk)
      kRoot,     // in flight: the root image (the walk found no start)
      kStep,     // next descent level (local)
      kChild,    // in flight: a child node
      kLeaf,     // (re)read the leaf
      kDone,     // decided
      kSerial,   // continues in search_attempts() from next_attempt
    };
    Stage stage = Stage::kIdle;
    bool posted = false;  // posted into the current round
    std::optional<art::TerminatedKey> key;
    uint64_t full_hash = 0;
    uint32_t units = 0;
    rdma::GlobalAddr leaf_addr;
    bool hot = false;
    uint32_t fused_len = 0;
    uint64_t fused_hash = 0;
    uint64_t fused_payload = 0;
    std::optional<rdma::RetryPolicy> policy;
    bool allow_custom = true;
    uint32_t next_attempt = 1;
    uint32_t leaf_reads = 0;
    Descent descent;  // the LAC leaf and fused inner read land here too
    StartWalk walk;
  };
  // Creates the op's RetryPolicy (before attempt 0, as the serial loop
  // does) and charges attempt 0's backoff slot.
  void begin_attempt(BatchSlot& s);
  // Attempt 0's local steps until the op posts its next read into round_
  // (true, *phase set) or its descent ends.
  bool post_search_step(BatchSlot& s, BatchOp& op, rdma::Phase* phase,
                        StagedOutcome* outcome);
  void resolve_search_step(BatchSlot& s, BatchOp& op, StagedOutcome* outcome);
  // Stage 3 for one LAC hit whose leaf read landed.
  void resolve_lac(BatchSlot& s, BatchOp& op, StagedOutcome* outcome);
  // Applies the serial loop's verdict to attempt 0's descent.
  void finish_attempt(BatchSlot& s, BatchOp& op, StagedOutcome* outcome);

  // Validates the node freshly fetched into out->image against what the
  // hash entry (or PEC) claimed, completing *out on success. Shared by the
  // INHT candidate loop and the PEC speculative paths.
  bool validate_start(uint32_t len, uint64_t hash, art::NodeType type,
                      rdma::GlobalAddr addr, PathEntry* out);

  InhtClient inht_;
  filter::CuckooFilter* filter_;
  filter::HintCache* pec_;
  filter::HintCache* lac_;
  SphinxStats sstats_;
  StartWalk walk_;  // start_search()'s walk
  // The doorbell every staged step posts into, reused across rounds.
  rdma::DoorbellBatch round_;
  std::vector<BatchSlot> batch_slots_;
};

}  // namespace sphinx::core
