// RemoteTree: the adaptive-radix-tree engine over one-sided RDMA verbs that
// the ART baseline, SMART and Sphinx all share. Subclasses customize it
// through protected hooks:
//
//   * find_start()        -- Sphinx jumps to the deepest inner node via the
//                            succinct filter cache + inner node hash table
//                            instead of starting at the root;
//   * fetch_inner()       -- SMART interposes its CN-side node cache;
//   * on_inner_created()/on_inner_switched() -- Sphinx keeps the INHT and
//                            filter cache in sync with structural changes;
//   * on_visit_inner()    -- Sphinx learns prefixes for its filter cache.
//
// Concurrency protocol (paper Sec. III-C):
//   * reads are lock-free; leaf reads validate a CRC32C and retry on tears;
//   * all slot mutations in a node require holding that node's lock
//     (header CAS Idle -> Locked);
//   * node type switches build the replacement, install it in the parent
//     under the parent's lock, then mark the old node Invalid so clients
//     arriving through stale pointers retry;
//   * in-place leaf updates lock the leaf with one CAS, then publish value,
//     Idle status and fresh checksum with a single WRITE (the paper's
//     combined release+write);
//   * every node lock costs one doorbell: the lock CAS and the under-lock
//     re-read of the same node ride together, after any payload writes
//     of the op (one MN executes a doorbell's verbs in post order);
//   * remove posts the leaf's Idle -> Invalid CAS (its linearization
//     point), the parent lock CAS and the parent re-read in one doorbell;
//   * the lock release rides the slot install CAS;
//   * an insert whose start search reads a node a cached entry names
//     (Sphinx) locks it in that same doorbell, on the idle header the
//     entry predicts; a start node whose slot for the key is taken
//     releases the lock in the doorbell of the descent's next read, and a
//     full one keeps it for its type switch.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "art/node_image.h"
#include "common/kv_index.h"
#include "memnode/cluster.h"
#include "memnode/remote_allocator.h"
#include "rdma/endpoint.h"
#include "rdma/retry_policy.h"

namespace sphinx::art {

struct TreeConfig {
  // Read children of a node in one doorbell batch during scans (the paper's
  // Fig. 4E attributes the ART baseline's scan deficit to lacking this).
  bool batched_scan = true;
  // SMART mode: every inner node uses the Node-256 layout regardless of
  // fanout, eliminating type switches at a 2-3x MN memory cost (Fig. 6).
  bool homogeneous_nodes = false;
  // Spread root reads across the per-MN root replicas (TreeRef.root_replicas)
  // round-robin. Every op descends through the root, so without this the
  // primary root's MN NIC is the whole tree's front door and gates the
  // saturation knee (see DESIGN.md Sec. 15). Only an op's FIRST attempt may
  // enter via a replica; retries and the reverse check of any
  // replica-derived "absent" verdict go through the primary, and all
  // mutations CAS the primary regardless of entry point, so a lagging
  // replica can cost round trips but never correctness. SMART turns this
  // off: its NodeCache already fronts the (address-keyed) primary root, and
  // replica addresses would bypass that cache instead of filling it.
  bool replicate_root = true;
  // Enter scans through find_scan_start() (Sphinx: SFC/PEC/INHT jump to the
  // deepest inner node covering the range) instead of a root descent.
  // bench_ycsb's --no-scan-jump A/B flag lands here.
  bool scan_jump = true;
  // Reuse a validated cached image of the immutable kN256 root for scan
  // entries: the frontier is seeded from the cached copy and a fresh root
  // read rides the first frontier batch (re-seeding on mismatch), so a
  // root-entry scan costs no standalone root round trip. Baselines that
  // model systems without this (plain ART) or that already front the root
  // with their own cache (SMART) turn it off.
  bool cache_scan_root = true;
  uint32_t max_op_retries = 256;
  // Backoff pacing between op retries (the budget is max_op_retries).
  rdma::RetryPolicyConfig retry;
};

struct TreeStats {
  uint64_t op_retries = 0;
  uint64_t lock_fail_retries = 0;
  uint64_t type_switches = 0;
  uint64_t splits = 0;           // new inner node spliced in
  uint64_t torn_leaf_rereads = 0;
  uint64_t invalid_node_retries = 0;
  uint64_t start_fallbacks = 0;  // custom start abandoned for root descent
  uint64_t ops_failed = 0;       // retries exhausted (should stay 0)
  // Mutations abandoned because the MN heap was exhausted even after
  // reclamation (degraded mode, not a crash; see remote_allocator.h).
  uint64_t alloc_degraded_ops = 0;
  // Root-replica routing (TreeConfig::replicate_root): descents entered via
  // a replica vs the primary, root-slot words propagated to the replicas
  // under the root lock, and "absent" verdicts derived from a replica image
  // that were re-verified with a primary descent (the replica analogue of
  // SMART's reverse check -- nonzero only when a replica lagged).
  uint64_t root_replica_reads = 0;
  uint64_t root_primary_reads = 0;
  uint64_t root_replica_propagations = 0;
  uint64_t root_replica_rechecks = 0;
  rdma::RecoveryStats recovery;  // lease expiries / reclaims / timeouts
  rdma::BackoffHistogram backoff;
  rdma::ScanStats scan;          // frontier-scan engine counters
};

// Bootstrap info for one tree. The root is a Node-256 with empty prefix;
// it never type-switches and is never invalidated.
struct TreeRef {
  rdma::GlobalAddr root;
  // One root copy per MN (the primary's MN holds `root` itself). Readers
  // round-robin across these to keep the root from pinning one MN's NIC;
  // writers CAS only the primary and push winning slot words to the
  // replicas while holding the root lock. Empty on trees created before
  // replication (or with replicate_root off): everything falls back to
  // the primary.
  std::vector<rdma::GlobalAddr> root_replicas;
};

// Allocates and initializes an empty tree with a root replica on every MN.
TreeRef create_tree(mem::Cluster& cluster);

class RemoteTree : public KvIndex {
 public:
  RemoteTree(mem::Cluster& cluster, rdma::Endpoint& endpoint,
             mem::RemoteAllocator& allocator, const TreeRef& ref,
             const TreeConfig& config);

  bool search(Slice key, std::string* value_out) override;
  bool insert(Slice key, Slice value) override;
  bool update(Slice key, Slice value) override;
  bool remove(Slice key) override;
  size_t scan(Slice start_key, size_t count,
              std::vector<std::pair<std::string, std::string>>* out) override;
  size_t scan_range(
      Slice low_key, Slice high_key, size_t max_results,
      std::vector<std::pair<std::string, std::string>>* out) override;
  bool last_scan_truncated() const override { return last_scan_truncated_; }
  const char* name() const override { return "art"; }

  const TreeStats& tree_stats() const { return stats_; }
  rdma::Endpoint& endpoint() { return endpoint_; }
  // Batch completion stamps ride the owning endpoint's virtual clock.
  uint64_t client_clock_ns() const override { return endpoint_.clock_ns(); }

 protected:
  struct PathEntry {
    rdma::GlobalAddr addr;
    InnerImage image;
    uint32_t parent_depth = 0;  // depth of the node we came from
    int taken_slot = -1;        // slot index we descended through
    uint64_t taken_word = 0;    // that slot's word as we saw it
  };

  enum class DescendStatus {
    kFoundLeaf,         // leaf with exactly the target key
    kFoundInvalidLeaf,  // slot points at a deleted (Invalid) leaf
    kNoSlot,            // deepest node has no child for the branch byte
    kLeafMismatch,      // reached a leaf holding a different key
    kFragMismatch,      // definite prefix mismatch inside a fragment window
    kNeedRetry,         // transient anomaly (invalid node, torn leaf, ...)
    kTimedOut,          // per-op retry budget exhausted (RetryPolicy)
  };

  struct Descent {
    DescendStatus status = DescendStatus::kNeedRetry;
    bool from_custom_start = false;
    // Root image came from a replica, not the primary. An "absent" verdict
    // from such a descent must be confirmed by a primary descent before the
    // op may report a miss (the replica may lag the primary by one
    // propagation; see TreeConfig::replicate_root).
    bool used_replica_root = false;
    std::vector<PathEntry> path;  // start .. deepest inner node reached
    LeafImage leaf;               // for kFoundLeaf / kLeafMismatch /
                                  // kFoundInvalidLeaf
    rdma::GlobalAddr leaf_addr;
    uint32_t cpl = 0;             // common prefix len for kLeafMismatch
  };

  // ---- subclass hooks -------------------------------------------------------

  // Provides a verified descent start deeper than the root. Returns false
  // to start at the root. `out->image` must be a validated, fetched node
  // whose full prefix is a prefix of `key`.
  virtual bool find_start(const TerminatedKey& key, PathEntry* out) {
    (void)key;
    (void)out;
    return false;
  }

  // Scan-entry variant of find_start: a verified node whose full prefix is
  // a prefix of `key` AND whose depth is <= max_depth, so the node's
  // subtree covers the whole remaining scan window (for a range scan,
  // max_depth is the low/high common prefix; for a count scan it shrinks
  // by one on every widen-and-resume). Returns false to enter at the root.
  virtual bool find_scan_start(const TerminatedKey& key, uint32_t max_depth,
                               PathEntry* out) {
    (void)key;
    (void)max_depth;
    (void)out;
    return false;
  }

  // An inner node (depth > 0) the scan frontier expanded; a verified image
  // fetched from remote memory (Sphinx feeds its filter cache + prefix
  // entry cache so later scans of nearby ranges can jump).
  virtual void on_scan_inner(rdma::GlobalAddr addr, const InnerImage& image) {
    (void)addr;
    (void)image;
  }

  // Called for every inner node traversed during a descent.
  virtual void on_visit_inner(const TerminatedKey& key,
                              const PathEntry& entry) {
    (void)key;
    (void)entry;
  }

  // A new inner node (from a split) became reachable.
  virtual void on_inner_created(Slice full_prefix, const InnerImage& image,
                                rdma::GlobalAddr addr) {
    (void)full_prefix;
    (void)image;
    (void)addr;
  }

  // `old_addr` was replaced by `new_addr` (type switch); old node is now
  // Invalid. Both share the same full prefix / prefix hash.
  virtual void on_inner_switched(const InnerImage& old_image,
                                 rdma::GlobalAddr old_addr,
                                 const InnerImage& new_image,
                                 rdma::GlobalAddr new_addr) {
    (void)old_image;
    (void)old_addr;
    (void)new_image;
    (void)new_addr;
  }

  // A leaf whose exact location this client just verified: `terminated_key`
  // (with its NUL) lives in the `units`-unit block at `addr`. Fired on
  // every successful point read, every write-side leaf install (insert,
  // in-place and out-of-place update) and every scan leaf emit -- i.e.
  // whenever the binding was proven fresh against remote memory. Sphinx
  // feeds its leaf address cache so the next point read of the key can go
  // straight to the block.
  virtual void note_leaf_at(Slice terminated_key, rdma::GlobalAddr addr,
                            uint32_t units) {
    (void)terminated_key;
    (void)addr;
    (void)units;
  }

  // The leaf at `addr` holding `terminated_key` was retired (remove's
  // Idle -> Invalid CAS -- the delete's linearization point). Out-of-place
  // updates do not fire this: their note_leaf_at with the new address
  // replaces the binding in one step.
  virtual void note_leaf_retired(Slice terminated_key, rdma::GlobalAddr addr) {
    (void)terminated_key;
    (void)addr;
  }

  // Fetches an inner node of (claimed) type `type`. Default: one RDMA READ.
  virtual bool fetch_inner(rdma::GlobalAddr addr, NodeType type,
                           InnerImage* out);

  // A write this client performed on an inner node (cache fill hint).
  virtual void note_inner_write(rdma::GlobalAddr addr,
                                const InnerImage& image) {
    (void)addr;
    (void)image;
  }

  // A node observed to be stale/invalid (cache eviction hint).
  virtual void invalidate_inner(rdma::GlobalAddr addr) { (void)addr; }

  // Same, for call sites that still hold the stale node's image (Sphinx
  // purges its prefix entry cache by the image's prefix hash). Defaults to
  // the address-only hook so existing overrides keep working.
  virtual void invalidate_inner(rdma::GlobalAddr addr,
                                const InnerImage& image) {
    (void)image;
    invalidate_inner(addr);
  }

  // Caching-subclass coordination: descend() calls begin_descend() before
  // its first fetch; a subclass reports through descent_used_cache()
  // whether any node image came from a local cache, in which case a
  // conclusive "absent" verdict is re-checked remotely (SMART's reverse
  // check). set_cache_bypass(true) forces the next fetches to go remote.
  virtual void begin_descend() {}
  virtual bool descent_used_cache() const { return false; }
  virtual void set_cache_bypass(bool bypass) { (void)bypass; }

  // ---- shared machinery (used by subclasses too) ---------------------------

  // Reads + checksum-validates a leaf, retrying torn images.
  bool read_leaf(rdma::GlobalAddr addr, uint32_t units, LeafImage* out);

  // Returns a reference to per-instance scratch (descent_): each call
  // invalidates the previous result. Node images are multi-KiB, so reusing
  // the path vector across operations keeps the hot path allocation-free.
  // `allow_replica_root`: a root-entry descent may read a round-robin root
  // replica instead of the primary (ops pass it on their first attempt
  // only, so every retry path self-corrects through the primary). The
  // path entry's addr stays the primary either way -- mutations must CAS
  // the one authoritative root.
  Descent& descend(const TerminatedKey& key, bool allow_custom_start,
                   bool allow_replica_root = false);

  // ---- descent steps --------------------------------------------------------
  // descend() is the one-op driver of these steps. Sphinx's pipelined
  // search drives the same steps for many ops at once, posting each op's
  // next read into one shared doorbell round (core/sphinx_index.h), so one
  // copy of the walk exists.

  enum class DescendStep {
    kDone,        // d.status holds the descent's verdict
    kFetchInner,  // fetch the child at d.path.back() (type: child_type(d))
    kReadLeaf,    // read d.leaf (sized) from d.leaf_addr
  };
  // Resets `d` and adds its (still empty) start entry.
  void begin_descent(Descent& d);
  // Makes d.path.back() the root entry and returns the address to read its
  // Node-256 image from: the primary, or a replica when allowed.
  rdma::GlobalAddr enter_at_root(Descent& d, bool allow_replica_root);
  // The local work of one level at d.path.back(): node CPU charge, status
  // and fragment checks, slot lookup. Ends the descent or names its next
  // read.
  DescendStep descend_step(const TerminatedKey& key, Descent& d);
  static NodeType child_type(const Descent& d) {
    return slot_child_type(d.path[d.path.size() - 2].taken_word);
  }
  // After a kFetchInner image landed: false when the slot was stale (the
  // child is popped and d.status is kNeedRetry).
  bool child_landed(Descent& d);
  // After read number `reads` (from 1) of a kReadLeaf leaf landed: true
  // once d.status holds the verdict, false to read the leaf again (torn
  // image, rereads left).
  bool leaf_landed(const TerminatedKey& key, Descent& d, uint32_t reads);

  // ---- search retry loop ----------------------------------------------------
  // A found leaf's search result: copies the value out and feeds the
  // leaf address cache the binding the descent just proved.
  void take_found_leaf(const Descent& d, std::string* value_out);
  enum class MissVerdict { kAbsent, kRetry };
  // What attempt `r`'s descent means when it did not find the key's leaf
  // (any status but kFoundLeaf), shared by search, update and remove:
  // absent, or retry (counters bumped, *allow_custom cleared when the
  // shortcut must be abandoned).
  MissVerdict miss_verdict(const Descent& d, uint32_t r, bool* allow_custom);
  // search()'s retry loop from attempt `first` on. `policy` must have been
  // created before attempt 0 (its op token is the verb sequence then).
  bool search_attempts(const TerminatedKey& key, std::string* value_out,
                       rdma::RetryPolicy& policy, uint32_t first,
                       bool allow_custom);

  // ---- insert walk locks (DESIGN.md Sec. 16) --------------------------------
  // While insert() descends, a subclass start search may lock the node a
  // cached entry names in the doorbell that reads it. post_walk_lock()
  // appends the insert's leaf WRITE (the op's first post only) and the
  // Idle -> Locked CAS on `predicted`, the idle header the entry implies;
  // the caller posts the node's READ after them. It posts nothing and
  // returns false outside insert(), while a walk lock is posted or held, or
  // when the leaf cannot be allocated. *wrote_leaf tells whether the batch
  // now carries the leaf write.
  bool post_walk_lock(rdma::DoorbellBatch* batch, rdma::GlobalAddr addr,
                      uint64_t predicted, bool* wrote_leaf);
  enum class WalkLock : uint8_t {
    kNone,       // no walk lock was posted, or its CAS lost
    kTakesLeaf,  // held; the node has a free slot for the key
    kGrows,      // held; the node is full: the insert retries from the
                 // root, and its type switch takes the lock
    kReleases,   // held; the key's slot is taken (a leaf or an inner
                 // child): the release rides the descent's next read
    kRejected,   // won on an image that failed validation; released at once
  };
  // Settles a posted walk lock once its batch executed and the READ into
  // `start` was validated (`valid`). A held lock's image gets the idle
  // header back: the node as it stands once the lock is released.
  WalkLock settle_walk_lock(const rdma::DoorbellBatch& batch, bool valid,
                            PathEntry* start);

  // Memory node placement (consistent hashing, Sec. III).
  uint32_t mn_for_prefix(uint64_t hash) const {
    return cluster_.ring().mn_for(hash);
  }

  mem::Cluster& cluster_;
  rdma::Endpoint& endpoint_;
  mem::RemoteAllocator& allocator_;
  TreeRef ref_;
  TreeConfig config_;
  TreeStats stats_;

 private:
  // Per-operation scratch returned by descend(); see the declaration.
  Descent descent_;
  // Round-robin cursor over TreeRef::root_replicas for replica-routed
  // root reads (per client, so a fleet of clients spreads uniformly).
  uint32_t root_read_seq_ = 0;
  // Scratch for insert()'s mismatched-leaf key (avoids a per-retry copy).
  std::string existing_key_scratch_;
  // Single-slot lease-expiry watch (see rdma/retry_policy.h).
  rdma::LockWatch lock_watch_;

  // Creates + remotely writes a leaf; returns its address and slot word.
  // ok=false when the MN heap is exhausted (nothing was written or leased);
  // the op must abandon via fail_degraded() instead of spinning.
  struct NewLeaf {
    rdma::GlobalAddr addr;
    uint32_t units = 0;
    bool ok = false;
    LeafImage image;  // keeps the write buffer alive until batch execute
  };
  NewLeaf make_leaf(const TerminatedKey& key, Slice value,
                    rdma::DoorbellBatch* batch);

  // Records one mutation abandoned for lack of remote memory and returns
  // false (the op's result). Set by the alloc sites via alloc_failed_.
  bool fail_degraded() {
    alloc_failed_ = false;
    stats_.alloc_degraded_ops++;
    cluster_.alloc_stats().note_degraded_op();
    return false;
  }
  // Latched by insert/split/switch/update helpers when try_alloc fails, so
  // the op's retry loop exits instead of burning its budget on a condition
  // that reclamation already failed to clear.
  bool alloc_failed_ = false;

  NodeType new_inner_type() const {
    return config_.homogeneous_nodes ? NodeType::kN256 : NodeType::kN4;
  }
  uint32_t inner_alloc_bytes(NodeType t) const {
    return config_.homogeneous_nodes ? inner_node_bytes(NodeType::kN256)
                                     : inner_node_bytes(t);
  }

  // One node lock acquisition (DESIGN.md Sec. 16). post_lock() appends the
  // Idle -> Locked CAS and a READ of the same node to the caller's batch;
  // one MN executes a doorbell's verbs in post order, so once the CAS has
  // won, `image` is the node as of the lock -- the image every slot check
  // under the lock uses. A lost CAS discards the image.
  struct NodeLock {
    rdma::GlobalAddr addr;
    uint64_t idle = 0;    // the Idle header locked from (release target)
    uint64_t locked = 0;  // lease-stamped word the release CAS expects
    size_t cas_idx = 0;
    InnerImage image;     // under-lock image, valid once the CAS won
  };
  // `seen` must be an Idle header.
  void post_lock(rdma::DoorbellBatch* batch, rdma::GlobalAddr addr,
                 uint64_t seen, NodeLock* lock);
  // After the batch executed: whether the lock CAS won. A loss counts a
  // lock-fail retry, feeds a busy header to the lease watch (reclaiming
  // the lock if its lease has expired) and evicts any cached image.
  bool lock_won(const TerminatedKey& key, const rdma::DoorbellBatch& batch,
                const NodeLock& lock);
  // post_lock() in a doorbell of its own. A non-Idle `seen` feeds the
  // lease watch and fails without posting.
  bool lock_node(const TerminatedKey& key, rdma::GlobalAddr addr,
                 uint64_t seen, NodeLock* lock);

  void unlock_node(const NodeLock& lock);

  // Installs `desired` into slot `slot_index` of the locked node (CAS
  // expecting `expected`) and releases the lock. For every node but the
  // root the two CASes ride one doorbell batch. For the root (with
  // replicas), the slot CAS goes first and -- only if it won -- the new
  // word is written to every root replica in a second batch that also
  // carries the lock release, so replicas can never lag a root whose lock
  // has been released by a live client (+1 RTT on rare root-slot
  // mutations). When the slot CAS won, lock->image is patched to the
  // installed state (new slot word, Idle header) and reported through
  // note_inner_write. Returns the slot CAS outcome.
  bool install_slot_locked(NodeLock* lock, uint32_t slot_index,
                           uint64_t expected, uint64_t desired,
                           rdma::FaultSite site);

  // The insert in progress: its leaf, allocated and written at most once
  // per op, and the start node lock its walk took (post_walk_lock).
  struct InsertOp {
    const TerminatedKey* key = nullptr;  // set while insert() runs
    Slice value;
    NewLeaf leaf;      // leaf.ok once allocated and its WRITE posted
    NodeLock walk;     // header words and CAS index only (image unused)
    bool walk_posted = false;
    WalkLock walk_held = WalkLock::kNone;  // kNone, or how the lock is used
  };
  InsertOp insert_op_;
  // Posts the insert's leaf WRITE into `batch` unless an earlier batch of
  // the op carried it. False (alloc_failed_ latched) when the MN heap is
  // exhausted.
  bool post_leaf(rdma::DoorbellBatch* batch);
  // Hands a walk lock held on `node` to the caller, with the node's
  // under-lock image.
  bool take_walk_lock(const PathEntry& node, NodeLock* lock);
  // While a kReleases walk lock is held, reads `len` bytes at `addr` in a
  // doorbell that also releases the lock, and returns true; otherwise
  // reads nothing.
  bool read_releasing_walk_lock(rdma::GlobalAddr addr, void* dst,
                                size_t len);
  // insert()'s retry loop.
  bool insert_attempts(const TerminatedKey& key);

  // ---- crash-tolerant locking (lease reclamation) --------------------------

  uint8_t lease_owner() const {
    return static_cast<uint8_t>(endpoint_.fault_client_id() & 0xff);
  }
  // The lease-stamped locked word for an Idle header we observed.
  uint64_t lease_inner_locked(uint64_t seen_header) {
    return pack_inner_lease(seen_header, NodeStatus::kLocked, lease_owner(),
                            lease_stamp(endpoint_.clock_ns()));
  }
  uint64_t lease_leaf_locked(uint64_t seen_header) {
    return pack_leaf_lease(seen_header, NodeStatus::kLocked, lease_owner(),
                           lease_stamp(endpoint_.clock_ns()));
  }

  // Feed one busy (Locked/Reclaiming) observation of an inner/leaf header
  // into the lease watch; reclaims the lock when the lease has expired.
  // Returns true when the word changed under us (reclaimed or released) and
  // an immediate retry is worthwhile.
  bool note_busy_inner(const TerminatedKey& key, rdma::GlobalAddr addr,
                       uint64_t header);
  bool note_busy_leaf(const TerminatedKey& key, rdma::GlobalAddr addr,
                      uint64_t header);

  // Takes over an expired lock (CAS expects the exact watched word), then
  // restores the node: reachable nodes go back to Idle (leaf images are
  // validated and rolled forward from the trailer when the crashed holder
  // left a half-published in-place update); nodes that a crashed
  // type-switch / out-of-place update already cut from the tree are
  // restored to Invalid so stale pointers retry instead of resurrecting
  // them. Returns true when this client performed the reclamation.
  bool reclaim_inner(const TerminatedKey& key, rdma::GlobalAddr addr,
                     uint64_t expired_word);
  bool reclaim_leaf(const TerminatedKey& key, rdma::GlobalAddr addr,
                    uint64_t expired_word);

  // Walks root -> leaf along `key` (uncached reads) checking whether
  // `target` is still referenced by the tree. Returns 1 = attached,
  // 0 = detached, -1 = undetermined (transient anomaly on the walk).
  int probe_attached(const TerminatedKey& key, rdma::GlobalAddr target);

  // Insert sub-cases; each returns true when the insert completed, false
  // to retry the whole operation. Each links the op's leaf (post_leaf).
  bool insert_into_free_slot(const TerminatedKey& key, Descent& d);
  bool insert_split(const TerminatedKey& key, Descent& d, Slice existing_key);
  bool insert_replace_invalid_leaf(const TerminatedKey& key, Descent& d);
  // Replaces the full node at path.back() with the next larger type.
  // Pre: caller holds no locks but a walk lock on that node. Returns true
  // if the switch happened.
  bool type_switch(const TerminatedKey& key, Descent& d);

  // Reads some leaf key below `addr` to recover an exact prefix.
  bool recover_leaf_key(rdma::GlobalAddr addr, NodeType type,
                        std::string* key_out);

  // ---- frontier-batched scan engine ----------------------------------------
  //
  // Scans walk a key-ordered frontier of pending children instead of
  // recursing one subtree at a time: every round fetches the leading
  // unvisited children *across subtrees* in one doorbell batch (capped at
  // kScanFanout), replaces each fetched inner node that validates by its
  // children in place as soon as the batch lands (so the next batch reads
  // the leaves of every such subtree), and emits leaves in order from the
  // front. Stale pointers are re-resolved through the parent's slot word
  // under the per-op RetryPolicy; exhausted budgets surface as counted
  // skips/drops plus last_scan_truncated(), never as silent omissions.

  // One pending child in the frontier. Carries enough of the parent to
  // re-resolve the slot when the fetched image turns out stale.
  struct ScanItem {
    uint64_t word = 0;  // parent slot word naming this child
    rdma::GlobalAddr parent_addr;
    uint32_t parent_slot = 0;   // slot index inside the parent
    uint32_t parent_depth = 0;  // depth of the parent node
    bool lo_bounded = false;    // every ancestor byte matched the low bound
    bool hi_bounded = false;    // every ancestor byte matched the high bound
    bool fetched = false;
    uint32_t buf = 0;        // image pool slot once fetched
    uint32_t retries = 0;    // per-item stale re-resolutions
    uint32_t prefix_id = 0;  // parent's verified prefix (scan_prefixes_)
  };

  // Drives one full scan: count-scan when `high` is null (with
  // widen-and-resume past the entry subtree, before reading the entry's
  // leaves when they are all it lists and too few), Scan(K1, K2) otherwise.
  // Resume/restart rounds re-enter with the last emitted key as an
  // exclusive lower bound.
  void run_scan(const TerminatedKey& low, const TerminatedKey* high,
                size_t count,
                std::vector<std::pair<std::string, std::string>>* out);

  // Appends `node`'s in-window children to the frontier at `at` (in key
  // order) and reports the node to on_scan_inner. `prefix_id` names the
  // verified prefix of `node` itself; the children inherit it as their
  // parent linkage check.
  void expand_into_frontier(rdma::GlobalAddr addr, const InnerImage& node,
                            const TerminatedKey& bound,
                            const TerminatedKey* high, bool lo_bounded,
                            bool hi_bounded, size_t at, uint32_t prefix_id);

  // ---- frontier linkage verification ---------------------------------------
  // Freed nodes return to client-local freelists and are recycled, so an
  // address snapshotted into the frontier can be reused for an unrelated,
  // internally-valid node before the scan fetches it (ABA). Point ops are
  // immune because they re-compare the leaf key against the search key;
  // scans instead verify every fetched node against the bytes its frontier
  // position implies: the chain of branch bytes from the (validated) entry
  // prefix, extended by each node's stored prefix fragment, with the full
  // 64-bit prefix hash checked whenever the composed prefix has no
  // compression gap. A mismatch is re-resolved through the live parent
  // slot like any stale pointer.

  // Records a fully-known prefix (scan entry), returning its id.
  uint32_t register_scan_prefix(Slice prefix);
  // Checks a fetched inner `node` against the position `item` names
  // (status, type, deeper than the parent) and extends `item`'s parent
  // prefix with its branch byte and `node`'s fragment; returns the new
  // prefix id, or -1 for a stale node or a definite mismatch (recycled or
  // foreign node).
  int compose_scan_child_prefix(const ScanItem& item, const InnerImage& node);
  // Whether a fetched leaf's (terminated) key matches every known byte of
  // the position `item` represents.
  bool scan_leaf_linked(const ScanItem& item, Slice terminated_key) const;

  // Outcome of re-resolving a stale/torn frontier item via its parent.
  enum class ScanRecover {
    kRefetch,  // item updated (or backoff charged); fetch it again
    kGone,     // slot cleared or leaf deleted: skip silently, no data loss
    kRestart,  // path above the item is stale: rebuild the whole frontier
    kDrop,     // retry budget exhausted: count the loss and truncate
  };
  ScanRecover recover_scan_item(ScanItem& item, bool leaf_deleted,
                                rdma::RetryPolicy& policy, uint32_t* attempt);

  // Frontier scratch, reused across scans (images are multi-KiB).
  std::vector<ScanItem> frontier_;
  std::vector<InnerImage> scan_inner_pool_;
  std::vector<LeafImage> scan_leaf_pool_;
  std::vector<uint32_t> free_inner_bufs_;
  std::vector<uint32_t> free_leaf_bufs_;
  std::vector<std::pair<uint64_t, uint32_t>> slot_scratch_;  // (word, index)
  std::vector<size_t> batch_picks_;  // frontier indices read by this batch
  // Verified prefixes for the current round, indexed by ScanItem.prefix_id.
  // The mask marks which bytes are known ('\1'): a path-compression gap
  // longer than the stored fragment leaves unknown bytes, checked
  // optimistically at the leaf exactly like point descents.
  std::vector<std::string> scan_prefixes_;
  std::vector<std::string> scan_prefix_masks_;
  // Keys an unvisited inner child is expected to contribute, learned from
  // leaf-level expansions of the current scan. Starts at the full remaining
  // count (= fetch one inner at a time, zero speculation) and drops to the
  // observed leaf fan-out, letting later batches span sibling subtrees
  // without overfetching nodes the count will never reach.
  double scan_keys_per_inner_ = 1;
  PathEntry scan_entry_;
  // Validated root image reused across scans (config_.cache_scan_root).
  InnerImage scan_root_cache_;
  InnerImage scan_root_fresh_;
  bool scan_root_valid_ = false;
  bool last_scan_truncated_ = false;
};

}  // namespace sphinx::art
