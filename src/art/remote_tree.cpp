#include "art/remote_tree.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <thread>

namespace sphinx::art {

namespace {

// Reads a client spends on a leaf image that keeps coming back torn
// (caught mid-write) before it stops rereading and falls back.
constexpr uint32_t kMaxLeafReread = 8;

// Rewrites the branch byte of a slot word, keeping valid/leaf/meta/addr.
uint64_t slot_with_pkey(uint64_t slot_word, uint8_t pkey) {
  return (slot_word & ~(0xffULL << 48)) | (static_cast<uint64_t>(pkey) << 48);
}

bool header_busy(uint64_t header) {
  const NodeStatus s = header_status(header);
  return s == NodeStatus::kLocked || s == NodeStatus::kReclaiming;
}

}  // namespace

TreeRef create_tree(mem::Cluster& cluster) {
  rdma::Endpoint loader = cluster.make_loader_endpoint();
  mem::RemoteAllocator allocator(cluster, loader);
  InnerImage root = InnerImage::create(NodeType::kN256, Slice());
  const uint32_t mn = cluster.ring().mn_for(prefix_hash(Slice()));
  rdma::GlobalAddr addr = allocator.alloc(mn, root.size_bytes(),
                                          mem::AllocTag::kInnerNode);
  loader.write(addr, root.raw(), root.size_bytes());

  // One root copy per MN (2 KiB each) so replica-routed readers can enter
  // the tree through any NIC; the primary's MN slot holds the primary
  // itself. All copies start byte-identical (the empty root), so they are
  // consistent before the first propagation.
  TreeRef ref{addr, {}};
  ref.root_replicas.reserve(cluster.config().num_mns);
  for (uint32_t m = 0; m < cluster.config().num_mns; ++m) {
    if (m == mn) {
      ref.root_replicas.push_back(addr);
      continue;
    }
    rdma::GlobalAddr rep = allocator.alloc(m, root.size_bytes(),
                                           mem::AllocTag::kInnerNode);
    loader.write(rep, root.raw(), root.size_bytes());
    ref.root_replicas.push_back(rep);
  }
  return ref;
}

RemoteTree::RemoteTree(mem::Cluster& cluster, rdma::Endpoint& endpoint,
                       mem::RemoteAllocator& allocator, const TreeRef& ref,
                       const TreeConfig& config)
    : cluster_(cluster),
      endpoint_(endpoint),
      allocator_(allocator),
      ref_(ref),
      config_(config) {
  // One knob for the per-op budget: the RetryPolicy enforces it.
  config_.retry.max_attempts = config_.max_op_retries;
}

bool RemoteTree::fetch_inner(rdma::GlobalAddr addr, NodeType type,
                             InnerImage* out) {
  endpoint_.read(addr, out->raw(), inner_node_bytes(type));
  return true;
}

bool RemoteTree::read_leaf(rdma::GlobalAddr addr, uint32_t units,
                           LeafImage* out) {
  out->resize(units);
  for (uint32_t attempt = 0; attempt < kMaxLeafReread; ++attempt) {
    endpoint_.read(addr, out->buf().data(), units * kLeafUnitBytes);
    if (out->units() == units &&
        out->revalidate() != LeafImage::Revalidate::kBad) {
      return true;
    }
    stats_.torn_leaf_rereads++;
  }
  return false;
}

RemoteTree::Descent& RemoteTree::descend(const TerminatedKey& key,
                                         bool allow_custom_start,
                                         bool allow_replica_root) {
  // Reuse the member scratch: path entries carry multi-KiB node images, so
  // building them in place (and keeping the vector's capacity across
  // operations) keeps the per-op hot path allocation- and memcpy-free.
  Descent& d = descent_;
  begin_descent(d);
  // Only a walk lock on a full start node outlives its descent, and that
  // insert retries from the root.
  assert(insert_op_.walk_held == WalkLock::kNone || !allow_custom_start);
  // A start node whose slot for the key is taken releases its walk lock in
  // the doorbell of the descent's next read, the child's or the leaf's.
  if (allow_custom_start && find_start(key, &d.path.back())) {
    d.from_custom_start = true;
  } else {
    const rdma::GlobalAddr fetch_addr = enter_at_root(d, allow_replica_root);
    rdma::PhaseScope root_scope(endpoint_, rdma::Phase::kInnerRead);
    if (!fetch_inner(fetch_addr, NodeType::kN256, &d.path.back().image)) {
      d.path.pop_back();
      d.status = DescendStatus::kNeedRetry;
      return d;
    }
  }

  // Everything below is the inner-node walk; the leaf read re-tags itself.
  rdma::PhaseScope descend_scope(endpoint_, rdma::Phase::kInnerRead);
  for (;;) {
    switch (descend_step(key, d)) {
      case DescendStep::kDone:
        return d;
      case DescendStep::kFetchInner: {
        PathEntry& child = d.path.back();
        const NodeType type = child_type(d);
        if (!read_releasing_walk_lock(child.addr, child.image.raw(),
                                      inner_node_bytes(type)) &&
            !fetch_inner(child.addr, type, &child.image)) {
          d.path.pop_back();
          d.status = DescendStatus::kNeedRetry;
          return d;
        }
        if (!child_landed(d)) return d;
        break;
      }
      case DescendStep::kReadLeaf: {
        rdma::PhaseScope leaf_scope(endpoint_, rdma::Phase::kLeafRead);
        for (uint32_t reads = 1;; ++reads) {
          if (!read_releasing_walk_lock(d.leaf_addr, d.leaf.buf().data(),
                                        d.leaf.buf().size())) {
            endpoint_.read(d.leaf_addr, d.leaf.buf().data(),
                           d.leaf.buf().size());
          }
          if (leaf_landed(key, d, reads)) return d;
        }
      }
    }
  }
}

void RemoteTree::begin_descent(Descent& d) {
  d.status = DescendStatus::kNeedRetry;
  d.from_custom_start = false;
  d.used_replica_root = false;
  d.path.clear();
  d.leaf_addr = rdma::GlobalAddr();
  d.cpl = 0;
  begin_descend();
  d.path.emplace_back();
}

rdma::GlobalAddr RemoteTree::enter_at_root(Descent& d,
                                           bool allow_replica_root) {
  PathEntry& start = d.path.back();
  // The path records the PRIMARY root address even when the image below
  // is read from a replica: every mutation must CAS the one authoritative
  // root, and a replica that lagged then simply fails the expected-value
  // CAS and retries through the primary.
  start.addr = ref_.root;
  start.parent_depth = 0;
  start.taken_slot = -1;
  start.taken_word = 0;
  rdma::GlobalAddr fetch_addr = ref_.root;
  if (allow_replica_root && config_.replicate_root &&
      !ref_.root_replicas.empty()) {
    fetch_addr =
        ref_.root_replicas[root_read_seq_++ % ref_.root_replicas.size()];
  }
  d.used_replica_root = fetch_addr != ref_.root;
  if (d.used_replica_root) {
    stats_.root_replica_reads++;
  } else {
    stats_.root_primary_reads++;
  }
  return fetch_addr;
}

RemoteTree::DescendStep RemoteTree::descend_step(const TerminatedKey& key,
                                                 Descent& d) {
  if (d.path.size() > kMaxKeyLen) {
    d.status = DescendStatus::kNeedRetry;
    return DescendStep::kDone;
  }
  PathEntry& cur = d.path.back();
  endpoint_.advance_local(rdma::node_parse_ns(cur.image.size_bytes()));

  if (cur.image.status() == NodeStatus::kInvalid) {
    stats_.invalid_node_retries++;
    invalidate_inner(cur.addr, cur.image);
    d.path.pop_back();
    d.status = DescendStatus::kNeedRetry;
    return DescendStep::kDone;
  }
  const uint32_t depth = cur.image.depth();
  if (depth >= key.size() || !cur.image.frag_consistent(key,
                                                        cur.parent_depth)) {
    cur.taken_slot = -1;
    d.status = DescendStatus::kFragMismatch;
    return DescendStep::kDone;
  }
  on_visit_inner(key, cur);

  const uint8_t branch = key.byte(depth);
  const int idx = cur.image.find_pkey(branch);
  if (idx < 0) {
    cur.taken_slot = -1;
    d.status = DescendStatus::kNoSlot;
    return DescendStep::kDone;
  }
  const uint64_t slot_word = cur.image.slot(static_cast<uint32_t>(idx));
  cur.taken_slot = idx;
  cur.taken_word = slot_word;

  if (slot_is_leaf(slot_word)) {
    d.leaf_addr = slot_addr(slot_word);
    d.leaf.resize(slot_leaf_units(slot_word));
    return DescendStep::kReadLeaf;
  }
  d.path.emplace_back();
  PathEntry& child = d.path.back();
  child.addr = slot_addr(slot_word);
  child.parent_depth = depth;
  child.taken_slot = -1;
  child.taken_word = 0;
  return DescendStep::kFetchInner;
}

bool RemoteTree::child_landed(Descent& d) {
  const PathEntry& child = d.path.back();
  if (child.image.type() == child_type(d) &&
      child.image.depth() > child.parent_depth) {
    return true;
  }
  // Stale slot (node switched or memory inconsistent): retry.
  invalidate_inner(child.addr, child.image);
  const PathEntry& parent = d.path[d.path.size() - 2];
  invalidate_inner(parent.addr, parent.image);
  d.path.pop_back();
  d.status = DescendStatus::kNeedRetry;
  return false;
}

bool RemoteTree::leaf_landed(const TerminatedKey& key, Descent& d,
                             uint32_t reads) {
  const uint32_t units = slot_leaf_units(d.path.back().taken_word);
  if (d.leaf.units() != units ||
      d.leaf.revalidate() == LeafImage::Revalidate::kBad) {
    stats_.torn_leaf_rereads++;
    if (reads < kMaxLeafReread) return false;
    invalidate_inner(d.path.back().addr, d.path.back().image);
    d.status = DescendStatus::kNeedRetry;
    return true;
  }
  if (d.leaf.status() == NodeStatus::kInvalid) {
    d.status = DescendStatus::kFoundInvalidLeaf;
  } else if (d.leaf.key() == key.full()) {
    d.status = DescendStatus::kFoundLeaf;
  } else {
    d.cpl =
        static_cast<uint32_t>(d.leaf.key().common_prefix_len(key.full()));
    d.status = DescendStatus::kLeafMismatch;
  }
  return true;
}

// ---- search -----------------------------------------------------------------

bool RemoteTree::search(Slice key, std::string* value_out) {
  mem::EpochPin epoch(allocator_);
  const TerminatedKey tkey(key);
  rdma::RetryPolicy policy(endpoint_, config_.retry, &stats_.backoff);
  return search_attempts(tkey, value_out, policy, 0, /*allow_custom=*/true);
}

bool RemoteTree::search_attempts(const TerminatedKey& key,
                                 std::string* value_out,
                                 rdma::RetryPolicy& policy, uint32_t first,
                                 bool allow_custom) {
  for (uint32_t r = first;; ++r) {
    if (!policy.backoff(r)) break;
    Descent& d = descend(key, allow_custom && r < 8, r == 0);
    if (d.status == DescendStatus::kFoundLeaf) {
      take_found_leaf(d, value_out);
      return true;
    }
    if (miss_verdict(d, r, &allow_custom) == MissVerdict::kAbsent) {
      return false;
    }
  }
  stats_.recovery.retry_timeouts++;
  stats_.ops_failed++;
  return false;
}

void RemoteTree::take_found_leaf(const Descent& d, std::string* value_out) {
  if (value_out != nullptr) {
    value_out->assign(d.leaf.value().data(), d.leaf.value().size());
  }
  // The descent just proved key -> (leaf_addr, units) fresh against remote
  // memory: feed the leaf address cache.
  note_leaf_at(d.leaf.key(), d.leaf_addr, d.leaf.units());
}

RemoteTree::MissVerdict RemoteTree::miss_verdict(const Descent& d, uint32_t r,
                                                 bool* allow_custom) {
  assert(d.status != DescendStatus::kFoundLeaf);
  if (d.status == DescendStatus::kNeedRetry ||
      d.status == DescendStatus::kTimedOut) {
    stats_.op_retries++;
    if (r >= 4) *allow_custom = false;
    return MissVerdict::kRetry;
  }
  if (d.from_custom_start) {
    // A false positive or stale shortcut could have landed us in the
    // wrong subtree; re-verify from the root (paper Sec. III-B).
    stats_.start_fallbacks++;
    *allow_custom = false;
    return MissVerdict::kRetry;
  }
  if (descent_used_cache() || d.used_replica_root) {
    // SMART reverse check: an absent verdict derived from cached nodes
    // must be confirmed against remote memory. The same discipline covers
    // a root-replica entry (the replica may lag the primary by one
    // propagation): the retry descends through the primary, since only
    // first attempts route to replicas.
    if (descent_used_cache()) {
      for (const PathEntry& e : d.path) invalidate_inner(e.addr);
      set_cache_bypass(true);
    }
    if (d.used_replica_root) stats_.root_replica_rechecks++;
    stats_.op_retries++;
    return MissVerdict::kRetry;
  }
  return MissVerdict::kAbsent;
}

// ---- insert -----------------------------------------------------------------

RemoteTree::NewLeaf RemoteTree::make_leaf(const TerminatedKey& key,
                                          Slice value,
                                          rdma::DoorbellBatch* batch) {
  NewLeaf leaf;
  leaf.units = leaf_units_for(key.size(), static_cast<uint32_t>(value.size()));
  const uint32_t mn = mn_for_prefix(prefix_hash(key.full()));
  const mem::AllocResult r = allocator_.try_alloc(
      mn, leaf.units * kLeafUnitBytes, mem::AllocTag::kLeaf);
  if (!r.ok) return leaf;  // ok=false: heap exhausted, nothing written
  leaf.addr = r.addr;
  leaf.ok = true;
  leaf.image = LeafImage::build(key.full(), value, leaf.units);
  batch->add_write(leaf.addr, leaf.image.buf().data(),
                   leaf.units * kLeafUnitBytes,
                   rdma::FaultSite::kPayloadWrite);
  return leaf;
}

bool RemoteTree::insert(Slice key, Slice value) {
  mem::EpochPin epoch(allocator_);
  const TerminatedKey tkey(key);
  assert(leaf_units_for(tkey.size(), static_cast<uint32_t>(value.size())) <
         64);
  alloc_failed_ = false;
  InsertOp& op = insert_op_;
  op.key = &tkey;
  op.value = value;
  op.leaf.ok = false;
  const bool linked = insert_attempts(tkey);
  if (op.walk_held != WalkLock::kNone) {
    // A full start node whose type switch never ran: the retry budget ran
    // out, or the op was abandoned for lack of memory.
    op.walk_held = WalkLock::kNone;
    unlock_node(op.walk);
  }
  if (op.leaf.ok && !linked) {
    allocator_.free(op.leaf.addr, op.leaf.units * kLeafUnitBytes,
                    mem::AllocTag::kLeaf);
  }
  op.key = nullptr;
  return linked;
}

bool RemoteTree::insert_attempts(const TerminatedKey& tkey) {
  bool allow_custom = true;
  rdma::RetryPolicy policy(endpoint_, config_.retry, &stats_.backoff);
  for (uint32_t r = 0;; ++r) {
    if (!policy.backoff(r)) break;
    Descent& d = descend(tkey, allow_custom && r < 8, r == 0);
    switch (d.status) {
      case DescendStatus::kFoundLeaf:
        return false;  // key exists; no modification
      case DescendStatus::kFoundInvalidLeaf:
        if (insert_replace_invalid_leaf(tkey, d)) return true;
        stats_.op_retries++;
        break;
      case DescendStatus::kNoSlot: {
        PathEntry& node = d.path.back();
        if (node.image.find_free(tkey.byte(node.image.depth())) < 0) {
          if (!type_switch(tkey, d) && d.from_custom_start) {
            // A switch needs the parent, which a shortcut descent does not
            // carry; redo the traversal from the root (a walk lock on this
            // node stays held for the switch).
            stats_.start_fallbacks++;
            allow_custom = false;
          }
          stats_.op_retries++;
          break;
        }
        if (insert_into_free_slot(tkey, d)) return true;
        stats_.op_retries++;
        break;
      }
      case DescendStatus::kLeafMismatch: {
        existing_key_scratch_.assign(d.leaf.key().data(), d.leaf.key().size());
        if (insert_split(tkey, d, Slice(existing_key_scratch_))) {
          return true;
        }
        if (d.from_custom_start &&
            d.path.front().image.depth() > d.cpl) {
          stats_.start_fallbacks++;
          allow_custom = false;
        }
        stats_.op_retries++;
        break;
      }
      case DescendStatus::kFragMismatch: {
        const PathEntry& mismatch_node = d.path.back();
        std::string recovered;
        if (!recover_leaf_key(mismatch_node.addr, mismatch_node.image.type(),
                              &recovered)) {
          stats_.op_retries++;
          break;
        }
        d.cpl = static_cast<uint32_t>(
            Slice(recovered).common_prefix_len(tkey.full()));
        if (Slice(recovered) == tkey.full()) {
          // The key actually exists (the mismatch was a stale fragment).
          stats_.op_retries++;
          break;
        }
        if (insert_split(tkey, d, Slice(recovered))) return true;
        if (d.from_custom_start &&
            d.path.front().image.depth() > d.cpl) {
          stats_.start_fallbacks++;
          allow_custom = false;
        }
        stats_.op_retries++;
        break;
      }
      case DescendStatus::kNeedRetry:
      case DescendStatus::kTimedOut:
        stats_.op_retries++;
        if (r >= 4) allow_custom = false;
        break;
    }
    if (alloc_failed_) return fail_degraded();
  }
  stats_.recovery.retry_timeouts++;
  stats_.ops_failed++;
  return false;
}

void RemoteTree::post_lock(rdma::DoorbellBatch* batch, rdma::GlobalAddr addr,
                           uint64_t seen, NodeLock* lock) {
  assert(header_status(seen) == NodeStatus::kIdle);
  lock->addr = addr;
  lock->idle = seen;
  lock->locked = lease_inner_locked(seen);
  lock->cas_idx = batch->add_cas(addr, seen, lock->locked,
                                 rdma::FaultSite::kLockAcquire);
  // Read straight from remote memory (no fetch_inner hook): the slot
  // checks under the lock must see the node as of the lock.
  batch->add_read(addr, lock->image.raw(),
                  inner_node_bytes(header_type(seen)));
}

bool RemoteTree::lock_won(const TerminatedKey& key,
                          const rdma::DoorbellBatch& batch,
                          const NodeLock& lock) {
  if (batch.cas_ok(lock.cas_idx)) return true;
  stats_.lock_fail_retries++;
  const uint64_t observed = batch.old_value(lock.cas_idx);
  if (header_busy(observed)) note_busy_inner(key, lock.addr, observed);
  invalidate_inner(lock.addr);
  return false;
}

bool RemoteTree::lock_node(const TerminatedKey& key, rdma::GlobalAddr addr,
                           uint64_t seen, NodeLock* lock) {
  if (header_status(seen) != NodeStatus::kIdle) {
    note_busy_inner(key, addr, seen);
    return false;
  }
  rdma::DoorbellBatch batch(endpoint_);
  post_lock(&batch, addr, seen, lock);
  {
    rdma::PhaseScope lock_scope(endpoint_, rdma::Phase::kLock);
    batch.execute();
  }
  return lock_won(key, batch, *lock);
}

void RemoteTree::unlock_node(const NodeLock& lock) {
  // May lose only to a reclaimer that decided our lease expired; its
  // restore supersedes ours, so a failed release needs no handling.
  rdma::PhaseScope lock_scope(endpoint_, rdma::Phase::kLock);
  endpoint_.cas(lock.addr, lock.locked, lock.idle, nullptr,
                rdma::FaultSite::kLockRelease);
}

bool RemoteTree::install_slot_locked(NodeLock* lock, uint32_t slot_index,
                                     uint64_t expected, uint64_t desired,
                                     rdma::FaultSite site) {
  const rdma::GlobalAddr slot_addr = lock->addr.plus(
      kInnerHeaderBytes + static_cast<uint64_t>(slot_index) * 8);
  const bool root_with_replicas = config_.replicate_root &&
                                  lock->addr == ref_.root &&
                                  ref_.root_replicas.size() > 1;
  rdma::PhaseScope install_scope(endpoint_, rdma::Phase::kInnerWrite);
  bool won;
  if (!root_with_replicas) {
    rdma::DoorbellBatch batch(endpoint_);
    const size_t cas_idx = batch.add_cas(slot_addr, expected, desired, site);
    batch.add_cas(lock->addr, lock->locked, lock->idle,
                  rdma::FaultSite::kLockRelease);
    batch.execute();
    won = batch.cas_ok(cas_idx);
  } else {
    // Root: resolve the slot CAS first, then push the winning word to the
    // replicas with the lock release riding the same batch. The propagation
    // happens strictly under the root lock, so replica slot writes from
    // different mutators can never interleave out of order. A client that
    // crashes between the two batches leaves the root Locked with lagging
    // replicas; lease reclamation frees the lock, and readers entering via
    // the stale replica fall back to a primary descent (correct, one extra
    // round trip) until the slot is next mutated.
    won = endpoint_.cas(slot_addr, expected, desired, nullptr, site);
    rdma::DoorbellBatch post(endpoint_);
    const uint64_t word = desired;  // write source; alive across execute()
    if (won) {
      for (const rdma::GlobalAddr& rep : ref_.root_replicas) {
        if (rep == ref_.root) continue;
        post.add_write(rep.plus(kInnerHeaderBytes +
                                static_cast<uint64_t>(slot_index) * 8),
                       &word, sizeof(word), rdma::FaultSite::kPayloadWrite);
      }
      stats_.root_replica_propagations++;
    }
    post.add_cas(lock->addr, lock->locked, lock->idle,
                 rdma::FaultSite::kLockRelease);
    post.execute();
  }
  if (won) {
    lock->image.set_slot(slot_index, desired);
    lock->image.set_header(lock->idle);
    note_inner_write(lock->addr, lock->image);
  }
  return won;
}

bool RemoteTree::post_leaf(rdma::DoorbellBatch* batch) {
  InsertOp& op = insert_op_;
  if (op.leaf.ok) return true;
  if (alloc_failed_) return false;  // the op's allocation already failed
  op.leaf = make_leaf(*op.key, op.value, batch);
  if (!op.leaf.ok) alloc_failed_ = true;  // nothing written, no lock taken
  return op.leaf.ok;
}

bool RemoteTree::post_walk_lock(rdma::DoorbellBatch* batch,
                                rdma::GlobalAddr addr, uint64_t predicted,
                                bool* wrote_leaf) {
  InsertOp& op = insert_op_;
  *wrote_leaf = false;
  if (op.key == nullptr || op.walk_posted ||
      op.walk_held != WalkLock::kNone) {
    return false;
  }
  const bool had_leaf = op.leaf.ok;
  if (!post_leaf(batch)) return false;
  *wrote_leaf = !had_leaf;
  // No READ here: the caller's READ of the node lands where its start
  // search validates it, after this CAS (one MN, post order).
  op.walk.addr = addr;
  op.walk.idle = predicted;
  op.walk.locked = lease_inner_locked(predicted);
  op.walk.cas_idx = batch->add_cas(addr, predicted, op.walk.locked,
                                   rdma::FaultSite::kLockAcquire);
  op.walk_posted = true;
  return true;
}

RemoteTree::WalkLock RemoteTree::settle_walk_lock(
    const rdma::DoorbellBatch& batch, bool valid, PathEntry* start) {
  InsertOp& op = insert_op_;
  if (!op.walk_posted) return WalkLock::kNone;
  op.walk_posted = false;
  // A lost CAS never feeds the lease watch: the busy word may belong to a
  // foreign node recycled at this address, and reclaim_inner's attachment
  // probe walks our key, so it would restore a live node to Invalid. A
  // validated node that is busy reaches the watch through the sub-case.
  if (!batch.cas_ok(op.walk.cas_idx)) return WalkLock::kNone;
  if (!valid) {
    // The predicted idle header matched a block that is not the entry's
    // node (42 hash bits collided): put its exact word back.
    unlock_node(op.walk);
    return WalkLock::kRejected;
  }
  start->image.set_header(op.walk.idle);
  const uint8_t branch = op.key->byte(start->image.depth());
  if (start->image.find_pkey(branch) >= 0) {
    op.walk_held = WalkLock::kReleases;
  } else if (start->image.find_free(branch) >= 0) {
    op.walk_held = WalkLock::kTakesLeaf;
  } else {
    op.walk_held = WalkLock::kGrows;
  }
  return op.walk_held;
}

bool RemoteTree::take_walk_lock(const PathEntry& node, NodeLock* lock) {
  InsertOp& op = insert_op_;
  if (op.walk_held == WalkLock::kNone || op.walk.addr != node.addr) {
    return false;
  }
  op.walk_held = WalkLock::kNone;
  lock->addr = op.walk.addr;
  lock->idle = op.walk.idle;
  lock->locked = op.walk.locked;
  lock->image = node.image;
  lock->image.set_header(op.walk.idle);
  return true;
}

bool RemoteTree::read_releasing_walk_lock(rdma::GlobalAddr addr, void* dst,
                                          size_t len) {
  InsertOp& op = insert_op_;
  if (op.walk_held != WalkLock::kReleases) return false;
  op.walk_held = WalkLock::kNone;
  rdma::DoorbellBatch batch(endpoint_);
  batch.add_read(addr, dst, len);
  batch.add_cas(op.walk.addr, op.walk.locked, op.walk.idle,
                rdma::FaultSite::kLockRelease);
  batch.execute();
  return true;
}

bool RemoteTree::insert_into_free_slot(const TerminatedKey& key, Descent& d) {
  PathEntry& node = d.path.back();
  const uint8_t branch = key.byte(node.image.depth());
  NodeLock lock;
  // A walk lock already holds the node, its image read under the lock:
  // only the install remains.
  if (!take_walk_lock(node, &lock)) {
    const uint64_t seen = node.image.header();
    if (header_status(seen) != NodeStatus::kIdle) {
      note_busy_inner(key, node.addr, seen);
      return false;
    }
    // One round trip: leaf payload write (unless an earlier doorbell of
    // the op carried it), lock CAS and under-lock re-read (the image from
    // the descent may be stale).
    rdma::DoorbellBatch pre(endpoint_);
    if (!post_leaf(&pre)) return false;
    post_lock(&pre, node.addr, seen, &lock);
    {
      rdma::PhaseScope write_scope(endpoint_, rdma::Phase::kLeafWrite);
      pre.execute();
    }
    if (!lock_won(key, pre, lock)) return false;
  }

  const NewLeaf& leaf = insert_op_.leaf;
  bool ok = false;
  const int existing = lock.image.find_pkey(branch);
  const int free_idx = lock.image.find_free(branch);
  if (existing < 0 && free_idx >= 0) {
    // Slot CAS with piggybacked lock release (replica-aware at the root).
    ok = install_slot_locked(&lock, static_cast<uint32_t>(free_idx), 0,
                             pack_leaf_slot(branch, leaf.units, leaf.addr),
                             rdma::FaultSite::kSlotInstall);
    if (ok) note_leaf_at(key.full(), leaf.addr, leaf.units);
  } else {
    unlock_node(lock);
    invalidate_inner(node.addr);  // our view of this node was stale
  }
  return ok;
}

bool RemoteTree::insert_split(const TerminatedKey& key, Descent& d,
                              Slice existing_key) {
  const uint32_t cpl = d.cpl;
  if (cpl >= key.size() || cpl >= existing_key.size()) return false;
  const uint8_t b_new = key.byte(cpl);
  const uint8_t b_old = existing_key[cpl];
  if (b_new == b_old) return false;  // inconsistent cpl; retry

  // A = deepest path node that stays above the split point and whose slot
  // leads into the splitting subtree.
  int ai = -1;
  for (int i = static_cast<int>(d.path.size()) - 1; i >= 0; --i) {
    if (d.path[static_cast<size_t>(i)].taken_slot >= 0 &&
        d.path[static_cast<size_t>(i)].image.depth() <= cpl) {
      ai = i;
      break;
    }
  }
  if (ai < 0) return false;  // split point above our descent start
  PathEntry& parent = d.path[static_cast<size_t>(ai)];
  const uint64_t child_word = parent.taken_word;
  const uint64_t seen = parent.image.header();
  if (header_status(seen) != NodeStatus::kIdle) {
    note_busy_inner(key, parent.addr, seen);
    return false;
  }

  // Build the new inner node M with the two children.
  const NodeType mtype = new_inner_type();
  InnerImage m = InnerImage::create(mtype, key.prefix(cpl));
  const uint32_t m_bytes = inner_alloc_bytes(mtype);
  const uint32_t m_mn = mn_for_prefix(m.prefix_hash_full());
  const mem::AllocResult m_alloc =
      allocator_.try_alloc(m_mn, m_bytes, mem::AllocTag::kInnerNode);
  if (!m_alloc.ok) {
    alloc_failed_ = true;
    return false;
  }
  const rdma::GlobalAddr m_addr = m_alloc.addr;

  // One round trip: leaf write (unless an earlier doorbell of the op
  // carried it) + M write + parent lock CAS + parent re-read.
  rdma::DoorbellBatch pre(endpoint_);
  if (!post_leaf(&pre)) {
    allocator_.free(m_addr, m_bytes, mem::AllocTag::kInnerNode);
    return false;
  }
  const NewLeaf& leaf = insert_op_.leaf;
  const uint64_t leaf_slot = pack_leaf_slot(b_new, leaf.units, leaf.addr);
  const uint64_t moved_slot = slot_with_pkey(child_word, b_old);
  if (mtype == NodeType::kN256) {
    m.set_slot(b_new, leaf_slot);
    m.set_slot(b_old, moved_slot);
  } else {
    m.set_slot(0, leaf_slot);
    m.set_slot(1, moved_slot);
  }
  pre.add_write(m_addr, m.raw(), m_bytes, rdma::FaultSite::kPayloadWrite);
  NodeLock lock;
  post_lock(&pre, parent.addr, seen, &lock);
  {
    rdma::PhaseScope write_scope(endpoint_, rdma::Phase::kLeafWrite);
    pre.execute();
  }

  auto release_m = [&] {
    allocator_.free(m_addr, m_bytes, mem::AllocTag::kInnerNode);
  };

  if (!lock_won(key, pre, lock)) {
    release_m();
    return false;
  }

  const uint8_t parent_branch = key.byte(parent.image.depth());
  const int idx = lock.image.find_pkey(parent_branch);
  if (idx < 0 || lock.image.slot(static_cast<uint32_t>(idx)) != child_word) {
    unlock_node(lock);
    invalidate_inner(parent.addr);  // stale view of the parent
    release_m();
    return false;
  }

  if (!install_slot_locked(&lock, static_cast<uint32_t>(idx), child_word,
                           pack_inner_slot(parent_branch, mtype, m_addr),
                           rdma::FaultSite::kSlotInstall)) {
    release_m();
    return false;
  }

  note_inner_write(m_addr, m);
  on_inner_created(key.prefix(cpl), m, m_addr);
  // Only the new key's leaf is reported: the existing leaf moved *slots*
  // (under M) but kept its address, so its cached binding stays valid.
  note_leaf_at(key.full(), leaf.addr, leaf.units);
  stats_.splits++;
  return true;
}

bool RemoteTree::insert_replace_invalid_leaf(const TerminatedKey& key,
                                             Descent& d) {
  PathEntry& node = d.path.back();
  const uint8_t branch = key.byte(node.image.depth());
  const uint64_t seen = node.image.header();
  if (header_status(seen) != NodeStatus::kIdle) {
    note_busy_inner(key, node.addr, seen);
    return false;
  }

  rdma::DoorbellBatch pre(endpoint_);
  if (!post_leaf(&pre)) return false;
  NodeLock lock;
  post_lock(&pre, node.addr, seen, &lock);
  {
    rdma::PhaseScope write_scope(endpoint_, rdma::Phase::kLeafWrite);
    pre.execute();
  }
  if (!lock_won(key, pre, lock)) return false;

  const NewLeaf& leaf = insert_op_.leaf;
  const int idx = lock.image.find_pkey(branch);
  bool ok = false;
  if (idx >= 0 &&
      lock.image.slot(static_cast<uint32_t>(idx)) == node.taken_word) {
    ok = install_slot_locked(&lock, static_cast<uint32_t>(idx),
                             node.taken_word,
                             pack_leaf_slot(branch, leaf.units, leaf.addr),
                             rdma::FaultSite::kSlotInstall);
    if (ok) {
      note_leaf_at(key.full(), leaf.addr, leaf.units);
      // This CAS removed the last live link to the dead leaf, which makes
      // this client its retirer: the remove that invalidated it only
      // retires when its own slot-clear lands (otherwise the stale slot
      // would dangle into a recycled block), so an Invalid leaf still
      // linked here is unowned until this replacement unlinks it.
      allocator_.retire(
          slot_addr(node.taken_word),
          static_cast<uint64_t>(slot_leaf_units(node.taken_word)) *
              kLeafUnitBytes,
          mem::AllocTag::kLeaf);
    }
  } else {
    unlock_node(lock);
    invalidate_inner(node.addr);  // our view of this node was stale
  }
  return ok;
}

bool RemoteTree::type_switch(const TerminatedKey& key, Descent& d) {
  if (d.path.size() < 2) return false;  // the root (N256) never fills up
  PathEntry& node = d.path.back();
  PathEntry& parent = d.path[d.path.size() - 2];
  NodeLock lock_n;
  if (!take_walk_lock(node, &lock_n) &&
      !lock_node(key, node.addr, node.image.header(), &lock_n)) {
    return false;
  }
  const InnerImage& fresh_n = lock_n.image;

  if (fresh_n.find_free(key.byte(fresh_n.depth())) >= 0) {
    // Room appeared; plain insert will do.
    unlock_node(lock_n);
    return false;
  }
  const NodeType new_type = next_node_type(fresh_n.type());
  if (new_type == fresh_n.type()) {
    unlock_node(lock_n);
    return false;
  }

  InnerImage grown = fresh_n.grown_copy(new_type);
  const uint32_t grown_bytes = inner_alloc_bytes(new_type);
  const mem::AllocResult grown_alloc = allocator_.try_alloc(
      node.addr.mn(), grown_bytes, mem::AllocTag::kInnerNode);
  if (!grown_alloc.ok) {
    unlock_node(lock_n);
    alloc_failed_ = true;
    return false;
  }
  const rdma::GlobalAddr grown_addr = grown_alloc.addr;

  // One round trip: write the replacement, lock and re-read the parent.
  const uint64_t seen_p = parent.image.header();
  if (header_status(seen_p) != NodeStatus::kIdle) {
    unlock_node(lock_n);
    allocator_.free(grown_addr, grown_bytes, mem::AllocTag::kInnerNode);
    note_busy_inner(key, parent.addr, seen_p);
    return false;
  }
  rdma::DoorbellBatch pre(endpoint_);
  pre.add_write(grown_addr, grown.raw(), grown_bytes,
                rdma::FaultSite::kPayloadWrite);
  NodeLock lock_p;
  post_lock(&pre, parent.addr, seen_p, &lock_p);
  {
    rdma::PhaseScope write_scope(endpoint_, rdma::Phase::kInnerWrite);
    pre.execute();
  }
  if (!lock_won(key, pre, lock_p)) {
    unlock_node(lock_n);
    allocator_.free(grown_addr, grown_bytes, mem::AllocTag::kInnerNode);
    return false;
  }

  const uint8_t parent_branch = key.byte(parent.image.depth());
  const int idx = lock_p.image.find_pkey(parent_branch);
  if (idx < 0 ||
      lock_p.image.slot(static_cast<uint32_t>(idx)) != parent.taken_word) {
    unlock_node(lock_p);
    unlock_node(lock_n);
    allocator_.free(grown_addr, grown_bytes, mem::AllocTag::kInnerNode);
    return false;
  }

  if (!install_slot_locked(&lock_p, static_cast<uint32_t>(idx),
                           parent.taken_word,
                           pack_inner_slot(parent_branch, new_type,
                                           grown_addr),
                           rdma::FaultSite::kSlotInstall)) {
    unlock_node(lock_n);
    allocator_.free(grown_addr, grown_bytes, mem::AllocTag::kInnerNode);
    return false;
  }

  // Retire the old node: Invalid status sends late arrivals into a retry.
  // The block enters the epoch quarantine and is recycled once every
  // worker has passed this epoch (stamp+2 rule, memnode/epoch.h); readers
  // that still reach the recycled address through a stale pointer fail the
  // type/depth/prefix validation and retry. A crash before this write
  // leaves the old node Locked *and* detached -- the reclaimer's
  // reachability probe restores it to Invalid, never Idle.
  {
    rdma::PhaseScope retire_scope(endpoint_, rdma::Phase::kInnerWrite);
    endpoint_.write64(node.addr,
                      with_status(lock_n.idle, NodeStatus::kInvalid),
                      rdma::FaultSite::kLockRelease);
  }
  allocator_.retire(node.addr, inner_alloc_bytes(fresh_n.type()),
                    mem::AllocTag::kInnerNode);

  note_inner_write(grown_addr, grown);
  invalidate_inner(node.addr, fresh_n);
  on_inner_switched(fresh_n, node.addr, grown, grown_addr);
  stats_.type_switches++;
  return true;
}

bool RemoteTree::recover_leaf_key(rdma::GlobalAddr addr, NodeType type,
                                  std::string* key_out) {
  rdma::PhaseScope walk_scope(endpoint_, rdma::Phase::kInnerRead);
  InnerImage node;
  for (uint32_t level = 0; level < kMaxKeyLen; ++level) {
    if (!fetch_inner(addr, type, &node)) return false;
    if (node.status() == NodeStatus::kInvalid || node.type() != type) {
      return false;
    }
    uint64_t chosen = 0;
    const uint32_t cap = node.capacity();
    for (uint32_t i = 0; i < cap; ++i) {
      if (slot_valid(node.slot(i))) {
        chosen = node.slot(i);
        break;
      }
    }
    if (chosen == 0) return false;
    if (slot_is_leaf(chosen)) {
      LeafImage leaf;
      rdma::PhaseScope leaf_scope(endpoint_, rdma::Phase::kLeafRead);
      if (!read_leaf(slot_addr(chosen), slot_leaf_units(chosen), &leaf)) {
        return false;
      }
      // Invalid (deleted) leaves still carry their key, which is all the
      // prefix recovery needs.
      key_out->assign(leaf.key().data(), leaf.key().size());
      return true;
    }
    addr = slot_addr(chosen);
    type = slot_child_type(chosen);
  }
  return false;
}

// ---- update -----------------------------------------------------------------

bool RemoteTree::update(Slice key, Slice value) {
  mem::EpochPin epoch(allocator_);
  const TerminatedKey tkey(key);
  alloc_failed_ = false;
  bool allow_custom = true;
  rdma::RetryPolicy policy(endpoint_, config_.retry, &stats_.backoff);
  for (uint32_t r = 0;; ++r) {
    if (!policy.backoff(r)) break;
    Descent& d = descend(tkey, allow_custom && r < 8, r == 0);
    if (d.status != DescendStatus::kFoundLeaf) {
      if (miss_verdict(d, r, &allow_custom) == MissVerdict::kAbsent) {
        return false;
      }
      continue;
    }
    const uint64_t seen = d.leaf.header();
    if (d.leaf.status() != NodeStatus::kIdle) {
      // Another writer holds the leaf (possibly a crashed one). Watch
      // the raw remote word: header() may carry locally patched
      // lengths, which the reclaim CAS could never match.
      note_busy_leaf(tkey, d.leaf_addr, d.leaf.raw_header());
      stats_.op_retries++;
      continue;
    }
    // Lock the leaf. In place, one WRITE then carries the new value, the
    // Idle status and the fresh checksum (combined release+write); out of
    // place, the lock blocks in-place updaters while the parent slot swaps
    // to a bigger leaf.
    const uint64_t locked = lease_leaf_locked(seen);
    uint64_t observed = 0;
    bool won;
    {
      rdma::PhaseScope lock_scope(endpoint_, rdma::Phase::kLock);
      won = endpoint_.cas(d.leaf_addr, seen, locked, &observed,
                          rdma::FaultSite::kLockAcquire);
    }
    if (!won) {
      stats_.lock_fail_retries++;
      if (header_busy(observed)) note_busy_leaf(tkey, d.leaf_addr, observed);
      continue;
    }
    if (leaf_units_for(d.leaf.key_len(),
                       static_cast<uint32_t>(value.size())) <=
        d.leaf.units()) {
      LeafImage img = d.leaf;
      img.replace_value(value);
      // Publish body first, header (with the Idle status that releases
      // the lock) last, in one doorbell batch: a competing writer's
      // lock CAS cannot succeed until the complete image is visible,
      // so two in-place updates never interleave their writes. A crash
      // between the two writes leaves the new body + trailer under a
      // locked header; the reclaimer's trailer validation rolls the
      // update forward (the body write is the linearization point).
      rdma::DoorbellBatch publish(endpoint_);
      publish.add_write(d.leaf_addr.plus(8), img.buf().data() + 8,
                        img.buf().size() - 8,
                        rdma::FaultSite::kPayloadWrite);
      publish.add_write(d.leaf_addr, img.buf().data(), 8,
                        rdma::FaultSite::kLockRelease);
      {
        rdma::PhaseScope write_scope(endpoint_, rdma::Phase::kLeafWrite);
        publish.execute();
      }
      // In-place: address and units are unchanged; this refreshes the
      // cached binding's confidence, it does not move it.
      note_leaf_at(tkey.full(), d.leaf_addr, d.leaf.units());
      return true;
    }
    PathEntry& parent = d.path.back();
    const uint64_t seen_p = parent.image.header();
    bool done = false;
    if (header_status(seen_p) == NodeStatus::kIdle) {
      rdma::DoorbellBatch pre(endpoint_);
      NewLeaf leaf = make_leaf(tkey, value, &pre);
      if (!leaf.ok) {
        // Release the leaf lock below and abandon the op (degraded).
        alloc_failed_ = true;
        {
          rdma::PhaseScope lock_scope(endpoint_, rdma::Phase::kLock);
          endpoint_.cas(d.leaf_addr, locked, seen, nullptr,
                        rdma::FaultSite::kLockRelease);
        }
        return fail_degraded();
      }
      NodeLock lock_p;
      post_lock(&pre, parent.addr, seen_p, &lock_p);
      {
        rdma::PhaseScope write_scope(endpoint_, rdma::Phase::kLeafWrite);
        pre.execute();
      }
      if (lock_won(tkey, pre, lock_p)) {
        const uint8_t branch = tkey.byte(parent.image.depth());
        const int idx = lock_p.image.find_pkey(branch);
        if (idx >= 0 && lock_p.image.slot(static_cast<uint32_t>(idx)) ==
                            parent.taken_word) {
          done = install_slot_locked(
              &lock_p, static_cast<uint32_t>(idx), parent.taken_word,
              pack_leaf_slot(branch, leaf.units, leaf.addr),
              rdma::FaultSite::kSlotInstall);
          // The key moved to a new block: replace the cached binding
          // in one step (no separate retire for the old address).
          if (done) note_leaf_at(tkey.full(), leaf.addr, leaf.units);
        } else {
          unlock_node(lock_p);
        }
      }
      if (!done) {
        allocator_.free(leaf.addr, leaf.units * kLeafUnitBytes,
                        mem::AllocTag::kLeaf);
      }
    } else {
      note_busy_inner(tkey, parent.addr, seen_p);
    }
    if (done) {
      // Old leaf: Locked -> Invalid, then into the epoch quarantine
      // (recycled once every worker passes this epoch). A stale reader
      // that reaches the recycled block fails the key/CRC validation
      // and retries. A crash before this write leaves the old leaf
      // locked *and* detached; the reclaimer's reachability probe
      // restores Invalid.
      {
        rdma::PhaseScope retire_scope(endpoint_, rdma::Phase::kLeafWrite);
        endpoint_.write64(d.leaf_addr,
                          with_status(seen, NodeStatus::kInvalid),
                          rdma::FaultSite::kLockRelease);
      }
      allocator_.retire(
          d.leaf_addr,
          static_cast<uint64_t>(d.leaf.units()) * kLeafUnitBytes,
          mem::AllocTag::kLeaf);
      return true;
    }
    // Release the leaf lock and retry.
    {
      rdma::PhaseScope lock_scope(endpoint_, rdma::Phase::kLock);
      endpoint_.cas(d.leaf_addr, locked, seen, nullptr,
                    rdma::FaultSite::kLockRelease);
    }
    stats_.op_retries++;
    continue;
  }
  stats_.recovery.retry_timeouts++;
  stats_.ops_failed++;
  return false;
}

// ---- remove -----------------------------------------------------------------

bool RemoteTree::remove(Slice key) {
  mem::EpochPin epoch(allocator_);
  const TerminatedKey tkey(key);
  bool allow_custom = true;
  rdma::RetryPolicy policy(endpoint_, config_.retry, &stats_.backoff);
  for (uint32_t r = 0;; ++r) {
    if (!policy.backoff(r)) break;
    Descent& d = descend(tkey, allow_custom && r < 8, r == 0);
    if (d.status != DescendStatus::kFoundLeaf) {
      if (miss_verdict(d, r, &allow_custom) == MissVerdict::kAbsent) {
        return false;
      }
      continue;
    }
    const uint64_t seen = d.leaf.header();
    if (d.leaf.status() != NodeStatus::kIdle) {
      // Raw remote word, not header(): see the update() busy path.
      note_busy_leaf(tkey, d.leaf_addr, d.leaf.raw_header());
      stats_.op_retries++;
      continue;
    }
    // One round trip: the Idle -> Invalid CAS, which is the
    // linearization point (Sec. IV, Delete), then the parent lock CAS
    // and the parent re-read for the slot cleanup. The slot cleanup
    // runs under the parent lock. Pre-reclamation this was best-effort
    // ("an Invalid leaf reads as absent everywhere"); with recycling, a
    // block may only enter quarantine once its last live link is gone
    // -- a leftover slot would otherwise dangle into a recycled block
    // holding some other key. So retirement belongs to whoever unlinks
    // the leaf: this clear when it lands, otherwise the
    // insert_replace_invalid_leaf that later swaps the stale slot.
    rdma::DoorbellBatch batch(endpoint_);
    const size_t leaf_idx =
        batch.add_cas(d.leaf_addr, seen,
                      with_status(seen, NodeStatus::kInvalid),
                      rdma::FaultSite::kLockAcquire);
    PathEntry& parent = d.path.back();
    const uint64_t seen_p = parent.image.header();
    const bool parent_idle = header_status(seen_p) == NodeStatus::kIdle;
    NodeLock lock_p;
    if (parent_idle) post_lock(&batch, parent.addr, seen_p, &lock_p);
    {
      rdma::PhaseScope write_scope(endpoint_, rdma::Phase::kLeafWrite);
      batch.execute();
    }
    if (!batch.cas_ok(leaf_idx)) {
      // Lost the linearization point: hand back a parent lock we won
      // (+1 RTT, rare) and retry.
      if (parent_idle && batch.cas_ok(lock_p.cas_idx)) {
        unlock_node(lock_p);
      }
      const uint64_t observed = batch.old_value(leaf_idx);
      if (header_busy(observed)) {
        note_busy_leaf(tkey, d.leaf_addr, observed);
      }
      stats_.op_retries++;
      continue;
    }
    // The leaf is Invalid as of the CAS above: purge this CN's cached
    // binding at the linearization point.
    note_leaf_retired(tkey.full(), d.leaf_addr);
    bool unlinked = false;
    if (!parent_idle) {
      note_busy_inner(tkey, parent.addr, seen_p);
    } else if (lock_won(tkey, batch, lock_p)) {
      const uint8_t branch = tkey.byte(parent.image.depth());
      const int idx = lock_p.image.find_pkey(branch);
      if (idx >= 0 && lock_p.image.slot(static_cast<uint32_t>(idx)) ==
                          parent.taken_word) {
        unlinked = install_slot_locked(&lock_p, static_cast<uint32_t>(idx),
                                       parent.taken_word, 0,
                                       rdma::FaultSite::kNone);
      } else {
        unlock_node(lock_p);
      }
    }
    if (unlinked) {
      // Last live link removed by our CAS: the leaf enters the epoch
      // quarantine and is recycled once every worker passes this
      // epoch. When the clear did NOT land (parent busy/grown, or the
      // slot already swapped), the leaf stays Invalid and linked; it
      // is retired by the replacement that eventually unlinks it, or
      // leaks if none ever does (bounded by clear-failure rate).
      allocator_.retire(
          d.leaf_addr,
          static_cast<uint64_t>(d.leaf.units()) * kLeafUnitBytes,
          mem::AllocTag::kLeaf);
    }
    return true;
  }
  stats_.recovery.retry_timeouts++;
  stats_.ops_failed++;
  return false;
}

// ---- crash-tolerant lock reclamation ----------------------------------------

bool RemoteTree::note_busy_inner(const TerminatedKey& key,
                                 rdma::GlobalAddr addr, uint64_t header) {
  if (!header_busy(header)) return false;
  if (!lock_watch_.observe(endpoint_, addr, header)) return false;
  return reclaim_inner(key, addr, header);
}

bool RemoteTree::note_busy_leaf(const TerminatedKey& key,
                                rdma::GlobalAddr addr, uint64_t header) {
  if (!header_busy(header)) return false;
  if (!lock_watch_.observe(endpoint_, addr, header)) return false;
  return reclaim_leaf(key, addr, header);
}

int RemoteTree::probe_attached(const TerminatedKey& key,
                               rdma::GlobalAddr target) {
  rdma::PhaseScope recovery_scope(endpoint_, rdma::Phase::kRecovery);
  if (target.to48() == ref_.root.to48()) return 1;
  rdma::GlobalAddr addr = ref_.root;
  NodeType type = NodeType::kN256;
  InnerImage node;
  for (uint32_t level = 0; level < kMaxKeyLen; ++level) {
    // Uncached reads: the verdict must reflect remote memory, not a stale
    // local cache.
    endpoint_.read(addr, node.raw(), inner_node_bytes(type));
    if (node.status() == NodeStatus::kInvalid || node.type() != type) {
      return -1;  // raced with a concurrent switch; verdict unclear
    }
    const uint32_t depth = node.depth();
    if (depth >= key.size()) return 0;
    const int idx = node.find_pkey(key.byte(depth));
    if (idx < 0) return 0;
    const uint64_t slot_word = node.slot(static_cast<uint32_t>(idx));
    const rdma::GlobalAddr child = slot_addr(slot_word);
    if (child.to48() == target.to48()) return 1;
    if (slot_is_leaf(slot_word)) return 0;
    addr = child;
    type = slot_child_type(slot_word);
  }
  return -1;
}

bool RemoteTree::reclaim_inner(const TerminatedKey& key, rdma::GlobalAddr addr,
                               uint64_t expired_word) {
  rdma::PhaseScope recovery_scope(endpoint_, rdma::Phase::kRecovery);
  stats_.recovery.lease_expiries_observed++;
  // Take over: the CAS expecting the exact watched word both wins the race
  // against other waiters and re-confirms the word never moved.
  const uint64_t reclaiming =
      pack_inner_lease(expired_word, NodeStatus::kReclaiming, lease_owner(),
                       lease_stamp(endpoint_.clock_ns()));
  if (!endpoint_.cas(addr, expired_word, reclaiming, nullptr,
                     rdma::FaultSite::kLockAcquire)) {
    // The holder released, or another waiter reclaimed first.
    lock_watch_.reset();
    invalidate_inner(addr);
    return true;
  }
  // A node a crashed type-switch already cut from the tree must come back
  // Invalid: restoring it Idle would let stale pointers resurrect it and
  // lose acknowledged writes landing in the detached copy.
  int attached = -1;
  for (uint32_t probe = 0; probe < 8 && attached < 0; ++probe) {
    attached = probe_attached(key, addr);
  }
  const uint64_t hash42 = endpoint_.read64(addr.plus(8)) & ((1ULL << 42) - 1);
  const uint64_t restored = pack_inner_header(
      attached != 0 ? NodeStatus::kIdle : NodeStatus::kInvalid,
      header_type(expired_word), header_depth(expired_word), hash42);
  endpoint_.cas(addr, reclaiming, restored, nullptr,
                rdma::FaultSite::kLockRelease);
  stats_.recovery.lock_reclaims++;
  lock_watch_.reset();
  invalidate_inner(addr);
  return true;
}

bool RemoteTree::reclaim_leaf(const TerminatedKey& key, rdma::GlobalAddr addr,
                              uint64_t expired_word) {
  rdma::PhaseScope recovery_scope(endpoint_, rdma::Phase::kRecovery);
  stats_.recovery.lease_expiries_observed++;
  const uint64_t reclaiming =
      pack_leaf_lease(expired_word, NodeStatus::kReclaiming, lease_owner(),
                      lease_stamp(endpoint_.clock_ns()));
  if (!endpoint_.cas(addr, expired_word, reclaiming, nullptr,
                     rdma::FaultSite::kLockAcquire)) {
    lock_watch_.reset();
    return true;
  }
  // Restore consistency from the leaf image: a crash before the body write
  // validates against the header's lengths (the old value is intact); a
  // crash after the body write validates against the trailer and the
  // half-published update rolls *forward* (its body write was the
  // linearization point).
  const uint32_t units = leaf_units(expired_word);
  LeafImage img;
  img.resize(units);
  LeafImage::Revalidate v = LeafImage::Revalidate::kBad;
  for (uint32_t attempt = 0; attempt < kMaxLeafReread; ++attempt) {
    endpoint_.read(addr, img.buf().data(), units * kLeafUnitBytes);
    v = img.revalidate();
    if (v != LeafImage::Revalidate::kBad) break;
    stats_.torn_leaf_rereads++;
  }
  uint32_t klen = leaf_key_len(expired_word);
  uint32_t vlen = leaf_val_len(expired_word);
  if (v == LeafImage::Revalidate::kPatched) {
    klen = img.key_len();
    vlen = img.val_len();
    stats_.recovery.lock_rollforwards++;
  }
  // A leaf an out-of-place update already unlinked must come back Invalid
  // (same detachment argument as for inner nodes).
  int attached = -1;
  for (uint32_t probe = 0; probe < 8 && attached < 0; ++probe) {
    attached = probe_attached(key, addr);
  }
  const uint64_t restored = pack_leaf_header(
      attached != 0 ? NodeStatus::kIdle : NodeStatus::kInvalid, units, klen,
      vlen);
  endpoint_.cas(addr, reclaiming, restored, nullptr,
                rdma::FaultSite::kLockRelease);
  stats_.recovery.lock_reclaims++;
  lock_watch_.reset();
  return true;
}

// ---- scan -------------------------------------------------------------------
//
// Frontier-batched scan engine. The frontier is a key-ordered worklist of
// pending children; each round fetches the leading unvisited entries
// *across subtrees* in one doorbell batch (kScanFanout wide, leaf runs and
// inner nodes interleaved). As soon as a batch lands, every fetched inner
// node that validates is replaced in place by its in-window children, so
// the next batch reads the leaves of all those subtrees at once; validated
// leaves pop off the front in order. Round trips therefore scale like tree
// depth + ceil(nodes / fanout) instead of one batch per subtree. A count
// scan whose entry holds too few leaves for its count widens before
// fetching them. Stale pointers re-resolve through the parent's slot word
// under the per-op RetryPolicy; an exhausted budget is surfaced (counters +
// last_scan_truncated()), never silently skipped.

namespace {

// Batch width for one frontier round trip (matches a doorbell's practical
// WQE budget; also the cap the old per-subtree chunking used).
constexpr size_t kScanFanout = 32;
// Byte budget for *speculative* inner fetches per batch. Leaf runs batch
// freely (their keys are needed by definition) and one inner always rides
// per round trip (forward progress), but further sibling inners are a
// gamble: if an earlier subtree satisfies the remaining count, they were
// fetched for nothing. On adaptive trees the gamble is nearly free (a
// Node-4 image is tens of bytes) so the budget never binds; on homogeneous
// trees every inner is a full 2 KiB image and unchecked speculation can
// double the scan's wire traffic, which is what sets throughput once the
// NIC saturates. 2 KiB admits a dozen small adaptive nodes but exactly
// zero extra homogeneous ones.
constexpr size_t kScanSpecInnerBytes = 2048;
// Per-item slot re-resolutions before escalating to a frontier restart
// (the path above the item, not the item itself, may be stale).
constexpr uint32_t kMaxScanItemRetries = 4;

}  // namespace

size_t RemoteTree::scan(Slice start_key, size_t count,
                        std::vector<std::pair<std::string, std::string>>* out) {
  mem::EpochPin epoch(allocator_);
  out->clear();
  last_scan_truncated_ = false;
  if (count == 0) return 0;
  stats_.scan.scans++;
  const TerminatedKey low(start_key);
  run_scan(low, /*high=*/nullptr, count, out);
  return out->size();
}

size_t RemoteTree::scan_range(
    Slice low_key, Slice high_key, size_t max_results,
    std::vector<std::pair<std::string, std::string>>* out) {
  mem::EpochPin epoch(allocator_);
  out->clear();
  last_scan_truncated_ = false;
  if (max_results == 0 || high_key.compare(low_key) < 0) return 0;
  stats_.scan.scans++;
  const TerminatedKey low(low_key);
  const TerminatedKey high(high_key);
  run_scan(low, &high, max_results, out);
  return out->size();
}

uint32_t RemoteTree::register_scan_prefix(Slice prefix) {
  scan_prefixes_.emplace_back(prefix.data(), prefix.size());
  scan_prefix_masks_.emplace_back(prefix.size(), '\1');
  return static_cast<uint32_t>(scan_prefixes_.size() - 1);
}

int RemoteTree::compose_scan_child_prefix(const ScanItem& item,
                                          const InnerImage& node) {
  if (node.status() == NodeStatus::kInvalid ||
      node.type() != slot_child_type(item.word) ||
      node.depth() <= item.parent_depth) {
    return -1;  // switched out, or a recycled block of another shape
  }
  const std::string& pp = scan_prefixes_[item.prefix_id];
  const std::string& pm = scan_prefix_masks_[item.prefix_id];
  const uint32_t d = item.parent_depth;  // == pp.size()
  const uint32_t len = node.depth();
  std::string q(len, '\0');
  std::string m(len, '\0');
  std::memcpy(&q[0], pp.data(), std::min<size_t>(pp.size(), len));
  std::memcpy(&m[0], pm.data(), std::min<size_t>(pm.size(), len));
  if (d < len) {
    q[d] = static_cast<char>(slot_pkey(item.word));
    m[d] = '\1';
  }
  const uint64_t fw = node.frag_word();
  const uint32_t fl = std::min(frag_len(fw), len);
  for (uint32_t i = len - fl; i < len; ++i) {
    const char b = static_cast<char>(frag_byte(fw, i - (len - fl)));
    if (m[i] == '\1' && q[i] != b) return -1;  // definite prefix mismatch
    q[i] = b;
    m[i] = '\1';
  }
  bool fully_known = true;
  for (const char c : m) fully_known &= c == '\1';
  if (fully_known && prefix_hash(Slice(q)) != node.prefix_hash_full()) {
    return -1;  // an unrelated node recycled into this address
  }
  scan_prefixes_.push_back(std::move(q));
  scan_prefix_masks_.push_back(std::move(m));
  return static_cast<int>(scan_prefixes_.size() - 1);
}

bool RemoteTree::scan_leaf_linked(const ScanItem& item,
                                  Slice terminated_key) const {
  const uint32_t d = item.parent_depth;
  if (terminated_key.size() <= d) return false;
  if (static_cast<uint8_t>(terminated_key.data()[d]) !=
      slot_pkey(item.word)) {
    return false;
  }
  const std::string& pp = scan_prefixes_[item.prefix_id];
  const std::string& pm = scan_prefix_masks_[item.prefix_id];
  for (size_t i = 0; i < pp.size(); ++i) {
    if (pm[i] == '\1' && terminated_key.data()[i] != pp[i]) return false;
  }
  return true;
}

void RemoteTree::expand_into_frontier(rdma::GlobalAddr addr,
                                      const InnerImage& node,
                                      const TerminatedKey& bound,
                                      const TerminatedKey* high,
                                      bool lo_bounded, bool hi_bounded,
                                      size_t at, uint32_t prefix_id) {
  endpoint_.advance_local(rdma::node_parse_ns(node.size_bytes()));
  const uint32_t depth = node.depth();
  if (depth > 0) on_scan_inner(addr, node);

  // Nodes deeper than a bound lie strictly inside (low) / outside (high)
  // of it; the per-leaf compares below stay the final authority either way.
  const bool lo_b = lo_bounded && depth < bound.size();
  const bool hi_b = hi_bounded && high != nullptr && depth < high->size();
  const uint8_t lo_byte = lo_b ? bound.byte(depth) : 0;
  const uint8_t hi_byte = hi_b ? high->byte(depth) : 0xff;

  // Valid in-window slots with their indices, in branch-byte order (the
  // index is what a stale child's re-resolution re-reads).
  slot_scratch_.clear();
  const uint32_t cap = node.capacity();
  for (uint32_t i = 0; i < cap; ++i) {
    const uint64_t w = node.slot(i);
    if (!slot_valid(w)) continue;
    const uint8_t p = slot_pkey(w);
    if (p < lo_byte || p > hi_byte) continue;
    slot_scratch_.emplace_back(w, i);
  }
  std::sort(slot_scratch_.begin(), slot_scratch_.end(),
            [](const std::pair<uint64_t, uint32_t>& a,
               const std::pair<uint64_t, uint32_t>& b) {
              return slot_pkey(a.first) < slot_pkey(b.first);
            });

  frontier_.insert(frontier_.begin() + static_cast<ptrdiff_t>(at),
                   slot_scratch_.size(), ScanItem{});
  size_t inner_children = 0;
  for (size_t k = 0; k < slot_scratch_.size(); ++k) {
    ScanItem& it = frontier_[at + k];
    it.word = slot_scratch_[k].first;
    it.parent_addr = addr;
    it.parent_slot = slot_scratch_[k].second;
    it.parent_depth = depth;
    it.prefix_id = prefix_id;
    if (!slot_is_leaf(it.word)) inner_children++;
    const uint8_t p = slot_pkey(it.word);
    it.lo_bounded = lo_b && p == lo_byte;
    it.hi_bounded = hi_b && p == hi_byte;
  }
  // A pure-leaf expansion reveals the local leaf fan-out: adopt it as the
  // expected yield of this node's unvisited siblings, so the batch builder
  // can span subtrees without speculating past the requested count.
  if (inner_children == 0 && !slot_scratch_.empty() && depth > 0) {
    scan_keys_per_inner_ = static_cast<double>(slot_scratch_.size());
  }
}

RemoteTree::ScanRecover RemoteTree::recover_scan_item(
    ScanItem& item, bool leaf_deleted, rdma::RetryPolicy& policy,
    uint32_t* attempt) {
  // One round trip: the parent's header word plus the slot word we came
  // through. The live slot is the authority on where the child is now.
  uint64_t parent_header = 0;
  uint64_t live_slot = 0;
  {
    rdma::PhaseScope scan_scope(endpoint_, rdma::Phase::kScanFrontier);
    rdma::DoorbellBatch batch(endpoint_);
    batch.add_read(item.parent_addr, &parent_header, sizeof(parent_header));
    batch.add_read(
        item.parent_addr.plus(kInnerHeaderBytes +
                              static_cast<uint64_t>(item.parent_slot) * 8),
        &live_slot, sizeof(live_slot));
    batch.execute();
  }
  if (header_status(parent_header) == NodeStatus::kInvalid) {
    // The parent itself was switched out from under the scan: its slot
    // array is a dead snapshot, so re-resolve the whole path from the top.
    if (!policy.backoff(++*attempt)) return ScanRecover::kDrop;
    return ScanRecover::kRestart;
  }
  if (!slot_valid(live_slot)) return ScanRecover::kGone;  // child unlinked
  if (slot_pkey(live_slot) != slot_pkey(item.word)) {
    // Non-N256 slot indices are positionless: the branch byte this item
    // represents was removed and the slot re-filled for a different byte
    // (that byte has its own frontier fate). Observing the key gone is
    // linearizable -- it really was absent between the remove and any
    // re-insert.
    return ScanRecover::kGone;
  }
  if (live_slot != item.word) {
    // The child was replaced (type switch / out-of-place update); follow
    // the fresh pointer instead of skipping the subtree.
    stats_.scan.stale_retries++;
    item.word = live_slot;
    item.retries++;
    return ScanRecover::kRefetch;
  }
  // Pointer unchanged but the target looked stale/torn.
  if (leaf_deleted) return ScanRecover::kGone;  // a removed leaf stays linked
  stats_.scan.stale_retries++;
  item.retries++;
  if (item.retries > kMaxScanItemRetries) {
    if (!policy.backoff(++*attempt)) return ScanRecover::kDrop;
    return ScanRecover::kRestart;
  }
  if (!policy.backoff(++*attempt)) return ScanRecover::kDrop;
  return ScanRecover::kRefetch;
}

void RemoteTree::run_scan(
    const TerminatedKey& low, const TerminatedKey* high, size_t count,
    std::vector<std::pair<std::string, std::string>>* out) {
  rdma::RetryPolicy policy(endpoint_, config_.retry, &stats_.backoff);
  uint32_t attempt = 0;
  // No leaf fan-out observed yet: assume one inner child covers the whole
  // remaining count (leaf runs still prefetch alongside it).
  scan_keys_per_inner_ = static_cast<double>(count);

  // Between rounds: the working lower bound (exclusive once keys have been
  // emitted) and, for count scans, the widen-and-resume depth ceiling.
  std::optional<TerminatedKey> resume;
  bool low_exclusive = false;
  uint32_t count_cap = low.size() - 1;
  // Subtree fully drained by the previous round (widen-resume only): the
  // wider entry re-lists it as its bounded first child, but every key at
  // scan-start time under it was already emitted or filtered -- prune it
  // instead of re-fetching the whole run below the resume bound.
  rdma::GlobalAddr exhausted_subtree;
  bool have_exhausted = false;

  auto mark_truncated = [&] {
    if (!last_scan_truncated_) {
      last_scan_truncated_ = true;
      stats_.scan.truncated_scans++;
    }
  };
  auto alloc_inner = [&]() -> uint32_t {
    if (free_inner_bufs_.empty()) {
      scan_inner_pool_.emplace_back();
      return static_cast<uint32_t>(scan_inner_pool_.size() - 1);
    }
    const uint32_t b = free_inner_bufs_.back();
    free_inner_bufs_.pop_back();
    return b;
  };
  auto alloc_leaf = [&]() -> uint32_t {
    if (free_leaf_bufs_.empty()) {
      scan_leaf_pool_.emplace_back();
      return static_cast<uint32_t>(scan_leaf_pool_.size() - 1);
    }
    const uint32_t b = free_leaf_bufs_.back();
    free_leaf_bufs_.pop_back();
    return b;
  };
  auto release_buf = [&](ScanItem& it) {
    if (!it.fetched) return;
    (slot_is_leaf(it.word) ? free_leaf_bufs_ : free_inner_bufs_)
        .push_back(it.buf);
    it.fetched = false;
  };

  for (;;) {  // one round = one entry + one frontier walk
    const TerminatedKey& bound = resume ? *resume : low;
    // Ceiling for the entry depth: a range scan may enter as deep as the
    // low/high common prefix (every in-range key shares it); a count scan
    // enters at the deepest covering node of the bound and widens on
    // resume. Either way the entry's subtree covers the whole remaining
    // window.
    const uint32_t round_cap =
        high != nullptr
            ? static_cast<uint32_t>(
                  bound.user_key().common_prefix_len(high->user_key()))
            : std::min<uint32_t>(count_cap, bound.size() - 1);

    frontier_.clear();
    scan_prefixes_.clear();
    scan_prefix_masks_.clear();
    free_inner_bufs_.clear();
    for (uint32_t i = 0; i < scan_inner_pool_.size(); ++i) {
      free_inner_bufs_.push_back(i);
    }
    free_leaf_bufs_.clear();
    for (uint32_t i = 0; i < scan_leaf_pool_.size(); ++i) {
      free_leaf_bufs_.push_back(i);
    }
    size_t head = 0;

    // ---- entry: SFC/PEC jump, cached root, or a fresh root fetch -----------
    rdma::GlobalAddr entry_addr = ref_.root;
    uint32_t entry_depth = 0;
    bool fused_root_pending = false;  // validate the cached root image in
                                      // the first frontier batch
    if (config_.scan_jump && round_cap >= 1 &&
        find_scan_start(bound, round_cap, &scan_entry_)) {
      stats_.scan.jump_starts++;
      entry_addr = scan_entry_.addr;
      entry_depth = scan_entry_.image.depth();
      expand_into_frontier(entry_addr, scan_entry_.image, bound, high,
                           /*lo_bounded=*/true, /*hi_bounded=*/high != nullptr,
                           /*at=*/0,
                           register_scan_prefix(bound.prefix(entry_depth)));
    } else {
      stats_.scan.root_starts++;
      if (config_.cache_scan_root && scan_root_valid_) {
        fused_root_pending = true;
      } else {
        rdma::PhaseScope scan_scope(endpoint_, rdma::Phase::kScanFrontier);
        if (!fetch_inner(ref_.root, NodeType::kN256, &scan_entry_.image)) {
          if (!policy.backoff(++attempt)) {
            mark_truncated();
            return;
          }
          continue;  // transient: retry the round
        }
        if (config_.cache_scan_root) {
          scan_root_cache_ = scan_entry_.image;
          scan_root_valid_ = true;
        }
      }
      const InnerImage& root_img = (config_.cache_scan_root && scan_root_valid_)
                                       ? scan_root_cache_
                                       : scan_entry_.image;
      expand_into_frontier(ref_.root, root_img, bound, high,
                           /*lo_bounded=*/true, /*hi_bounded=*/high != nullptr,
                           /*at=*/0, register_scan_prefix(Slice()));
      if (frontier_.empty() && fused_root_pending) {
        // The cached image says the window is empty; confirm with a fresh
        // read before believing it (a new first-byte subtree may exist).
        fused_root_pending = false;
        rdma::PhaseScope scan_scope(endpoint_, rdma::Phase::kScanFrontier);
        if (fetch_inner(ref_.root, NodeType::kN256, &scan_root_cache_)) {
          expand_into_frontier(ref_.root, scan_root_cache_, bound, high, true,
                               high != nullptr, 0,
                               register_scan_prefix(Slice()));
        }
      }
    }
    if (have_exhausted) {
      have_exhausted = false;
      for (auto it2 = frontier_.begin(); it2 != frontier_.end(); ++it2) {
        if (!slot_is_leaf(it2->word) && slot_addr(it2->word) == exhausted_subtree) {
          frontier_.erase(it2);
          break;
        }
      }
    }
    // A count scan whose jump entry lists only leaves, fewer than the count
    // still wanted, would drain them and widen anyway: widen before paying
    // a round trip for them. The wider entry re-lists this subtree as a
    // child and fetches the leaves then; none were emitted, so nothing is
    // pruned. (An empty entry costs no round trip; the ordinary widen below
    // takes it and prunes it.) The cap strictly falls, and cap 0 is a root
    // entry.
    if (high == nullptr && entry_depth > 0 && !frontier_.empty() &&
        frontier_.size() < count - out->size() &&
        std::all_of(frontier_.begin(), frontier_.end(),
                    [](const ScanItem& it) { return slot_is_leaf(it.word); })) {
      stats_.scan.widen_resumes++;
      stats_.scan.early_widens++;
      count_cap = entry_depth - 1;
      continue;
    }

    // ---- frontier walk -----------------------------------------------------
    bool restart = false;
    while (head < frontier_.size() && out->size() < count && !restart) {
      if (!frontier_[head].fetched) {
        // Fetch the leading unvisited children in one doorbell batch: walk
        // forward until the items traversed guarantee the remaining count
        // (each pending child holds at least one live key in the common
        // case) or the fanout cap is hit. Leaf runs and sibling-subtree
        // inner nodes ride the same round trip.
        const size_t needed = count - out->size();
        const size_t max_batch = config_.batched_scan ? kScanFanout : 1;
        // Pass 1 picks the items and allocates their buffers (which may
        // grow the pools and move them); pass 2 takes the now-stable
        // pointers for the doorbell.
        size_t guaranteed = 0;
        size_t spec_inner_bytes = 0;
        bool have_inner = false;
        batch_picks_.clear();
        for (size_t i = head; i < frontier_.size(); ++i) {
          if (batch_picks_.size() >= max_batch) break;
          if (guaranteed >= needed && !batch_picks_.empty()) break;
          ScanItem& it = frontier_[i];
          const bool is_leaf = slot_is_leaf(it.word);
          if (!is_leaf && !it.fetched && have_inner) {
            // Second and later inners draw on the speculation budget.
            const size_t nb = inner_node_bytes(slot_child_type(it.word));
            if (spec_inner_bytes + nb > kScanSpecInnerBytes) break;
            spec_inner_bytes += nb;
          }
          if (!it.fetched) {
            it.buf = is_leaf ? alloc_leaf() : alloc_inner();
            it.fetched = true;
            batch_picks_.push_back(i);
            if (!is_leaf) have_inner = true;
          }
          guaranteed +=
              is_leaf ? 1
                      : std::max<size_t>(
                            1, static_cast<size_t>(scan_keys_per_inner_));
        }
        const size_t selected = batch_picks_.size();
        rdma::DoorbellBatch batch(endpoint_);
        for (size_t i : batch_picks_) {
          ScanItem& it = frontier_[i];
          if (slot_is_leaf(it.word)) {
            LeafImage& img = scan_leaf_pool_[it.buf];
            img.resize(slot_leaf_units(it.word));
            batch.add_read(slot_addr(it.word), img.buf().data(),
                           img.buf().size());
          } else {
            batch.add_read(slot_addr(it.word), scan_inner_pool_[it.buf].raw(),
                           inner_node_bytes(slot_child_type(it.word)));
          }
        }
        if (fused_root_pending) {
          // Piggyback the root revalidation on the round trip we are
          // paying anyway (satellite of the jump-start: no standalone
          // root RTT even on the --no-scan-jump fallback path).
          batch.add_read(ref_.root, scan_root_fresh_.raw(),
                         inner_node_bytes(NodeType::kN256));
        }
        {
          rdma::PhaseScope scan_scope(endpoint_, rdma::Phase::kScanFrontier);
          batch.execute();
        }
        stats_.scan.frontier_batches++;
        stats_.scan.frontier_nodes += selected;
        if (fused_root_pending) {
          fused_root_pending = false;
          const uint32_t lo0 = bound.byte(0);
          const uint32_t hi0 = high != nullptr ? high->byte(0) : 0xff;
          bool stale = false;
          for (uint32_t p = lo0; p <= hi0 && !stale; ++p) {
            stale = scan_root_cache_.slot(p) != scan_root_fresh_.slot(p);
          }
          scan_root_cache_ = scan_root_fresh_;
          if (stale) {
            // The cached root missed a structural change inside the scan
            // window: rebuild the frontier from the fresh image (the
            // just-fetched children are simply discarded).
            stats_.scan.root_refreshes++;
            frontier_.clear();
            free_inner_bufs_.clear();
            for (uint32_t i = 0; i < scan_inner_pool_.size(); ++i) {
              free_inner_bufs_.push_back(i);
            }
            free_leaf_bufs_.clear();
            for (uint32_t i = 0; i < scan_leaf_pool_.size(); ++i) {
              free_leaf_bufs_.push_back(i);
            }
            head = 0;
            expand_into_frontier(ref_.root, scan_root_cache_, bound, high,
                                 true, high != nullptr, 0,
                                 register_scan_prefix(Slice()));
            continue;
          }
        }
        // Replace every fetched inner node that validates by its in-window
        // children, at its own position, so the next batch reads the leaves
        // of all these subtrees at once. A node that fails stays fetched
        // for the head loop to recover.
        for (size_t i = head; i < frontier_.size();) {
          ScanItem it = frontier_[i];  // a copy: the erase below moves it
          const int child_prefix =
              it.fetched && !slot_is_leaf(it.word)
                  ? compose_scan_child_prefix(it, scan_inner_pool_[it.buf])
                  : -1;
          if (child_prefix < 0) {
            ++i;
            continue;
          }
          // The image stays valid: a freed pool slot is reused only by a
          // later batch. The children land at i, unfetched, and are
          // stepped over by the next iterations.
          release_buf(it);
          frontier_.erase(frontier_.begin() + static_cast<ptrdiff_t>(i));
          expand_into_frontier(slot_addr(it.word), scan_inner_pool_[it.buf],
                               bound, high, it.lo_bounded, it.hi_bounded, i,
                               static_cast<uint32_t>(child_prefix));
        }
      }

      // Consume validated items off the front, strictly in key order.
      while (head < frontier_.size() && frontier_[head].fetched &&
             out->size() < count) {
        ScanItem& it = frontier_[head];
        if (slot_is_leaf(it.word)) {
          LeafImage& leaf = scan_leaf_pool_[it.buf];
          const bool torn = leaf.units() != slot_leaf_units(it.word) ||
                            leaf.revalidate() == LeafImage::Revalidate::kBad;
          if (torn || leaf.status() == NodeStatus::kInvalid) {
            if (torn) stats_.torn_leaf_rereads++;
            release_buf(it);
            const ScanRecover r =
                recover_scan_item(it, /*leaf_deleted=*/!torn, policy,
                                  &attempt);
            if (r == ScanRecover::kRefetch) break;  // re-batch from head
            if (r == ScanRecover::kGone) {
              head++;
              continue;
            }
            if (r == ScanRecover::kRestart) {
              restart = true;
              break;
            }
            // kDrop: budget exhausted -- a live leaf may be lost; say so.
            stats_.scan.leaf_drops++;
            mark_truncated();
            head++;
            continue;
          }
          const Slice lk = leaf.key();
          if (!scan_leaf_linked(it, lk)) {
            // A valid image whose key does not belong at this position:
            // the original leaf was freed and its block recycled for an
            // unrelated key. The live parent slot decides what (if
            // anything) lives on this branch byte now; the original key
            // was genuinely removed, so skipping is linearizable.
            release_buf(it);
            const ScanRecover r =
                recover_scan_item(it, /*leaf_deleted=*/true, policy,
                                  &attempt);
            if (r == ScanRecover::kRefetch) break;
            if (r == ScanRecover::kGone) {
              head++;
              continue;
            }
            if (r == ScanRecover::kRestart) {
              restart = true;
              break;
            }
            stats_.scan.leaf_drops++;
            mark_truncated();
            head++;
            continue;
          }
          if (it.lo_bounded) {
            const int c = lk.compare(bound.full());
            if (c < 0 || (low_exclusive && c == 0)) {
              release_buf(it);
              head++;
              continue;
            }
          }
          // In-order walk: the first leaf beyond the upper bound completes
          // a Scan(K1, K2) (terminated keys compare in user-key order).
          if (high != nullptr && lk.compare(high->full()) > 0) {
            return;
          }
          // A scan emit is a fully verified (key, leaf) binding too: feed
          // the leaf address cache so point reads of scanned keys can jump.
          note_leaf_at(lk, slot_addr(it.word), slot_leaf_units(it.word));
          out->emplace_back(std::string(lk.data(), lk.size() - 1),  // no NUL
                            leaf.value().to_string());
          release_buf(it);
          head++;
        } else {
          // Valid inner nodes were expanded when their batch landed. One
          // still fetched failed compose_scan_child_prefix: a stale pointer,
          // or a recycled block from elsewhere in the tree. Re-resolve it.
          invalidate_inner(slot_addr(it.word), scan_inner_pool_[it.buf]);
          release_buf(it);
          const ScanRecover r =
              recover_scan_item(it, /*leaf_deleted=*/false, policy, &attempt);
          if (r == ScanRecover::kRefetch) break;
          if (r == ScanRecover::kGone) {
            head++;
            continue;
          }
          if (r == ScanRecover::kRestart) {
            restart = true;
            break;
          }
          // kDrop: a whole live subtree may be lost; count + truncate.
          stats_.scan.subtree_skips++;
          mark_truncated();
          head++;
        }
      }
    }

    if (restart) {
      // A dead ancestor invalidated the frontier's provenance. Re-enter
      // from the top with everything already emitted excluded; emitted
      // keys are strictly below every pending item, so no duplicates and
      // no gaps.
      stats_.scan.restarts++;
      if (!out->empty()) {
        resume.emplace(Slice(out->back().first));
        low_exclusive = true;
      }
      continue;
    }
    if (out->size() >= count) return;  // satisfied
    // Frontier exhausted. A range scan's entry covered [low, high]
    // entirely, and a root entry covered the whole tree: done.
    if (high != nullptr || entry_depth == 0) return;
    // Count scan spilled past the entry subtree: widen-and-resume. The
    // last emitted key becomes the exclusive bound and the next entry must
    // sit strictly above the exhausted subtree.
    stats_.scan.widen_resumes++;
    count_cap = entry_depth - 1;
    exhausted_subtree = entry_addr;
    have_exhausted = true;
    if (!out->empty()) {
      resume.emplace(Slice(out->back().first));
      low_exclusive = true;
    }
  }
}

}  // namespace sphinx::art
