#include "core/sphinx_index.h"

#include <algorithm>
#include <cassert>

namespace sphinx::core {

SphinxRefs create_sphinx(mem::Cluster& cluster, uint8_t inht_initial_depth) {
  SphinxRefs refs;
  refs.tree = art::create_tree(cluster);
  refs.inht = create_inht(cluster, inht_initial_depth);
  return refs;
}

SphinxIndex::SphinxIndex(mem::Cluster& cluster, rdma::Endpoint& endpoint,
                         mem::RemoteAllocator& allocator,
                         const SphinxRefs& refs, filter::CuckooFilter* filter,
                         filter::HintCache* pec, filter::HintCache* lac,
                         const art::TreeConfig& config)
    : RemoteTree(cluster, endpoint, allocator, refs.tree, config),
      inht_(cluster, endpoint, allocator, refs.inht),
      filter_(filter),
      pec_(pec),
      lac_(lac),
      round_(endpoint) {
  assert((filter_ != nullptr || (pec_ == nullptr && lac_ == nullptr)) &&
         "a PEC or LAC needs the filter");
}

bool SphinxIndex::search(Slice key, std::string* value_out) {
  // The speculative leaf read dereferences a cached remote address with no
  // descent backing it; the epoch pin keeps any concurrently retired leaf
  // out of the recycler until this op quiesces.
  mem::EpochPin epoch(allocator_);
  BatchOp op;
  op.key = key;
  op.value_out = value_out;
  run_staged(&op, 1);
  return op.ok;
}

void SphinxIndex::execute_batch(BatchOp* ops, size_t count) {
  // The runners submit every op through here, so a batch of one is a
  // serial op: only batches of two or more count in the batch_* stats.
  const bool pipelined = count > 1;
  if (pipelined) sstats_.batch_ops += count;
  // One pin brackets the whole batch: quiescence is announced at batch
  // boundaries (per-op pins inside the serial pass nest and collapse), so
  // the cross-op fused leaf reads can never chase a block that was
  // recycled mid-batch.
  mem::EpochPin epoch(allocator_);
  const StagedOutcome outcome = run_staged(ops, count);
  if (!pipelined) return;
  if (outcome.fused_round) sstats_.batch_fused_rounds++;
  sstats_.batch_fused_ops += outcome.fused_ops;
  sstats_.batch_serial_ops += count - outcome.fused_ops;
  sstats_.batch_shared_rounds += outcome.shared_rounds;
  sstats_.batch_shared_ops += outcome.shared_ops;
}

SphinxIndex::StagedOutcome SphinxIndex::run_staged(BatchOp* ops,
                                                   size_t count) {
  using Stage = BatchSlot::Stage;
  StagedOutcome outcome;
  if (batch_slots_.size() < count) batch_slots_.resize(count);

  // Stage 1 (local, zero round trips): probe the LAC for every search op
  // in batch order. A hit plans its speculative leaf read; a cold hit also
  // plans the PEC-hinted fallback inner read so a stale leaf already holds
  // its rescue descent's start node. A miss begins attempt 0, whose first
  // read then rides the first round with the hits' leaf reads.
  for (size_t i = 0; i < count; ++i) {
    BatchSlot& s = batch_slots_[i];
    s.stage = Stage::kIdle;
    s.posted = false;
    s.key.reset();
    if (ops[i].kind != BatchOp::Kind::kSearch) continue;
    s.key.emplace(ops[i].key);
    const art::TerminatedKey& tkey = *s.key;
    begin_descent(s.descent);
    s.fused_len = 0;
    uint64_t payload = 0;
    if (lac_ != nullptr) {
      s.full_hash = tkey.hash_of_prefix(tkey.size());
      endpoint_.advance_local(rdma::kHintProbeNs);
      s.hot = false;
      if (lac_->lookup(s.full_hash, &payload, &s.hot)) {
        sstats_.lac_hits++;
        s.units = filter::lac_payload_units(payload);
        s.leaf_addr =
            rdma::GlobalAddr::from48(filter::lac_payload_addr48(payload));
        s.stage = Stage::kLacRead;
      }
    }
    if (s.stage != Stage::kLacRead) {
      s.stage = Stage::kWalk;
      begin_attempt(s);
      if (s.stage == Stage::kWalk) {
        begin_walk(s.walk, tkey, tkey.size() - 1, &s.descent.path.back());
      }
      continue;
    }
    if (s.hot || pec_ == nullptr) continue;
    const uint32_t max_len = tkey.size() - 1;
    std::vector<uint64_t>& hashes = s.walk.hashes;
    hashes.resize(max_len + 1);
    for (uint32_t l = 1; l <= max_len; ++l) hashes[l] = tkey.hash_of_prefix(l);
    endpoint_.advance_local(rdma::kPrefixHashNs * max_len);
    for (uint32_t l = max_len; l >= 1; --l) {
      endpoint_.advance_local(rdma::kFilterProbeNs);
      if (!filter_->contains(hashes[l])) continue;
      endpoint_.advance_local(rdma::kHintProbeNs);
      uint64_t p = 0;
      bool inner_hot = false;
      if (!pec_->lookup(hashes[l], &p, &inner_hot)) continue;
      sstats_.pec_hits++;
      s.fused_len = l;
      s.fused_hash = hashes[l];
      s.fused_payload = p;
      break;
    }
  }

  // Rounds: every op still walking posts its next dependent read into one
  // doorbell. The first round also carries every LAC hit's leaf read plus
  // the cold hits' fused inner reads, and is charged to kLacFusedRead;
  // any other round is charged whole to the phase of its first poster in
  // batch order (phases charge per round trip, never per verb or per op;
  // rdma/phase.h), so per-phase sums stay exactly equal to totals.
  for (;;) {
    round_.clear();
    bool lac_round = false;
    rdma::Phase phase = rdma::Phase::kUnattributed;
    for (size_t i = 0; i < count; ++i) {
      BatchSlot& s = batch_slots_[i];
      s.posted = false;
      if (s.stage == Stage::kLacRead) {
        Descent& d = s.descent;
        d.leaf.resize(s.units);
        round_.add_read(s.leaf_addr, d.leaf.buf().data(),
                        d.leaf.buf().size());
        if (s.fused_len > 0) {
          const art::NodeType ftype = inht_payload_type(s.fused_payload);
          round_.add_read(inht_payload_addr(s.fused_payload),
                          d.path.back().image.raw(),
                          art::inner_node_bytes(ftype));
        }
        s.posted = lac_round = true;
        continue;
      }
      const bool first = round_.empty();
      rdma::Phase p = rdma::Phase::kUnattributed;
      if (!post_search_step(s, ops[i], &p, &outcome)) continue;
      s.posted = true;
      if (first) phase = p;
    }
    if (round_.empty()) break;
    if (lac_round) {
      outcome.fused_round = true;
      phase = rdma::Phase::kLacFusedRead;
    } else {
      outcome.shared_rounds++;
    }
    {
      rdma::PhaseScope round_scope(endpoint_, phase);
      round_.execute();
    }
    for (size_t i = 0; i < count; ++i) {
      if (batch_slots_[i].posted) {
        resolve_search_step(batch_slots_[i], ops[i], &outcome);
      }
    }
  }

  // Serial pass, in batch order: searches whose attempt 0 ended elsewhere
  // than a verdict continue the retry loop from attempt 1, and mutations
  // run here.
  for (size_t i = 0; i < count; ++i) {
    BatchOp& op = ops[i];
    if (op.done) continue;
    BatchSlot& s = batch_slots_[i];
    if (op.kind != BatchOp::Kind::kSearch) {
      execute_one(op);
      continue;
    }
    assert(s.stage == Stage::kSerial);
    op.ok = search_attempts(*s.key, op.value_out, *s.policy, s.next_attempt,
                            s.allow_custom);
    op.done = true;
    op.done_clock_ns = endpoint_.clock_ns();
  }
  return outcome;
}

void SphinxIndex::begin_attempt(BatchSlot& s) {
  s.policy.emplace(endpoint_, config_.retry, &stats_.backoff);
  s.allow_custom = true;
  s.next_attempt = 1;
  // Attempt 0's backoff is free; a zero attempt budget times the op out
  // in the serial pass, as search_attempts() would.
  if (!s.policy->backoff(0)) {
    s.next_attempt = 0;
    s.stage = BatchSlot::Stage::kSerial;
  }
}

bool SphinxIndex::post_search_step(BatchSlot& s, BatchOp& op,
                                   rdma::Phase* phase,
                                   StagedOutcome* outcome) {
  using Stage = BatchSlot::Stage;
  Descent& d = s.descent;
  for (;;) {
    switch (s.stage) {
      case Stage::kWalk:
        if (post_walk(s.walk, &round_, phase)) return true;
        if (s.walk.step == StartWalk::Step::kFound) {
          sstats_.start_successes++;
          d.from_custom_start = true;
          s.stage = Stage::kStep;
          continue;
        }
        sstats_.root_fallbacks++;
        round_.add_read(enter_at_root(d, /*allow_replica_root=*/true),
                        d.path.back().image.raw(),
                        art::inner_node_bytes(art::NodeType::kN256));
        *phase = rdma::Phase::kInnerRead;
        s.stage = Stage::kRoot;
        return true;
      case Stage::kStep:
        switch (descend_step(*s.key, d)) {
          case DescendStep::kDone:
            finish_attempt(s, op, outcome);
            return false;
          case DescendStep::kFetchInner:
            round_.add_read(d.path.back().addr, d.path.back().image.raw(),
                            art::inner_node_bytes(child_type(d)));
            *phase = rdma::Phase::kInnerRead;
            s.stage = Stage::kChild;
            return true;
          case DescendStep::kReadLeaf:
            s.leaf_reads = 0;
            s.stage = Stage::kLeaf;
            continue;
        }
        return false;
      case Stage::kLeaf:
        round_.add_read(d.leaf_addr, d.leaf.buf().data(), d.leaf.buf().size());
        *phase = rdma::Phase::kLeafRead;
        return true;
      default:
        return false;
    }
  }
}

void SphinxIndex::resolve_search_step(BatchSlot& s, BatchOp& op,
                                      StagedOutcome* outcome) {
  using Stage = BatchSlot::Stage;
  switch (s.stage) {
    case Stage::kLacRead:
      resolve_lac(s, op, outcome);
      return;
    case Stage::kWalk:
      resolve_walk(s.walk, round_);
      return;
    case Stage::kRoot:
      s.stage = Stage::kStep;
      return;
    case Stage::kChild:
      if (child_landed(s.descent)) {
        s.stage = Stage::kStep;
      } else {
        finish_attempt(s, op, outcome);
      }
      return;
    case Stage::kLeaf:
      if (leaf_landed(*s.key, s.descent, ++s.leaf_reads)) {
        finish_attempt(s, op, outcome);
      }
      return;
    default:
      return;
  }
}

void SphinxIndex::resolve_lac(BatchSlot& s, BatchOp& op,
                              StagedOutcome* outcome) {
  // Validate the speculative leaf like a descent-found leaf -- unit count,
  // CRC, status, then the byte-exact key compare that makes wrong answers
  // structurally impossible even for ABA-recycled blocks. Only an Idle
  // leaf is served: a Locked one may be an out-of-place update's old leaf,
  // already cut from the tree by a writer that died before retiring it, so
  // it falls back to a descent, which reads through the tree.
  const art::TerminatedKey& tkey = *s.key;
  Descent& d = s.descent;
  art::LeafImage& leaf = d.leaf;
  const bool image_ok = leaf.units() == s.units &&
                        leaf.revalidate() != art::LeafImage::Revalidate::kBad &&
                        leaf.status() == art::NodeStatus::kIdle;
  if (image_ok && leaf.key() == tkey.full()) {
    // Final audit on the exact image being returned. The gate above
    // already established both properties, so a failure here means the
    // fast path itself is broken; the regression gate fails on a nonzero
    // count.
    if (!leaf.checksum_ok() || leaf.key() != tkey.full()) {
      sstats_.lac_wrong_value++;
    } else {
      if (op.value_out != nullptr) {
        op.value_out->assign(leaf.value().data(), leaf.value().size());
      }
      if (!s.hot) sstats_.lac_fused_wins++;
      op.ok = true;
      op.done = true;
      op.done_clock_ns = endpoint_.clock_ns();
      s.stage = BatchSlot::Stage::kDone;
      outcome->fused_ops++;
      return;
    }
  }
  // Stale binding: the key moved (delete, delete+reinsert, out-of-place
  // update) or another key's entry shares its tag. Purge it -- keyed on
  // the address so a concurrent refresh survives; the search that follows
  // repopulates the cache on success (staleness self-heals).
  sstats_.lac_stale++;
  lac_->invalidate_if(s.full_hash, s.leaf_addr.to48());
  begin_attempt(s);
  if (s.stage == BatchSlot::Stage::kSerial) return;
  if (s.fused_len > 0) {
    const art::NodeType ftype = inht_payload_type(s.fused_payload);
    const rdma::GlobalAddr faddr = inht_payload_addr(s.fused_payload);
    if (validate_start(s.fused_len, s.fused_hash, ftype, faddr,
                       &d.path.back())) {
      // The fused inner read already validated a start node for this key:
      // the descent goes on from it for 0 extra round trips.
      sstats_.lac_fused_losses++;
      sstats_.start_successes++;
      d.from_custom_start = true;
      s.stage = BatchSlot::Stage::kStep;
      return;
    }
    sstats_.pec_stale++;
    pec_->invalidate_if(s.fused_hash, faddr.to48());
  }
  begin_walk(s.walk, tkey, tkey.size() - 1, &d.path.back());
  s.stage = BatchSlot::Stage::kWalk;
}

void SphinxIndex::finish_attempt(BatchSlot& s, BatchOp& op,
                                 StagedOutcome* outcome) {
  if (s.descent.status == DescendStatus::kFoundLeaf) {
    take_found_leaf(s.descent, op.value_out);
    op.ok = true;
  } else if (miss_verdict(s.descent, 0, &s.allow_custom) ==
             MissVerdict::kAbsent) {
    op.ok = false;
  } else {
    s.stage = BatchSlot::Stage::kSerial;
    return;
  }
  op.done = true;
  op.done_clock_ns = endpoint_.clock_ns();
  s.stage = BatchSlot::Stage::kDone;
  outcome->shared_ops++;
}

bool SphinxIndex::validate_start(uint32_t len, uint64_t hash,
                                 art::NodeType type, rdma::GlobalAddr addr,
                                 PathEntry* out) {
  // Verify the fetched node against the entry's metadata and the full
  // prefix hash stored in its header. (The paper uses a 12-bit fp2 plus a
  // 42-bit header hash; the node header here carries the full 64-bit
  // prefix hash, so surviving collisions are negligible and the leaf-level
  // common-prefix check in RemoteTree remains the last line of defense.)
  if (out->image.status() == art::NodeStatus::kInvalid) return false;
  if (out->image.type() != type) return false;
  if (out->image.depth() != len) return false;
  if (out->image.prefix_hash_full() != hash) return false;
  out->addr = addr;
  out->parent_depth = len;  // empty fragment window: prefix hash-verified
  out->taken_slot = -1;
  out->taken_word = 0;
  return true;
}

void SphinxIndex::begin_walk(StartWalk& w, const art::TerminatedKey& key,
                             uint32_t max_len, PathEntry* out) {
  using Step = StartWalk::Step;
  w.out = out;
  w.max_len = max_len;
  w.len = max_len;
  w.parallel = false;
  if (max_len < 1) {  // only the root can be an ancestor
    w.step = Step::kFailed;
    return;
  }
  // Hash every candidate prefix locally (lengths 1 .. max_len).
  w.hashes.resize(max_len + 1);
  for (uint32_t l = 1; l <= max_len; ++l) w.hashes[l] = key.hash_of_prefix(l);
  endpoint_.advance_local(rdma::kPrefixHashNs * max_len);
  w.step = filter_ != nullptr ? Step::kScan : Step::kParallel;
}

bool SphinxIndex::post_walk(StartWalk& w, rdma::DoorbellBatch* batch,
                            rdma::Phase* phase) {
  using Step = StartWalk::Step;
  for (;;) {
    switch (w.step) {
      case Step::kScan: {
        // Longest prefix present in the succinct filter cache -> PEC
        // probe, then at most one hash-entry read (Sec. III-B).
        if (w.len < 1) {
          w.step = Step::kParallel;
          continue;
        }
        const uint64_t hash = w.hashes[w.len];
        endpoint_.advance_local(rdma::kFilterProbeNs);
        if (!filter_->contains(hash)) {
          w.len--;
          continue;
        }
        sstats_.filter_hits++;
        if (pec_ != nullptr) {
          endpoint_.advance_local(rdma::kHintProbeNs);
          bool hot = false;
          if (pec_->lookup(hash, &w.pec_payload, &hot)) {
            sstats_.pec_hits++;
            const art::NodeType type = inht_payload_type(w.pec_payload);
            const rdma::GlobalAddr addr = inht_payload_addr(w.pec_payload);
            // A high-confidence (hot) entry: one speculative node read
            // (the 2-RTT search). A cold one hedges by fusing the node
            // read with the INHT group read: a fresh entry wins outright;
            // a stale one already has the group in hand, so recovery
            // costs zero extra round trips. Either read is PEC-driven; the
            // doorbell is one round trip and phases attribute per round
            // trip, not per verb.
            *phase = post_entry_read(w, batch, type, addr,
                                     rdma::Phase::kPecValidate);
            if (!hot) {
              const race::RaceClient::Probe probe = inht_.plan_probe(hash);
              batch->add_read(probe.group_addr, w.fused_group.data(),
                              race::kGroupBytes);
              w.step = Step::kFusedRead;
            } else {
              w.step = Step::kPecRead;
            }
            return true;
          }
        }
        w.inht_attempt = 0;
        w.step = Step::kInhtSearch;
        continue;
      }
      case Step::kInhtSearch: {
        // Single-prefix INHT lookup: one round trip (Sec. III-B).
        const uint64_t hash = w.hashes[w.len];
        inht_.client_for(hash).post_search(hash, w.inht_attempt, batch,
                                           &w.inht_read);
        *phase = rdma::Phase::kInhtRead;
        w.step = Step::kInhtRead;
        return true;
      }
      case Step::kCandidate: {
        if (w.candidate == w.payloads.size()) {
          walk_missed(w);
          continue;
        }
        // One round trip: fetch the candidate node, verified on landing.
        const uint64_t payload = w.payloads[w.candidate];
        *phase = post_entry_read(w, batch, inht_payload_type(payload),
                                 inht_payload_addr(payload),
                                 rdma::Phase::kInnerRead);
        w.step = Step::kCandidateRead;
        return true;
      }
      case Step::kParallel:
        // Parallel INHT read: the hash entries of all prefixes in one
        // doorbell-batched round trip (Sec. III-A).
        sstats_.parallel_fallbacks++;
        w.groups.resize(w.max_len + 1);
        for (uint32_t l = 1; l <= w.max_len; ++l) {
          const race::RaceClient::Probe probe = inht_.plan_probe(w.hashes[l]);
          batch->add_read(probe.group_addr, w.groups[l].data(),
                          race::kGroupBytes);
        }
        *phase = rdma::Phase::kInhtRead;
        w.parallel = true;
        w.step = Step::kParallelRead;
        return true;
      case Step::kParallelNext:
        if (w.len < 1) {
          w.step = Step::kFailed;
          return false;
        }
        w.payloads.clear();
        race::RaceClient::match_group(w.hashes[w.len], w.groups[w.len].data(),
                                      w.payloads);
        if (w.payloads.empty()) {
          w.len--;
          continue;
        }
        w.candidate = 0;
        w.step = Step::kCandidate;
        continue;
      default:
        return false;
    }
  }
}

void SphinxIndex::resolve_walk(StartWalk& w,
                               const rdma::DoorbellBatch& batch) {
  using Step = StartWalk::Step;
  const uint64_t hash = w.hashes[w.len];
  switch (w.step) {
    case Step::kPecRead:
    case Step::kFusedRead: {
      const art::NodeType type = inht_payload_type(w.pec_payload);
      const rdma::GlobalAddr addr = inht_payload_addr(w.pec_payload);
      const bool fused = w.step == Step::kFusedRead;
      if (validate_entry_read(w, batch, type, addr)) {
        if (fused) sstats_.speculative_wins++;
        w.step = Step::kFound;
        return;
      }
      if (fused) sstats_.speculative_losses++;
      sstats_.pec_stale++;
      pec_->invalidate_if(hash, addr.to48());
      if (!fused) {
        // The prefix existed recently; re-resolve it through the INHT.
        w.inht_attempt = 0;
        w.step = Step::kInhtSearch;
        return;
      }
      w.payloads.clear();
      race::RaceClient::match_group(hash, w.fused_group.data(), w.payloads);
      w.candidate = 0;
      w.step = Step::kCandidate;
      return;
    }
    case Step::kInhtRead:
      w.payloads.clear();
      if (!inht_.client_for(hash).finish_search(hash, w.inht_read,
                                                w.payloads) &&
          ++w.inht_attempt < race::RaceClient::kSearchAttempts) {
        w.step = Step::kInhtSearch;  // the directory was stale: read again
        return;
      }
      w.candidate = 0;
      w.step = Step::kCandidate;
      return;
    case Step::kCandidateRead: {
      const uint64_t payload = w.payloads[w.candidate];
      const art::NodeType type = inht_payload_type(payload);
      const rdma::GlobalAddr addr = inht_payload_addr(payload);
      if (!validate_entry_read(w, batch, type, addr)) {
        w.candidate++;
        w.step = Step::kCandidate;
        return;
      }
      // Cache the verified entry so the next search for this prefix skips
      // the INHT read (the 2-RTT path).
      if (pec_ != nullptr) pec_->insert(hash, pack_inht_payload(type, addr));
      if (w.parallel && filter_ != nullptr) filter_->insert(hash);
      w.step = Step::kFound;
      return;
    }
    case Step::kParallelRead:
      w.len = w.max_len;
      w.step = Step::kParallelNext;
      return;
    default:
      return;
  }
}

rdma::Phase SphinxIndex::post_entry_read(StartWalk& w,
                                         rdma::DoorbellBatch* batch,
                                         art::NodeType type,
                                         rdma::GlobalAddr addr,
                                         rdma::Phase phase) {
  // An insert locks the node in this very doorbell, on the idle header the
  // entry predicts; the READ then lands under the lock (DESIGN.md Sec. 16).
  bool wrote_leaf = false;
  post_walk_lock(batch, addr,
                 art::pack_inner_header(art::NodeStatus::kIdle, type,
                                        static_cast<uint8_t>(w.len),
                                        w.hashes[w.len]),
                 &wrote_leaf);
  batch->add_read(addr, w.out->image.raw(), art::inner_node_bytes(type));
  return wrote_leaf ? rdma::Phase::kLeafWrite : phase;
}

bool SphinxIndex::validate_entry_read(StartWalk& w,
                                      const rdma::DoorbellBatch& batch,
                                      art::NodeType type,
                                      rdma::GlobalAddr addr) {
  const bool valid = validate_start(w.len, w.hashes[w.len], type, addr, w.out);
  switch (settle_walk_lock(batch, valid, w.out)) {
    case WalkLock::kTakesLeaf:
    case WalkLock::kGrows:
      sstats_.insert_walk_locks++;
      break;
    case WalkLock::kReleases:
      sstats_.insert_walk_lock_releases++;
      break;
    case WalkLock::kRejected:
      sstats_.insert_walk_lock_rejects++;
      break;
    case WalkLock::kNone:
      break;
  }
  return valid;
}

void SphinxIndex::walk_missed(StartWalk& w) {
  w.len--;
  if (w.parallel) {
    w.step = StartWalk::Step::kParallelNext;
    return;
  }
  // False positive (or stale entry): retry with a shorter prefix, as in
  // the paper's false-positive recovery.
  sstats_.fp_rejects++;
  w.step = StartWalk::Step::kScan;
}

bool SphinxIndex::start_search(const art::TerminatedKey& key,
                               uint32_t max_len, PathEntry* out) {
  begin_walk(walk_, key, max_len, out);
  rdma::Phase phase = rdma::Phase::kUnattributed;
  for (;;) {
    round_.clear();
    if (!post_walk(walk_, &round_, &phase)) break;
    {
      rdma::PhaseScope step_scope(endpoint_, phase);
      round_.execute();
    }
    resolve_walk(walk_, round_);
  }
  return walk_.step == StartWalk::Step::kFound;
}

bool SphinxIndex::find_start(const art::TerminatedKey& key, PathEntry* out) {
  if (!start_search(key, key.size() - 1, out)) {
    sstats_.root_fallbacks++;
    return false;
  }
  sstats_.start_successes++;
  return true;
}

bool SphinxIndex::find_scan_start(const art::TerminatedKey& key,
                                  uint32_t max_depth, PathEntry* out) {
  const uint32_t cap = std::min<uint32_t>(max_depth, key.size() - 1);
  if (!start_search(key, cap, out)) {
    sstats_.scan_root_fallbacks++;
    return false;
  }
  sstats_.scan_start_successes++;
  return true;
}

}  // namespace sphinx::core
