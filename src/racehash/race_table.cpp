#include "racehash/race_table.h"

#include <cassert>
#include <cstring>
#include <stdexcept>

namespace sphinx::race {

namespace {

// Header word: lock:1 | version:39 | suffix:16 | local_depth:8.
// The suffix field stores (segment's low hash bits), letting clients detect
// a stale directory cache deterministically.
uint64_t pack_header(bool locked, uint64_t version, uint16_t suffix,
                     uint8_t ld) {
  return (locked ? 1ULL << 63 : 0) | ((version & ((1ULL << 39) - 1)) << 24) |
         (static_cast<uint64_t>(suffix) << 8) | ld;
}
bool hdr_locked(uint64_t w) { return (w >> 63) != 0; }
uint64_t hdr_version(uint64_t w) { return (w >> 24) & ((1ULL << 39) - 1); }
uint16_t hdr_suffix(uint64_t w) {
  return static_cast<uint16_t>((w >> 8) & 0xffff);
}
uint8_t hdr_ld(uint64_t w) { return static_cast<uint8_t>(w & 0xff); }

uint64_t pack_descriptor(uint8_t gd, uint64_t dir_offset) {
  return (static_cast<uint64_t>(gd) << 48) | (dir_offset & ((1ULL << 48) - 1));
}
uint8_t desc_gd(uint64_t d) { return static_cast<uint8_t>(d >> 48); }
uint64_t desc_offset(uint64_t d) { return d & ((1ULL << 48) - 1); }

uint16_t suffix_of(uint64_t hash, uint8_t ld) {
  return static_cast<uint16_t>(hash & ((1ULL << ld) - 1));
}

// While a segment is locked, the top 8 bits of its 39-bit version field
// carry the holder's client id; the true (monotonic) version keeps the low
// 31 bits. Version comparisons only ever happen between *unlocked* headers,
// where the owner bits are zero.
uint64_t lease_version(uint8_t owner, uint64_t version) {
  return (static_cast<uint64_t>(owner) << 31) | (version & 0x7fffffff);
}
uint64_t hdr_true_version(uint64_t w) { return hdr_version(w) & 0x7fffffff; }

// Dir lock word: 0 = free, else 1<<63 | owner:8 << 23 | stamp:23.
uint64_t pack_dir_lease(uint8_t owner, uint32_t stamp) {
  return (1ULL << 63) | (static_cast<uint64_t>(owner) << 23) |
         (stamp & rdma::kLeaseStamp23Mask);
}

}  // namespace

TableRef create_table(mem::Cluster& cluster, uint32_t mn,
                      uint8_t initial_depth) {
  assert(initial_depth <= kMaxGlobalDepth);
  rdma::Endpoint loader = cluster.make_loader_endpoint();
  mem::RemoteAllocator allocator(cluster, loader);

  TableRef ref;
  ref.mn = mn;
  ref.descriptor = cluster.reserve_bootstrap_slot(mn);
  ref.dir_lock = cluster.reserve_bootstrap_slot(mn);

  const uint64_t num_segments = 1ULL << initial_depth;
  std::vector<uint64_t> dir(num_segments);
  std::vector<uint8_t> zero_segment(kSegmentBytes, 0);
  for (uint64_t i = 0; i < num_segments; ++i) {
    rdma::GlobalAddr seg =
        allocator.alloc(mn, kSegmentBytes, mem::AllocTag::kHashTable);
    loader.write(seg, zero_segment.data(), kSegmentBytes);
    loader.write64(seg, pack_header(false, 0,
                                    static_cast<uint16_t>(i), initial_depth));
    dir[i] = seg.offset();
  }

  rdma::GlobalAddr dir_addr = allocator.alloc(
      mn, num_segments * 8, mem::AllocTag::kHashTable);
  loader.write(dir_addr, dir.data(), num_segments * 8);
  loader.write64(ref.descriptor,
                 pack_descriptor(initial_depth, dir_addr.offset()));
  loader.write64(ref.dir_lock, 0);
  return ref;
}

RaceClient::RaceClient(mem::Cluster& cluster, rdma::Endpoint& endpoint,
                       mem::RemoteAllocator& allocator, const TableRef& table,
                       Rehasher rehasher)
    : cluster_(cluster),
      endpoint_(endpoint),
      allocator_(allocator),
      table_(table),
      rehasher_(std::move(rehasher)) {}

void RaceClient::refresh_directory() {
  rdma::PhaseScope phase(endpoint_, rdma::Phase::kInhtRead);
  const uint64_t desc = endpoint_.read64(table_.descriptor);
  global_depth_ = desc_gd(desc);
  const uint64_t n = 1ULL << global_depth_;
  dir_cache_.resize(n);
  endpoint_.read(rdma::GlobalAddr(table_.mn, desc_offset(desc)),
                 dir_cache_.data(), n * 8);
  stats_.dir_refreshes++;
}

RaceClient::Probe RaceClient::plan_probe(uint64_t hash) {
  if (dir_cache_.empty()) refresh_directory();
  Probe probe;
  probe.hash = hash;
  probe.group_addr = group_addr(dir_cache_[dir_index(hash)], hash);
  return probe;
}

void RaceClient::match_group(uint64_t hash,
                             const uint64_t group[kSlotsPerGroup],
                             std::vector<uint64_t>& payloads_out) {
  for (uint32_t i = 0; i < kSlotsPerGroup; ++i) {
    if (entry_matches(group[i], hash)) {
      payloads_out.push_back(entry_payload(group[i]));
    }
  }
}

void RaceClient::search(uint64_t hash, std::vector<uint64_t>& payloads_out) {
  rdma::PhaseScope phase(endpoint_, rdma::Phase::kInhtRead);
  SearchRead read;
  rdma::DoorbellBatch batch(endpoint_);
  for (uint32_t attempt = 0; attempt < kSearchAttempts; ++attempt) {
    batch.clear();
    post_search(hash, attempt, &batch, &read);
    batch.execute();
    if (finish_search(hash, read, payloads_out)) return;
  }
}

void RaceClient::post_search(uint64_t hash, uint32_t attempt,
                             rdma::DoorbellBatch* batch, SearchRead* read) {
  if (attempt == 0) stats_.searches++;
  if (dir_cache_.empty()) refresh_directory();
  const uint64_t seg_offset = dir_cache_[dir_index(hash)];
  // Header + group in one doorbell batch: one round trip, two messages.
  batch->add_read(rdma::GlobalAddr(table_.mn, seg_offset), &read->header, 8);
  batch->add_read(group_addr(seg_offset, hash), read->group,
                  sizeof(read->group));
}

bool RaceClient::finish_search(uint64_t hash, const SearchRead& read,
                               std::vector<uint64_t>& payloads_out) {
  const uint8_t ld = hdr_ld(read.header);
  if (suffix_of(hash, ld) != hdr_suffix(read.header)) {
    refresh_directory();  // stale cache: the segment split/moved
    return false;
  }
  match_group(hash, read.group, payloads_out);
  return true;
}

bool RaceClient::insert(uint64_t hash, uint64_t payload) {
  rdma::PhaseScope phase(endpoint_, rdma::Phase::kInhtWrite);
  stats_.inserts++;
  const uint64_t entry = make_entry(hash, payload);

  rdma::RetryPolicy policy(endpoint_, retry_cfg_, &stats_.backoff);
  for (uint32_t attempt = 0;; ++attempt) {
    if (!policy.backoff(attempt)) {
      stats_.recovery.retry_timeouts++;
      return false;
    }
    if (dir_cache_.empty()) refresh_directory();
    const uint64_t seg_offset = dir_cache_[dir_index(hash)];
    const rdma::GlobalAddr header_addr(table_.mn, seg_offset);
    const rdma::GlobalAddr gaddr = group_addr(seg_offset, hash);

    // Round trip 1: segment header + target group.
    uint64_t header = 0;
    uint64_t group[kSlotsPerGroup];
    {
      rdma::DoorbellBatch batch(endpoint_);
      batch.add_read(header_addr, &header, 8);
      batch.add_read(gaddr, group, sizeof(group));
      batch.execute();
    }
    if (hdr_locked(header)) {
      note_busy_segment(seg_offset, header);  // reclaims if the lease expires
      stats_.insert_retries++;
      continue;  // split in progress; retry
    }
    if (suffix_of(hash, hdr_ld(header)) != hdr_suffix(header)) {
      refresh_directory();
      stats_.insert_retries++;
      continue;
    }

    int free_slot = -1;
    for (uint32_t i = 0; i < kSlotsPerGroup; ++i) {
      if (group[i] == 0) {
        free_slot = static_cast<int>(i);
        break;
      }
    }
    if (free_slot < 0) {
      if (!split_segment(hash)) return false;
      stats_.insert_retries++;
      continue;
    }

    // Round trip 2: CAS the slot, then read the header *after* the CAS in
    // the same batch. If the version is unchanged from round trip 1, no
    // split interleaved and the entry is durably placed.
    uint64_t header_after = 0;
    rdma::DoorbellBatch batch(endpoint_);
    const size_t cas_idx = batch.add_cas(
        gaddr.plus(static_cast<uint64_t>(free_slot) * 8), 0, entry,
        rdma::FaultSite::kHashInsert);
    batch.add_read(header_addr, &header_after, 8);
    batch.execute();
    if (!batch.cas_ok(cas_idx)) {
      stats_.insert_retries++;
      continue;  // lost the slot to a concurrent insert
    }
    if (hdr_version(header_after) == hdr_version(header) &&
        !hdr_locked(header_after)) {
      return true;
    }
    // A split raced with our CAS; the entry may have been relocated or
    // dropped. Verify with a version-bracketed read (a plain search could
    // observe the entry mid-split, just before the splitter's cleaned
    // segment write clobbers it); reinsert if it vanished.
    std::vector<uint64_t> found;
    refresh_directory();
    if (stable_search(hash, found)) {
      for (uint64_t p : found) {
        if (p == payload) return true;
      }
    }
    stats_.insert_retries++;
  }
}

bool RaceClient::update(uint64_t hash, uint64_t old_payload,
                        uint64_t new_payload) {
  rdma::PhaseScope phase(endpoint_, rdma::Phase::kInhtWrite);
  const uint64_t old_entry = make_entry(hash, old_payload);
  const uint64_t new_entry = make_entry(hash, new_payload);
  rdma::RetryPolicy policy(endpoint_, retry_cfg_, &stats_.backoff);
  for (uint32_t attempt = 0; attempt < retry_cfg_.max_attempts; ++attempt) {
    if (!policy.backoff(attempt)) break;
    if (dir_cache_.empty()) refresh_directory();
    const uint64_t seg_offset = dir_cache_[dir_index(hash)];
    const rdma::GlobalAddr header_addr(table_.mn, seg_offset);
    const rdma::GlobalAddr gaddr = group_addr(seg_offset, hash);

    uint64_t header = 0;
    uint64_t group[kSlotsPerGroup];
    {
      rdma::DoorbellBatch batch(endpoint_);
      batch.add_read(header_addr, &header, 8);
      batch.add_read(gaddr, group, sizeof(group));
      batch.execute();
    }
    if (hdr_locked(header)) {
      note_busy_segment(seg_offset, header);
      continue;
    }
    if (suffix_of(hash, hdr_ld(header)) != hdr_suffix(header)) {
      refresh_directory();
      continue;
    }
    int slot = -1;
    for (uint32_t i = 0; i < kSlotsPerGroup; ++i) {
      if (group[i] == old_entry) {
        slot = static_cast<int>(i);
        break;
      }
    }
    if (slot < 0) return false;

    uint64_t header_after = 0;
    rdma::DoorbellBatch batch(endpoint_);
    const size_t cas_idx = batch.add_cas(
        gaddr.plus(static_cast<uint64_t>(slot) * 8), old_entry, new_entry,
        rdma::FaultSite::kHashUpdate);
    batch.add_read(header_addr, &header_after, 8);
    batch.execute();
    if (!batch.cas_ok(cas_idx)) continue;
    if (hdr_version(header_after) == hdr_version(header) &&
        !hdr_locked(header_after)) {
      return true;
    }
    // Raced a split: confirm the new entry survived (version-bracketed).
    std::vector<uint64_t> found;
    refresh_directory();
    if (stable_search(hash, found)) {
      for (uint64_t p : found) {
        if (p == new_payload) return true;
      }
    }
  }
  stats_.recovery.retry_timeouts++;
  return false;
}

bool RaceClient::erase(uint64_t hash, uint64_t payload) {
  rdma::PhaseScope phase(endpoint_, rdma::Phase::kInhtWrite);
  const uint64_t entry = make_entry(hash, payload);
  rdma::RetryPolicy policy(endpoint_, retry_cfg_, &stats_.backoff);
  for (uint32_t attempt = 0; attempt < retry_cfg_.max_attempts; ++attempt) {
    if (!policy.backoff(attempt)) break;
    if (dir_cache_.empty()) refresh_directory();
    const uint64_t seg_offset = dir_cache_[dir_index(hash)];
    const rdma::GlobalAddr header_addr(table_.mn, seg_offset);
    const rdma::GlobalAddr gaddr = group_addr(seg_offset, hash);

    uint64_t header = 0;
    uint64_t group[kSlotsPerGroup];
    {
      rdma::DoorbellBatch batch(endpoint_);
      batch.add_read(header_addr, &header, 8);
      batch.add_read(gaddr, group, sizeof(group));
      batch.execute();
    }
    if (hdr_locked(header)) {
      note_busy_segment(seg_offset, header);
      continue;
    }
    if (suffix_of(hash, hdr_ld(header)) != hdr_suffix(header)) {
      refresh_directory();
      continue;
    }
    int slot = -1;
    for (uint32_t i = 0; i < kSlotsPerGroup; ++i) {
      if (group[i] == entry) {
        slot = static_cast<int>(i);
        break;
      }
    }
    if (slot < 0) return false;

    uint64_t header_after = 0;
    rdma::DoorbellBatch batch(endpoint_);
    const size_t cas_idx = batch.add_cas(
        gaddr.plus(static_cast<uint64_t>(slot) * 8), entry, 0,
        rdma::FaultSite::kHashErase);
    batch.add_read(header_addr, &header_after, 8);
    batch.execute();
    if (!batch.cas_ok(cas_idx)) continue;
    if (hdr_version(header_after) == hdr_version(header) &&
        !hdr_locked(header_after)) {
      return true;
    }
    // Raced a split: if the entry is gone everywhere, the erase stands
    // (either our CAS landed before the relocation snapshot, or the
    // relocation copied it and we must erase again).
    std::vector<uint64_t> found;
    refresh_directory();
    if (stable_search(hash, found)) {
      bool still_there = false;
      for (uint64_t p : found) {
        if (p == payload) still_there = true;
      }
      if (!still_there) return true;
    }
  }
  stats_.recovery.retry_timeouts++;
  return false;
}

bool RaceClient::split_segment(uint64_t hash) {
  rdma::PhaseScope phase(endpoint_, rdma::Phase::kInhtWrite);
  // Serialize splits (and directory doubling) behind the directory lock.
  // Splits are rare -- amortized once per kGroupsPerSegment*kSlotsPerGroup
  // inserts -- so coarse serialization costs little.
  if (!lock_directory()) return false;

  refresh_directory();
  const uint64_t seg_offset = dir_cache_[dir_index(hash)];
  const rdma::GlobalAddr header_addr(table_.mn, seg_offset);
  uint64_t header = endpoint_.read64(header_addr);

  // Segment locks are only ever taken while holding the dir lock, which we
  // now hold: a locked header here belongs to a crashed splitter. Recover
  // it, then let the caller's retry re-evaluate (the group may have room).
  if (hdr_locked(header)) {
    recover_segment(seg_offset, header);
    unlock_directory();
    return true;
  }
  const uint8_t ld = hdr_ld(header);
  const uint16_t suffix = hdr_suffix(header);

  if (ld >= kMaxGlobalDepth) {
    unlock_directory();
    return false;  // table at maximum size; group genuinely full
  }

  // Lock the segment (bump version so racing CAS writers detect us; the
  // version field's top bits carry our id while the lock is held).
  const uint8_t owner = static_cast<uint8_t>(endpoint_.fault_client_id());
  if (!endpoint_.cas(
          header_addr, header,
          pack_header(true, lease_version(owner, hdr_true_version(header) + 1),
                      suffix, ld),
          nullptr, rdma::FaultSite::kTableLock)) {
    unlock_directory();
    return true;  // raced; caller retries
  }

  if (ld == global_depth_) {
    if (!double_directory()) {
      // Out of MN memory for the doubled directory: unlock the (unmodified)
      // segment and surface the split as a failed insert. Version must still
      // advance so racing readers don't pair this unlock with a pre-lock
      // header read.
      endpoint_.write64(header_addr,
                        pack_header(false, hdr_true_version(header) + 2,
                                    suffix, ld),
                        rdma::FaultSite::kSplitPublish);
      unlock_directory();
      return false;
    }
  }

  // Snapshot the whole segment.
  std::vector<uint64_t> image(kSegmentBytes / 8);
  endpoint_.read(rdma::GlobalAddr(table_.mn, seg_offset), image.data(),
                 kSegmentBytes);

  const uint8_t new_ld = ld + 1;
  const uint16_t sibling_suffix =
      static_cast<uint16_t>(suffix | (1u << ld));
  std::vector<uint64_t> sibling(kSegmentBytes / 8, 0);

  for (uint64_t w = kSegmentHeaderBytes / 8; w < image.size(); ++w) {
    const uint64_t entry = image[w];
    if (!entry_valid(entry)) continue;
    const uint64_t h = rehasher_(entry_payload(entry));
    if (((h >> ld) & 1) != 0) {
      sibling[w] = entry;
      image[w] = 0;
    }
  }
  image[0] = pack_header(false, hdr_true_version(header) + 2, suffix, new_ld);
  sibling[0] = pack_header(false, 0, sibling_suffix, new_ld);

  const mem::AllocResult sibling_alloc =
      allocator_.try_alloc(table_.mn, kSegmentBytes, mem::AllocTag::kHashTable);
  if (!sibling_alloc.ok) {
    // No room for the sibling: nothing remote was modified yet (the image
    // edits are local), so unlock and report the group as genuinely full.
    endpoint_.write64(header_addr,
                      pack_header(false, hdr_true_version(header) + 2, suffix,
                                  ld),
                      rdma::FaultSite::kSplitPublish);
    unlock_directory();
    return false;
  }
  const rdma::GlobalAddr sibling_addr = sibling_alloc.addr;
  endpoint_.write(sibling_addr, sibling.data(), kSegmentBytes,
                  rdma::FaultSite::kSplitSibling);

  // Point the directory entries whose suffix selects the sibling at it.
  const uint64_t desc = endpoint_.read64(table_.descriptor);
  const uint8_t gd = desc_gd(desc);
  const uint64_t dir_base = desc_offset(desc);
  {
    rdma::DoorbellBatch batch(endpoint_);
    const uint64_t sib_off = sibling_addr.offset();
    for (uint64_t j = sibling_suffix; j < (1ULL << gd);
         j += (1ULL << new_ld)) {
      batch.add_write(rdma::GlobalAddr(table_.mn, dir_base + j * 8), &sib_off,
                      8, rdma::FaultSite::kSplitDir);
    }
    batch.execute();
  }

  // Publish the cleaned original segment (also unlocks it).
  publish_segment(rdma::GlobalAddr(table_.mn, seg_offset), image.data(),
                  rdma::FaultSite::kSplitPublish);

  unlock_directory();
  refresh_directory();
  stats_.splits++;
  return true;
}

void RaceClient::publish_segment(rdma::GlobalAddr addr, const uint64_t* image,
                                 rdma::FaultSite site) {
  rdma::DoorbellBatch batch(endpoint_);
  batch.add_write(rdma::GlobalAddr(addr.mn(), addr.offset() + 8), image + 1,
                  kSegmentBytes - 8, site);
  batch.add_write(addr, image, 8, site);
  batch.execute();
}

bool RaceClient::lock_directory() {
  rdma::PhaseScope phase(endpoint_, rdma::Phase::kLock);
  rdma::RetryPolicy policy(endpoint_, retry_cfg_, &stats_.backoff);
  const uint8_t owner = static_cast<uint8_t>(endpoint_.fault_client_id());
  for (uint32_t attempt = 0;; ++attempt) {
    if (!policy.backoff(attempt)) {
      stats_.recovery.retry_timeouts++;
      return false;
    }
    const uint64_t mine =
        pack_dir_lease(owner, rdma::lease_stamp23(endpoint_.clock_ns()));
    uint64_t observed = 0;
    if (endpoint_.cas(table_.dir_lock, 0, mine, &observed,
                      rdma::FaultSite::kTableLock)) {
      dir_watch_.reset();
      return true;
    }
    if (observed == 0) continue;  // injected CAS failure; plain retry
    if (!dir_watch_.observe(endpoint_, table_.dir_lock, observed)) continue;
    // The identical lease word sat there for a full lease: the holder
    // crashed. Take the lock over by CASing the watched word out.
    stats_.recovery.lease_expiries_observed++;
    if (endpoint_.cas(table_.dir_lock, observed, mine, nullptr,
                      rdma::FaultSite::kTableLock)) {
      stats_.recovery.lock_reclaims++;
      dir_watch_.reset();
      return true;
    }
    dir_watch_.reset();  // the word moved under us: progress was made
  }
}

void RaceClient::unlock_directory() {
  rdma::PhaseScope phase(endpoint_, rdma::Phase::kLock);
  endpoint_.write64(table_.dir_lock, 0, rdma::FaultSite::kLockRelease);
}

void RaceClient::note_busy_segment(uint64_t seg_offset, uint64_t header) {
  rdma::PhaseScope phase(endpoint_, rdma::Phase::kRecovery);
  if (!hdr_locked(header)) return;
  const rdma::GlobalAddr header_addr(table_.mn, seg_offset);
  if (!seg_watch_.observe(endpoint_, header_addr, header)) return;
  // The identical locked word sat there for a full lease: the splitter
  // crashed. Recover under the dir lock -- a crashed splitter held that
  // too, in which case lock_directory() reclaims it first.
  stats_.recovery.lease_expiries_observed++;
  if (lock_directory()) {
    const uint64_t now = endpoint_.read64(header_addr);
    if (now == header) {
      recover_segment(seg_offset, now);
    }
    unlock_directory();
  }
  seg_watch_.reset();
}

void RaceClient::recover_segment(uint64_t seg_offset, uint64_t locked_header) {
  rdma::PhaseScope phase(endpoint_, rdma::Phase::kRecovery);
  const rdma::GlobalAddr header_addr(table_.mn, seg_offset);
  const uint8_t ld = hdr_ld(locked_header);
  const uint16_t suffix = hdr_suffix(locked_header);
  const uint8_t new_ld = ld + 1;
  const uint16_t sibling_suffix = static_cast<uint16_t>(suffix | (1u << ld));
  const uint64_t true_v = hdr_true_version(locked_header);

  // How far did the crashed splitter get? The sibling segment is fully
  // written before any directory alias points at it, so an alias that no
  // longer targets this segment proves the sibling image is complete.
  const uint64_t desc = endpoint_.read64(table_.descriptor);
  const uint8_t gd = desc_gd(desc);
  const uint64_t dir_base = desc_offset(desc);
  bool sibling_visible = false;
  uint64_t sibling_off = 0;
  if (gd >= new_ld) {
    for (uint64_t j = sibling_suffix; j < (1ULL << gd); j += 1ULL << new_ld) {
      const uint64_t e =
          endpoint_.read64(rdma::GlobalAddr(table_.mn, dir_base + j * 8));
      if (e != seg_offset) {
        sibling_visible = true;
        sibling_off = e;
        break;
      }
    }
  }

  if (!sibling_visible) {
    // Roll back: no alias moved, so no reader ever reached the sibling
    // (the crashed splitter's half-written sibling, if any, is leaked).
    // Unlocking with a bumped version suffices -- every entry is still in
    // place, and writers whose CAS raced the crashed lock fail their
    // version check and re-verify through stable_search.
    endpoint_.write64(header_addr, pack_header(false, true_v + 1, suffix, ld),
                      rdma::FaultSite::kSplitPublish);
    stats_.recovery.lock_reclaims++;
    refresh_directory();
    return;
  }

  // Roll forward: finish the split against the *live* segment contents (the
  // crashed splitter's sibling image may predate entries CAS'd into the
  // original after its snapshot). Lock the sibling first so no raced insert
  // can be acknowledged between our snapshot and our full-segment publish.
  const rdma::GlobalAddr sibling_addr(table_.mn, sibling_off);
  const uint8_t owner = static_cast<uint8_t>(endpoint_.fault_client_id());
  uint64_t sib_hdr = endpoint_.read64(sibling_addr);
  for (int i = 0; i < 16 && !hdr_locked(sib_hdr); ++i) {
    // Headers only change under the dir lock (which we hold), so this CAS
    // can lose only to injected failures.
    const uint64_t locked =
        pack_header(true, lease_version(owner, hdr_true_version(sib_hdr) + 1),
                    hdr_suffix(sib_hdr), hdr_ld(sib_hdr));
    if (endpoint_.cas(sibling_addr, sib_hdr, locked, &sib_hdr,
                      rdma::FaultSite::kTableLock)) {
      sib_hdr = locked;
    }
  }
  if (!hdr_locked(sib_hdr)) {
    return;  // persistent injected CAS failure; the next recoverer retries
  }
  // (hdr_locked on entry means an earlier recoverer crashed mid
  // roll-forward while holding the sibling lock; under the dir lock that
  // holder is dead too, so we proceed over its lease.)

  std::vector<uint64_t> image(kSegmentBytes / 8);
  endpoint_.read(header_addr, image.data(), kSegmentBytes);
  std::vector<uint64_t> sibling(kSegmentBytes / 8);
  endpoint_.read(sibling_addr, sibling.data(), kSegmentBytes);

  for (uint64_t w = kSegmentHeaderBytes / 8; w < image.size(); ++w) {
    const uint64_t entry = image[w];
    if (!entry_valid(entry)) continue;
    const uint64_t h = rehasher_(entry_payload(entry));
    if (((h >> ld) & 1) == 0) continue;
    image[w] = 0;
    if (sibling[w] == entry) continue;  // the crashed splitter moved it
    if (sibling[w] == 0) {
      sibling[w] = entry;
      continue;
    }
    // Slot taken by an entry inserted directly into the sibling: use any
    // free slot in the same group. A full group (vanishingly rare during
    // recovery) keeps the entry in the original, where lookups miss it --
    // Sphinx treats INHT misses as cache misses, so this degrades, never
    // corrupts.
    const uint64_t g0 =
        kSegmentHeaderBytes / 8 +
        ((w - kSegmentHeaderBytes / 8) / kSlotsPerGroup) * kSlotsPerGroup;
    bool placed = false;
    for (uint64_t s = g0; s < g0 + kSlotsPerGroup; ++s) {
      if (sibling[s] == entry) {
        placed = true;
        break;
      }
      if (sibling[s] == 0) {
        sibling[s] = entry;
        placed = true;
        break;
      }
    }
    if (!placed) image[w] = entry;
  }
  sibling[0] = pack_header(false, hdr_true_version(sib_hdr) + 2,
                           hdr_suffix(sib_hdr), hdr_ld(sib_hdr));
  image[0] = pack_header(false, true_v + 1, suffix, new_ld);

  // Publish order mirrors the original split: sibling (its version bump
  // invalidates raced-in CAS acks), directory aliases (idempotent redo),
  // then the cleaned original -- which also unlocks it. Both segments are
  // live and locked here, so both publishes write the header word last.
  publish_segment(sibling_addr, sibling.data(),
                  rdma::FaultSite::kSplitSibling);
  {
    rdma::DoorbellBatch batch(endpoint_);
    for (uint64_t j = sibling_suffix; j < (1ULL << gd); j += 1ULL << new_ld) {
      batch.add_write(rdma::GlobalAddr(table_.mn, dir_base + j * 8),
                      &sibling_off, 8, rdma::FaultSite::kSplitDir);
    }
    batch.execute();
  }
  publish_segment(header_addr, image.data(), rdma::FaultSite::kSplitPublish);
  stats_.recovery.lock_reclaims++;
  stats_.recovery.lock_rollforwards++;
  refresh_directory();
}

bool RaceClient::stable_search(uint64_t hash,
                               std::vector<uint64_t>& payloads_out) {
  rdma::PhaseScope phase(endpoint_, rdma::Phase::kInhtRead);
  rdma::RetryPolicy policy(endpoint_, retry_cfg_, &stats_.backoff);
  for (uint32_t attempt = 0;; ++attempt) {
    if (!policy.backoff(attempt)) {
      stats_.recovery.retry_timeouts++;
      return false;
    }
    if (dir_cache_.empty()) refresh_directory();
    const uint64_t seg_offset = dir_cache_[dir_index(hash)];
    uint64_t h1 = 0;
    uint64_t h2 = 0;
    uint64_t group[kSlotsPerGroup];
    rdma::DoorbellBatch batch(endpoint_);
    batch.add_read(rdma::GlobalAddr(table_.mn, seg_offset), &h1, 8);
    batch.add_read(group_addr(seg_offset, hash), group, sizeof(group));
    batch.add_read(rdma::GlobalAddr(table_.mn, seg_offset), &h2, 8);
    batch.execute();
    if (hdr_locked(h1) || hdr_locked(h2)) {
      note_busy_segment(seg_offset, hdr_locked(h1) ? h1 : h2);
      continue;
    }
    if (h1 != h2) continue;  // a split completed mid-bracket
    if (suffix_of(hash, hdr_ld(h1)) != hdr_suffix(h1)) {
      refresh_directory();
      continue;
    }
    // Both brackets unlocked with equal versions: versions move on every
    // unlock, so the group image was read in a split-free window.
    match_group(hash, group, payloads_out);
    return true;
  }
}

bool RaceClient::double_directory() {
  rdma::PhaseScope phase(endpoint_, rdma::Phase::kInhtWrite);
  // Caller holds the directory lock.
  const uint64_t desc = endpoint_.read64(table_.descriptor);
  const uint8_t gd = desc_gd(desc);
  if (gd >= kMaxGlobalDepth) {
    throw std::runtime_error("race table: directory at maximum depth");
  }
  const uint64_t n = 1ULL << gd;
  std::vector<uint64_t> dir(n);
  endpoint_.read(rdma::GlobalAddr(table_.mn, desc_offset(desc)), dir.data(),
                 n * 8);
  std::vector<uint64_t> doubled(n * 2);
  for (uint64_t j = 0; j < n * 2; ++j) doubled[j] = dir[j & (n - 1)];

  const mem::AllocResult new_dir_alloc =
      allocator_.try_alloc(table_.mn, n * 2 * 8, mem::AllocTag::kHashTable);
  if (!new_dir_alloc.ok) return false;
  const rdma::GlobalAddr new_dir = new_dir_alloc.addr;
  endpoint_.write(new_dir, doubled.data(), n * 2 * 8,
                  rdma::FaultSite::kSplitSibling);
  endpoint_.write64(table_.descriptor,
                    pack_descriptor(gd + 1, new_dir.offset()),
                    rdma::FaultSite::kSplitDir);
  // Readers caching the old descriptor may still probe through the old
  // directory array, so it goes into epoch quarantine rather than straight
  // to the freelist. A reader that loses the race and follows a recycled
  // entry lands on a segment whose suffix no longer matches its hash and
  // refreshes -- but epochs make that window end before recycling begins.
  allocator_.retire(rdma::GlobalAddr(table_.mn, desc_offset(desc)), n * 8,
                    mem::AllocTag::kHashTable);
  global_depth_ = gd + 1;
  dir_cache_ = std::move(doubled);
  stats_.dir_doublings++;
  return true;
}

}  // namespace sphinx::race
