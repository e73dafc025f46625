// Epoch-based remote-memory reclamation: EpochManager protocol units
// (stamp+2 ripeness, advance gating, crashed-slot expiry under the
// double-observation lease), the deterministic ABA-resurrection oracle
// (a recycled leaf block must never be served for its old key), the
// churn shadow-model oracle across the index families, and degraded-mode
// recovery (exhaustion -> removes -> inserts succeed again).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "art/key.h"
#include "core/sphinx_index.h"
#include "filter/hint_cache.h"
#include "memnode/cluster.h"
#include "memnode/epoch.h"
#include "memnode/remote_allocator.h"
#include "rdma/retry_policy.h"
#include "test_util.h"
#include "ycsb/systems.h"

namespace sphinx {
namespace {

// ---- EpochManager protocol units -------------------------------------------

TEST(Reclaim, StampPlusTwoRule) {
  mem::EpochManager em;
  const uint64_t stamp = em.current();
  EXPECT_FALSE(em.reclaimable(stamp));
  EXPECT_TRUE(em.try_advance());
  // One advance proves current ops quiesced, but an op pinned concurrently
  // with the retire may have landed at stamp+1; only the second advance
  // puts every possible holder behind the block.
  EXPECT_FALSE(em.reclaimable(stamp));
  EXPECT_TRUE(em.try_advance());
  EXPECT_TRUE(em.reclaimable(stamp));
}

TEST(Reclaim, AdvanceWaitsForLaggingPins) {
  mem::EpochManager em;
  const uint32_t slot = em.acquire_slot();
  ASSERT_NE(slot, mem::EpochManager::kNoSlot);
  em.pin(slot, /*beat_ns=*/100);
  // Pinned at the current epoch: the pinner started after any retire in
  // this epoch was published, so the advance may proceed...
  EXPECT_TRUE(em.try_advance());
  // ...but now the slot lags the new epoch and gates further progress.
  EXPECT_FALSE(em.try_advance());
  em.unpin(slot);
  EXPECT_TRUE(em.try_advance());
  em.release_slot(slot);
}

TEST(Reclaim, CrashedSlotExpiresOnlyAfterDoubleObservation) {
  mem::EpochManager em;
  const uint32_t dead = em.acquire_slot();
  ASSERT_NE(dead, mem::EpochManager::kNoSlot);
  em.pin(dead, /*beat_ns=*/1000);  // the owner "crashes" here: never unpins
  ASSERT_TRUE(em.try_advance());
  ASSERT_FALSE(em.try_advance());  // wedged behind the dead slot

  // First observation only arms the watch.
  EXPECT_EQ(em.expire_stalled(/*observer_clock_ns=*/0), 0u);
  // Virtual lease elapsed but the real-time floor has not: still protected
  // (a sanitizer- or scheduler-stalled live owner must not be expired
  // just because virtual clocks raced ahead).
  EXPECT_EQ(em.expire_stalled(rdma::kLeaseVirtualNs + 1), 0u);
  std::this_thread::sleep_for(rdma::kLeaseRealFloor +
                              std::chrono::milliseconds(2));
  EXPECT_EQ(em.expire_stalled(rdma::kLeaseVirtualNs + 1), 1u);
  EXPECT_EQ(em.expired_slots(), 1u);
  EXPECT_FALSE(em.slot_pinned(dead));
  // The epoch is unwedged.
  EXPECT_TRUE(em.try_advance());
}

TEST(Reclaim, LiveOwnerBeatDisarmsTheExpiryWatch) {
  mem::EpochManager em;
  const uint32_t slot = em.acquire_slot();
  ASSERT_NE(slot, mem::EpochManager::kNoSlot);
  em.pin(slot, /*beat_ns=*/1);
  ASSERT_TRUE(em.try_advance());
  EXPECT_EQ(em.expire_stalled(0), 0u);  // arms the watch
  std::this_thread::sleep_for(rdma::kLeaseRealFloor +
                              std::chrono::milliseconds(2));
  // The owner is alive after all: a fresh pin (new epoch, new beat) must
  // reset the watch instead of being expired by the matured window.
  em.pin(slot, /*beat_ns=*/2);
  EXPECT_EQ(em.expire_stalled(rdma::kLeaseVirtualNs + 1), 0u);
  EXPECT_TRUE(em.slot_pinned(slot));
  em.unpin(slot);
  em.release_slot(slot);
}

TEST(Reclaim, OrphansRipenBeforeAdoptionAndDrainInBatches) {
  mem::EpochManager em;
  std::vector<mem::RetiredBlock> blocks(3);
  for (size_t i = 0; i < blocks.size(); ++i) {
    blocks[i].offset = 0x1000 + i * 0x100;
    blocks[i].requested = 64;
    blocks[i].padded = 64;
    blocks[i].stamp = em.current();
  }
  em.donate_orphans(std::move(blocks));
  EXPECT_EQ(em.orphan_count(), 3u);
  EXPECT_TRUE(em.take_reclaimable_orphans(8).empty());  // not ripe
  em.try_advance();
  em.try_advance();
  EXPECT_EQ(em.take_reclaimable_orphans(2).size(), 2u);  // bounded batch
  EXPECT_EQ(em.orphan_count(), 1u);
  EXPECT_EQ(em.take_reclaimable_orphans(8).size(), 1u);
  EXPECT_EQ(em.orphan_count(), 0u);
}

TEST(Reclaim, ConcurrentPinRetireRecycleKeepsAccountingExact) {
  // Threads hammer the full pipeline concurrently -- pin, alloc, retire,
  // unpin (which advances the epoch and flushes ripe quarantine). Under
  // TSan this is the data-race probe for the slot array, the orphan list
  // and the stats; on any build the settled counters must balance.
  auto cluster = testing::make_test_cluster(64 << 20);
  constexpr int kThreads = 4;
  constexpr int kIters = 4000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      rdma::Endpoint ep(cluster->fabric(), static_cast<uint32_t>(t) % 3,
                        /*metered=*/true);
      mem::RemoteAllocator alloc(*cluster, ep, 1 << 18);
      for (int i = 0; i < kIters; ++i) {
        mem::EpochPin pin(alloc);
        const mem::AllocResult r = alloc.try_alloc(
            static_cast<uint32_t>(i) % 3, 128, mem::AllocTag::kLeaf);
        ASSERT_TRUE(r.ok);
        alloc.retire(r.addr, 128, mem::AllocTag::kLeaf);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_GT(cluster->epochs().advances(), 0u);
  EXPECT_GT(cluster->alloc_stats().reclaimed_blocks(), 0u);
  EXPECT_EQ(cluster->alloc_stats().underflows(), 0u);
  // Clean shutdowns: every block was recycled or donated, none leaked.
  EXPECT_EQ(cluster->alloc_stats().leaked_bytes(), 0u);
}

// ---- Deterministic ABA-resurrection oracle ---------------------------------

TEST(Reclaim, RecycledLeafBlockIsNeverServedForItsOldKey) {
  // The exact resurrection scenario the epoch machinery makes possible:
  // CN0's reader caches a leaf address for key A; CN1 removes A, the block
  // ripens through the quarantine, and CN1's next insert recycles the SAME
  // address for key B (forced: B is chosen to hash to A's MN and size
  // class, and the freelist is LIFO). CN0's next read of A speculatively
  // reads B's bytes -- the validate gate must reject them, fall back to a
  // descent, and return an honest miss. lac_wrong_value is the audit that
  // the 1-RTT path never leaked the wrong bytes.
  auto cluster = testing::make_test_cluster();
  core::SphinxRefs refs = core::create_sphinx(*cluster);
  auto filter = filter::CuckooFilter::with_budget(1 << 20);
  auto pec = filter::HintCache::with_budget(1 << 16);
  auto lac = filter::HintCache::with_budget(1 << 16);

  rdma::Endpoint reader_ep(cluster->fabric(), 0, true);
  mem::RemoteAllocator reader_alloc(*cluster, reader_ep);
  core::SphinxIndex reader(*cluster, reader_ep, reader_alloc, refs,
                           filter.get(), pec.get(), lac.get());

  rdma::Endpoint mutator_ep(cluster->fabric(), 1, true);
  mem::RemoteAllocator mutator_alloc(*cluster, mutator_ep);
  core::SphinxIndex mutator(*cluster, mutator_ep, mutator_alloc, refs,
                            filter.get());

  // Key B must land on A's MN with A's leaf size class so the recycled
  // block is deterministically the one B's insert pops.
  const std::string a = "aba:victim:000";
  const uint32_t mn_a = cluster->ring().mn_for(
      art::prefix_hash(art::TerminatedKey(Slice(a)).full()));
  std::string b;
  for (int i = 1; i < 200; ++i) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "aba:victim:%03d", i);
    if (cluster->ring().mn_for(art::prefix_hash(
            art::TerminatedKey(Slice(buf)).full())) == mn_a) {
      b = buf;
      break;
    }
  }
  ASSERT_FALSE(b.empty()) << "no same-MN sibling key found";

  ASSERT_TRUE(reader.insert(a, "v1"));
  std::string v;
  ASSERT_TRUE(reader.search(a, &v));
  EXPECT_EQ(v, "v1");
  ASSERT_GT(reader.sphinx_stats().lac_hits, 0u);
  // Capture A's cached leaf address straight from the LAC.
  const uint64_t hash_a = art::prefix_hash(art::TerminatedKey(Slice(a)).full());
  uint64_t payload = 0;
  bool hot = false;
  ASSERT_TRUE(lac->lookup(hash_a, &payload, &hot));
  const uint64_t addr_a = filter::lac_payload_addr48(payload);

  // CN1 unlinks A; the leaf enters CN1's quarantine. Ripen it (stamp+2)
  // and drain it back to the freelist.
  ASSERT_TRUE(mutator.remove(a));
  cluster->epochs().try_advance();
  cluster->epochs().try_advance();
  ASSERT_GE(mutator_alloc.flush_quarantine(), 1u);

  // CN1 recycles the block for B.
  ASSERT_TRUE(mutator.insert(b, "v2"));

  // CN0 still holds the A -> addr binding. The speculative read now lands
  // on B's leaf: reject, fall back, honest miss -- and never wrong bytes.
  const uint64_t stale_before = reader.sphinx_stats().lac_stale;
  EXPECT_FALSE(reader.search(a, &v));
  EXPECT_GT(reader.sphinx_stats().lac_stale, stale_before);
  EXPECT_EQ(reader.sphinx_stats().lac_wrong_value, 0u);

  // B reads correctly through the same machinery, and its leaf really is
  // A's recycled block -- the ABA was genuinely constructed, not skipped.
  ASSERT_TRUE(reader.search(b, &v));
  EXPECT_EQ(v, "v2");
  const uint64_t hash_b = art::prefix_hash(art::TerminatedKey(Slice(b)).full());
  ASSERT_TRUE(lac->lookup(hash_b, &payload, &hot));
  EXPECT_EQ(filter::lac_payload_addr48(payload), addr_a);
  EXPECT_GT(cluster->alloc_stats().reclaimed_blocks(), 0u);
  EXPECT_EQ(cluster->alloc_stats().underflows(), 0u);
}

// ---- Churn shadow-model oracle across the index families -------------------

TEST(Reclaim, ChurnOracleAcrossSystems) {
  // Ten full insert/remove turnover rounds over a 64-key live set (20x the
  // live keys in alloc/retire traffic), verified against a shadow map
  // after every round: values exact while live, honest misses while
  // removed, and the reclamation pipeline visibly recycling with the
  // quarantine drained to a tail by the end.
  for (const auto kind :
       {ycsb::SystemKind::kSphinx, ycsb::SystemKind::kSphinxNoFilter,
        ycsb::SystemKind::kSmart, ycsb::SystemKind::kArt}) {
    SCOPED_TRACE("system " + std::to_string(static_cast<int>(kind)));
    auto cluster = testing::make_test_cluster();
    ycsb::SystemSetup setup(kind, *cluster);
    rdma::Endpoint ep(cluster->fabric(), 0, true);
    mem::RemoteAllocator alloc(*cluster, ep);
    auto index = setup.make_client(0, ep, alloc);

    constexpr int kLive = 64;
    constexpr int kRounds = 10;
    auto key = [](int i) {
      char buf[24];
      std::snprintf(buf, sizeof(buf), "churn:%04d", i);
      return std::string(buf);
    };
    std::map<std::string, std::string> shadow;
    std::string v;
    for (int round = 0; round < kRounds; ++round) {
      for (int i = 0; i < kLive; ++i) {
        const std::string val = "r" + std::to_string(round) + ":v";
        ASSERT_TRUE(index->insert(key(i), val)) << key(i);
        shadow[key(i)] = val;
      }
      for (int i = 0; i < kLive; ++i) {
        ASSERT_TRUE(index->search(key(i), &v)) << key(i);
        EXPECT_EQ(v, shadow[key(i)]) << key(i);
      }
      for (int i = 0; i < kLive; ++i) {
        ASSERT_TRUE(index->remove(key(i))) << key(i);
        shadow.erase(key(i));
      }
      for (int i = 0; i < kLive; ++i) {
        EXPECT_FALSE(index->search(key(i), &v)) << key(i);
      }
    }
    EXPECT_GT(cluster->alloc_stats().reclaimed_blocks(), 0u);
    EXPECT_EQ(cluster->alloc_stats().underflows(), 0u);
    const uint64_t total = cluster->alloc_stats().retired_bytes_total();
    const uint64_t outstanding =
        cluster->alloc_stats().retired_bytes_outstanding();
    EXPECT_TRUE(outstanding * 2 <= total || outstanding <= (64u << 10))
        << "quarantine not draining: " << outstanding << " of " << total;
  }
}

// ---- Degraded mode: exhaustion is recoverable ------------------------------

TEST(Reclaim, DegradedModeRecoversOnceRemovesFreeMemory) {
  // A deliberately tiny heap: inserts run until the allocator honestly
  // fails (ok=false, counted, no throw, no torn state). Removing half the
  // live keys then feeds the quarantine, and re-inserting those same keys
  // must succeed again from recycled blocks -- memory pressure is a phase,
  // not a terminal state.
  auto cluster = testing::make_test_cluster(512 << 10);
  ycsb::SystemSetup setup(ycsb::SystemKind::kArt, *cluster);
  rdma::Endpoint ep(cluster->fabric(), 0, true);
  mem::RemoteAllocator alloc(*cluster, ep, /*chunk_bytes=*/64 << 10);
  auto index = setup.make_client(0, ep, alloc);

  auto key = [](int i) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "degrade:%06d", i);
    return std::string(buf);
  };
  std::vector<std::string> live;
  for (int i = 0; i < 20000; ++i) {
    if (!index->insert(key(i), "value-01")) break;
    live.push_back(key(i));
  }
  ASSERT_LT(live.size(), 20000u) << "heap never exhausted; test is vacuous";
  ASSERT_GT(live.size(), 64u);
  EXPECT_GT(cluster->alloc_stats().alloc_failures(), 0u);

  // Degraded, not corrupted: the keys that made it in still read exactly.
  std::string v;
  for (size_t i = 0; i < live.size(); i += live.size() / 32) {
    ASSERT_TRUE(index->search(live[i], &v)) << live[i];
    EXPECT_EQ(v, "value-01");
  }

  // Free memory by removing the newest half, then re-insert the same keys
  // (same parents, same size class: recovery needs only recycled leaves).
  const size_t cut = live.size() / 2;
  for (size_t i = cut; i < live.size(); ++i) {
    ASSERT_TRUE(index->remove(live[i])) << live[i];
  }
  for (size_t i = cut; i < live.size(); ++i) {
    bool done = false;
    for (int attempt = 0; attempt < 8 && !done; ++attempt) {
      done = index->insert(live[i], "value-02");
    }
    ASSERT_TRUE(done) << "insert never recovered for " << live[i];
  }
  for (size_t i = cut; i < live.size(); i += (live.size() - cut) / 32 + 1) {
    ASSERT_TRUE(index->search(live[i], &v)) << live[i];
    EXPECT_EQ(v, "value-02");
  }
  EXPECT_GT(cluster->alloc_stats().reclaimed_blocks(), 0u);
  EXPECT_EQ(cluster->alloc_stats().underflows(), 0u);
}

}  // namespace
}  // namespace sphinx
