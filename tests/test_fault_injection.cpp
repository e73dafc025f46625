// Fault-injection layer tests: each fault class fires and is observable,
// injection is deterministic under a fixed seed, untagged CAS sites are
// protected, and injected faults drive the real retry paths of the Sphinx
// core (INHT insert/update misses, filter false-positive rejects).
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "art/art_index.h"
#include "core/sphinx_index.h"
#include "rdma/endpoint.h"
#include "rdma/fabric.h"
#include "rdma/fault_injector.h"
#include "test_util.h"
#include "ycsb/systems.h"

namespace sphinx {
namespace {

using rdma::FaultInjector;
using rdma::FaultKind;
using rdma::FaultRule;
using rdma::FaultSite;
using rdma::GlobalAddr;
using rdma::VerbKind;
using rdma::verb_bit;

rdma::NetworkConfig small_config() {
  rdma::NetworkConfig config;
  config.num_cns = 2;
  config.num_mns = 2;
  return config;
}

TEST(FaultInjection, DelayAddsExactVirtualTime) {
  rdma::Fabric fabric(small_config(), 1 << 20);
  rdma::Endpoint ep(fabric, 0);

  const GlobalAddr addr(0, 64);
  ep.write64(addr, 42);
  const uint64_t before = ep.clock_ns();
  ep.read64(addr);
  const uint64_t plain_read_ns = ep.clock_ns() - before;

  FaultInjector injector(1);
  FaultRule rule;
  rule.kind = FaultKind::kDelay;
  rule.delay_ns = 12345;
  rule.verbs = verb_bit(VerbKind::kRead);
  injector.add_rule(rule);
  fabric.set_fault_injector(&injector);

  const uint64_t t0 = ep.clock_ns();
  EXPECT_EQ(ep.read64(addr), 42u);
  EXPECT_EQ(ep.clock_ns() - t0, plain_read_ns + 12345u);
  EXPECT_EQ(injector.stats().delays, 1u);

  // Writes do not match the read-only rule.
  const uint64_t t1 = ep.clock_ns();
  ep.write64(addr, 43);
  const uint64_t write_ns = ep.clock_ns() - t1;
  fabric.set_fault_injector(nullptr);
  const uint64_t t2 = ep.clock_ns();
  ep.write64(addr, 44);
  EXPECT_EQ(write_ns, ep.clock_ns() - t2);
  EXPECT_EQ(injector.stats().delays, 1u);
}

TEST(FaultInjection, InjectedCasFailureLosesRaceOnce) {
  rdma::Fabric fabric(small_config(), 1 << 20);
  rdma::Endpoint ep(fabric, 0);
  const GlobalAddr addr(0, 128);
  ep.write64(addr, 5);

  FaultInjector injector(2);
  FaultRule rule;
  rule.kind = FaultKind::kCasFail;
  rule.site = FaultSite::kAny;
  rule.max_fires = 1;
  injector.add_rule(rule);
  fabric.set_fault_injector(&injector);

  // First tagged CAS loses: no swap, truthful observed value.
  uint64_t observed = 0;
  EXPECT_FALSE(ep.cas(addr, 5, 9, &observed, FaultSite::kLockAcquire));
  EXPECT_EQ(observed, 5u);
  EXPECT_EQ(ep.read64(addr), 5u);
  EXPECT_EQ(injector.stats().cas_failures, 1u);

  // Budget exhausted: the retry goes through.
  EXPECT_TRUE(ep.cas(addr, 5, 9, &observed, FaultSite::kLockAcquire));
  EXPECT_EQ(ep.read64(addr), 9u);
  EXPECT_EQ(injector.stats().cas_failures, 1u);
  fabric.set_fault_injector(nullptr);
}

TEST(FaultInjection, UntaggedCasIsNeverFailed) {
  rdma::Fabric fabric(small_config(), 1 << 20);
  rdma::Endpoint ep(fabric, 0);
  const GlobalAddr addr(0, 256);

  FaultInjector injector(3);
  FaultRule rule;
  rule.kind = FaultKind::kCasFail;
  rule.site = FaultSite::kAny;  // matches every *tagged* site
  injector.add_rule(rule);
  fabric.set_fault_injector(&injector);

  // A lock-release-style CAS (default site kNone) is protected even under
  // an unlimited always-fire rule.
  for (uint64_t i = 0; i < 50; ++i) {
    EXPECT_TRUE(ep.cas(addr, i, i + 1));
  }
  EXPECT_EQ(injector.stats().cas_failures, 0u);
  fabric.set_fault_injector(nullptr);
}

TEST(FaultInjection, SiteFilterSelectsTaggedSites) {
  rdma::Fabric fabric(small_config(), 1 << 20);
  rdma::Endpoint ep(fabric, 0);
  const GlobalAddr addr(0, 320);

  FaultInjector injector(4);
  FaultRule rule;
  rule.kind = FaultKind::kCasFail;
  rule.site = FaultSite::kHashInsert;
  injector.add_rule(rule);
  fabric.set_fault_injector(&injector);

  EXPECT_TRUE(ep.cas(addr, 0, 1, nullptr, FaultSite::kLockAcquire));
  EXPECT_FALSE(ep.cas(addr, 1, 2, nullptr, FaultSite::kHashInsert));
  EXPECT_EQ(injector.stats().cas_failures, 1u);
  fabric.set_fault_injector(nullptr);
}

TEST(FaultInjection, StallChargesTimeAndCounts) {
  rdma::Fabric fabric(small_config(), 1 << 20);
  rdma::Endpoint ep(fabric, 0);
  const GlobalAddr addr(0, 64);

  FaultInjector injector(5);
  FaultRule rule;
  rule.kind = FaultKind::kStall;
  rule.delay_ns = 2000;
  rule.verbs = verb_bit(VerbKind::kWrite);
  rule.max_fires = 3;
  injector.add_rule(rule);
  fabric.set_fault_injector(&injector);

  const uint64_t t0 = ep.clock_ns();
  ep.write64(addr, 1);
  const uint64_t stalled_ns = ep.clock_ns() - t0;
  for (int i = 0; i < 10; ++i) ep.write64(addr, 2);
  fabric.set_fault_injector(nullptr);
  const uint64_t t1 = ep.clock_ns();
  ep.write64(addr, 3);
  EXPECT_EQ(stalled_ns, (ep.clock_ns() - t1) + 2000u);
  EXPECT_EQ(injector.stats().stalls, 3u);
}

TEST(FaultInjection, MnOfflineCountdownRejectsThenRecovers) {
  rdma::Fabric fabric(small_config(), 1 << 20);
  rdma::Endpoint ep(fabric, 0);
  const GlobalAddr addr(1, 512);
  ep.write64(addr, 77);

  FaultInjector injector(6);
  fabric.set_fault_injector(&injector);
  injector.arm_mn_offline(1, 10);
  EXPECT_TRUE(injector.mn_offline(1));

  // The read still completes (the endpoint reissues through the outage)
  // and no data is lost; each rejected verb charged one timeout.
  const uint64_t t0 = ep.clock_ns();
  EXPECT_EQ(ep.read64(addr), 77u);
  const uint64_t elapsed = ep.clock_ns() - t0;
  EXPECT_GE(elapsed, 10 * fabric.config().verb_timeout_ns);
  EXPECT_EQ(injector.stats().offline_rejects, 10u);
  EXPECT_EQ(injector.stats().offline_giveups, 0u);
  EXPECT_FALSE(injector.mn_offline(1));

  // Back to normal afterwards.
  EXPECT_EQ(ep.read64(addr), 77u);
  EXPECT_EQ(injector.stats().offline_rejects, 10u);
  fabric.set_fault_injector(nullptr);
}

TEST(FaultInjection, StickyOfflineTripsGiveUpCap) {
  rdma::Fabric fabric(small_config(), 1 << 20);
  rdma::Endpoint ep(fabric, 0);
  const GlobalAddr addr(0, 512);
  ep.write64(addr, 99);

  FaultInjector injector(7);
  fabric.set_fault_injector(&injector);
  injector.set_mn_offline(0, true);

  // Nobody restores the MN: the endpoint gives up after the retry cap and
  // the verb executes anyway (counted), instead of hanging the test.
  EXPECT_EQ(ep.read64(addr), 99u);
  EXPECT_EQ(injector.stats().offline_giveups, 1u);
  EXPECT_GT(injector.stats().offline_rejects, 1000u);

  injector.set_mn_offline(0, false);
  EXPECT_EQ(ep.read64(addr), 99u);
  EXPECT_EQ(injector.stats().offline_giveups, 1u);
  fabric.set_fault_injector(nullptr);
}

TEST(FaultInjection, MnFilterScopesRulesToOneMn) {
  rdma::Fabric fabric(small_config(), 1 << 20);
  rdma::Endpoint ep(fabric, 0);

  FaultInjector injector(8);
  FaultRule rule;
  rule.kind = FaultKind::kDelay;
  rule.delay_ns = 500;
  rule.mn = 1;
  injector.add_rule(rule);
  fabric.set_fault_injector(&injector);

  ep.write64(GlobalAddr(0, 64), 1);
  EXPECT_EQ(injector.stats().delays, 0u);
  ep.write64(GlobalAddr(1, 64), 1);
  EXPECT_EQ(injector.stats().delays, 1u);
  fabric.set_fault_injector(nullptr);
}

TEST(FaultInjection, DisarmAndMaxFiresBudget) {
  rdma::Fabric fabric(small_config(), 1 << 20);
  rdma::Endpoint ep(fabric, 0);
  const GlobalAddr addr(0, 64);

  FaultInjector injector(9);
  FaultRule rule;
  rule.kind = FaultKind::kDelay;
  rule.delay_ns = 100;
  rule.max_fires = 5;
  const size_t id = injector.add_rule(rule);
  fabric.set_fault_injector(&injector);

  for (int i = 0; i < 3; ++i) ep.write64(addr, 1);
  EXPECT_EQ(injector.stats().delays, 3u);
  injector.disarm_rule(id);
  for (int i = 0; i < 3; ++i) ep.write64(addr, 1);
  EXPECT_EQ(injector.stats().delays, 3u);
  fabric.set_fault_injector(nullptr);
}

TEST(FaultInjection, UnmeteredEndpointsBypassInjection) {
  rdma::Fabric fabric(small_config(), 1 << 20);
  rdma::Endpoint loader(fabric, 0, /*metered=*/false);
  const GlobalAddr addr(0, 64);

  FaultInjector injector(10);
  FaultRule rule;
  rule.kind = FaultKind::kDelay;
  rule.delay_ns = 100;
  injector.add_rule(rule);
  fabric.set_fault_injector(&injector);
  injector.set_mn_offline(0, true);  // would reject every metered verb

  loader.write64(addr, 1);
  EXPECT_EQ(loader.read64(addr), 1u);
  EXPECT_EQ(injector.stats().verbs_inspected, 0u);
  fabric.set_fault_injector(nullptr);
}

TEST(FaultInjection, BatchCasFailureDoesNotSuppressLaterWrite) {
  rdma::Fabric fabric(small_config(), 1 << 20);
  rdma::Endpoint ep(fabric, 0);
  const GlobalAddr lock_addr(0, 64);
  const GlobalAddr data_addr(0, 128);
  ep.write64(lock_addr, 0);

  FaultInjector injector(11);
  FaultRule rule;
  rule.kind = FaultKind::kCasFail;
  rule.site = FaultSite::kAny;
  rule.max_fires = 1;
  injector.add_rule(rule);
  fabric.set_fault_injector(&injector);

  const uint64_t payload = 0xfeedfacecafebeefULL;
  rdma::DoorbellBatch batch(ep);
  const size_t cas_idx =
      batch.add_cas(lock_addr, 0, 1, FaultSite::kLockAcquire);
  batch.add_write(data_addr, &payload, sizeof(payload));
  batch.execute();

  // Hardware semantics: the failed CAS reports per-op failure with the
  // true old value, and the batched WRITE after it still lands.
  EXPECT_FALSE(batch.cas_ok(cas_idx));
  EXPECT_EQ(batch.old_value(cas_idx), 0u);
  EXPECT_EQ(ep.read64(lock_addr), 0u);
  EXPECT_EQ(ep.read64(data_addr), payload);
  EXPECT_EQ(injector.stats().cas_failures, 1u);
  fabric.set_fault_injector(nullptr);
}

// Replays an op mix against a fresh fabric and returns (event log, clock).
std::pair<std::vector<rdma::FaultEvent>, uint64_t> replay_schedule(
    uint64_t seed) {
  rdma::Fabric fabric(small_config(), 1 << 20);
  FaultInjector injector(seed);
  FaultRule delay;
  delay.kind = FaultKind::kDelay;
  delay.probability = 0.25;
  delay.delay_ns = 300;
  injector.add_rule(delay);
  FaultRule casfail;
  casfail.kind = FaultKind::kCasFail;
  casfail.probability = 0.4;
  casfail.site = FaultSite::kAny;
  injector.add_rule(casfail);
  FaultRule stall;
  stall.kind = FaultKind::kStall;
  stall.probability = 0.1;
  stall.delay_ns = 1500;
  stall.verbs = verb_bit(VerbKind::kWrite);
  injector.add_rule(stall);
  injector.set_recording(true);
  fabric.set_fault_injector(&injector);

  rdma::Endpoint ep(fabric, 0);
  ep.set_fault_client_id(17);
  uint64_t word = 0;
  for (int i = 0; i < 400; ++i) {
    const GlobalAddr addr(static_cast<uint32_t>(i % 2),
                          64 + static_cast<uint64_t>(i % 8) * 8);
    switch (i % 3) {
      case 0:
        ep.write64(addr, static_cast<uint64_t>(i));
        break;
      case 1:
        word += ep.read64(addr);
        break;
      default:
        if (ep.cas(addr, static_cast<uint64_t>(i - 2),
                   static_cast<uint64_t>(i), nullptr,
                   FaultSite::kSlotInstall)) {
          word ^= static_cast<uint64_t>(i);
        }
        break;
    }
  }
  fabric.set_fault_injector(nullptr);
  return {injector.events_for_client(17), ep.clock_ns() + (word & 1)};
}

TEST(FaultInjection, FixedSeedIsBitForBitReproducible) {
  const auto run1 = replay_schedule(0xabcdef12345ULL);
  const auto run2 = replay_schedule(0xabcdef12345ULL);
  ASSERT_FALSE(run1.first.empty());
  ASSERT_EQ(run1.first.size(), run2.first.size());
  for (size_t i = 0; i < run1.first.size(); ++i) {
    EXPECT_TRUE(run1.first[i] == run2.first[i]) << "event " << i;
  }
  EXPECT_EQ(run1.second, run2.second);

  // A different seed produces a different schedule.
  const auto run3 = replay_schedule(0x1111ULL);
  const bool same_len = run3.first.size() == run1.first.size();
  bool identical = same_len;
  if (same_len) {
    for (size_t i = 0; i < run1.first.size(); ++i) {
      if (!(run1.first[i] == run3.first[i])) {
        identical = false;
        break;
      }
    }
  }
  EXPECT_FALSE(identical);
}

TEST(FaultInjection, UnmeteredEndpointsStayInvisibleUnderFaults) {
  // Bootstrap/loading endpoints (metered = false) must never accumulate
  // traffic statistics, consume the injector's random stream, or charge
  // virtual time -- even with an aggressive injector installed. A metered
  // sibling on the same fabric confirms the injector itself is live.
  rdma::Fabric fabric(small_config(), 1 << 20);
  FaultInjector injector(7);
  FaultRule delay;
  delay.kind = FaultKind::kDelay;
  delay.probability = 1.0;
  delay.delay_ns = 500;
  injector.add_rule(delay);
  FaultRule casfail;
  casfail.kind = FaultKind::kCasFail;
  casfail.probability = 1.0;
  casfail.site = FaultSite::kAny;
  injector.add_rule(casfail);
  fabric.set_fault_injector(&injector);

  rdma::Endpoint quiet(fabric, 0, /*metered=*/false);
  uint64_t buf = 0;
  quiet.write64(GlobalAddr(0, 64), 42);
  quiet.read(GlobalAddr(0, 64), &buf, sizeof(buf));
  EXPECT_EQ(buf, 42u);
  // Unmetered CAS bypasses injection entirely: it must succeed and stay
  // uncounted (the regression here was the injected-failure branch bumping
  // stats_.cas on unmetered endpoints).
  EXPECT_TRUE(quiet.cas(GlobalAddr(0, 64), 42, 43, nullptr,
                        FaultSite::kHashInsert));
  quiet.faa(GlobalAddr(0, 64), 1);
  EXPECT_TRUE(quiet.stats().all_zero());
  EXPECT_EQ(quiet.clock_ns(), 0u);
  EXPECT_EQ(injector.stats().verbs_inspected, 0u);

  rdma::Endpoint loud(fabric, 0, /*metered=*/true);
  EXPECT_FALSE(loud.cas(GlobalAddr(0, 64), 44, 45, nullptr,
                        FaultSite::kHashInsert));
  EXPECT_EQ(loud.stats().cas, 1u);
  EXPECT_FALSE(loud.stats().all_zero());
  EXPECT_GT(injector.stats().verbs_inspected, 0u);
  fabric.set_fault_injector(nullptr);
}

// ---- integration: injected faults drive the Sphinx core's retry paths ----

TEST(FaultInjection, InjectedInhtFailuresDriveSphinxRetryPaths) {
  auto cluster = testing::make_test_cluster();
  ycsb::SystemSetup setup(ycsb::SystemKind::kSphinx, *cluster);

  rdma::FaultInjector injector(99);
  FaultRule rule;
  rule.kind = FaultKind::kCasFail;
  rule.site = FaultSite::kHashInsert;  // every INHT slot claim loses
  const size_t rule_id = injector.add_rule(rule);
  cluster->fabric().set_fault_injector(&injector);

  rdma::Endpoint ep(cluster->fabric(), 0, true);
  mem::RemoteAllocator alloc(*cluster, ep);
  auto index = setup.make_client(0, ep, alloc);
  auto* sphinx = dynamic_cast<core::SphinxIndex*>(index.get());
  ASSERT_NE(sphinx, nullptr);

  // Grow one hot prefix past Node4 -> Node16 -> Node48 so inner nodes are
  // created *and* type-switched while every INHT insert is being failed.
  std::vector<std::string> keys;
  for (int c = 0; c < 26; ++c) {
    for (int i = 0; i < 8; ++i) {
      keys.push_back("tsw/" + std::string(1, static_cast<char>('a' + c)) +
                     std::to_string(i));
    }
  }
  std::string v;
  for (const std::string& k : keys) {
    ASSERT_TRUE(index->insert(k, "v:" + k)) << k;
  }

  const core::SphinxStats& stats = sphinx->sphinx_stats();
  EXPECT_GT(stats.inht_insert_fails, 0u);
  EXPECT_GT(stats.inht_update_misses, 0u);
  EXPECT_GT(injector.stats().cas_failures, 0u);

  // No data was lost: with injection disarmed every key is still found.
  // The prefix entry cache rescues the prefixes whose INHT entries never
  // landed (on_inner_created seeded it locally), so these searches resolve
  // as PEC hits instead of filter false positives.
  injector.disarm_rule(rule_id);
  for (const std::string& k : keys) {
    ASSERT_TRUE(index->search(k, &v)) << k;
    EXPECT_EQ(v, "v:" + k);
  }
  EXPECT_GT(stats.pec_hits, 0u);
  EXPECT_EQ(stats.fp_rejects, 0u);

  // A PEC-less client sharing the same (stale) filter still exercises the
  // false-positive reject path: the filter admits the prefixes, the INHT
  // has no entries for them, and the search falls back cleanly.
  rdma::Endpoint ep2(cluster->fabric(), 0, true);
  mem::RemoteAllocator alloc2(*cluster, ep2);
  core::SphinxIndex bare(*cluster, ep2, alloc2, *setup.sphinx_refs(),
                         setup.filter(0));
  for (const std::string& k : keys) {
    ASSERT_TRUE(bare.search(k, &v)) << k;
    EXPECT_EQ(v, "v:" + k);
  }
  EXPECT_GT(bare.sphinx_stats().fp_rejects, 0u);
  cluster->fabric().set_fault_injector(nullptr);
}

// The parent node and the leaf its slot for `key` links to, found by an
// unmetered root-to-leaf walk.
struct LeafLink {
  GlobalAddr parent;
  GlobalAddr leaf;
};

LeafLink find_leaf_link(rdma::Endpoint& loader, const art::TreeRef& ref,
                        const std::string& key) {
  const art::TerminatedKey tkey{Slice(key)};
  GlobalAddr addr = ref.root;
  art::NodeType type = art::NodeType::kN256;
  art::InnerImage node;
  for (;;) {
    loader.read(addr, node.raw(), art::inner_node_bytes(type));
    const int idx = node.find_pkey(tkey.byte(node.depth()));
    if (idx < 0) return {addr, GlobalAddr()};
    const uint64_t word = node.slot(static_cast<uint32_t>(idx));
    if (art::slot_is_leaf(word)) return {addr, art::slot_addr(word)};
    addr = art::slot_addr(word);
    type = art::slot_child_type(word);
  }
}

TEST(FaultInjection, RemoveReleasesParentWhenLeafCasLoses) {
  // remove posts the leaf's Idle -> Invalid CAS, the parent lock CAS and
  // the parent re-read in one doorbell. Fail only the leaf CAS (a rule
  // scoped to the leaf's MN): the parent lock wins, so remove must hand it
  // back before retrying, or the retry finds the parent Locked and the
  // leaf stays linked and unretired.
  auto cluster = testing::make_test_cluster();
  const art::TreeRef ref = art::create_tree(*cluster);
  rdma::Endpoint ep(cluster->fabric(), 0, true);
  mem::RemoteAllocator alloc(*cluster, ep);
  art::ArtIndex index(*cluster, ep, alloc, ref);
  rdma::Endpoint loader = cluster->make_loader_endpoint();

  std::string victim;
  LeafLink link;
  for (char c = 'a'; c <= 'p'; ++c) {
    ASSERT_TRUE(index.insert(std::string("rm") + c, "v"));
  }
  for (char c = 'a'; c <= 'p' && victim.empty(); ++c) {
    const std::string key = std::string("rm") + c;
    link = find_leaf_link(loader, ref, key);
    if (link.leaf.mn() != link.parent.mn()) victim = key;
  }
  ASSERT_FALSE(victim.empty()) << "no leaf off its parent's MN";

  rdma::FaultInjector injector(17);
  FaultRule rule;
  rule.kind = FaultKind::kCasFail;
  rule.mn = static_cast<int32_t>(link.leaf.mn());
  rule.site = FaultSite::kLockAcquire;
  rule.max_fires = 1;
  injector.add_rule(rule);
  cluster->fabric().set_fault_injector(&injector);

  const mem::AllocStats& as = cluster->alloc_stats();
  const uint64_t retired0 =
      as.retired_blocks_outstanding() + as.reclaimed_blocks();
  const uint64_t retries0 = index.tree_stats().op_retries;
  EXPECT_TRUE(index.remove(victim));
  cluster->fabric().set_fault_injector(nullptr);
  EXPECT_EQ(injector.stats().cas_failures, 1u);
  EXPECT_EQ(index.tree_stats().op_retries - retries0, 1u);

  EXPECT_EQ(art::header_status(loader.read64(link.parent)),
            art::NodeStatus::kIdle);
  std::string v;
  EXPECT_FALSE(index.search(victim, &v));
  EXPECT_EQ(find_leaf_link(loader, ref, victim).leaf, GlobalAddr());
  EXPECT_EQ(as.retired_blocks_outstanding() + as.reclaimed_blocks() -
                retired0,
            1u);
}

TEST(FaultInjection, MnOutageDuringInsertsLosesNoData) {
  auto cluster = testing::make_test_cluster();
  ycsb::SystemSetup setup(ycsb::SystemKind::kSphinx, *cluster);

  rdma::FaultInjector injector(123);
  cluster->fabric().set_fault_injector(&injector);

  rdma::Endpoint ep(cluster->fabric(), 0, true);
  mem::RemoteAllocator alloc(*cluster, ep);
  auto index = setup.make_client(0, ep, alloc);

  std::string v;
  for (int i = 0; i < 300; ++i) {
    if (i % 50 == 10) {
      // Periodic outage bursts on rotating MNs mid-workload.
      injector.arm_mn_offline(static_cast<uint32_t>(i / 50) % 3, 200);
    }
    ASSERT_TRUE(index->insert("out:" + std::to_string(i), std::to_string(i)));
  }
  EXPECT_GT(injector.stats().offline_rejects, 0u);
  EXPECT_EQ(injector.stats().offline_giveups, 0u);

  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(index->search("out:" + std::to_string(i), &v)) << i;
    EXPECT_EQ(v, std::to_string(i));
  }
  cluster->fabric().set_fault_injector(nullptr);
}

}  // namespace
}  // namespace sphinx
