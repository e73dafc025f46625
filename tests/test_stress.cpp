// Concurrency stress tests with per-key linearizability checking, with and
// without fault injection, across every index family. Runs under the
// `stress` CTest label (ctest -L stress); see tests/stress_harness.h for
// the oracle and bracket protocols.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>

#include "stress_harness.h"

namespace sphinx {
namespace {

using testing::run_stress;
using testing::StressOptions;
using testing::StressReport;

void expect_clean(const StressReport& report) {
  EXPECT_EQ(report.lin_violations, 0u);
  EXPECT_EQ(report.scan_order_violations, 0u);
  EXPECT_EQ(report.oracle_mismatches, 0u) << report.lost_keys;
  EXPECT_EQ(report.failed_ops, 0u);
  EXPECT_EQ(report.crash_resolve_violations, 0u);
  // A speculative leaf read may be wasted, never wrong: nonzero means the
  // LAC's validate gate passed bytes for the wrong key through.
  EXPECT_EQ(report.lac_wrong_value, 0u);
  // Alloc/retire/recycle accounting must balance in every configuration;
  // an underflow is a double free or a retire whose bookkeeping diverged
  // from its alloc.
  EXPECT_EQ(report.alloc_underflows, 0u);
}

StressOptions base_options(ycsb::SystemKind kind) {
  StressOptions options;
  options.kind = kind;
  options.threads = 6;
  options.lin_keys_per_thread = 8;
  options.churn_keys_per_thread = 48;
  options.ops_per_thread = 1500;
  options.seed = 0x5f12e;
  return options;
}

TEST(Stress, SphinxFaultFree) {
  expect_clean(run_stress(base_options(ycsb::SystemKind::kSphinx)));
}

TEST(Stress, SphinxUnderFaults) {
  StressOptions options = base_options(ycsb::SystemKind::kSphinx);
  options.faults = true;
  const StressReport report = run_stress(options);
  expect_clean(report);
  // The schedule actually perturbed the run.
  EXPECT_GT(report.fault_stats.delays, 0u);
  EXPECT_GT(report.fault_stats.cas_failures, 0u);
}

TEST(Stress, SphinxNoFilterUnderFaults) {
  StressOptions options = base_options(ycsb::SystemKind::kSphinxNoFilter);
  options.threads = 4;
  options.ops_per_thread = 1000;
  options.faults = true;
  expect_clean(run_stress(options));
}

TEST(Stress, SmartUnderFaults) {
  StressOptions options = base_options(ycsb::SystemKind::kSmart);
  options.threads = 4;
  options.ops_per_thread = 1000;
  options.faults = true;
  const StressReport report = run_stress(options);
  expect_clean(report);
  EXPECT_GT(report.fault_stats.cas_failures, 0u);
}

TEST(Stress, SphinxPecCoherenceUnderChurnAndFaults) {
  // The prefix entry cache under concurrent type switches (churn stripes
  // grow nodes past their capacity) plus injected CAS losses: searches must
  // still linearize, the PEC must actually carry traffic, and staleness
  // must self-heal -- a second quiesced pass over every key sees zero new
  // validation failures.
  StressOptions options = base_options(ycsb::SystemKind::kSphinx);
  options.churn_keys_per_thread = 96;  // deeper stripes -> more splits
  options.ops_per_thread = 2000;
  options.faults = true;
  const StressReport report = run_stress(options);
  expect_clean(report);
  EXPECT_GT(report.pec_hits, 0u);
  EXPECT_EQ(report.pec_second_pass_stale, 0u);
}

TEST(Stress, SphinxPecDisabledMatchesSeedBehavior) {
  // Sphinx without the prefix entry cache (SFC + LAC): still clean under
  // faults, with zero PEC traffic.
  StressOptions options = base_options(ycsb::SystemKind::kSphinxNoPec);
  options.faults = true;
  const StressReport report = run_stress(options);
  expect_clean(report);
  EXPECT_EQ(report.pec_hits, 0u);
  EXPECT_EQ(report.pec_stale, 0u);
}

TEST(Stress, SphinxLacCoherenceUnderChurnAndFaults) {
  // The leaf address cache under a lookup-vs-split/delete mutator mix with
  // injected CAS losses and stalls: cross-stripe readers keep hitting
  // bindings whose leaves the owners concurrently remove, reinsert, and
  // grow out of place. Requirements: (a) zero wrong-value returns -- a
  // stale or recycled address may cost a wasted read, never wrong bytes
  // (expect_clean checks lac_wrong_value); (b) staleness was actually
  // exercised AND self-heals -- the quiesced second pass over every key
  // observes zero new stale hits, because the first pass purged or
  // refreshed every binding it touched.
  StressOptions options = base_options(ycsb::SystemKind::kSphinx);
  options.churn_keys_per_thread = 96;  // deeper stripes -> more splits
  options.ops_per_thread = 2500;
  // Rounds of 100 ops: under host CPU contention free-running workers can
  // run nearly one after another, leaving no reader to find a binding gone
  // stale; lockstep rounds guarantee the cross-worker interleaving.
  options.lockstep_ops = 100;
  options.faults = true;
  const StressReport report = run_stress(options);
  expect_clean(report);
  EXPECT_GT(report.lac_hits, 0u);
  EXPECT_GT(report.lac_stale, 0u);  // the mix really invalidated bindings
  EXPECT_EQ(report.lac_second_pass_stale, 0u);
}

TEST(Stress, SphinxLacDisabledMatchesPreLacBehavior) {
  // Sphinx without the leaf address cache reproduces the two-tier SFC+PEC
  // configuration: still clean under faults, with zero LAC traffic on any
  // path.
  StressOptions options = base_options(ycsb::SystemKind::kSphinxNoLac);
  options.faults = true;
  const StressReport report = run_stress(options);
  expect_clean(report);
  EXPECT_EQ(report.lac_hits, 0u);
  EXPECT_EQ(report.lac_stale, 0u);
}

TEST(Stress, SphinxLacNeverResurrectsRecycledBlocks) {
  // The ABA scenario: injected CAS losses make insert paths allocate a
  // leaf, lose the install race, and free the block to the client-local
  // freelist, where the very next insert recycles it for a different key.
  // Remove-heavy churn meanwhile retires linked leaves through the epoch
  // quarantine, and once they ripen (stamp+2) they too recycle into new
  // keys -- while readers still hold LAC bindings to the old addresses. If
  // the LAC ever resurrected a freed-and-reused address as a hit for the
  // old key, the byte-exact key compare is the last line of defense -- and
  // the audit counter (lac_wrong_value, checked by expect_clean) proves
  // even that line was never reached wrongly. Crashes are layered in so
  // abandoned allocations and orphaned locks join the recycling traffic.
  StressOptions options = base_options(ycsb::SystemKind::kSphinx);
  options.churn_keys_per_thread = 96;
  options.ops_per_thread = 2500;
  options.faults = true;  // kCasFail drives failed-CAS freelist cleanup
  options.crash_rate = 0.002;
  const StressReport report = run_stress(options);
  expect_clean(report);
  EXPECT_GT(report.fault_stats.cas_failures, 0u);  // recycling really ran
  EXPECT_GT(report.lac_hits, 0u);
}

TEST(Stress, ReclamationUnderChurnRecyclesAndStaysBounded) {
  // Sustained insert/remove churn with the epoch pipeline live: retired
  // leaves must actually recycle through the freelists (the epoch
  // advances, quarantines drain) and the outstanding quarantine must stay
  // a small tail, not retain most of what was ever retired -- a stuck
  // epoch fails the boundedness check long before it exhausts memory.
  StressOptions options = base_options(ycsb::SystemKind::kSphinx);
  options.churn_keys_per_thread = 96;
  options.ops_per_thread = 2500;
  const StressReport report = run_stress(options);
  expect_clean(report);
  EXPECT_GT(report.reclaimed_blocks, 0u);
  EXPECT_GT(report.epoch_advances, 0u);
  EXPECT_TRUE(report.retired_bytes_outstanding * 2 <=
                  report.retired_bytes_total ||
              report.retired_bytes_outstanding <= (64u << 10))
      << "quarantine not draining: outstanding="
      << report.retired_bytes_outstanding
      << " of total=" << report.retired_bytes_total;
}

TEST(Stress, ReclamationRacesLacReadersSplitsFaultsAndCrashes) {
  // Block recycling racing everything at once: LAC speculative reads hold
  // addresses whose leaves get retired, ripen, and recycle into other keys
  // mid-run; injected CAS losses and stalls stretch every window; crashes
  // abandon quarantines (donated or leaked) and orphan locks. The run must
  // stay linearizable with zero wrong-value reads while the pipeline keeps
  // recycling -- reclamation may never trade correctness for memory.
  StressOptions options = base_options(ycsb::SystemKind::kSphinx);
  options.churn_keys_per_thread = 96;
  options.ops_per_thread = 2500;
  options.faults = true;
  options.crash_rate = 0.002;
  const StressReport report = run_stress(options);
  expect_clean(report);
  EXPECT_GT(report.reclaimed_blocks, 0u);
  EXPECT_GT(report.lac_hits, 0u);
  EXPECT_GT(report.client_crashes, 0u);
}

TEST(Stress, CrashedWorkerCannotPinTheEpochForever) {
  // Every injected crash kills a worker inside an op, i.e. with its epoch
  // slot pinned; the dead slot would block the global epoch (and with it
  // every quarantine on the CN) forever. Survivors must expire it with the
  // double-observation lease discipline and resume recycling: nonzero
  // expired slots AND nonzero reclaimed blocks prove the epoch kept moving
  // straight through the crash storm.
  StressOptions options = base_options(ycsb::SystemKind::kSphinx);
  options.churn_keys_per_thread = 96;
  options.ops_per_thread = 2000;
  options.crash_rate = 0.01;
  const StressReport report = run_stress(options);
  expect_clean(report);
  EXPECT_GT(report.client_crashes, 0u);
  EXPECT_GT(report.expired_epoch_slots, 0u);
  EXPECT_GT(report.reclaimed_blocks, 0u);
}

TEST(Stress, SphinxSurvivesMnOutageBursts) {
  StressOptions options = base_options(ycsb::SystemKind::kSphinx);
  options.faults = true;
  options.offline_bursts = 6;
  const StressReport report = run_stress(options);
  expect_clean(report);
  // Outages were hit and ridden out: verbs were rejected and retried, and
  // no operation gave up or lost data.
  EXPECT_GT(report.fault_stats.offline_rejects, 0u);
  EXPECT_EQ(report.fault_stats.offline_giveups, 0u);
}

TEST(Stress, SphinxClientCrashAtEachProtocolStep) {
  // Kill clients at one tagged protocol verb at a time, so every crash
  // window -- lock acquired, payload half-written, slot installed but not
  // released, mid split publication -- is stressed in isolation. Each run
  // must quiesce with no lost acknowledged write, no wedged lock and an
  // exact oracle match.
  const rdma::FaultSite sites[] = {
      rdma::FaultSite::kLockAcquire,  rdma::FaultSite::kSlotInstall,
      rdma::FaultSite::kPayloadWrite, rdma::FaultSite::kLockRelease,
      rdma::FaultSite::kHashInsert,   rdma::FaultSite::kHashUpdate,
      rdma::FaultSite::kHashErase,    rdma::FaultSite::kTableLock,
      rdma::FaultSite::kSplitSibling, rdma::FaultSite::kSplitDir,
      rdma::FaultSite::kSplitPublish};
  uint64_t total_crashes = 0;
  for (const rdma::FaultSite site : sites) {
    SCOPED_TRACE("crash site " + std::to_string(static_cast<int>(site)));
    StressOptions options = base_options(ycsb::SystemKind::kSphinx);
    options.threads = 4;
    options.ops_per_thread = 700;
    options.churn_keys_per_thread = 32;
    options.crash_rate = 0.02;
    options.crash_site = site;
    const StressReport report = run_stress(options);
    expect_clean(report);
    total_crashes += report.client_crashes;
  }
  // Frequently-executed sites must actually have fired; rare sites (splits)
  // may legitimately see no crash in a short run.
  EXPECT_GT(total_crashes, 0u);
}

TEST(Stress, SphinxClientCrashStormReclaimsOrphanLocks) {
  // Crashes at every tagged site, layered over the background fault
  // schedule. Survivors must observe expired leases and reclaim the dead
  // clients' locks -- the run cannot stay clean otherwise, since every
  // orphaned node would wedge its key range.
  StressOptions options = base_options(ycsb::SystemKind::kSphinx);
  options.faults = true;
  options.crash_rate = 0.004;
  const StressReport report = run_stress(options);
  expect_clean(report);
  EXPECT_GT(report.client_crashes, 0u);
  EXPECT_GT(report.recovery.lease_expiries_observed, 0u);
  EXPECT_GT(report.recovery.lock_reclaims, 0u);
}

TEST(Stress, SmartClientCrashStorm) {
  // The ART-family lock recovery paths without Sphinx's filter layers.
  StressOptions options = base_options(ycsb::SystemKind::kSmart);
  options.threads = 4;
  options.ops_per_thread = 1000;
  options.crash_rate = 0.004;
  const StressReport report = run_stress(options);
  expect_clean(report);
  EXPECT_GT(report.client_crashes, 0u);
}

// Pipelined-client coherence: each worker plans a batch of point ops,
// submits them through execute_batch (cross-op doorbell fusion on Sphinx),
// and resolves every outcome against the same lin-bracket and churn-oracle
// machinery as the serial mix. The batches race other workers' writers --
// a fused leaf read can land while the leaf's owner is splitting it -- so
// staleness, validation, and the wrong-value audit are all on the hook.
TEST(Stress, PipelinedSphinxFaultFree) {
  StressOptions options = base_options(ycsb::SystemKind::kSphinx);
  options.pipeline_depth = 8;
  const StressReport report = run_stress(options);
  expect_clean(report);
  // Fusion really carried traffic: fused ops outnumber fused rounds, i.e.
  // at least some rounds served more than one op.
  EXPECT_GT(report.batch_fused_rounds, 0u);
  EXPECT_GT(report.batch_fused_ops, report.batch_fused_rounds);
}

TEST(Stress, PipelinedSphinxUnderFaultsAndSplits) {
  // Deep churn stripes force splits and out-of-place moves under the
  // in-flight batches; injected CAS losses and stalls reorder everything.
  StressOptions options = base_options(ycsb::SystemKind::kSphinx);
  options.pipeline_depth = 8;
  options.churn_keys_per_thread = 96;
  options.ops_per_thread = 2000;
  options.faults = true;
  const StressReport report = run_stress(options);
  expect_clean(report);
  EXPECT_GT(report.batch_fused_ops, 0u);
  EXPECT_GT(report.lac_hits, 0u);
  // Batch-level epoch pins must not starve reclamation: blocks retired
  // under the in-flight batches still ripen and recycle.
  EXPECT_GT(report.reclaimed_blocks, 0u);
}

TEST(Stress, PipelinedSphinxUnderClientCrashes) {
  // A crash can cut a batch anywhere: before the fused round, inside it,
  // or between the serial-pass ops. Ops left with done == false are
  // resolved by read-back exactly like crashed serial ops -- the outcome
  // must be the old or the new state, never a torn one.
  StressOptions options = base_options(ycsb::SystemKind::kSphinx);
  options.pipeline_depth = 8;
  options.faults = true;
  options.crash_rate = 0.004;
  const StressReport report = run_stress(options);
  expect_clean(report);
  EXPECT_GT(report.client_crashes, 0u);
  EXPECT_GT(report.batch_fused_ops, 0u);
}

TEST(Stress, PipelinedSphinxMissPathUnderChurnAndFaults) {
  // With the LAC off, every batched search takes the staged miss path:
  // PEC-hinted and INHT-resolved start nodes, child and leaf reads, each
  // posted into rounds shared with the batch's other searches, while deep
  // churn stripes split, grow and move nodes under them, faults reorder
  // verbs and crashes cut batches anywhere.
  StressOptions options = base_options(ycsb::SystemKind::kSphinxNoLac);
  options.pipeline_depth = 8;
  options.churn_keys_per_thread = 96;
  options.ops_per_thread = 2000;
  options.faults = true;
  options.crash_rate = 0.004;
  const StressReport report = run_stress(options);
  expect_clean(report);
  EXPECT_EQ(report.lac_hits, 0u);
  EXPECT_GT(report.batch_shared_ops, 0u);
  EXPECT_GT(report.client_crashes, 0u);
}

TEST(Stress, PipelinedLockstepReachesEveryBarrier) {
  // Lockstep rounds at depth 8: a batch stops at the end of its round, so
  // every worker arrives at every barrier and the run cannot deadlock,
  // whatever mix of batch sizes and scans each worker draws.
  StressOptions options = base_options(ycsb::SystemKind::kSphinx);
  options.threads = 4;
  options.ops_per_thread = 600;
  options.pipeline_depth = 8;
  options.lockstep_ops = 25;
  expect_clean(run_stress(options));
}

TEST(Stress, PipelinedBaselinesStayCleanOnSerialFallback) {
  // SMART keeps the inherited one-op-at-a-time execute_batch; the
  // harness's batched planning must stay sound over that path too.
  StressOptions options = base_options(ycsb::SystemKind::kSmart);
  options.pipeline_depth = 8;
  options.threads = 4;
  options.ops_per_thread = 1000;
  options.faults = true;
  const StressReport report = run_stress(options);
  expect_clean(report);
  EXPECT_EQ(report.batch_fused_ops, 0u);  // no fusion engine here
}

// Scan-vs-mutator linearizability: scanners sweep a stripe of immortal
// "stable" keys while mutators split, grow, and shrink the subtrees
// between them (inserting/removing interleaved keys forces leaf splits,
// type switches, and out-of-place node moves under the scanners' feet).
// Every sweep must return each stable key exactly once, strictly sorted,
// with zero data-loss counters and no truncation -- the failure mode the
// old scan path hit silently.
TEST(Stress, ScansNeverDropKeysUnderConcurrentMutation) {
  auto cluster = testing::make_test_cluster();
  ycsb::SystemSetup setup(ycsb::SystemKind::kSphinx, *cluster);

  constexpr int kStable = 200;
  auto stable_key = [](int i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "scan:%04d", i);
    return std::string(buf);
  };
  {
    rdma::Endpoint ep(cluster->fabric(), 0, true);
    mem::RemoteAllocator alloc(*cluster, ep);
    auto loader = setup.make_client(0, ep, alloc);
    for (int i = 0; i < kStable; ++i) {
      ASSERT_TRUE(loader->insert(stable_key(i), "stable"));
    }
  }

  constexpr int kMutators = 4;
  constexpr int kScanners = 2;
  constexpr int kMutOps = 1200;
  constexpr int kSweeps = 25;
  std::atomic<uint64_t> order_violations{0};
  std::atomic<uint64_t> missing_stable{0};
  std::atomic<uint64_t> truncated{0};
  std::atomic<uint64_t> skips{0};
  std::atomic<uint64_t> drops{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kMutators; ++t) {
    threads.emplace_back([&, t] {
      rdma::Endpoint ep(cluster->fabric(), static_cast<uint32_t>(t) % 3,
                        true);
      mem::RemoteAllocator alloc(*cluster, ep);
      auto index = setup.make_client(static_cast<uint32_t>(t) % 3, ep, alloc);
      Rng rng(0x5ead + static_cast<uint64_t>(t));
      // Disjoint stable-key stripes so the churn never races itself.
      std::set<std::string> live;
      for (int op = 0; op < kMutOps; ++op) {
        const int base = t + kMutators * static_cast<int>(rng.next_below(
                                              kStable / kMutators));
        // Children of a stable key: sort between it and its successor and
        // force splits / Node-4 -> Node-16 growth at that position.
        const std::string k = stable_key(base) + ":x" +
                              std::to_string(rng.next_below(6));
        if (live.count(k)) {
          EXPECT_TRUE(index->remove(k)) << k;
          live.erase(k);
        } else {
          EXPECT_TRUE(index->insert(k, "churn")) << k;
          live.insert(k);
        }
      }
    });
  }
  for (int s = 0; s < kScanners; ++s) {
    threads.emplace_back([&, s] {
      rdma::Endpoint ep(cluster->fabric(), static_cast<uint32_t>(s) % 3,
                        true);
      mem::RemoteAllocator alloc(*cluster, ep);
      auto index = setup.make_client(static_cast<uint32_t>(s) % 3, ep, alloc);
      std::vector<std::pair<std::string, std::string>> out;
      for (int sweep = 0; sweep < kSweeps; ++sweep) {
        out.clear();
        index->scan_range(stable_key(0), stable_key(kStable - 1) + "~",
                          1 << 20, &out);
        if (index->last_scan_truncated()) truncated.fetch_add(1);
        size_t stable_seen = 0;
        for (size_t j = 0; j < out.size(); ++j) {
          if (j > 0 && out[j - 1].first >= out[j].first) {
            order_violations.fetch_add(1);
          }
          if (out[j].second == "stable") stable_seen++;
        }
        // Strict sortedness above makes duplicates impossible, so a full
        // stable count means exactly-once.
        if (stable_seen != kStable) missing_stable.fetch_add(1);
      }
      if (const auto* tree =
              dynamic_cast<const art::RemoteTree*>(index.get())) {
        skips.fetch_add(tree->tree_stats().scan.subtree_skips);
        drops.fetch_add(tree->tree_stats().scan.leaf_drops);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(order_violations.load(), 0u);
  EXPECT_EQ(missing_stable.load(), 0u);
  EXPECT_EQ(truncated.load(), 0u);
  EXPECT_EQ(skips.load(), 0u);
  EXPECT_EQ(drops.load(), 0u);
}

TEST(Stress, FixedSeedSingleThreadIsReproducible) {
  auto run_once = [] {
    StressOptions options = base_options(ycsb::SystemKind::kSphinx);
    options.threads = 1;
    options.ops_per_thread = 1200;
    options.faults = true;
    options.seed = 0xfeed5eed;
    testing::StressHarness harness(options);
    harness.injector().set_recording(true);
    const StressReport report = harness.run();
    return std::make_tuple(report, harness.injector().events_for_client(0));
  };

  const auto [report1, events1] = run_once();
  const auto [report2, events2] = run_once();

  expect_clean(report1);
  ASSERT_FALSE(events1.empty());
  ASSERT_EQ(events1.size(), events2.size());
  for (size_t i = 0; i < events1.size(); ++i) {
    ASSERT_TRUE(events1[i] == events2[i]) << "fault event " << i;
  }
  // Bit-for-bit: same faults, same virtual time, same counters.
  EXPECT_EQ(report1.final_clock_ns, report2.final_clock_ns);
  EXPECT_TRUE(report1.fault_stats == report2.fault_stats);
  EXPECT_EQ(report1.total_ops, report2.total_ops);
}

}  // namespace
}  // namespace sphinx
