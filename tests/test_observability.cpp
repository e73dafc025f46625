// Tests for the observability layer: phase-tagged RTT attribution, per-MN
// traffic accounting on wide clusters, trace spans, the metrics registry,
// and the runner's honesty fixes (insert failures, overflow-update misses,
// saturated-NIC latency consistency).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "core/sphinx_index.h"
#include "memnode/cluster.h"
#include "memnode/remote_allocator.h"
#include "rdma/endpoint.h"
#include "rdma/trace.h"
#include "test_util.h"
#include "ycsb/dataset.h"
#include "ycsb/runner.h"
#include "ycsb/systems.h"
#include "ycsb/workload.h"

namespace sphinx {
namespace {

// ---- phase scopes ---------------------------------------------------------------

TEST(Phase, ScopeRestoresAndInnermostWins) {
  rdma::NetworkConfig cfg;
  cfg.num_cns = 1;
  cfg.num_mns = 2;
  rdma::Fabric fabric(cfg, 1 << 20);
  rdma::Endpoint ep(fabric, 0);
  EXPECT_EQ(ep.phase(), rdma::Phase::kUnattributed);
  {
    rdma::PhaseScope outer(ep, rdma::Phase::kInnerRead);
    EXPECT_EQ(ep.phase(), rdma::Phase::kInnerRead);
    ep.read64(rdma::GlobalAddr(0, 64));
    {
      rdma::PhaseScope inner(ep, rdma::Phase::kLeafRead);
      EXPECT_EQ(ep.phase(), rdma::Phase::kLeafRead);
      ep.read64(rdma::GlobalAddr(0, 64));
    }
    EXPECT_EQ(ep.phase(), rdma::Phase::kInnerRead);
  }
  EXPECT_EQ(ep.phase(), rdma::Phase::kUnattributed);
  const auto& s = ep.stats();
  EXPECT_EQ(s.rtts_by_phase[static_cast<size_t>(rdma::Phase::kInnerRead)], 1u);
  EXPECT_EQ(s.rtts_by_phase[static_cast<size_t>(rdma::Phase::kLeafRead)], 1u);
  EXPECT_EQ(s.rtts_sum_by_phase(), s.round_trips);
}

TEST(Phase, BatchAttributedWholeToCurrentPhase) {
  rdma::NetworkConfig cfg;
  cfg.num_cns = 1;
  cfg.num_mns = 2;
  rdma::Fabric fabric(cfg, 1 << 20);
  rdma::Endpoint ep(fabric, 0);
  uint64_t buf[4] = {};
  {
    rdma::PhaseScope scope(ep, rdma::Phase::kScanFrontier);
    rdma::DoorbellBatch batch(ep);
    batch.add_read(rdma::GlobalAddr(0, 64), &buf[0], 8);
    batch.add_read(rdma::GlobalAddr(1, 64), &buf[1], 8);
    batch.add_write(rdma::GlobalAddr(0, 128), &buf[2], 16);
    batch.execute();
  }
  const auto& s = ep.stats();
  EXPECT_EQ(s.round_trips, 1u);
  EXPECT_EQ(s.rtts_by_phase[static_cast<size_t>(rdma::Phase::kScanFrontier)],
            1u);
  // The whole batch's bytes land on the batch's phase.
  EXPECT_EQ(s.bytes_by_phase[static_cast<size_t>(rdma::Phase::kScanFrontier)],
            8u + 8u + 16u);
  EXPECT_EQ(s.bytes_sum_by_phase(), s.bytes_total());
}

TEST(Phase, NamesCoverEveryPhase) {
  for (uint32_t p = 0; p < rdma::kNumPhases; ++p) {
    const char* name = rdma::phase_name(static_cast<rdma::Phase>(p));
    ASSERT_NE(name, nullptr);
    EXPECT_STRNE(name, "?") << "phase " << p << " has no name";
  }
}

// ---- per-MN accounting on wide clusters -----------------------------------------

TEST(EndpointStats, ManyMnsFullyAccounted) {
  // 12 MNs: more than the old fixed-size tracking arrays (8) held. Traffic
  // to every MN must appear in the per-MN breakdown, so the NIC capacity
  // model sees all of it.
  rdma::NetworkConfig cfg;
  cfg.num_cns = 1;
  cfg.num_mns = 12;
  rdma::Fabric fabric(cfg, 1 << 20);
  rdma::Endpoint ep(fabric, 0);
  ASSERT_EQ(ep.stats().msgs_per_mn.size(), 12u);
  for (uint32_t mn = 0; mn < 12; ++mn) {
    ep.read64(rdma::GlobalAddr(mn, 64));
    ep.read64(rdma::GlobalAddr(mn, 64));
  }
  const auto& s = ep.stats();
  uint64_t msg_sum = 0;
  uint64_t byte_sum = 0;
  for (uint32_t mn = 0; mn < 12; ++mn) {
    EXPECT_EQ(s.msgs_per_mn[mn], 2u) << mn;
    msg_sum += s.msgs_per_mn[mn];
    byte_sum += s.bytes_per_mn[mn];
  }
  EXPECT_EQ(msg_sum, s.messages);
  EXPECT_EQ(byte_sum, s.bytes_total());

  // Merge/diff keep the vectors element-wise consistent (the merged stats
  // start with empty vectors and must grow to cover all 12 slots).
  rdma::EndpointStats sum;
  sum += s;
  sum += s;
  ASSERT_EQ(sum.msgs_per_mn.size(), 12u);
  EXPECT_EQ(sum.msgs_per_mn[11], 4u);
  const rdma::EndpointStats diff = sum - s;
  EXPECT_EQ(diff.msgs_per_mn[11], 2u);
  EXPECT_EQ(diff.round_trips, s.round_trips);
}

TEST(Runner, WideClusterNicModelSeesEveryMn) {
  // On a 12-MN cluster the capacity model must account traffic to MNs
  // beyond index 8; node placement is consistent-hashed over all MNs, so a
  // modest run touches well more than 8 of them and their message counts
  // must sum exactly to the total.
  rdma::NetworkConfig cfg;
  cfg.num_cns = 3;
  cfg.num_mns = 12;
  auto cluster = std::make_unique<mem::Cluster>(cfg, 64ull << 20);
  ycsb::SystemSetup setup(ycsb::SystemKind::kArt, *cluster, 1 << 20);
  const auto keys = ycsb::generate_u64_keys(2000, 1);
  ycsb::YcsbRunner runner(*cluster, setup.factory(), keys);
  runner.load(1500, 64, 4);
  ycsb::RunOptions options;
  options.workers = 6;
  options.ops_per_worker = 100;
  const ycsb::RunResult r = runner.run(ycsb::standard_workload('C'), options);
  ASSERT_EQ(r.net.msgs_per_mn.size(), 12u);
  uint64_t per_mn_sum = 0;
  uint32_t mns_touched = 0;
  for (uint64_t m : r.net.msgs_per_mn) {
    per_mn_sum += m;
    if (m > 0) mns_touched++;
  }
  EXPECT_EQ(per_mn_sum, r.net.messages);
  EXPECT_GT(mns_touched, 8u);  // traffic really spreads past the old cap
  EXPECT_GT(r.nic_utilization, 0.0);
  // The per-NIC vectors cover the whole fabric, and the balance figure
  // lies between an even spread (1) and one MN taking every message (12).
  EXPECT_EQ(r.mn_utilization.size(), 12u);
  EXPECT_EQ(r.cn_utilization.size(), 3u);
  EXPECT_GE(r.mn_msg_balance, 1.0);
  EXPECT_LE(r.mn_msg_balance, 12.0);
}

// ---- attribution across systems and workloads -----------------------------------

TEST(Attribution, SumsToRoundTripsForEverySystemAndWorkload) {
  const auto keys = ycsb::generate_u64_keys(3000, 1);
  for (const ycsb::SystemKind kind :
       {ycsb::SystemKind::kSphinx, ycsb::SystemKind::kSmart,
        ycsb::SystemKind::kSmartC, ycsb::SystemKind::kArt}) {
    auto cluster = testing::make_test_cluster(64ull << 20);
    ycsb::SystemSetup setup(kind, *cluster, 1 << 20);
    ycsb::YcsbRunner runner(*cluster, setup.factory(), keys);
    runner.load(2000, 64, 4);
    for (char w : {'A', 'B', 'C', 'E'}) {
      ycsb::RunOptions options;
      options.workers = 6;
      options.ops_per_worker = w == 'E' ? 30 : 80;
      const ycsb::RunResult r =
          runner.run(ycsb::standard_workload(w), options);
      const auto& s = r.net;
      ASSERT_GT(s.round_trips, 0u) << setup.name() << " " << w;
      // Every round trip and every byte carries exactly one phase tag.
      EXPECT_EQ(s.rtts_sum_by_phase(), s.round_trips)
          << setup.name() << " " << w;
      EXPECT_EQ(s.bytes_sum_by_phase(), s.bytes_total())
          << setup.name() << " " << w;
      // And none of them leaked past the protocol code untagged.
      EXPECT_EQ(
          s.rtts_by_phase[static_cast<size_t>(rdma::Phase::kUnattributed)],
          0u)
          << setup.name() << " " << w;
    }
  }
}

// ---- LAC off == pre-LAC behavior ------------------------------------------------

TEST(Attribution, SphinxVariantsSizeTiersLikeTheOldBudgetSplit) {
  // Each Sphinx variant sizes its tiers exactly as the per-tier budget
  // flags it replaces did, byte for byte: SFC/PEC/LAC shares of 45/25/25
  // for Sphinx, 70/0/25 without the PEC, 70/25/0 without the LAC, and no
  // tier at all for the pure-INHT NoSFC baseline. A zero share is a null
  // tier on every CN.
  const uint64_t budget = 1 << 20;
  struct Split {
    ycsb::SystemKind kind;
    uint64_t sfc, pec, lac;
  };
  const Split splits[] = {{ycsb::SystemKind::kSphinx, 45, 25, 25},
                          {ycsb::SystemKind::kSphinxNoPec, 70, 0, 25},
                          {ycsb::SystemKind::kSphinxNoLac, 70, 25, 0},
                          {ycsb::SystemKind::kSphinxNoFilter, 0, 0, 0}};
  for (const Split& s : splits) {
    auto cluster = testing::make_test_cluster(64ull << 20);
    ycsb::SystemSetup setup(s.kind, *cluster, budget);
    const char* name = ycsb::system_kind_name(s.kind);
    auto expect_tier = [&](const auto* tier, uint64_t share, auto with_budget) {
      if (share == 0) {
        EXPECT_EQ(tier, nullptr) << name;
        return;
      }
      ASSERT_NE(tier, nullptr) << name;
      EXPECT_EQ(tier->memory_bytes(),
                with_budget(budget * share / 100)->memory_bytes())
          << name;
    };
    for (uint32_t cn = 0; cn < cluster->config().num_cns; ++cn) {
      expect_tier(setup.filter(cn), s.sfc, filter::CuckooFilter::with_budget);
      expect_tier(setup.pec(cn), s.pec, filter::HintCache::with_budget);
      expect_tier(setup.lac(cn), s.lac, filter::HintCache::with_budget);
    }
  }
}

TEST(Attribution, NoLacRunIsPreLacBitForBit) {
  // Without the leaf address cache (sphinx-nolac), Sphinx must behave
  // exactly as it did before the LAC existed: the filter gets its pre-LAC
  // 70% budget share back (checked above), no round trip is ever tagged
  // with the LAC's fused-read phase, and a fixed-seed single-worker run is
  // deterministic.
  const uint64_t budget = 1 << 20;
  const auto keys = ycsb::generate_u64_keys(2000, 1);
  auto run_once = [&](ycsb::SystemKind kind) {
    auto cluster = testing::make_test_cluster(64ull << 20);
    ycsb::SystemSetup setup(kind, *cluster, budget);
    EXPECT_EQ(setup.lac(0) == nullptr,
              kind == ycsb::SystemKind::kSphinxNoLac);
    ycsb::YcsbRunner runner(*cluster, setup.factory(), keys);
    runner.load(1500, 64, /*workers=*/1);
    ycsb::RunOptions options;
    options.workers = 1;
    options.ops_per_worker = 200;
    options.seed = 23;
    return runner.run(ycsb::standard_workload('C'), options);
  };

  const ycsb::RunResult off_a = run_once(ycsb::SystemKind::kSphinxNoLac);
  const ycsb::RunResult off_b = run_once(ycsb::SystemKind::kSphinxNoLac);
  EXPECT_EQ(off_a.net.round_trips, off_b.net.round_trips);
  EXPECT_EQ(off_a.net.bytes_total(), off_b.net.bytes_total());
  EXPECT_EQ(off_a.net.messages, off_b.net.messages);
  EXPECT_DOUBLE_EQ(off_a.ops_per_sec, off_b.ops_per_sec);
  EXPECT_DOUBLE_EQ(off_a.sim_seconds, off_b.sim_seconds);
  // Not one round trip or byte on the LAC phase: the fast path is
  // compiled out of the run, not merely losing its lookups.
  const auto lac_phase = static_cast<size_t>(rdma::Phase::kLacFusedRead);
  EXPECT_EQ(off_a.net.rtts_by_phase[lac_phase], 0u);
  EXPECT_EQ(off_a.net.bytes_by_phase[lac_phase], 0u);

  // The zero check is not vacuous: the same run with the LAC enabled does
  // route warm reads through the fused phase, and saves round trips.
  const ycsb::RunResult on = run_once(ycsb::SystemKind::kSphinx);
  EXPECT_GT(on.net.rtts_by_phase[lac_phase], 0u);
  EXPECT_LT(on.net.round_trips, off_a.net.round_trips);
}

// ---- phase attribution under cross-op fusion ------------------------------------

TEST(Attribution, PipelinedFusionSumsExactlyAndSharesRounds) {
  // One doorbell round trip serving several ops is still charged to
  // exactly one phase -- the whole round to kLacFusedRead, nothing split
  // or prorated across the ops sharing the wire (the charging rule in
  // rdma/phase.h) -- so per-phase RTT/byte sums equal totals under
  // arbitrary cross-op fusion. And the shared round must actually be
  // shared: warm read-heavy batches at depth 8 complete several ops per
  // cross-op round trip.
  const auto keys = ycsb::generate_u64_keys(3000, 1);
  auto cluster = testing::make_test_cluster(64ull << 20);
  ycsb::SystemSetup setup(ycsb::SystemKind::kSphinx, *cluster, 1 << 20);
  ycsb::YcsbRunner runner(*cluster, setup.factory(), keys);
  runner.load(2000, 64, 4);
  core::SphinxStats agg;
  std::mutex agg_mu;
  runner.set_per_worker_hook([&](KvIndex& index, uint32_t) {
    if (auto* s = dynamic_cast<core::SphinxIndex*>(&index)) {
      std::lock_guard<std::mutex> lock(agg_mu);
      agg += s->sphinx_stats();
    }
  });
  for (char w : {'C', 'A', 'D'}) {
    ycsb::RunOptions options;
    options.workers = 6;
    options.ops_per_worker = 200;
    options.pipeline_depth = 8;
    const ycsb::RunResult r = runner.run(ycsb::standard_workload(w), options);
    const auto& s = r.net;
    ASSERT_GT(s.round_trips, 0u) << w;
    EXPECT_EQ(s.rtts_sum_by_phase(), s.round_trips) << w;
    EXPECT_EQ(s.bytes_sum_by_phase(), s.bytes_total()) << w;
    EXPECT_EQ(
        s.rtts_by_phase[static_cast<size_t>(rdma::Phase::kUnattributed)], 0u)
        << w;
  }
  // More ops completed by fused rounds than rounds issued: the doorbell
  // batches really carried multiple ops each.
  EXPECT_GT(agg.batch_fused_rounds, 0u);
  EXPECT_GT(agg.batch_fused_ops, 2 * agg.batch_fused_rounds);
  EXPECT_EQ(agg.lac_wrong_value, 0u);
}

// ---- runner honesty: insert failures --------------------------------------------

// Wraps a real index client and, once `armed` is set, vetoes a
// deterministic subset of inserts (and optionally all updates) without
// touching remote memory, so the runner's failure accounting can be
// observed exactly. Disarmed during bulk load (the loader treats insert
// failures as fatal).
class FlakyIndex final : public KvIndex {
 public:
  FlakyIndex(std::unique_ptr<KvIndex> inner, uint32_t veto_every,
             bool fail_updates, const std::atomic<bool>* armed,
             std::atomic<uint64_t>* vetoed)
      : inner_(std::move(inner)),
        veto_every_(veto_every),
        fail_updates_(fail_updates),
        armed_(armed),
        vetoed_(vetoed) {}

  bool search(Slice key, std::string* value_out) override {
    return inner_->search(key, value_out);
  }
  bool insert(Slice key, Slice value) override {
    if (armed_->load(std::memory_order_relaxed) && veto_every_ > 0 &&
        ++insert_calls_ % veto_every_ == 0) {
      vetoed_->fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    return inner_->insert(key, value);
  }
  bool update(Slice key, Slice value) override {
    if (armed_->load(std::memory_order_relaxed) && fail_updates_) return false;
    return inner_->update(key, value);
  }
  bool remove(Slice key) override { return inner_->remove(key); }
  size_t scan(Slice start_key, size_t count,
              std::vector<std::pair<std::string, std::string>>* out) override {
    return inner_->scan(start_key, count, out);
  }
  size_t scan_range(
      Slice low_key, Slice high_key, size_t max_results,
      std::vector<std::pair<std::string, std::string>>* out) override {
    return inner_->scan_range(low_key, high_key, max_results, out);
  }
  bool last_scan_truncated() const override {
    return inner_->last_scan_truncated();
  }
  const char* name() const override { return "Flaky"; }

 private:
  std::unique_ptr<KvIndex> inner_;
  uint32_t veto_every_;
  bool fail_updates_;
  const std::atomic<bool>* armed_;
  std::atomic<uint64_t>* vetoed_;
  uint64_t insert_calls_ = 0;
};

TEST(Runner, FailedInsertsDoNotAdvanceVisibleSet) {
  auto cluster = testing::make_test_cluster(64ull << 20);
  ycsb::SystemSetup setup(ycsb::SystemKind::kArt, *cluster, 1 << 20);
  const auto keys = ycsb::generate_u64_keys(4000, 1);
  std::atomic<bool> armed{false};
  std::atomic<uint64_t> vetoed{0};
  auto base = setup.factory();
  ycsb::IndexFactory flaky_factory =
      [&](uint32_t worker_id, uint32_t cn, rdma::Endpoint& endpoint,
          mem::RemoteAllocator& allocator) -> std::unique_ptr<KvIndex> {
    return std::make_unique<FlakyIndex>(
        base(worker_id, cn, endpoint, allocator), /*veto_every=*/3,
        /*fail_updates=*/false, &armed, &vetoed);
  };
  ycsb::YcsbRunner runner(*cluster, flaky_factory, keys);
  runner.load(1000, 64, 4);
  const uint64_t n0 = runner.visible_keys();
  ASSERT_EQ(n0, 1000u);
  armed = true;

  // 100%-insert phase: every third insert per worker is vetoed.
  ycsb::RunOptions options;
  options.workers = 4;
  options.ops_per_worker = 200;
  const ycsb::RunResult r = runner.run(ycsb::standard_workload('L'), options);

  EXPECT_GT(vetoed.load(), 0u);
  EXPECT_EQ(r.insert_failures, vetoed.load());
  EXPECT_EQ(r.insert_overflow, 0u);  // pool is big enough
  // Only successful inserts became visible; failed ones left holes.
  EXPECT_EQ(runner.visible_keys(), n0 + r.total_ops - r.insert_failures);

  // Later reads draw from [0, visible); holes inside that range are honest
  // misses, not phantom hits.
  armed = false;
  ycsb::RunOptions read_options;
  read_options.workers = 4;
  read_options.ops_per_worker = 300;
  const ycsb::RunResult rd =
      runner.run(ycsb::standard_workload('C'), read_options);
  EXPECT_GT(rd.misses, 0u);
}

TEST(Runner, OverflowFallbackUpdateFailureCountsAsMiss) {
  auto cluster = testing::make_test_cluster(64ull << 20);
  ycsb::SystemSetup setup(ycsb::SystemKind::kArt, *cluster, 1 << 20);
  // Pool exactly equals the loaded prefix: every run-phase insert
  // overflows into the update fallback, which the wrapper always fails.
  const auto keys = ycsb::generate_u64_keys(500, 1);
  std::atomic<bool> armed{false};
  std::atomic<uint64_t> vetoed{0};
  auto base = setup.factory();
  ycsb::IndexFactory failing_updates =
      [&](uint32_t worker_id, uint32_t cn, rdma::Endpoint& endpoint,
          mem::RemoteAllocator& allocator) -> std::unique_ptr<KvIndex> {
    return std::make_unique<FlakyIndex>(
        base(worker_id, cn, endpoint, allocator), /*veto_every=*/0,
        /*fail_updates=*/true, &armed, &vetoed);
  };
  ycsb::YcsbRunner runner(*cluster, failing_updates, keys);
  runner.load(500, 64, 4);
  armed = true;

  ycsb::RunOptions options;
  options.workers = 4;
  options.ops_per_worker = 50;
  const ycsb::RunResult r = runner.run(ycsb::standard_workload('L'), options);
  EXPECT_EQ(r.insert_overflow, r.total_ops);
  // Every failed fallback update is a miss, not silent success.
  EXPECT_EQ(r.misses, r.total_ops);
  EXPECT_EQ(r.insert_failures, 0u);
  EXPECT_EQ(runner.visible_keys(), 500u);
}

// ---- saturated-NIC latency consistency ------------------------------------------

TEST(Runner, SaturatedNicStretchesPercentilesWithMean) {
  // One MN, many workers: aggregate demand on the single NIC exceeds the
  // unloaded makespan, so the stretch factor must exceed 1 and both the
  // mean and the percentiles must report the same queueing adjustment.
  rdma::NetworkConfig cfg;
  cfg.num_cns = 1;
  cfg.num_mns = 1;
  cfg.mn_msg_ns = 400;  // make MN service dominate each round trip
  auto cluster = std::make_unique<mem::Cluster>(cfg, 64ull << 20);
  ycsb::SystemSetup setup(ycsb::SystemKind::kArt, *cluster, 1 << 20);
  const auto keys = ycsb::generate_u64_keys(2000, 1);
  ycsb::YcsbRunner runner(*cluster, setup.factory(), keys);
  runner.load(1500, 64, 4);
  ycsb::RunOptions options;
  options.workers = 12;
  options.ops_per_worker = 100;
  const ycsb::RunResult r = runner.run(ycsb::standard_workload('C'), options);

  ASSERT_GT(r.latency_stretch, 1.0);
  EXPECT_DOUBLE_EQ(r.latency_stretch, r.nic_utilization);
  // The effective mean exceeds the unloaded mean by the stretch's worth of
  // queueing.
  EXPECT_GT(r.mean_latency_ns, r.mean_unloaded_latency_ns);
  // On a one-CN one-MN fabric the per-NIC stretch collapses to the global
  // factor: every worker's traffic crosses the same two NICs, so the
  // effective percentiles equal the unloaded ones scaled by the stretch
  // (up to the histogram's <= 12.5% re-bucketing error). The old bug
  // stretched only the mean, letting reported p99 sit below the mean.
  ASSERT_EQ(r.latency_effective.count(), r.latency.count());
  // Two bucketings (record, then scaled re-record) compound to at most
  // ~27% upward and ~12.5% downward quantization.
  const double uniform_p50 =
      static_cast<double>(r.latency.percentile_ns(50)) * r.latency_stretch;
  EXPECT_GE(r.effective_percentile_ns(50), 0.85 * uniform_p50);
  EXPECT_LE(r.effective_percentile_ns(50), 1.30 * uniform_p50);
  EXPECT_GE(r.effective_percentile_ns(99), r.effective_percentile_ns(50));
  EXPECT_GE(r.effective_percentile_ns(99), r.mean_latency_ns * 0.5);
  // The per-NIC vectors cover the whole fabric and the scalar utilization
  // is their max.
  ASSERT_EQ(r.mn_utilization.size(), 1u);
  ASSERT_EQ(r.cn_utilization.size(), 1u);
  EXPECT_DOUBLE_EQ(
      r.nic_utilization,
      std::max(r.mn_utilization[0], r.cn_utilization[0]));
}

TEST(Runner, CnNicByteDemandCharged) {
  // Byte-heavy regime: message processing is free (mn_msg_ns = cn_msg_ns =
  // 0) and bandwidth is scarce, so NIC demand is bytes alone. The cluster
  // has one CN fanning out to three MNs: each MN serves ~a third of the
  // bytes, but every byte crosses the single CN NIC, so the CN must
  // byte-saturate ~3x harder than the busiest MN. The old model charged CN
  // NICs per message only -- under these parameters it reported zero CN
  // demand and let the capacity model undercount the binding NIC 3x.
  rdma::NetworkConfig cfg;
  cfg.num_cns = 1;
  cfg.num_mns = 3;
  cfg.mn_msg_ns = 0;
  cfg.cn_msg_ns = 0;
  cfg.bytes_per_ns = 0.001;  // 1 MB/s-ish: bytes dominate utterly
  auto cluster = std::make_unique<mem::Cluster>(cfg, 64ull << 20);
  ycsb::SystemSetup setup(ycsb::SystemKind::kArt, *cluster, 1 << 20);
  const auto keys = ycsb::generate_u64_keys(3000, 1);
  ycsb::YcsbRunner runner(*cluster, setup.factory(), keys);
  runner.load(2000, 64, 4);
  ycsb::RunOptions options;
  options.workers = 6;
  options.ops_per_worker = 100;
  const ycsb::RunResult r = runner.run(ycsb::standard_workload('C'), options);

  ASSERT_EQ(r.cn_utilization.size(), 1u);
  ASSERT_EQ(r.mn_utilization.size(), 3u);
  double mn_max = 0;
  double mn_sum = 0;
  for (double u : r.mn_utilization) {
    mn_max = std::max(mn_max, u);
    mn_sum += u;
  }
  ASSERT_GT(mn_max, 0.0);
  // The CN NIC carries every byte the three MNs carry between them -- its
  // demand is exactly the per-MN sum, and strictly above the busiest MN
  // whenever more than one MN sees traffic. (The split is NOT even thirds:
  // node placement concentrates hot top-of-tree reads, which is precisely
  // what the knee study's balance figure tracks.)
  EXPECT_GT(r.cn_utilization[0], mn_max);
  EXPECT_NEAR(r.cn_utilization[0] / mn_sum, 1.0, 1e-9);
  // And the headline utilization is the CN's, not the busiest MN's.
  EXPECT_DOUBLE_EQ(r.nic_utilization, r.cn_utilization[0]);
  // Exact charge: bytes / bandwidth over the unloaded makespan (recovered
  // from the effective makespan by undoing the stretch).
  const double t_unloaded = r.sim_seconds * 1e9 / r.latency_stretch;
  const double expected =
      static_cast<double>(r.net.bytes_total()) / cfg.bytes_per_ns / t_unloaded;
  EXPECT_NEAR(r.cn_utilization[0] / expected, 1.0, 1e-9);
}

// Amplifies every search into `factor` real searches, so one worker can be
// given a deliberately heavier NIC footprint than its peers.
class AmplifiedIndex final : public KvIndex {
 public:
  AmplifiedIndex(std::unique_ptr<KvIndex> inner, uint32_t factor)
      : inner_(std::move(inner)), factor_(factor) {}
  bool search(Slice key, std::string* value_out) override {
    bool ok = false;
    for (uint32_t i = 0; i < factor_; ++i) {
      ok = inner_->search(key, value_out);
    }
    return ok;
  }
  bool insert(Slice key, Slice value) override {
    return inner_->insert(key, value);
  }
  bool update(Slice key, Slice value) override {
    return inner_->update(key, value);
  }
  bool remove(Slice key) override { return inner_->remove(key); }
  size_t scan(Slice start_key, size_t count,
              std::vector<std::pair<std::string, std::string>>* out) override {
    return inner_->scan(start_key, count, out);
  }
  size_t scan_range(
      Slice low_key, Slice high_key, size_t max_results,
      std::vector<std::pair<std::string, std::string>>* out) override {
    return inner_->scan_range(low_key, high_key, max_results, out);
  }
  bool last_scan_truncated() const override {
    return inner_->last_scan_truncated();
  }
  const char* name() const override { return "Amplified"; }

 private:
  std::unique_ptr<KvIndex> inner_;
  uint32_t factor_;
};

TEST(Runner, PerNicStretchDoesNotFlattenSkewIntoOneFactor) {
  // Two CNs, six workers each; CN0's workers issue 6x the traffic. The CN
  // NICs dominate (mn_msg_ns = 0, bytes negligible, cn_msg_ns huge), so
  // CN0 saturates (6 workers sharing it each keep it ~half busy) while
  // CN1 stays under 1. Under the old single global stretch, BOTH CNs'
  // workers' latencies were scaled by CN0's utilization; per-NIC stretch
  // must keep the cool workers' samples (the lower half of the effective
  // distribution) well below that uniform scaling.
  rdma::NetworkConfig cfg;
  cfg.num_cns = 2;
  cfg.num_mns = 1;
  cfg.mn_msg_ns = 0;
  cfg.cn_msg_ns = 2000;
  cfg.bytes_per_ns = 1e9;  // byte term negligible
  auto cluster = std::make_unique<mem::Cluster>(cfg, 64ull << 20);
  ycsb::SystemSetup setup(ycsb::SystemKind::kArt, *cluster, 1 << 20);
  const auto keys = ycsb::generate_u64_keys(3000, 1);
  auto base = setup.factory();
  ycsb::IndexFactory skewed =
      [&](uint32_t worker_id, uint32_t cn, rdma::Endpoint& endpoint,
          mem::RemoteAllocator& allocator) -> std::unique_ptr<KvIndex> {
    auto inner = base(worker_id, cn, endpoint, allocator);
    if (cn == 0) {
      return std::make_unique<AmplifiedIndex>(std::move(inner), 6);
    }
    return inner;
  };
  ycsb::YcsbRunner runner(*cluster, skewed, keys);
  runner.load(2000, 64, 4);
  ycsb::RunOptions options;
  options.workers = 12;  // even workers -> CN0 (hot), odd -> CN1 (cool)
  options.ops_per_worker = 150;
  const ycsb::RunResult r = runner.run(ycsb::standard_workload('C'), options);

  ASSERT_EQ(r.cn_utilization.size(), 2u);
  ASSERT_GT(r.cn_utilization[0], 1.5) << "hot CN never saturated";
  EXPECT_GT(r.cn_utilization[0], 4.0 * std::max(r.cn_utilization[1], 0.01));
  // Worker 1 contributes half the samples, all cheaper AND barely
  // stretched; the effective p25 must sit far below the uniform global
  // scaling the old model applied to every sample.
  const double uniform_p25 =
      static_cast<double>(r.latency.percentile_ns(25)) * r.latency_stretch;
  EXPECT_LT(r.effective_percentile_ns(25), 0.75 * uniform_p25);
  // The hot worker's tail still carries the full stretch.
  EXPECT_GE(r.effective_percentile_ns(99),
            0.8 * static_cast<double>(r.latency.percentile_ns(99)));
}

TEST(Runner, LittlesLawInFlightClampedToTotalOps) {
  // 6 workers x depth 8 nominally keeps 48 ops in flight, but the phase
  // only runs 12 ops total -- the old formula charged the phantom 48-op
  // window and overstated the mean 4x. With L clamped to total_ops the
  // mean equals the effective makespan exactly (every op "in flight" for
  // the whole phase is the most Little's law can honestly claim).
  auto cluster = testing::make_test_cluster(64ull << 20);
  ycsb::SystemSetup setup(ycsb::SystemKind::kArt, *cluster, 1 << 20);
  const auto keys = ycsb::generate_u64_keys(3000, 1);
  ycsb::YcsbRunner runner(*cluster, setup.factory(), keys);
  runner.load(2000, 64, 4);
  ycsb::RunOptions options;
  options.workers = 6;
  options.pipeline_depth = 8;
  options.ops_per_worker = 2;
  const ycsb::RunResult r = runner.run(ycsb::standard_workload('C'), options);
  ASSERT_EQ(r.total_ops, 12u);
  const double t_eff = r.sim_seconds * 1e9;
  EXPECT_NEAR(r.mean_latency_ns / t_eff, 1.0, 1e-9);
  // Regression guard: the unclamped formula would report 4x the makespan.
  EXPECT_LT(r.mean_latency_ns, 2.0 * t_eff);
}

TEST(Runner, RootReplicationEvensMnTrafficForArt) {
  // Cache-less ART descends from the root on every op, so with replicas
  // off the primary root's MN is the whole tree's front door and the
  // per-MN message balance skews toward it (the knee-study hotspot,
  // DESIGN.md Sec. 15). The same deterministic workload with replica
  // routing on must spread those root reads and strictly improve the
  // balance ratio.
  auto balance_for = [](bool replicas) {
    auto cluster = testing::make_test_cluster(128ull << 20);
    ycsb::SystemSetup setup(ycsb::SystemKind::kArt, *cluster, 1 << 20);
    setup.set_root_replicas(replicas);
    const auto keys = ycsb::generate_u64_keys(6000, 1);
    ycsb::YcsbRunner runner(*cluster, setup.factory(), keys);
    runner.load(4000, 64, 4);
    ycsb::RunOptions options;
    options.workers = 12;
    options.ops_per_worker = 150;
    const ycsb::RunResult r =
        runner.run(ycsb::standard_workload('C'), options);
    EXPECT_EQ(r.misses, 0u) << "replicas=" << replicas;
    return r.mn_msg_balance;
  };
  const double off = balance_for(false);
  const double on = balance_for(true);
  EXPECT_GT(off, 1.25) << "hot root MN no longer visible with replicas off";
  EXPECT_LT(on, off - 0.1);
  EXPECT_LT(on, 1.25);
}

// ---- tracing --------------------------------------------------------------------

TEST(Trace, RecorderBoundsBufferAndCountsDrops) {
  rdma::TraceRecorder rec(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    rec.record("span", static_cast<uint64_t>(i) * 100, 50, 0);
  }
  EXPECT_EQ(rec.events().size(), 4u);
  EXPECT_EQ(rec.dropped(), 6u);
  rdma::TraceRecorder other(4);
  other.record("other", 0, 10, 1);
  rdma::TraceRecorder merged;
  merged.merge(rec);
  merged.merge(other);
  EXPECT_EQ(merged.events().size(), 5u);
  EXPECT_EQ(merged.dropped(), 6u);  // drop counts carry through merges
}

TEST(Trace, ChromeTraceJsonShape) {
  rdma::TraceRecorder rec;
  rec.record("leaf_read", 1000, 2000, 3);
  rec.record("op:read", 500, 4000, 3);
  std::ostringstream os;
  rdma::write_chrome_trace(os, {{"Sphinx/u64/YCSB-C", &rec}});
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"M\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"leaf_read\""), std::string::npos);
  EXPECT_NE(json.find("Sphinx/u64/YCSB-C"), std::string::npos);
  // ts/dur are microseconds (ns / 1000).
  EXPECT_NE(json.find("\"ts\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"dur\": 2"), std::string::npos);
}

TEST(Trace, TracingChangesNoStatsOrClocks) {
  // Single worker, single load worker: the run is exactly deterministic
  // (see Runner.DeterministicAcrossRuns), so a traced and an untraced run
  // must agree bit for bit -- the trace hook is null-checked in the charge
  // paths and costs no virtual time either way.
  const auto keys = ycsb::generate_u64_keys(2000, 1);
  auto run_once = [&](rdma::TraceRecorder* rec) {
    auto cluster = testing::make_test_cluster(64ull << 20);
    ycsb::SystemSetup setup(ycsb::SystemKind::kSphinx, *cluster, 1 << 20);
    ycsb::YcsbRunner runner(*cluster, setup.factory(), keys);
    runner.load(1500, 64, /*workers=*/1);
    ycsb::RunOptions options;
    options.workers = 1;
    options.ops_per_worker = 200;
    options.trace = rec;
    return runner.run(ycsb::standard_workload('C'), options);
  };
  rdma::TraceRecorder rec;
  const ycsb::RunResult untraced = run_once(nullptr);
  const ycsb::RunResult traced = run_once(&rec);

  EXPECT_EQ(traced.net.round_trips, untraced.net.round_trips);
  EXPECT_EQ(traced.net.bytes_total(), untraced.net.bytes_total());
  EXPECT_EQ(traced.net.messages, untraced.net.messages);
  EXPECT_DOUBLE_EQ(traced.ops_per_sec, untraced.ops_per_sec);
  EXPECT_DOUBLE_EQ(traced.sim_seconds, untraced.sim_seconds);

  // The traced run actually recorded spans: enclosing op spans plus
  // phase-named round-trip spans nested within them.
  ASSERT_FALSE(rec.events().empty());
  EXPECT_EQ(rec.dropped(), 0u);
  bool saw_op = false;
  bool saw_phase = false;
  for (const rdma::TraceEvent& e : rec.events()) {
    const std::string name(e.name);
    if (name.rfind("op:", 0) == 0) saw_op = true;
    if (name == "pec_validate" || name == "leaf_read" || name == "inht_read" ||
        name == "lac_fused_read") {
      saw_phase = true;
    }
    EXPECT_NE(name, "unattributed");
  }
  EXPECT_TRUE(saw_op);
  EXPECT_TRUE(saw_phase);
}

TEST(Trace, ScansAndRmwsGetOpSpansAtEveryDepth) {
  // Scans and RMWs run through the same client loop as point ops at every
  // depth, trace hook attached: with every op sampled, each scan and each
  // RMW records its own op span, and every round-trip span lies inside an
  // op span of its worker.
  const auto keys = ycsb::generate_u64_keys(3000, 1);
  for (const char workload : {'E', 'F'}) {
    for (const uint32_t depth : {1u, 8u}) {
      SCOPED_TRACE(std::string("YCSB-") + workload + " depth " +
                   std::to_string(depth));
      auto cluster = testing::make_test_cluster(64ull << 20);
      ycsb::SystemSetup setup(ycsb::SystemKind::kSphinx, *cluster, 1 << 20);
      ycsb::YcsbRunner runner(*cluster, setup.factory(), keys);
      runner.load(2000, 64, /*workers=*/1);
      rdma::TraceRecorder rec;
      ycsb::RunOptions options;
      options.workers = 2;
      options.ops_per_worker = 120;
      options.pipeline_depth = depth;
      options.trace = &rec;
      options.trace_sample = 1;
      const ycsb::RunResult r =
          runner.run(ycsb::standard_workload(workload), options);
      ASSERT_EQ(rec.dropped(), 0u);

      uint64_t scan_spans = 0;
      uint64_t rmw_spans = 0;
      std::vector<rdma::TraceEvent> ops;
      for (const rdma::TraceEvent& e : rec.events()) {
        const std::string name(e.name);
        if (name.rfind("op", 0) != 0) continue;
        ops.push_back(e);
        if (name == "op:scan") scan_spans++;
        if (name == "op:rmw") rmw_spans++;
      }
      EXPECT_EQ(scan_spans, r.scan_ops);
      EXPECT_EQ(rmw_spans, r.rmw_ops);
      EXPECT_GT(scan_spans + rmw_spans, 0u);
      for (const rdma::TraceEvent& e : rec.events()) {
        if (std::string(e.name).rfind("op", 0) == 0) continue;
        const bool inside = std::any_of(
            ops.begin(), ops.end(), [&](const rdma::TraceEvent& op) {
              return op.tid == e.tid && op.ts_ns <= e.ts_ns &&
                     e.ts_ns + e.dur_ns <= op.ts_ns + op.dur_ns;
            });
        EXPECT_TRUE(inside) << e.name << " at " << e.ts_ns << " ns, worker "
                            << e.tid << ", lies outside every op span";
      }
    }
  }
}

// ---- metrics registry -----------------------------------------------------------

struct ToyStats {
  uint64_t alpha = 0;
  uint64_t beta = 0;
};
constexpr metrics::Field<ToyStats> kToyFields[] = {
    {"alpha", &ToyStats::alpha},
    {"beta", &ToyStats::beta},
};

TEST(Metrics, RegistryAddSubAllZero) {
  ToyStats a;
  EXPECT_TRUE(metrics::all_zero(a, kToyFields));
  a.alpha = 5;
  a.beta = 7;
  ToyStats b;
  b.alpha = 1;
  metrics::add(b, a, kToyFields);
  EXPECT_EQ(b.alpha, 6u);
  EXPECT_EQ(b.beta, 7u);
  metrics::sub(b, a, kToyFields);
  EXPECT_EQ(b.alpha, 1u);
  EXPECT_EQ(b.beta, 0u);
  EXPECT_FALSE(metrics::all_zero(b, kToyFields));
}

TEST(Metrics, JsonObjectWriterCommasAndEscapes) {
  std::ostringstream os;
  metrics::JsonObjectWriter w(os);
  w.field("s", std::string("a\"b\\c"));
  w.field("n", static_cast<uint64_t>(42));
  w.raw_field("o", "{\"x\": 1}");
  ToyStats t;
  t.alpha = 3;
  metrics::write_fields(w, t, kToyFields, "toy_");
  w.close();
  EXPECT_EQ(os.str(),
            "{\"s\": \"a\\\"b\\\\c\", \"n\": 42, \"o\": {\"x\": 1}, "
            "\"toy_alpha\": 3, \"toy_beta\": 0}");
}

TEST(Metrics, StatsStructsUseRegistry) {
  rdma::ScanStats s;
  s.scans = 2;
  s.leaf_drops = 1;
  rdma::ScanStats t;
  t += s;
  t += s;
  EXPECT_EQ(t.scans, 4u);
  EXPECT_EQ(t.leaf_drops, 2u);
  rdma::RecoveryStats r;
  r.lock_reclaims = 3;
  rdma::RecoveryStats r2;
  r2 += r;
  EXPECT_EQ(r2.lock_reclaims, 3u);
  core::SphinxStats sx;
  sx.pec_hits = 9;
  core::SphinxStats sx2;
  sx2 += sx;
  sx2 += sx;
  EXPECT_EQ(sx2.pec_hits, 18u);
}

}  // namespace
}  // namespace sphinx
