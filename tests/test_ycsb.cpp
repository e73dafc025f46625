// Tests for the YCSB harness: datasets, workload specs, the runner's
// accounting, and end-to-end integration of all systems under every
// standard workload.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <thread>

#include "core/sphinx_index.h"
#include "test_util.h"
#include "ycsb/dataset.h"
#include "ycsb/runner.h"
#include "ycsb/systems.h"
#include "ycsb/workload.h"

namespace sphinx::ycsb {
namespace {

// ---- datasets ------------------------------------------------------------------

TEST(Dataset, U64KeysDistinctAndFixedLength) {
  const auto keys = generate_u64_keys(50000, 1);
  std::set<std::string> unique(keys.begin(), keys.end());
  EXPECT_EQ(unique.size(), keys.size());
  for (const auto& k : keys) {
    ASSERT_EQ(k.size(), 8u);
  }
}

TEST(Dataset, U64KeysDeterministicPerSeed) {
  EXPECT_EQ(generate_u64_keys(100, 5), generate_u64_keys(100, 5));
  EXPECT_NE(generate_u64_keys(100, 5), generate_u64_keys(100, 6));
}

TEST(Dataset, EmailKeysMatchPaperStatistics) {
  const auto keys = generate_email_keys(50000, 1);
  std::set<std::string> unique(keys.begin(), keys.end());
  EXPECT_EQ(unique.size(), keys.size());
  size_t min_len = 1000, max_len = 0;
  for (const auto& k : keys) {
    min_len = std::min(min_len, k.size());
    max_len = std::max(max_len, k.size());
    ASSERT_EQ(k.find('\0'), std::string::npos);
  }
  EXPECT_GE(min_len, 2u);
  EXPECT_LE(max_len, 32u);
  // Paper: average 18.93 bytes. Accept a generous band.
  const double mean = mean_key_length(keys);
  EXPECT_GT(mean, 15.0);
  EXPECT_LT(mean, 23.0);
}

TEST(Dataset, EmailKeysShareDomainSuffixes) {
  const auto keys = generate_email_keys(1000, 2);
  size_t with_at = 0;
  for (const auto& k : keys) {
    if (k.find('@') != std::string::npos) with_at++;
  }
  EXPECT_GT(with_at, 950u);
}

// ---- workload specs -------------------------------------------------------------

TEST(Workload, StandardMixes) {
  const WorkloadSpec a = standard_workload('A');
  EXPECT_DOUBLE_EQ(a.read, 0.5);
  EXPECT_DOUBLE_EQ(a.update, 0.5);
  const WorkloadSpec b = standard_workload('B');
  EXPECT_DOUBLE_EQ(b.read, 0.95);
  EXPECT_DOUBLE_EQ(b.update, 0.05);
  EXPECT_DOUBLE_EQ(b.insert, 0.0);
  const WorkloadSpec d = standard_workload('D');
  EXPECT_EQ(d.dist, RequestDist::kLatest);
  EXPECT_DOUBLE_EQ(d.insert, 0.05);
  const WorkloadSpec e = standard_workload('E');
  EXPECT_DOUBLE_EQ(e.scan, 0.95);
  const WorkloadSpec load = standard_workload('L');
  EXPECT_DOUBLE_EQ(load.insert, 1.0);
  for (char id : {'A', 'B', 'C', 'D', 'E', 'L'}) {
    EXPECT_NEAR(standard_workload(id).total(), 1.0, 1e-9) << id;
  }
}

// ---- systems ---------------------------------------------------------------------

TEST(Systems, NameTableRoundTripsEveryKind) {
  // Every SystemKind has one name-table row, and both its CLI and display
  // names parse back to it; anything else is rejected, so a typo in
  // --systems exits instead of benchmarking the wrong system.
  std::set<SystemKind> rows;
  for (const SystemName& n : kSystemNames) {
    EXPECT_TRUE(rows.insert(n.kind).second) << n.display;
  }
  for (int k = 0; k <= static_cast<int>(SystemKind::kSphinxNoLac); ++k) {
    const auto kind = static_cast<SystemKind>(k);
    EXPECT_EQ(rows.count(kind), 1u) << k;
    for (const SystemName& n : kSystemNames) {
      if (n.kind != kind) continue;
      EXPECT_STREQ(system_kind_name(kind), n.display);
      for (const char* name : {n.cli, n.display}) {
        SystemKind parsed = kind == SystemKind::kArt ? SystemKind::kSphinx
                                                     : SystemKind::kArt;
        EXPECT_TRUE(parse_system_kind(name, &parsed)) << name;
        EXPECT_EQ(parsed, kind) << name;
      }
    }
  }
  EXPECT_EQ(rows.size(), std::size(kSystemNames));
  SystemKind out = SystemKind::kSphinx;
  for (const char* bad :
       {"bogus", "", "Sphinx-nolac", "sphinx,art", "SPHINX"}) {
    EXPECT_FALSE(parse_system_kind(bad, &out)) << bad;
  }
}

// ---- runner ---------------------------------------------------------------------

TEST(Runner, LoadThenReadBack) {
  auto cluster = testing::make_test_cluster();
  SystemSetup setup(SystemKind::kSphinx, *cluster);
  YcsbRunner runner(*cluster, setup.factory(), generate_u64_keys(5000, 9));
  runner.load(4000, 64);
  EXPECT_EQ(runner.visible_keys(), 4000u);

  RunOptions options;
  options.workers = 6;
  options.ops_per_worker = 500;
  const RunResult result = runner.run(standard_workload('C'), options);
  EXPECT_EQ(result.total_ops, 3000u);
  EXPECT_EQ(result.misses, 0u);  // all reads hit loaded keys
  EXPECT_GT(result.ops_per_sec, 0.0);
  EXPECT_GT(result.sim_seconds, 0.0);
  EXPECT_GT(result.net.round_trips, 0u);
  EXPECT_GT(result.latency.count(), 0u);
  EXPECT_GT(result.rtts_per_op, 1.0);
}

// YCSB-B oracle: 95/5 read/update over the loaded set only. No inserts
// means the visible set must not grow and no read may miss; the 5% update
// slice must make B strictly costlier in round trips than read-only C on
// an identical setup, but far closer to C than to update-heavy A.
TEST(Runner, WorkloadBIsReadMostlyWithUpdates) {
  auto run_workload = [](char w) {
    auto cluster = testing::make_test_cluster();
    SystemSetup setup(SystemKind::kSphinx, *cluster);
    YcsbRunner runner(*cluster, setup.factory(), generate_u64_keys(5000, 9));
    runner.load(4000, 64);
    RunOptions options;
    options.workers = 6;
    options.ops_per_worker = 500;
    options.seed = 17;
    return runner.run(standard_workload(w), options);
  };
  const RunResult b = run_workload('B');
  EXPECT_EQ(b.total_ops, 3000u);
  EXPECT_EQ(b.misses, 0u);           // reads and updates hit loaded keys only
  EXPECT_EQ(b.insert_overflow, 0u);  // no insert slice at all
  // Every round trip carries exactly one phase tag, updates included.
  EXPECT_EQ(b.net.rtts_sum_by_phase(), b.net.round_trips);

  const RunResult c = run_workload('C');
  const RunResult a = run_workload('A');
  EXPECT_GT(b.net.round_trips, c.net.round_trips);
  EXPECT_LT(b.rtts_per_op - c.rtts_per_op, a.rtts_per_op - b.rtts_per_op);
}

TEST(Runner, InsertWorkloadGrowsVisibleSet) {
  auto cluster = testing::make_test_cluster();
  SystemSetup setup(SystemKind::kArt, *cluster);
  YcsbRunner runner(*cluster, setup.factory(), generate_u64_keys(20000, 9));
  runner.load(5000, 64);
  RunOptions options;
  options.workers = 3;
  options.ops_per_worker = 1000;
  const RunResult result = runner.run(standard_workload('L'), options);
  EXPECT_EQ(runner.visible_keys(), 8000u);
  EXPECT_EQ(result.insert_overflow, 0u);
}

TEST(Runner, WorkloadDMixesInsertsAndLatestReads) {
  auto cluster = testing::make_test_cluster();
  SystemSetup setup(SystemKind::kSphinx, *cluster);
  YcsbRunner runner(*cluster, setup.factory(), generate_u64_keys(20000, 9));
  runner.load(10000, 64);
  RunOptions options;
  options.workers = 6;
  options.ops_per_worker = 500;
  const RunResult result = runner.run(standard_workload('D'), options);
  EXPECT_GT(runner.visible_keys(), 10000u);
  // Reads may race in-flight inserts, but misses must be rare.
  EXPECT_LT(static_cast<double>(result.misses),
            0.02 * static_cast<double>(result.total_ops));
}

TEST(Runner, ScanWorkloadRuns) {
  auto cluster = testing::make_test_cluster();
  SystemSetup setup(SystemKind::kSmart, *cluster);
  YcsbRunner runner(*cluster, setup.factory(), generate_email_keys(8000, 9));
  runner.load(6000, 64);
  RunOptions options;
  options.workers = 3;
  options.ops_per_worker = 100;
  const RunResult result = runner.run(standard_workload('E'), options);
  EXPECT_EQ(result.total_ops, 300u);
  // Scans read many leaves: bytes per op should dwarf a point lookup's.
  EXPECT_GT(result.read_bytes_per_op, 1000.0);
}

TEST(Runner, DeterministicAcrossRuns) {
  auto make_result = [] {
    auto cluster = testing::make_test_cluster();
    SystemSetup setup(SystemKind::kArt, *cluster);
    YcsbRunner runner(*cluster, setup.factory(), generate_u64_keys(3000, 4));
    runner.load(3000, 64, /*workers=*/1);
    RunOptions options;
    options.workers = 1;
    options.ops_per_worker = 500;
    options.seed = 11;
    return runner.run(standard_workload('C'), options);
  };
  const RunResult a = make_result();
  const RunResult b = make_result();
  EXPECT_EQ(a.net.round_trips, b.net.round_trips);
  EXPECT_EQ(a.net.bytes_read, b.net.bytes_read);
  EXPECT_DOUBLE_EQ(a.ops_per_sec, b.ops_per_sec);
}

// ---- pipelined client -----------------------------------------------------------

TEST(Runner, PipelineDepth1IsBitIdenticalToSerialDefault) {
  // A default-options run (what every pre-existing caller does), an
  // explicit --pipeline-depth=1 run and a depth-0 run (which must not plan
  // zero ops forever) all submit batches of one through the runner's
  // single op loop, so fixed-seed runs agree on every round trip, byte,
  // message and derived figure. Depth-1 traffic itself is pinned against
  // recorded values by Runner.Depth1TrafficMatchesRecordedFingerprint.
  auto make_result = [](std::optional<uint32_t> depth) {
    auto cluster = testing::make_test_cluster();
    SystemSetup setup(SystemKind::kSphinx, *cluster);
    YcsbRunner runner(*cluster, setup.factory(), generate_u64_keys(5000, 9));
    runner.load(4000, 64, /*workers=*/1);
    RunOptions options;
    options.workers = 1;
    options.ops_per_worker = 400;
    options.seed = 11;
    if (depth) options.pipeline_depth = *depth;
    return runner.run(standard_workload('A'), options);
  };
  const RunResult def = make_result(std::nullopt);  // depth untouched
  for (const uint32_t depth : {1u, 0u}) {
    const RunResult d = make_result(depth);
    EXPECT_EQ(d.latency.count(), 400u) << "depth " << depth;
    EXPECT_EQ(def.net.round_trips, d.net.round_trips) << "depth " << depth;
    EXPECT_EQ(def.net.bytes_read, d.net.bytes_read) << "depth " << depth;
    EXPECT_EQ(def.net.bytes_written, d.net.bytes_written) << "depth " << depth;
    EXPECT_EQ(def.net.messages, d.net.messages) << "depth " << depth;
    EXPECT_EQ(def.misses, d.misses) << "depth " << depth;
    EXPECT_DOUBLE_EQ(def.ops_per_sec, d.ops_per_sec) << "depth " << depth;
    EXPECT_DOUBLE_EQ(def.mean_latency_ns, d.mean_latency_ns)
        << "depth " << depth;
  }
}

// Depth-1 traffic fingerprint: one worker, one loader and a fixed seed
// make every run below deterministic, so its traffic and counters are
// pinned exactly. The golden lines were recorded before the staged search
// engine existed (the E lines before depth 1 became a batch of one); the
// Sphinx D, E and CHURN lines were re-recorded when inserts began locking
// their start node in the start walk's read, and every Sphinx line when
// the PEC moved to one-word hint-cache slots (twice the entries in the
// same bytes), each at fewer round trips. Depth-1 traffic must not
// otherwise move.
struct FingerprintCase {
  const char* name;
  SystemKind kind;
  DatasetKind dataset;
  char workload;  // 'X' = churn
  const char* golden;  // nonzero fields, "name=value" separated by spaces
};

std::map<std::string, std::string> depth1_fingerprint(
    const FingerprintCase& c) {
  auto cluster = testing::make_test_cluster();
  SystemSetup setup(c.kind, *cluster, 16ull << 10);
  YcsbRunner runner(*cluster, setup.factory(),
                    generate_keys(c.dataset, 6000, 3));
  runner.load(4000, 64, /*workers=*/1);
  core::SphinxStats sphinx;
  art::TreeStats tree;
  runner.set_per_worker_hook([&](KvIndex& index, uint32_t) {
    if (auto* s = dynamic_cast<core::SphinxIndex*>(&index)) {
      sphinx += s->sphinx_stats();
    }
    const art::TreeStats& t =
        dynamic_cast<art::RemoteTree&>(index).tree_stats();
    tree.op_retries += t.op_retries;
    tree.lock_fail_retries += t.lock_fail_retries;
    tree.type_switches += t.type_switches;
    tree.splits += t.splits;
    tree.torn_leaf_rereads += t.torn_leaf_rereads;
    tree.invalid_node_retries += t.invalid_node_retries;
    tree.start_fallbacks += t.start_fallbacks;
    tree.ops_failed += t.ops_failed;
    tree.alloc_degraded_ops += t.alloc_degraded_ops;
    tree.root_replica_reads += t.root_replica_reads;
    tree.root_primary_reads += t.root_primary_reads;
    tree.root_replica_propagations += t.root_replica_propagations;
    tree.root_replica_rechecks += t.root_replica_rechecks;
    tree.recovery += t.recovery;
    tree.backoff += t.backoff;
    tree.scan += t.scan;
  });
  RunOptions options;
  options.workers = 1;
  options.ops_per_worker = 600;
  options.seed = 5;
  const RunResult r = runner.run(
      c.workload == 'X' ? churn_workload() : standard_workload(c.workload),
      options);

  std::map<std::string, std::string> f;
  auto put = [&f](const std::string& name, uint64_t v) {
    if (v != 0) f[name] = std::to_string(v);
  };
  for (const auto& field : rdma::kEndpointStatsFields) {
    put(field.name, r.net.*(field.ptr));
  }
  for (uint32_t p = 0; p < rdma::kNumPhases; ++p) {
    const char* phase = rdma::phase_name(static_cast<rdma::Phase>(p));
    put(std::string("rtts.") + phase, r.net.rtts_by_phase[p]);
    put(std::string("bytes.") + phase, r.net.bytes_by_phase[p]);
  }
  char sim[32];
  std::snprintf(sim, sizeof(sim), "%.17g", r.sim_seconds);
  f["sim_seconds"] = sim;
  put("misses", r.misses);
  for (const auto& field : core::kSphinxStatsFields) {
    put(std::string("sphinx.") + field.name, sphinx.*(field.ptr));
  }
  put("tree.op_retries", tree.op_retries);
  put("tree.lock_fail_retries", tree.lock_fail_retries);
  put("tree.type_switches", tree.type_switches);
  put("tree.splits", tree.splits);
  put("tree.torn_leaf_rereads", tree.torn_leaf_rereads);
  put("tree.invalid_node_retries", tree.invalid_node_retries);
  put("tree.start_fallbacks", tree.start_fallbacks);
  put("tree.ops_failed", tree.ops_failed);
  put("tree.alloc_degraded_ops", tree.alloc_degraded_ops);
  put("tree.root_replica_reads", tree.root_replica_reads);
  put("tree.root_primary_reads", tree.root_primary_reads);
  put("tree.root_replica_propagations", tree.root_replica_propagations);
  put("tree.root_replica_rechecks", tree.root_replica_rechecks);
  put("tree.backoff_waits", tree.backoff.waits);
  put("tree.backoff_wait_ns", tree.backoff.wait_ns);
  for (const auto& field : rdma::kRecoveryStatsFields) {
    put(std::string("tree.recovery.") + field.name, tree.recovery.*(field.ptr));
  }
  for (const auto& field : rdma::kScanStatsFields) {
    put(std::string("tree.scan.") + field.name, tree.scan.*(field.ptr));
  }
  return f;
}

std::string join_fingerprint(const std::map<std::string, std::string>& f) {
  std::string out;
  for (const auto& [name, value] : f) {
    if (!out.empty()) out += ' ';
    out += name + "=" + value;
  }
  return out;
}

TEST(Runner, Depth1TrafficMatchesRecordedFingerprint) {
  using DK = DatasetKind;
  const FingerprintCase cases[] = {
#include "depth1_fingerprint.inc"
  };
  for (const FingerprintCase& c : cases) {
    std::map<std::string, std::string> golden;
    std::istringstream in(c.golden);
    for (std::string tok; in >> tok;) {
      const size_t eq = tok.find('=');
      golden[tok.substr(0, eq)] = tok.substr(eq + 1);
    }
    const std::map<std::string, std::string> now = depth1_fingerprint(c);
    std::string diff;
    for (const auto& [name, value] : golden) {
      const auto it = now.find(name);
      const std::string got = it == now.end() ? "0" : it->second;
      if (got != value) diff += " " + name + ": " + value + " -> " + got;
    }
    for (const auto& [name, value] : now) {
      if (golden.count(name) == 0) diff += " " + name + ": 0 -> " + value;
    }
    EXPECT_TRUE(diff.empty()) << c.name << " moved:" << diff
                              << "\n  now: " << join_fingerprint(now);
  }
}

TEST(Runner, PipelinedSphinxFusesRoundTrips) {
  auto make_result = [](uint32_t depth) {
    auto cluster = testing::make_test_cluster();
    SystemSetup setup(SystemKind::kSphinx, *cluster);
    YcsbRunner runner(*cluster, setup.factory(), generate_u64_keys(5000, 9));
    runner.load(4000, 64);
    // Warm the CN caches with a short serial pass (the paper's and the
    // bench harness's methodology) so the measured runs compare fusion at
    // steady state rather than LAC fill-rate.
    RunOptions warm;
    warm.workers = 6;
    warm.ops_per_worker = 200;
    runner.run(standard_workload('C'), warm);
    RunOptions options;
    options.workers = 6;
    options.ops_per_worker = 400;
    options.pipeline_depth = depth;
    return runner.run(standard_workload('C'), options);
  };
  const RunResult d1 = make_result(1);
  const RunResult d8 = make_result(8);
  // Same ops, same outcomes -- but warm LAC hits from different ops merge
  // into shared doorbell rounds, collapsing round trips and lifting
  // throughput well past the fluid NIC model's reach at this scale.
  EXPECT_EQ(d8.total_ops, d1.total_ops);
  EXPECT_EQ(d8.misses, 0u);
  EXPECT_LT(2 * d8.net.round_trips, d1.net.round_trips);
  EXPECT_GT(d8.ops_per_sec, d1.ops_per_sec);
  // Attribution stays exact under fusion.
  EXPECT_EQ(d8.net.rtts_sum_by_phase(), d8.net.round_trips);
}

TEST(Runner, BaselinesKeepSerialBehaviorUnderPipelining) {
  // SMART and ART keep the inherited naive serial execute_batch loop
  // (ycsb/systems.cpp): depth 8 must not change their protocol traffic at
  // all, keeping the 4-system comparison honest.
  for (SystemKind kind : {SystemKind::kSmart, SystemKind::kArt}) {
    auto make_result = [&](uint32_t depth) {
      auto cluster = testing::make_test_cluster();
      SystemSetup setup(kind, *cluster);
      YcsbRunner runner(*cluster, setup.factory(), generate_u64_keys(3000, 4));
      runner.load(3000, 64, /*workers=*/1);
      RunOptions options;
      options.workers = 1;
      options.ops_per_worker = 300;
      options.seed = 11;
      options.pipeline_depth = depth;
      return runner.run(standard_workload('C'), options);
    };
    const RunResult d1 = make_result(1);
    const RunResult d8 = make_result(8);
    EXPECT_EQ(d1.net.round_trips, d8.net.round_trips)
        << system_kind_name(kind);
    EXPECT_EQ(d1.net.bytes_read, d8.net.bytes_read)
        << system_kind_name(kind);
    EXPECT_EQ(d8.misses, 0u) << system_kind_name(kind);
  }
}

TEST(Runner, PipelinedWorkloadDResolvesInsertOutcomes) {
  // Latest-distribution inserts ride inside batches: every insert's
  // outcome must still advance the visible set and the frontier exactly
  // once, and reads of freshly inserted keys stay near-miss-free.
  auto cluster = testing::make_test_cluster();
  SystemSetup setup(SystemKind::kSphinx, *cluster);
  YcsbRunner runner(*cluster, setup.factory(), generate_u64_keys(20000, 9));
  runner.load(10000, 64);
  RunOptions options;
  options.workers = 6;
  options.ops_per_worker = 500;
  options.pipeline_depth = 8;
  const RunResult result = runner.run(standard_workload('D'), options);
  EXPECT_GT(runner.visible_keys(), 10000u);
  EXPECT_EQ(result.insert_failures, 0u);
  EXPECT_EQ(result.insert_overflow, 0u);
  EXPECT_LT(static_cast<double>(result.misses),
            0.02 * static_cast<double>(result.total_ops));
}

// Forwards to `inner`, but holds every insert of one worker back in real
// time before it starts, so other workers finish later claims first.
class SlowInsertIndex final : public KvIndex {
 public:
  SlowInsertIndex(std::unique_ptr<KvIndex> inner, bool slow)
      : inner_(std::move(inner)), slow_(slow) {}
  bool search(Slice key, std::string* value_out) override {
    return inner_->search(key, value_out);
  }
  bool insert(Slice key, Slice value) override {
    hold();
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
  void execute_batch(BatchOp* ops, size_t count) override {
    for (size_t i = 0; i < count; ++i) {
      if (ops[i].kind == BatchOp::Kind::kInsert) hold();
    }
    inner_->execute_batch(ops, count);
  }
  uint64_t client_clock_ns() const override {
    return inner_->client_clock_ns();
  }
  const char* name() const override { return inner_->name(); }

 private:
  void hold() const {
    if (slow_) std::this_thread::sleep_for(std::chrono::microseconds(300));
  }
  std::unique_ptr<KvIndex> inner_;
  bool slow_;
};

TEST(Runner, WorkloadDReadsOnlyAcknowledgedInserts) {
  // YCSB-D's latest reads draw below an acknowledged watermark, so a
  // fault-free run never reads a key whose insert is still in flight,
  // even when one worker's inserts finish long after later claims of the
  // others: at depth 1, and at depth 8, where a batch's inserts land only
  // after the batch.
  for (uint32_t depth : {1u, 8u}) {
    auto cluster = testing::make_test_cluster();
    SystemSetup setup(SystemKind::kSphinx, *cluster);
    IndexFactory base = setup.factory();
    YcsbRunner runner(
        *cluster,
        [&](uint32_t worker, uint32_t cn, rdma::Endpoint& endpoint,
            mem::RemoteAllocator& allocator) -> std::unique_ptr<KvIndex> {
          return std::make_unique<SlowInsertIndex>(
              base(worker, cn, endpoint, allocator), worker == 0);
        },
        generate_u64_keys(20000, 9));
    runner.load(10000, 64, /*workers=*/4);
    RunOptions options;
    options.workers = 4;
    options.ops_per_worker = 800;
    options.pipeline_depth = depth;
    const RunResult result = runner.run(standard_workload('D'), options);
    EXPECT_EQ(result.insert_failures, 0u) << "depth " << depth;
    EXPECT_EQ(result.misses, 0u) << "depth " << depth;
  }
}

// ---- end-to-end matrix: every system x every workload ----------------------------

struct MatrixCase {
  SystemKind kind;
  char workload;
};

class SystemWorkloadMatrix : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(SystemWorkloadMatrix, RunsCleanly) {
  const MatrixCase param = GetParam();
  auto cluster = testing::make_test_cluster();
  SystemSetup setup(param.kind, *cluster);
  YcsbRunner runner(*cluster, setup.factory(), generate_email_keys(6000, 21));
  runner.load(3000, 64);
  RunOptions options;
  options.workers = 6;
  options.ops_per_worker = param.workload == 'E' ? 50 : 300;
  const RunResult result = runner.run(standard_workload(param.workload),
                                      options);
  EXPECT_EQ(result.total_ops, options.workers * options.ops_per_worker);
  EXPECT_GT(result.ops_per_sec, 0.0);
  // Misses come only from reads racing in-flight "latest" inserts
  // (workload D), so the count scales with host-scheduler pressure; 5%
  // keeps the guardrail while staying off the flake edge under a loaded
  // parallel ctest run.
  EXPECT_LT(static_cast<double>(result.misses),
            0.05 * static_cast<double>(result.total_ops) + 1);
}

std::string matrix_name(const ::testing::TestParamInfo<MatrixCase>& info) {
  std::string n = system_kind_name(info.param.kind);
  n.erase(std::remove_if(n.begin(), n.end(),
                         [](char c) { return !isalnum(c); }),
          n.end());
  return n + "_" + std::string(1, info.param.workload);
}

std::vector<MatrixCase> matrix_cases() {
  std::vector<MatrixCase> cases;
  for (SystemKind kind :
       {SystemKind::kSphinx, SystemKind::kSphinxNoFilter, SystemKind::kSmart,
        SystemKind::kSmartC, SystemKind::kArt}) {
    for (char w : {'A', 'B', 'C', 'D', 'E', 'L'}) {
      cases.push_back({kind, w});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllSystems, SystemWorkloadMatrix,
                         ::testing::ValuesIn(matrix_cases()), matrix_name);

}  // namespace
}  // namespace sphinx::ycsb
