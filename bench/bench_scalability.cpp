// Saturation-scale knee study (extends Fig. 5 of the paper): ops/s versus
// *effective* latency as workers grow, per system, per dataset, across
// cluster widths. The sweep emits one knee-curve JSON record per
// (system, dataset, workload, num_mns, vnodes, depth, workers) point with
// the per-NIC utilization vectors and the per-MN message-balance ratio, so
// tools/find_knee.py can locate the knee (first worker count whose
// latency_stretch exceeds 1.05) and distinguish capacity exhaustion from
// placement skew (a hot MN shows balance >> 1 with one mn_utilization
// entry far above the rest).
//
// The paper's claim this reproduces: Sphinx scales to higher throughput at
// lower latency because its operations put fewer messages and bytes on the
// fabric, delaying NIC saturation -- so its knee sits at a higher worker
// count than SMART's or ART's on the same cluster.
//
// Usage:
//   bench_scalability [--keys=1000000] [--ops=600]
//                     [--workers=6,12,24,48,96,192] [--datasets=u64,email]
//                     [--systems=sphinx,sphinx-nosfc,smart,smart+c,art]
//                     [--workload=A] [--mns=3] [--cns=3] [--vnodes=128]
//                     [--pipeline-depth=1] [--root-replicas=1]
//                     [--json=out.json] [--mem-budget=<bytes per MN>]
//
// --systems takes ycsb::kSystemNames CLI names (the Sphinx ablations
// included). --mns takes a csv to sweep cluster widths in one invocation
// (the per-MN heap is re-sized per width so the dataset always fits).
// --vnodes sets the consistent-hash ring's virtual nodes per MN -- sweep it
// to measure placement-balance sensitivity. --workload accepts one
// standard letter (A-F, L) or "churn". --root-replicas=0 disables
// replica-routed root reads in ART and Sphinx (the pre-replication
// hot-root behavior) for the before/after knee comparison of DESIGN.md
// Sec. 15.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench_common.h"
#include "common/metrics.h"

namespace sphinx::bench {
namespace {

// One knee-curve point. The schema is validated by
// tools/check_bench_regression.py --knee-schema and consumed by
// tools/find_knee.py.
struct KneePoint {
  std::string system;
  std::string dataset;
  uint32_t num_cns = 0;
  uint32_t num_mns = 0;
  uint32_t vnodes = 0;
  uint32_t depth = 1;
  uint32_t workers = 0;
  ycsb::RunResult result;
};

std::string double_vec_json(const std::vector<double>& v) {
  std::ostringstream os;
  os.precision(10);
  os << "[";
  for (size_t i = 0; i < v.size(); ++i) os << (i > 0 ? ", " : "") << v[i];
  os << "]";
  return os.str();
}

void write_json(const std::string& path, const std::vector<KneePoint>& pts) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot open --json path: " << path << "\n";
    return;
  }
  out.precision(10);
  out << "[\n";
  for (size_t i = 0; i < pts.size(); ++i) {
    const KneePoint& p = pts[i];
    const ycsb::RunResult& r = p.result;
    out << "  ";
    metrics::JsonObjectWriter w(out);
    w.field("system", p.system);
    w.field("dataset", p.dataset);
    w.field("workload", r.workload);
    w.field("num_cns", static_cast<uint64_t>(p.num_cns));
    w.field("num_mns", static_cast<uint64_t>(p.num_mns));
    w.field("vnodes_per_mn", static_cast<uint64_t>(p.vnodes));
    w.field("pipeline_depth", static_cast<uint64_t>(p.depth));
    w.field("workers", static_cast<uint64_t>(p.workers));
    w.field("total_ops", r.total_ops);
    w.field("ops_per_sec", r.ops_per_sec);
    // Effective (queueing-adjusted) latency view: the mean is Little's-law
    // consistent with ops_per_sec; percentiles come from the per-NIC
    // stretched distribution. The unloaded view rides along so the curves
    // can show how far queueing has pushed each point.
    w.field("mean_latency_ns", r.mean_latency_ns);
    w.field("mean_unloaded_latency_ns", r.mean_unloaded_latency_ns);
    w.field("p50_effective_ns", r.effective_percentile_ns(50));
    w.field("p99_effective_ns", r.effective_percentile_ns(99));
    w.field("p50_unloaded_ns",
            static_cast<double>(r.latency.percentile_ns(50)));
    w.field("p99_unloaded_ns",
            static_cast<double>(r.latency.percentile_ns(99)));
    w.field("latency_stretch", r.latency_stretch);
    w.field("nic_utilization", r.nic_utilization);
    w.raw_field("cn_utilization", double_vec_json(r.cn_utilization));
    w.raw_field("mn_utilization", double_vec_json(r.mn_utilization));
    w.field("mn_msg_balance", r.mn_msg_balance);
    w.field("rtts_per_op", r.rtts_per_op);
    w.field("read_bytes_per_op", r.read_bytes_per_op);
    // Loss counters: all must be zero in a fault-free, memory-ample sweep
    // (the CI smoke asserts it). A nonzero here means the knee curve is
    // contaminated by failures, not pure queueing.
    w.field("misses", r.misses);
    w.field("insert_failures", r.insert_failures);
    w.field("insert_overflow", r.insert_overflow);
    w.field("alloc_failures", r.alloc_failures);
    w.field("alloc_underflows", r.alloc_underflows);
    w.field("client_crashes", r.client_crashes);
    w.close();
    out << (i + 1 < pts.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

int run(int argc, char** argv) {
  Flags flags(argc, argv);
  const uint64_t num_keys = flags.get_u64("keys", 1000000);
  const uint64_t ops_per_worker = flags.get_u64("ops", 600);
  const uint64_t mem_budget = flags.get_u64("mem-budget", 0);
  const uint32_t num_cns =
      static_cast<uint32_t>(flags.get_u64("cns", 3));
  const uint32_t vnodes =
      static_cast<uint32_t>(flags.get_u64("vnodes", 128));
  const bool root_replicas = flags.get_u64("root-replicas", 1) != 0;
  const std::string json_path = flags.get_string("json", "");

  std::vector<uint32_t> worker_counts;
  if (!parse_u32_list("workers",
                      flags.get_string("workers", "6,12,24,48,96,192"),
                      &worker_counts)) {
    return 2;
  }
  std::vector<uint32_t> mn_counts;
  if (!parse_u32_list("mns", flags.get_string("mns", "3"), &mn_counts)) {
    return 2;
  }
  std::vector<uint32_t> depths;
  if (!parse_u32_list("pipeline-depth", flags.get_string("pipeline-depth", "1"),
                      &depths)) {
    return 2;
  }
  if (depths.size() != 1) {
    std::cerr << "--pipeline-depth: expected one depth\n";
    return 2;
  }
  const uint32_t depth = depths[0];
  std::vector<ycsb::DatasetKind> datasets;
  if (!parse_datasets(flags.get_string("datasets", "u64,email"), &datasets)) {
    return 2;
  }
  // Systems: default is all five evaluated configurations (the four of the
  // paper's figures plus the SFC-ablated Sphinx).
  std::vector<ycsb::SystemKind> systems;
  if (!parse_systems(
          flags.get_string("systems", "sphinx,sphinx-nosfc,smart,smart+c,art"),
          &systems)) {
    return 2;
  }
  const std::string workload_tok = flags.get_string("workload", "A");
  flags.reject_unknown();
  if (workload_tok != "churn" &&
      (workload_tok.size() != 1 ||
       std::string("ABCDEFLabcdefl").find(workload_tok[0]) ==
           std::string::npos)) {
    std::cerr << "--workload: unknown token '" << workload_tok << "'\n";
    return 2;
  }
  const ycsb::WorkloadSpec spec = workload_tok == "churn"
                                      ? ycsb::churn_workload()
                                      : ycsb::standard_workload(
                                            workload_tok[0]);

  std::cout << "# Knee study -- workload " << spec.name << ", " << num_keys
            << " keys, workers swept over " << num_cns << " CNs";
  if (mn_counts.size() > 1) std::cout << ", MN widths swept";
  std::cout << "\n\n";

  std::vector<KneePoint> points;
  bool losses_seen = false;
  // One runner serves every worker count in turn: the key pool covers the
  // keys all of them can claim, and the warmup runs at the widest.
  uint64_t pool = num_keys + 1024;
  for (const uint32_t workers : worker_counts) {
    pool += insert_claims(spec, workers, ops_per_worker);
  }
  const uint32_t max_workers =
      *std::max_element(worker_counts.begin(), worker_counts.end());

  for (const ycsb::DatasetKind dataset : datasets) {
    const auto keys = ycsb::generate_keys(dataset, pool, 1);
    std::cout << "## dataset: " << ycsb::dataset_name(dataset) << "\n";

    for (const uint32_t num_mns : mn_counts) {
      if (mn_counts.size() > 1) std::cout << "### mns=" << num_mns << "\n";

      for (const ycsb::SystemKind kind : systems) {
        rdma::NetworkConfig config;
        config.num_cns = num_cns;
        config.num_mns = num_mns;
        config.vnodes_per_mn = vnodes;
        auto cluster = make_cluster(pool, mem_budget, config);
        ycsb::SystemSetup setup(kind, *cluster,
                                cache_budget_for(kind, num_keys));
        setup.set_root_replicas(root_replicas);
        ycsb::YcsbRunner runner(*cluster, setup.factory(), keys);
        runner.load(num_keys, 64);

        // Warm CN-side caches once at full concurrency.
        {
          ycsb::RunOptions warm;
          warm.workers = max_workers;
          warm.ops_per_worker = 200;
          runner.run(ycsb::standard_workload('C'), warm);
        }

        TablePrinter table({"workers", "throughput", "eff-mean", "eff-p50",
                            "eff-p99", "stretch", "balance"});
        for (uint32_t workers : worker_counts) {
          ycsb::RunOptions options;
          options.workers = workers;
          options.ops_per_worker = ops_per_worker;
          options.pipeline_depth = depth;
          const ycsb::RunResult r = runner.run(spec, options);
          table.add_row(
              {std::to_string(workers), TablePrinter::fmt_mops(r.ops_per_sec),
               TablePrinter::fmt_us(r.mean_latency_ns),
               TablePrinter::fmt_us(r.effective_percentile_ns(50)),
               TablePrinter::fmt_us(r.effective_percentile_ns(99)),
               TablePrinter::fmt_double(r.latency_stretch),
               TablePrinter::fmt_double(r.mn_msg_balance)});
          if (r.insert_failures > 0 || r.insert_overflow > 0 ||
              r.alloc_failures > 0 || r.alloc_underflows > 0 ||
              r.client_crashes > 0) {
            losses_seen = true;
          }
          points.push_back({std::string(setup.name()),
                            ycsb::dataset_name(dataset), num_cns, num_mns,
                            vnodes, depth, workers, r});
        }
        std::cout << "#### " << setup.name() << "\n";
        table.print();
        std::cout << "\n";
      }
    }
  }
  if (!json_path.empty()) {
    write_json(json_path, points);
    std::cerr << "wrote " << points.size() << " knee points to " << json_path
              << "\n";
  }
  if (losses_seen) {
    std::cerr << "WARNING: loss counters nonzero -- curves include failure "
              << "noise, not pure queueing\n";
  }
  return 0;
}

}  // namespace
}  // namespace sphinx::bench

int main(int argc, char** argv) { return sphinx::bench::run(argc, argv); }
