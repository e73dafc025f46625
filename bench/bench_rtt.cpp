// Experiment E6: network round trips and bytes per index operation, per
// system and dataset -- the quantities behind the paper's core analysis:
//
//   * Sec. III-B / IV: a warm Sphinx search costs ~3 round trips (hash
//     entry, inner node, leaf);
//   * tree traversal costs one round trip per level for ART;
//   * SMART trades round trips for large cached/fetched Node-256 images.
//
// Usage: bench_rtt [--keys=500000] [--ops=400] [--workers=24]
#include <iostream>

#include "bench_common.h"

namespace sphinx::bench {
namespace {

int run(int argc, char** argv) {
  Flags flags(argc, argv);
  const uint64_t num_keys = flags.get_u64("keys", 500000);
  const uint64_t ops_per_worker = flags.get_u64("ops", 400);
  const uint32_t workers = static_cast<uint32_t>(flags.get_u64("workers", 24));
  flags.reject_unknown();

  std::cout << "# E6 -- round trips and bytes per operation (warm caches)\n"
            << "# paper claims: Sphinx ~3 RTTs/op; ART ~1 RTT per tree level"
            << "\n\n";

  for (const ycsb::DatasetKind dataset :
       {ycsb::DatasetKind::kU64, ycsb::DatasetKind::kEmail}) {
    const uint64_t pool = num_keys + workers * ops_per_worker + 1024;
    const auto keys = ycsb::generate_keys(dataset, pool, 1);
    TablePrinter table({"system", "workload", "rtts/op", "read-B/op",
                        "wire-msgs/op", "mean-latency"});

    for (const ycsb::SystemKind kind : paper_systems()) {
      auto cluster = make_cluster(pool);
      ycsb::SystemSetup setup(kind, *cluster,
                              cache_budget_for(kind, num_keys));
      ycsb::YcsbRunner runner(*cluster, setup.factory(), keys);
      runner.load(num_keys, 64);
      {
        ycsb::RunOptions warm;
        warm.workers = workers;
        warm.ops_per_worker = 400;
        runner.run(ycsb::standard_workload('C'), warm);
      }
      for (char w : {'C', 'A', 'L'}) {
        ycsb::RunOptions options;
        options.workers = workers;
        options.ops_per_worker = ops_per_worker;
        const ycsb::RunResult r =
            runner.run(ycsb::standard_workload(w), options);
        table.add_row(
            {setup.name(), ycsb::standard_workload(w).name,
             TablePrinter::fmt_double(r.rtts_per_op),
             TablePrinter::fmt_double(r.read_bytes_per_op, 0),
             TablePrinter::fmt_double(
                 static_cast<double>(r.net.messages) /
                 static_cast<double>(r.total_ops)),
             TablePrinter::fmt_us(r.mean_latency_ns)});
      }
    }
    std::cout << "## dataset: " << ycsb::dataset_name(dataset) << "\n";
    table.print();
    std::cout << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace sphinx::bench

int main(int argc, char** argv) { return sphinx::bench::run(argc, argv); }
