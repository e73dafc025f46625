// Design-space sweeps beyond the paper's figures:
//
//   S1  memory-node count: consistent hashing spreads nodes and INHT
//       entries across MNs; more MNs = more aggregate NIC capacity.
//   S2  zipfian skew: how each system's caches respond as the workload
//       moves from uniform to heavily skewed.
//   S3  value size: leaf size (64 B units) vs throughput, and where the
//       in-place update path stops fitting.
//
// Usage: bench_sweeps [--keys=300000] [--ops=400] [--workers=96]
#include <iostream>

#include "bench_common.h"

namespace sphinx::bench {
namespace {

ycsb::RunResult run_cell(mem::Cluster& cluster, ycsb::SystemSetup& setup,
                         const std::vector<std::string>& keys,
                         uint64_t loaded, const ycsb::WorkloadSpec& spec,
                         uint32_t workers, uint64_t ops) {
  ycsb::YcsbRunner runner(cluster, setup.factory(), keys);
  runner.load(loaded, spec.value_size);
  ycsb::RunOptions warm;
  warm.workers = workers;
  warm.ops_per_worker = 200;
  runner.run(ycsb::standard_workload('C'), warm);
  ycsb::RunOptions options;
  options.workers = workers;
  options.ops_per_worker = ops;
  return runner.run(spec, options);
}

int run(int argc, char** argv) {
  Flags flags(argc, argv);
  const uint64_t num_keys = flags.get_u64("keys", 300000);
  const uint64_t ops = flags.get_u64("ops", 400);
  const uint32_t workers = static_cast<uint32_t>(flags.get_u64("workers", 96));
  flags.reject_unknown();

  {
    std::cout << "## S1 -- memory-node count (Sphinx, YCSB-C, email)\n";
    TablePrinter table({"MNs", "throughput", "rtts/op", "nic-util"});
    const auto keys =
        ycsb::generate_keys(ycsb::DatasetKind::kEmail, num_keys, 1);
    for (uint32_t mns : {1u, 2u, 3u, 4u, 6u}) {
      rdma::NetworkConfig net;
      net.num_mns = mns;
      mem::Cluster cluster(net, mn_bytes_for_keys(num_keys, mns));
      ycsb::SystemSetup setup(
          ycsb::SystemKind::kSphinx, cluster,
          cache_budget_for(ycsb::SystemKind::kSphinx, num_keys));
      const ycsb::RunResult r =
          run_cell(cluster, setup, keys, num_keys,
                   ycsb::standard_workload('C'), workers, ops);
      table.add_row({std::to_string(mns),
                     TablePrinter::fmt_mops(r.ops_per_sec),
                     TablePrinter::fmt_double(r.rtts_per_op),
                     TablePrinter::fmt_double(r.nic_utilization)});
    }
    table.print();
    std::cout << "\n";
  }

  {
    std::cout << "## S2 -- zipfian skew sweep (YCSB-C, email)\n";
    TablePrinter table({"theta", "Sphinx", "SMART", "ART"});
    const auto keys =
        ycsb::generate_keys(ycsb::DatasetKind::kEmail, num_keys, 1);
    for (double theta : {0.0, 0.5, 0.8, 0.99, 1.1}) {
      std::vector<std::string> row = {TablePrinter::fmt_double(theta, 2)};
      for (ycsb::SystemKind kind :
           {ycsb::SystemKind::kSphinx, ycsb::SystemKind::kSmart,
            ycsb::SystemKind::kArt}) {
        auto cluster = make_cluster(num_keys);
        ycsb::SystemSetup setup(kind, *cluster,
                                cache_budget_for(kind, num_keys));
        ycsb::WorkloadSpec spec = ycsb::standard_workload('C');
        if (theta == 0.0) {
          spec.dist = ycsb::RequestDist::kUniform;
        } else {
          spec.zipf_theta = theta;
        }
        const ycsb::RunResult r =
            run_cell(*cluster, setup, keys, num_keys, spec, workers, ops);
        row.push_back(TablePrinter::fmt_mops(r.ops_per_sec));
      }
      table.add_row(std::move(row));
    }
    table.print();
    std::cout << "\n";
  }

  {
    std::cout << "## S3 -- value-size sweep (Sphinx, YCSB-A, u64)\n";
    TablePrinter table({"value", "throughput", "read-B/op", "mean-latency"});
    const auto keys = ycsb::generate_keys(ycsb::DatasetKind::kU64, num_keys,
                                          1);
    for (uint32_t value_size : {16u, 64u, 256u, 1024u, 3072u}) {
      auto cluster = make_cluster(num_keys * (1 + value_size / 256));
      ycsb::SystemSetup setup(
          ycsb::SystemKind::kSphinx, *cluster,
          cache_budget_for(ycsb::SystemKind::kSphinx, num_keys));
      ycsb::WorkloadSpec spec = ycsb::standard_workload('A');
      spec.value_size = value_size;
      const ycsb::RunResult r =
          run_cell(*cluster, setup, keys, num_keys, spec, workers, ops);
      table.add_row({TablePrinter::fmt_bytes(value_size),
                     TablePrinter::fmt_mops(r.ops_per_sec),
                     TablePrinter::fmt_double(r.read_bytes_per_op, 0),
                     TablePrinter::fmt_us(r.mean_latency_ns)});
    }
    table.print();
    std::cout << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace sphinx::bench

int main(int argc, char** argv) { return sphinx::bench::run(argc, argv); }
