// Ablations of Sphinx's design choices (DESIGN.md A1-A4):
//
//   A1  Succinct Filter Cache on/off. Off = the paper's base INHT
//       mechanism: read the hash entries of all Theta(L) prefixes in one
//       doorbell-batched round trip. Same round trips, far more messages
//       and bandwidth -- the SFC's whole point (Sec. III-B).
//   A2  Doorbell batching on/off, for Sphinx's multi-entry reads and scans
//       (Sec. III-A, Fig. 4E discussion).
//   A3  Filter budget sweep: hotness-bit second-chance eviction under
//       pressure (Sec. III-B's "dataset larger than the filter" case).
//   A4  Two-tier CN cache split: SFC only (existence) vs PEC only
//       (location) vs both, at a fixed total byte budget. Shows the PEC's
//       3 RTT -> 2 RTT saving and why the tiers compose (DESIGN.md,
//       "Two-tier CN cache").
//
// Usage: bench_ablation [--keys=500000] [--ops=400] [--workers=96]
#include <iostream>

#include "bench_common.h"
#include "core/sphinx_index.h"

namespace sphinx::bench {
namespace {

ycsb::RunResult run_one(ycsb::SystemKind kind, uint64_t keys_n,
                        const std::vector<std::string>& keys, char workload,
                        uint32_t workers, uint64_t ops, bool batching,
                        uint64_t cache_budget,
                        uint64_t pec_budget = ycsb::kAutoPecBudget) {
  auto cluster = make_cluster(keys_n, batching);
  ycsb::SystemSetup setup(kind, *cluster, cache_budget, pec_budget);
  ycsb::YcsbRunner runner(*cluster, setup.factory(), keys);
  runner.load(keys_n, 64);
  ycsb::RunOptions warm;
  warm.workers = workers;
  warm.ops_per_worker = 300;
  runner.run(ycsb::standard_workload('C'), warm);
  ycsb::RunOptions options;
  options.workers = workers;
  options.ops_per_worker = ops;
  return runner.run(ycsb::standard_workload(workload), options);
}

int run(int argc, char** argv) {
  Flags flags(argc, argv);
  const uint64_t num_keys = flags.get_u64("keys", 500000);
  const uint64_t ops = flags.get_u64("ops", 400);
  const uint32_t workers = static_cast<uint32_t>(flags.get_u64("workers", 96));
  flags.reject_unknown();
  const uint64_t budget = cache_budget_for(ycsb::SystemKind::kSphinx,
                                           num_keys);
  const auto keys = ycsb::generate_keys(ycsb::DatasetKind::kEmail,
                                        num_keys + 1024, 1);

  std::cout << "# Ablations (email dataset, " << num_keys << " keys, "
            << workers << " workers)\n\n";

  {
    std::cout << "## A1 -- succinct filter cache on/off (YCSB-C)\n";
    TablePrinter table({"variant", "throughput", "rtts/op", "msgs/op",
                        "read-B/op"});
    for (const auto& [name, kind] :
         {std::pair<const char*, ycsb::SystemKind>{
              "Sphinx (SFC on)", ycsb::SystemKind::kSphinx},
          {"Sphinx-NoSFC (parallel INHT reads)",
           ycsb::SystemKind::kSphinxNoFilter}}) {
      const ycsb::RunResult r =
          run_one(kind, num_keys, keys, 'C', workers, ops, true, budget);
      table.add_row(
          {name, TablePrinter::fmt_mops(r.ops_per_sec),
           TablePrinter::fmt_double(r.rtts_per_op),
           TablePrinter::fmt_double(static_cast<double>(r.net.messages) /
                                    static_cast<double>(r.total_ops)),
           TablePrinter::fmt_double(r.read_bytes_per_op, 0)});
    }
    table.print();
    std::cout << "\n";
  }

  {
    std::cout << "## A2 -- doorbell batching on/off (Sphinx, YCSB-C and E)\n";
    TablePrinter table({"workload", "batching", "throughput", "rtts/op",
                        "mean-latency"});
    for (char w : {'C', 'E'}) {
      for (bool batching : {true, false}) {
        const ycsb::RunResult r =
            run_one(ycsb::SystemKind::kSphinx, num_keys, keys, w, workers,
                    w == 'E' ? std::max<uint64_t>(ops / 10, 40) : ops,
                    batching, budget);
        table.add_row({ycsb::standard_workload(w).name,
                       batching ? "on" : "off",
                       TablePrinter::fmt_mops(r.ops_per_sec),
                       TablePrinter::fmt_double(r.rtts_per_op),
                       TablePrinter::fmt_us(r.mean_latency_ns)});
      }
    }
    table.print();
    std::cout << "\n";
  }

  {
    std::cout << "## A3 -- filter budget sweep (Sphinx, YCSB-C; hotness "
                 "eviction under pressure)\n";
    TablePrinter table({"filter budget", "throughput", "rtts/op",
                        "msgs/op"});
    for (double fraction : {1.0, 0.5, 0.25, 0.1, 0.05}) {
      const uint64_t b = std::max<uint64_t>(
          static_cast<uint64_t>(static_cast<double>(budget) * fraction),
          16 << 10);
      const ycsb::RunResult r = run_one(ycsb::SystemKind::kSphinx, num_keys,
                                        keys, 'C', workers, ops, true, b);
      table.add_row(
          {TablePrinter::fmt_bytes(b), TablePrinter::fmt_mops(r.ops_per_sec),
           TablePrinter::fmt_double(r.rtts_per_op),
           TablePrinter::fmt_double(static_cast<double>(r.net.messages) /
                                    static_cast<double>(r.total_ops))});
    }
    table.print();
    std::cout << "\n";
  }

  {
    std::cout << "## A4 -- two-tier CN cache split at a fixed byte budget "
                 "(YCSB-C)\n";
    TablePrinter table({"variant", "throughput", "rtts/op", "msgs/op",
                        "read-B/op"});
    struct Variant {
      const char* name;
      ycsb::SystemKind kind;
      uint64_t pec_budget;
    };
    // All three variants spend the same total CN budget; what differs is
    // the carve-up between the existence tier (SFC) and the location tier
    // (PEC). 95% matches the SFC's share in the seed configuration.
    const Variant variants[] = {
        {"SFC only (existence tier)", ycsb::SystemKind::kSphinx, 0},
        {"PEC only (location tier)", ycsb::SystemKind::kSphinxNoFilter,
         budget * 95 / 100},
        {"SFC + PEC (70% / 25%)", ycsb::SystemKind::kSphinx,
         ycsb::kAutoPecBudget},
    };
    for (const Variant& v : variants) {
      const ycsb::RunResult r = run_one(v.kind, num_keys, keys, 'C', workers,
                                        ops, true, budget, v.pec_budget);
      table.add_row(
          {v.name, TablePrinter::fmt_mops(r.ops_per_sec),
           TablePrinter::fmt_double(r.rtts_per_op),
           TablePrinter::fmt_double(static_cast<double>(r.net.messages) /
                                    static_cast<double>(r.total_ops)),
           TablePrinter::fmt_double(r.read_bytes_per_op, 0)});
    }
    table.print();
    std::cout << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace sphinx::bench

int main(int argc, char** argv) { return sphinx::bench::run(argc, argv); }
