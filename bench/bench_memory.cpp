// Reproduces Fig. 6 of the paper: MN-side memory usage across datasets
// after loading the index, for ART, Sphinx (= ART + inner node hash table)
// and SMART (homogeneous preallocated Node-256).
//
// The paper loads 60 M keys; memory *ratios* are size-independent, so the
// default loads 1 M keys per dataset and reports both absolute bytes and
// the two headline ratios:
//   * the INHT's overhead over the plain ART   (paper: +3.3% u64, +4.9% email)
//   * SMART's blowup over the plain ART        (paper: 2.1-3.0x)
//
// Usage: bench_memory [--keys=1000000] [--datasets=u64,email]
#include <iostream>

#include "bench_common.h"

namespace sphinx::bench {
namespace {

struct MemoryRow {
  uint64_t inner = 0;
  uint64_t leaf = 0;
  uint64_t table = 0;
  uint64_t total() const { return inner + leaf + table; }
};

MemoryRow measure(ycsb::SystemKind kind, const std::vector<std::string>& keys,
                  uint64_t count) {
  auto cluster = make_cluster(count);
  ycsb::SystemSetup setup(kind, *cluster,
                          cache_budget_for(kind, count));
  ycsb::YcsbRunner runner(*cluster, setup.factory(), keys);
  runner.load(count, 64);
  MemoryRow row;
  const mem::AllocStats& stats = cluster->alloc_stats();
  row.inner = stats.requested_bytes(mem::AllocTag::kInnerNode);
  row.leaf = stats.requested_bytes(mem::AllocTag::kLeaf);
  row.table = stats.requested_bytes(mem::AllocTag::kHashTable);
  return row;
}

int run(int argc, char** argv) {
  Flags flags(argc, argv);
  const uint64_t num_keys = flags.get_u64("keys", 1000000);
  std::vector<ycsb::DatasetKind> datasets;
  if (!parse_datasets(flags.get_string("datasets", "u64,email"), &datasets)) {
    return 2;
  }
  flags.reject_unknown();

  std::cout << "# Fig. 6 -- MN-side memory usage after loading " << num_keys
            << " key-value pairs (64 B values)\n\n";

  for (const ycsb::DatasetKind dataset : datasets) {
    const auto keys = ycsb::generate_keys(dataset, num_keys, 1);

    const MemoryRow art = measure(ycsb::SystemKind::kArt, keys, num_keys);
    const MemoryRow sphinx = measure(ycsb::SystemKind::kSphinx, keys,
                                     num_keys);
    const MemoryRow smart = measure(ycsb::SystemKind::kSmart, keys, num_keys);

    TablePrinter table({"system", "inner-nodes", "leaves", "hash-table",
                        "total", "vs-ART"});
    const double art_total = static_cast<double>(art.total());
    auto add = [&](const char* name, const MemoryRow& row) {
      table.add_row({name, TablePrinter::fmt_bytes(row.inner),
                     TablePrinter::fmt_bytes(row.leaf),
                     TablePrinter::fmt_bytes(row.table),
                     TablePrinter::fmt_bytes(row.total()),
                     TablePrinter::fmt_ratio(
                         static_cast<double>(row.total()) / art_total)});
    };
    add("ART", art);
    add("Sphinx", sphinx);
    add("SMART", smart);

    std::cout << "## dataset: " << ycsb::dataset_name(dataset) << "\n";
    table.print();
    std::cout << "inner-node-hash-table overhead vs ART: "
              << TablePrinter::fmt_percent(
                     static_cast<double>(sphinx.total()) / art_total - 1.0)
              << "  (paper: +3.3% u64 / +4.9% email)\n";
    std::cout << "SMART blowup vs ART: "
              << TablePrinter::fmt_ratio(
                     static_cast<double>(smart.total()) / art_total)
              << "  (paper: 2.1-3.0x)\n\n";
  }
  return 0;
}

}  // namespace
}  // namespace sphinx::bench

int main(int argc, char** argv) { return sphinx::bench::run(argc, argv); }
