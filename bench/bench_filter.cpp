// Experiment E5: succinct filter cache characteristics.
//
// Part 1 (google-benchmark): raw cuckoo-filter operation costs -- the
// CN-local work Sphinx adds per index operation.
// Part 2: false-positive-rate sweep vs occupancy (paper Sec. III-B: ~12-bit
// fingerprints keep fp < 1%).
// Part 3: end-to-end Sphinx counters -- how often the filter's verdict was
// wrong and had to be recovered (paper: fp-triggered retries < 0.01%... the
// hash-entry fingerprint and node prefix hash absorb nearly all of them).
//
// Usage: bench_filter [--benchmark_filter=...] (google-benchmark flags ok)
#include <benchmark/benchmark.h>

#include <iostream>
#include <memory>

#include "bench_common.h"
#include "core/sphinx_index.h"
#include "filter/cuckoo_filter.h"

namespace sphinx::bench {
namespace {

void BM_FilterContainsHit(benchmark::State& state) {
  filter::CuckooFilter filter(1 << 16);
  for (uint64_t i = 0; i < 200000; ++i) filter.insert(splitmix64(i));
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.contains(splitmix64(i++ % 200000)));
  }
}
BENCHMARK(BM_FilterContainsHit);

void BM_FilterContainsMiss(benchmark::State& state) {
  filter::CuckooFilter filter(1 << 16);
  for (uint64_t i = 0; i < 200000; ++i) filter.insert(splitmix64(i));
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        filter.contains(splitmix64(0xdead000000ull + i++)));
  }
}
BENCHMARK(BM_FilterContainsMiss);

void BM_FilterInsert(benchmark::State& state) {
  filter::CuckooFilter filter(1 << 20);
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.insert(splitmix64(i++)));
  }
}
BENCHMARK(BM_FilterInsert);

void BM_PrefixHashing(benchmark::State& state) {
  // The per-operation hashing Sphinx does: one hash per prefix of an
  // average ~19-byte email key.
  const std::string key = "jennifer.smith42@gmail.com";
  for (auto _ : state) {
    for (size_t l = 1; l < key.size(); ++l) {
      benchmark::DoNotOptimize(
          art::prefix_hash(Slice(key.data(), l)));
    }
  }
}
BENCHMARK(BM_PrefixHashing);

void fp_rate_sweep() {
  std::cout << "\n# E5 -- false-positive rate vs occupancy "
            << "(12-bit fingerprints; paper: <1%)\n";
  TablePrinter table({"occupancy", "fp-rate"});
  filter::CuckooFilter filter(1 << 14);  // 65536 slots
  const uint64_t capacity = filter.capacity();
  uint64_t inserted = 0;
  for (double target : {0.2, 0.4, 0.6, 0.8, 0.95}) {
    const uint64_t want = static_cast<uint64_t>(
        static_cast<double>(capacity) * target);
    while (inserted < want) filter.insert(splitmix64(inserted++));
    uint64_t fp = 0;
    const uint64_t probes = 400000;
    for (uint64_t i = 0; i < probes; ++i) {
      if (filter.contains_cold(splitmix64(0x5eed00000000ull + i))) fp++;
    }
    table.add_row({TablePrinter::fmt_percent(target),
                   TablePrinter::fmt_percent(static_cast<double>(fp) /
                                             static_cast<double>(probes))});
  }
  table.print();
}

void end_to_end_counters(uint64_t num_keys) {
  std::cout << "\n# E5 -- end-to-end Sphinx filter behaviour (" << num_keys
            << " email keys, warm filter)\n";
  auto cluster = make_cluster(num_keys);
  ycsb::SystemSetup setup(ycsb::SystemKind::kSphinx, *cluster,
                          cache_budget_for(ycsb::SystemKind::kSphinx,
                                           num_keys));
  const auto keys = ycsb::generate_keys(ycsb::DatasetKind::kEmail, num_keys,
                                        1);
  ycsb::YcsbRunner runner(*cluster, setup.factory(), keys);
  runner.load(num_keys, 64);

  core::SphinxStats totals;
  runner.set_per_worker_hook([&totals](KvIndex& index, uint32_t) {
    auto& sphinx_index = dynamic_cast<core::SphinxIndex&>(index);
    totals += sphinx_index.sphinx_stats();
  });
  ycsb::RunOptions warm;
  warm.workers = 24;
  warm.ops_per_worker = 500;
  runner.run(ycsb::standard_workload('C'), warm);
  totals = core::SphinxStats();  // keep only the measured pass
  ycsb::RunOptions options;
  options.workers = 24;
  options.ops_per_worker = 2000;
  const ycsb::RunResult r = runner.run(ycsb::standard_workload('C'), options);

  TablePrinter table({"counter", "value", "per-op"});
  auto row = [&](const char* name, uint64_t v) {
    table.add_row({name, std::to_string(v),
                   TablePrinter::fmt_double(
                       static_cast<double>(v) /
                       static_cast<double>(r.total_ops), 4)});
  };
  row("ops", r.total_ops);
  row("filter hits", totals.filter_hits);
  row("fp rejects (recovered)", totals.fp_rejects);
  row("jump-starts adopted", totals.start_successes);
  row("parallel INHT fallbacks", totals.parallel_fallbacks);
  row("root-traversal fallbacks", totals.root_fallbacks);
  table.print();
  std::cout << "fp-reject rate: "
            << TablePrinter::fmt_percent(
                   totals.filter_hits
                       ? static_cast<double>(totals.fp_rejects) /
                             static_cast<double>(totals.filter_hits)
                       : 0.0)
            << " of filter hits (paper: <1% filter fp, <0.01% reaching the "
               "leaf check)\n";
}

}  // namespace
}  // namespace sphinx::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  sphinx::Flags flags(argc, argv);
  const uint64_t keys = flags.get_u64("keys", 300000);
  flags.reject_unknown();
  benchmark::RunSpecifiedBenchmarks();
  sphinx::bench::fp_rate_sweep();
  sphinx::bench::end_to_end_counters(keys);
  return 0;
}
