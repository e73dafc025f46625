// Repository benchmark binary. Runs ONE named workload through the public
// ycsb::YcsbRunner / ycsb::SystemSetup / KvIndex APIs, audits the index
// afterwards, and prints one JSON object as the last line of stdout: the
// metrics it measured, the ops attempted and failed, and every correctness
// error found. benchmark/run.py builds and calls this binary; the workloads
// and every metric are defined in benchmark/README.md.
//
//   sphinx_benchmark --workload=<name> --seed=<n> --seconds=<s>
//                    [--trace=0|1] [--trace-out=<path>]
//   sphinx_benchmark --self-check
//
// --trace=0 reports the end-to-end metrics; --trace=1 reports the per-layer
// metrics, replaying the same chunks from a second set-up with trace spans
// on. --trace-out writes the first traced chunk as a Chrome trace.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "art/key.h"
#include "common/flags.h"
#include "core/sphinx_index.h"
#include "memnode/cluster.h"
#include "rdma/trace.h"
#include "ycsb/dataset.h"
#include "ycsb/runner.h"
#include "ycsb/systems.h"
#include "ycsb/workload.h"

namespace sphinx::benchmark {
namespace {

using Clock = std::chrono::steady_clock;

// Closed loop: kWorkers client threads, each with one op (or one batch of
// `depth` ops) in flight, spread over the 3 simulated CNs as w % 3.
constexpr uint32_t kWorkers = 4;
constexpr uint32_t kLoaders = 4;
constexpr uint32_t kValueSize = 64;
constexpr uint64_t kKeys = 1'000'000;
// Insert headroom in the key pool. Only u64-scan (5% inserts) and u64-churn
// (fresh keys only when its freed list is empty) draw from it; running out
// is reported as failed ops, never silently.
constexpr uint64_t kPoolHeadroom = 400'000;
constexpr uint64_t kWarmupOpsPerWorker = 100'000;
constexpr int kSetups = 3;
constexpr uint64_t kAuditKeys = 10'000;
constexpr uint64_t kAuditScans = 1'000;
constexpr uint64_t kProbes = 200'000;
// --seconds buys one runner.run() call per kChunkSeconds; each workload's
// chunk_ops is sized so a call takes about that long on a 4-core x86 host.
constexpr double kChunkSeconds = 0.25;

struct Workload {
  const char* name;
  ycsb::SystemKind system;
  ycsb::DatasetKind dataset;
  ycsb::WorkloadSpec spec;
  uint32_t depth;
  // Ops per worker per runner.run() call (see kChunkSeconds).
  uint64_t chunk_ops;
  // Loaded keys keep their load-time value (first 8 bytes = load index)
  // because the workload never updates them.
  bool loaded_values_fixed;
  // Churn removes keys it inserted. Once a later runner.run() call draws
  // reads over those keys, a read that finds one absent is the correct
  // answer, so read misses do not count as failed ops there; lost keys
  // still show as remove misses and in the audit.
  bool reads_may_find_removed_keys;
  // Bytes of MN heap per loaded key, with headroom (regions are
  // zero-filled, so oversizing costs set-up time and memory). Writes need
  // more: every runner.run() call builds fresh allocators, which lease new
  // 256 KiB chunks on every MN.
  uint64_t mn_bytes_per_key;
};

ycsb::WorkloadSpec with_dist(ycsb::WorkloadSpec spec, ycsb::RequestDist dist) {
  spec.dist = dist;
  return spec;
}

const std::vector<Workload>& workloads() {
  using ycsb::DatasetKind;
  using ycsb::RequestDist;
  using ycsb::SystemKind;
  static const std::vector<Workload> kAll = {
      {"email-zipf-read", SystemKind::kSphinx, DatasetKind::kEmail,
       ycsb::standard_workload('C'), 1, 150'000, true, false, 240},
      {"email-uniform-read", SystemKind::kSphinx, DatasetKind::kEmail,
       with_dist(ycsb::standard_workload('C'), RequestDist::kUniform), 1,
       65'000, true, false, 240},
      {"email-readmostly-p8", SystemKind::kSphinx, DatasetKind::kEmail,
       ycsb::standard_workload('B'), 8, 130'000, false, false, 240},
      {"u64-churn", SystemKind::kSphinx, DatasetKind::kU64,
       ycsb::churn_workload(), 1, 130'000, true, true, 400},
      {"u64-scan", SystemKind::kSphinx, DatasetKind::kU64,
       ycsb::standard_workload('E'), 1, 7'500, true, false, 240},
      {"email-zipf-read-smart", SystemKind::kSmart, DatasetKind::kEmail,
       ycsb::standard_workload('C'), 1, 19'000, true, false, 1100},
  };
  return kAll;
}

// ---- latency decorator ------------------------------------------------------

enum OpClass : uint64_t { kRead = 0, kWrite = 1, kScan = 2 };

// Latency samples of every worker's TimedIndex, packed as
// (virtual ns << 2) | OpClass so one vector serves the overall statistics
// and the per-class ones.
struct LatencySink {
  std::mutex mu;
  std::vector<uint64_t> samples;
  uint64_t index_host_ns = 0;
  bool host_timing = false;  // per-call steady_clock timing (traced runs)

  void clear() {
    std::lock_guard<std::mutex> lock(mu);
    samples.clear();
    index_host_ns = 0;
  }
};

// Wraps one worker's index client and records the virtual latency of every
// call from the client's own clock. It issues no verbs and never touches
// the endpoint, so clocks and stats are those of the bare client
// (`--self-check` verifies this).
class TimedIndex final : public KvIndex {
 public:
  TimedIndex(std::unique_ptr<KvIndex> inner, LatencySink& sink,
             size_t reserve)
      : inner_(std::move(inner)), sink_(sink), host_(sink.host_timing) {
    samples_.reserve(reserve);
  }

  ~TimedIndex() override {
    std::lock_guard<std::mutex> lock(sink_.mu);
    sink_.samples.insert(sink_.samples.end(), samples_.begin(),
                         samples_.end());
    sink_.index_host_ns += host_ns_;
  }

  TimedIndex(const TimedIndex&) = delete;
  TimedIndex& operator=(const TimedIndex&) = delete;

  bool search(Slice key, std::string* value_out) override {
    return timed(kRead, [&] { return inner_->search(key, value_out); });
  }
  bool insert(Slice key, Slice value) override {
    return timed(kWrite, [&] { return inner_->insert(key, value); });
  }
  bool update(Slice key, Slice value) override {
    return timed(kWrite, [&] { return inner_->update(key, value); });
  }
  bool remove(Slice key) override {
    return timed(kWrite, [&] { return inner_->remove(key); });
  }
  size_t scan(Slice start_key, size_t count,
              std::vector<std::pair<std::string, std::string>>* out) override {
    return timed(kScan, [&] { return inner_->scan(start_key, count, out); });
  }
  size_t scan_range(
      Slice low_key, Slice high_key, size_t max_results,
      std::vector<std::pair<std::string, std::string>>* out) override {
    return timed(kScan, [&] {
      return inner_->scan_range(low_key, high_key, max_results, out);
    });
  }

  // Each op's sample spans batch submit to its own completion stamp, so
  // in-batch queueing is charged per op.
  void execute_batch(BatchOp* ops, size_t count) override {
    const uint64_t t0 = inner_->client_clock_ns();
    const Clock::time_point h0 = host_ ? Clock::now() : Clock::time_point();
    inner_->execute_batch(ops, count);
    if (host_) host_ns_ += elapsed_ns(h0);
    for (size_t i = 0; i < count; ++i) {
      if (!ops[i].done) continue;
      const uint64_t cls =
          ops[i].kind == BatchOp::Kind::kSearch ? kRead : kWrite;
      samples_.push_back((ops[i].done_clock_ns - t0) << 2 | cls);
    }
  }

  uint64_t client_clock_ns() const override {
    return inner_->client_clock_ns();
  }
  bool last_scan_truncated() const override {
    return inner_->last_scan_truncated();
  }
  const char* name() const override { return inner_->name(); }

  KvIndex& inner() { return *inner_; }

 private:
  static uint64_t elapsed_ns(Clock::time_point t0) {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0)
            .count());
  }

  template <typename F>
  std::invoke_result_t<F&> timed(OpClass cls, F&& call) {
    const uint64_t v0 = inner_->client_clock_ns();
    const Clock::time_point h0 = host_ ? Clock::now() : Clock::time_point();
    auto result = call();
    if (host_) host_ns_ += elapsed_ns(h0);
    samples_.push_back((inner_->client_clock_ns() - v0) << 2 | cls);
    return result;
  }

  std::unique_ptr<KvIndex> inner_;
  LatencySink& sink_;
  const bool host_;
  std::vector<uint64_t> samples_;
  uint64_t host_ns_ = 0;
};

// Mean latency, and mean of the slowest 1% ("tail"), of the samples whose
// class is in `mask`, in us. Percentiles are not used: virtual latencies are
// sums of fixed cost-model terms, so a quantile sits on one exact value
// (every 1-RTT LAC hit costs the same ns) and reads identically on every
// run, blind to any change smaller than a cost-model step.
struct LatencyStats {
  double mean_us = 0;
  double tail_mean_us = 0;
  uint64_t samples = 0;
};

LatencyStats latency_stats(const std::vector<uint64_t>& packed,
                           uint32_t mask) {
  std::vector<uint64_t> v;
  v.reserve(packed.size());
  for (uint64_t s : packed) {
    if (mask & (1u << (s & 3))) v.push_back(s >> 2);
  }
  LatencyStats st;
  st.samples = v.size();
  if (v.empty()) return st;
  const size_t tail = std::max<size_t>(1, v.size() / 100);
  std::nth_element(v.begin(), v.end() - tail, v.end());
  double sum = 0, tail_sum = 0;
  for (size_t i = 0; i < v.size(); ++i) {
    sum += v[i];
    if (i >= v.size() - tail) tail_sum += v[i];
  }
  st.mean_us = sum / v.size() / 1000.0;
  st.tail_mean_us = tail_sum / tail / 1000.0;
  return st;
}

// ---- counters of the index layers ------------------------------------------

// Per-client counters summed over every worker client of a measured phase
// (the runner builds fresh clients per run() call and hands each to the
// per-worker hook before destroying it).
struct ClientCounters {
  core::SphinxStats sphinx;
  race::RaceStats race;
  uint64_t op_retries = 0;
  uint64_t lock_fail_retries = 0;
  uint64_t type_switches = 0;
  uint64_t splits = 0;
  uint64_t backoff_ns = 0;
  rdma::ScanStats scan;

  void add(KvIndex& index) {
    if (auto* tree = dynamic_cast<art::RemoteTree*>(&index)) {
      const art::TreeStats& t = tree->tree_stats();
      op_retries += t.op_retries;
      lock_fail_retries += t.lock_fail_retries;
      type_switches += t.type_switches;
      splits += t.splits;
      backoff_ns += t.backoff.wait_ns;
      scan += t.scan;
    }
    if (auto* sx = dynamic_cast<core::SphinxIndex*>(&index)) {
      sphinx += sx->sphinx_stats();
      const race::RaceStats r = sx->inht().aggregated_stats();
      race.searches += r.searches;
      race.inserts += r.inserts;
      race.dir_refreshes += r.dir_refreshes;
      backoff_ns += r.backoff.wait_ns;
    }
  }
};

// CN-wide cache counters, summed over CNs; a phase reports their deltas.
struct CacheCounters {
  uint64_t sfc_evictions = 0;
  uint64_t pec_hits = 0, pec_misses = 0, pec_evictions = 0;
  uint64_t lac_hits = 0, lac_misses = 0, lac_evictions = 0;
  uint64_t node_hits = 0, node_misses = 0, node_evictions = 0;

  static CacheCounters read(ycsb::SystemSetup& setup, uint32_t num_cns) {
    CacheCounters c;
    for (uint32_t cn = 0; cn < num_cns; ++cn) {
      if (auto* f = setup.filter(cn)) c.sfc_evictions += f->stats().evictions;
      if (auto* p = setup.pec(cn)) {
        const filter::PrefixEntryCacheStats s = p->stats();
        c.pec_hits += s.hits;
        c.pec_misses += s.misses;
        c.pec_evictions += s.evictions;
      }
      if (auto* l = setup.lac(cn)) {
        const filter::LeafAddrCacheStats s = l->stats();
        c.lac_hits += s.hits;
        c.lac_misses += s.misses;
        c.lac_evictions += s.evictions;
      }
      if (auto* n = setup.node_cache(cn)) {
        const smart::NodeCacheStats s = n->stats();
        c.node_hits += s.hits;
        c.node_misses += s.misses;
        c.node_evictions += s.evictions;
      }
    }
    return c;
  }

  CacheCounters operator-(const CacheCounters& o) const {
    CacheCounters d;
    d.sfc_evictions = sfc_evictions - o.sfc_evictions;
    d.pec_hits = pec_hits - o.pec_hits;
    d.pec_misses = pec_misses - o.pec_misses;
    d.pec_evictions = pec_evictions - o.pec_evictions;
    d.lac_hits = lac_hits - o.lac_hits;
    d.lac_misses = lac_misses - o.lac_misses;
    d.lac_evictions = lac_evictions - o.lac_evictions;
    d.node_hits = node_hits - o.node_hits;
    d.node_misses = node_misses - o.node_misses;
    d.node_evictions = node_evictions - o.node_evictions;
    return d;
  }
};

// Bytes handed out by the MN bump pointers (leased chunks included).
uint64_t heap_bytes(mem::Cluster& cluster) {
  uint64_t total = 0;
  for (uint32_t mn = 0; mn < cluster.num_mns(); ++mn) {
    const rdma::MemoryRegion& region = cluster.fabric().region(mn);
    const uint64_t bump =
        std::min(region.load64(mem::kBumpPointerOffset), region.size());
    total += bump - mem::kHeapBase;
  }
  return total;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---- one measured phase -----------------------------------------------------

// Virtual-clock trace spans folded per phase: an "op*" span is one op (one
// batch at depth > 1) and every other span is one round trip inside it.
struct TraceTally {
  std::array<uint64_t, rdma::kNumPhases> rtt_ns{};
  uint64_t op_spans = 0;
  uint64_t op_ns = 0;
  uint64_t rtt_ns_total = 0;
  uint64_t rtt_ns_inside_ops = 0;
  uint64_t dropped = 0;

  void fold(const rdma::TraceRecorder& rec) {
    dropped += rec.dropped();
    std::vector<rdma::TraceEvent> ev = rec.events();
    auto is_op = [](const rdma::TraceEvent& e) {
      return std::strncmp(e.name, "op", 2) == 0;
    };
    std::sort(ev.begin(), ev.end(), [&](const auto& a, const auto& b) {
      if (a.tid != b.tid) return a.tid < b.tid;
      if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
      return is_op(a) && !is_op(b);
    });
    uint32_t tid = ~0u;
    uint64_t op_start = 0, op_end = 0;
    for (const rdma::TraceEvent& e : ev) {
      if (e.tid != tid) {
        tid = e.tid;
        op_start = op_end = 0;
      }
      if (is_op(e)) {
        op_spans++;
        op_ns += e.dur_ns;
        op_start = e.ts_ns;
        op_end = e.ts_ns + e.dur_ns;
        continue;
      }
      for (uint32_t p = 0; p < rdma::kNumPhases; ++p) {
        const auto phase = static_cast<rdma::Phase>(p);
        if (std::strcmp(e.name, rdma::phase_name(phase)) == 0) {
          rtt_ns[p] += e.dur_ns;
          break;
        }
      }
      rtt_ns_total += e.dur_ns;
      if (e.ts_ns >= op_start && e.ts_ns + e.dur_ns <= op_end) {
        rtt_ns_inside_ops += e.dur_ns;
      }
    }
  }
};

struct PhaseResult {
  uint64_t ops = 0;
  uint64_t chunks = 0;
  double sim_s = 0;
  double wall_s = 0;
  rdma::EndpointStats net;
  uint64_t misses = 0;
  uint64_t failed = 0;
  uint64_t remove_ops = 0;
  uint64_t reclaimed_blocks = 0;
  uint64_t epoch_advances = 0;
  uint64_t alloc_underflows = 0;
  double max_stretch = 1.0;
  std::vector<double> nic_busy_s;  // per NIC: sum of utilization x time
  uint64_t heap_growth = 0;
  ClientCounters clients;
  CacheCounters caches;
  TraceTally trace;
  std::vector<uint64_t> samples;
  uint64_t index_host_ns = 0;

  double host_ns_per_op() const {
    return ratio(wall_s * 1e9, static_cast<double>(ops));
  }
};

struct Bench {
  std::unique_ptr<mem::Cluster> cluster;
  std::unique_ptr<ycsb::SystemSetup> setup;
  std::unique_ptr<ycsb::YcsbRunner> runner;
  LatencySink sink;
};

ycsb::IndexFactory timed_factory(ycsb::SystemSetup& setup, LatencySink& sink,
                                 size_t reserve) {
  ycsb::IndexFactory base = setup.factory();
  return [base, &sink, reserve](uint32_t w, uint32_t cn,
                                rdma::Endpoint& endpoint,
                                mem::RemoteAllocator& allocator) {
    return std::unique_ptr<KvIndex>(std::make_unique<TimedIndex>(
        base(w, cn, endpoint, allocator), sink, reserve));
  };
}

// Chunk 0 is the warmup.
uint64_t chunk_seed(uint64_t seed, uint64_t chunk) {
  return seed * 1'000'003 + chunk;
}

// Cluster + SystemSetup + load + warmup: everything set-up time covers.
std::unique_ptr<Bench> set_up(const Workload& wl,
                              const std::vector<std::string>& keys,
                              uint64_t seed) {
  auto b = std::make_unique<Bench>();
  rdma::NetworkConfig config;  // the paper's testbed: 3 CNs, 3 MNs
  b->cluster = std::make_unique<mem::Cluster>(
      config, kKeys * wl.mn_bytes_per_key / config.num_mns + (64ull << 20));
  b->setup = std::make_unique<ycsb::SystemSetup>(
      wl.system, *b->cluster,
      ycsb::scaled_cache_budget(ycsb::kDefaultCacheBudget, kKeys));
  b->runner = std::make_unique<ycsb::YcsbRunner>(
      *b->cluster, timed_factory(*b->setup, b->sink, wl.chunk_ops), keys);
  const Clock::time_point t0 = Clock::now();
  b->runner->load(kKeys, kValueSize, kLoaders);
  const Clock::time_point t1 = Clock::now();
  ycsb::WorkloadSpec warm = ycsb::standard_workload('C');
  warm.dist = wl.spec.dist;
  ycsb::RunOptions options;
  options.workers = kWorkers;
  options.ops_per_worker = kWarmupOpsPerWorker;
  options.seed = chunk_seed(seed, 0);
  b->runner->run(warm, options);
  b->sink.clear();
  std::cerr << "set-up: load " << std::chrono::duration<double>(t1 - t0).count()
            << " s, warmup "
            << std::chrono::duration<double>(Clock::now() - t1).count()
            << " s\n";
  return b;
}

// Runs `chunks` runner.run() calls with seeds 1..chunks. `trace_sample` > 0
// records 1-in-N op spans.
PhaseResult measure(const Workload& wl, Bench& b, uint64_t seed,
                    uint64_t chunks, uint32_t trace_sample,
                    const std::string& trace_out) {
  PhaseResult r;
  const uint32_t num_cns = b.cluster->config().num_cns;
  std::mutex hook_mu;
  b.runner->set_per_worker_hook([&](KvIndex& index, uint32_t) {
    std::lock_guard<std::mutex> lock(hook_mu);
    r.clients.add(static_cast<TimedIndex&>(index).inner());
  });
  b.sink.clear();
  const CacheCounters caches0 = CacheCounters::read(*b.setup, num_cns);
  const uint64_t heap0 = heap_bytes(*b.cluster);
  for (uint64_t chunk = 1; chunk <= chunks; ++chunk) {
    ycsb::RunOptions options;
    options.workers = kWorkers;
    options.ops_per_worker = wl.chunk_ops;
    options.pipeline_depth = wl.depth;
    options.seed = chunk_seed(seed, chunk);
    rdma::TraceRecorder recorder(kWorkers *
                                 rdma::TraceRecorder::kDefaultCapacity);
    if (trace_sample > 0) {
      options.trace = &recorder;
      options.trace_sample = trace_sample;
    }
    const Clock::time_point c0 = Clock::now();
    const ycsb::RunResult res = b.runner->run(wl.spec, options);
    r.wall_s += std::chrono::duration<double>(Clock::now() - c0).count();
    r.chunks++;
    r.ops += res.total_ops;
    r.sim_s += res.sim_seconds;
    r.net += res.net;
    r.misses += res.misses;
    r.failed += (wl.reads_may_find_removed_keys ? 0 : res.misses) +
                res.insert_overflow + res.insert_failures +
                res.client_crashes + res.remove_misses + res.rmw_misses +
                res.scan_truncated + res.alloc_degraded_ops;
    r.remove_ops += res.remove_ops;
    r.reclaimed_blocks += res.reclaimed_blocks;
    r.epoch_advances += res.epoch_advances;
    r.alloc_underflows = res.alloc_underflows;
    r.max_stretch = std::max(r.max_stretch, res.latency_stretch);
    std::vector<double> util = res.mn_utilization;
    util.insert(util.end(), res.cn_utilization.begin(),
                res.cn_utilization.end());
    r.nic_busy_s.resize(std::max(r.nic_busy_s.size(), util.size()), 0.0);
    for (size_t i = 0; i < util.size(); ++i) {
      r.nic_busy_s[i] += util[i] * res.sim_seconds;
    }
    if (trace_sample > 0) {
      r.trace.fold(recorder);
      if (!trace_out.empty() && chunk == 1) {
        std::ofstream out(trace_out);
        rdma::write_chrome_trace(out, {{wl.name, &recorder}});
      }
    }
  }
  b.runner->set_per_worker_hook(nullptr);
  std::cerr << (trace_sample > 0 ? "traced" : "measured") << ": " << r.ops
            << " ops in " << r.chunks << " chunks, " << r.wall_s
            << " s; read misses " << r.misses << ", failed ops " << r.failed
            << "\n";
  r.caches = CacheCounters::read(*b.setup, num_cns) - caches0;
  r.heap_growth = heap_bytes(*b.cluster) - heap0;
  {
    std::lock_guard<std::mutex> lock(b.sink.mu);
    r.samples.swap(b.sink.samples);
    r.index_host_ns = b.sink.index_host_ns;
  }
  return r;
}

// ---- correctness audit ------------------------------------------------------

// A fresh client reads kAuditKeys seeded loaded keys (never removed by any
// workload) and runs kAuditScans seeded scans from loaded keys.
void audit(const Workload& wl, Bench& b, const std::vector<std::string>& keys,
           uint64_t seed, std::vector<std::string>* errors) {
  rdma::Endpoint endpoint(b.cluster->fabric(), /*cn=*/0);
  mem::RemoteAllocator allocator(*b.cluster, endpoint);
  std::unique_ptr<KvIndex> client =
      b.setup->make_client(0, endpoint, allocator);
  std::mt19937_64 rng(seed ^ 0xa0d17ull);
  std::uniform_int_distribution<uint64_t> pick(0, kKeys - 1);
  uint64_t missing = 0, bad_size = 0, bad_value = 0;
  std::string value;
  for (uint64_t i = 0; i < kAuditKeys; ++i) {
    const uint64_t idx = pick(rng);
    if (!client->search(keys[idx], &value)) {
      missing++;
      continue;
    }
    if (value.size() != kValueSize) {
      bad_size++;
    } else if (wl.loaded_values_fixed &&
               std::memcmp(value.data(), &idx, sizeof(idx)) != 0) {
      bad_value++;
    }
  }
  uint64_t bad_scans = 0;
  std::vector<std::pair<std::string, std::string>> out;
  std::uniform_int_distribution<size_t> len(1, 100);
  for (uint64_t i = 0; i < kAuditScans; ++i) {
    const std::string& start = keys[pick(rng)];
    const size_t count = len(rng);
    out.clear();
    const size_t n = client->scan(start, count, &out);
    bool ok = n == out.size() && n >= 1 && n <= count &&
              out.front().first == start;
    for (size_t j = 0; ok && j < out.size(); ++j) {
      ok = out[j].second.size() == kValueSize &&
           (j == 0 || out[j - 1].first < out[j].first);
    }
    if (!ok) bad_scans++;
  }
  auto report = [&](uint64_t n, const char* what) {
    if (n > 0) errors->push_back("audit: " + std::to_string(n) + " " + what);
  };
  report(missing, "loaded keys not found");
  report(bad_size, "values not 64 B");
  report(bad_value, "values differ from their load-time bytes");
  report(bad_scans, "scans unordered, over-long or not starting at the key");
}

void check_invariants(const PhaseResult& r, std::vector<std::string>* errors) {
  if (r.net.rtts_sum_by_phase() != r.net.round_trips ||
      r.net.bytes_sum_by_phase() != r.net.bytes_total()) {
    errors->push_back("per-phase RTTs/bytes do not sum to the totals");
  }
  if (r.clients.sphinx.lac_wrong_value != 0) {
    errors->push_back("lac_wrong_value = " +
                      std::to_string(r.clients.sphinx.lac_wrong_value));
  }
  if (r.alloc_underflows != 0) {
    errors->push_back("alloc_underflows = " +
                      std::to_string(r.alloc_underflows));
  }
  if (r.max_stretch > 1.0) {
    errors->push_back(
        "latency_stretch > 1: the fabric saturated, so decorator latencies "
        "would miss NIC queueing");
  }
  if (r.trace.dropped != 0) {
    errors->push_back("trace dropped " + std::to_string(r.trace.dropped) +
                      " events");
  }
  if (r.trace.rtt_ns_total > r.trace.rtt_ns_inside_ops + r.trace.op_ns / 100) {
    errors->push_back("trace accounting does not close: round-trip spans "
                      "outside op spans exceed 1% of op time");
  }
}

// ---- metrics ----------------------------------------------------------------

struct Metrics {
  std::vector<std::pair<std::string, double>> values;
  std::vector<std::pair<std::string, uint64_t>> samples;

  void add(const std::string& name, double v) { values.emplace_back(name, v); }
  // Adds <prefix>mean_us and <prefix>tail_mean_us with their sample count.
  void add_latency(const std::string& prefix, const PhaseResult& r,
                   uint32_t mask) {
    const LatencyStats st = latency_stats(r.samples, mask);
    for (const auto& [name, v] : {std::pair{prefix + "mean_us", st.mean_us},
                                  {prefix + "tail_mean_us", st.tail_mean_us}}) {
      add(name, v);
      samples.emplace_back(name, st.samples);
    }
  }
};

constexpr uint32_t kAllClasses = 0b111;

double throughput_mops(const PhaseResult& r) {
  return ratio(static_cast<double>(r.ops), r.sim_s) / 1e6;
}

double per_op(const PhaseResult& r, double v) {
  return ratio(v, static_cast<double>(r.ops));
}

void end_to_end_metrics(const PhaseResult& r, Bench& b, double setup_s,
                        uint64_t heap_after_setup, Metrics* m) {
  m->add("throughput_mops", throughput_mops(r));
  m->add_latency("", r, kAllClasses);
  m->add("rtts_per_op", per_op(r, static_cast<double>(r.net.round_trips)));
  m->add("mn_bytes_per_key", static_cast<double>(heap_after_setup) / kKeys);
  m->add("cn_cache_kib",
         static_cast<double>(b.setup->cn_cache_bytes(0)) / 1024);
  m->add("setup_s", setup_s);
}

// Host ns per call of each CN-0 cache probe, on the populated caches.
struct ProbeCosts {
  double sfc = 0, pec = 0, lac = 0;
};

ProbeCosts time_probes(Bench& b, const std::vector<std::string>& keys,
                       uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0x9806e5ull);
  std::uniform_int_distribution<uint64_t> pick(0, kKeys - 1);
  std::vector<uint64_t> prefix_hashes(kProbes), key_hashes(kProbes);
  for (uint64_t i = 0; i < kProbes; ++i) {
    const art::TerminatedKey tkey(keys[pick(rng)]);
    prefix_hashes[i] =
        tkey.hash_of_prefix(std::max<uint32_t>(1, tkey.size() / 2));
    key_hashes[i] = tkey.hash_of_prefix(tkey.size());
  }
  uint64_t hits = 0;
  auto ns_per_call = [&](auto&& probe, const std::vector<uint64_t>& hashes) {
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 3; ++rep) {
      const Clock::time_point t0 = Clock::now();
      for (uint64_t h : hashes) hits += probe(h) ? 1 : 0;
      best = std::min(best, std::chrono::duration<double, std::nano>(
                                Clock::now() - t0)
                                    .count() /
                                hashes.size());
    }
    return best;
  };
  ProbeCosts c;
  uint64_t payload = 0;
  bool hot = false;
  if (auto* f = b.setup->filter(0)) {
    c.sfc = ns_per_call([&](uint64_t h) { return f->contains_cold(h); },
                        prefix_hashes);
  }
  if (auto* p = b.setup->pec(0)) {
    c.pec = ns_per_call(
        [&](uint64_t h) { return p->lookup(h, &payload, &hot); },
        prefix_hashes);
  }
  if (auto* l = b.setup->lac(0)) {
    c.lac = ns_per_call(
        [&](uint64_t h) { return l->lookup(h, &payload, &hot); }, key_hashes);
  }
  std::cerr << "cache probes: " << hits << " hits\n";
  return c;
}

void per_layer_metrics(const PhaseResult& untraced, const PhaseResult& r,
                       const ProbeCosts& probes, Metrics* m) {
  const rdma::EndpointStats& net = r.net;
  const double ops = static_cast<double>(r.ops);
  const double spans = static_cast<double>(r.trace.op_spans);
  // rdma: every phase but the two that never carry round trips and the
  // crash-recovery one, which a fault-free run never enters.
  for (uint32_t p = 0; p < rdma::kNumPhases; ++p) {
    const auto phase = static_cast<rdma::Phase>(p);
    if (phase == rdma::Phase::kUnattributed ||
        phase == rdma::Phase::kFilterProbe ||
        phase == rdma::Phase::kRecovery) {
      continue;
    }
    const std::string name = rdma::phase_name(phase);
    m->add("rdma.rtts." + name, per_op(r, net.rtts_by_phase[p]));
    m->add("rdma.bytes." + name, per_op(r, net.bytes_by_phase[p]));
    m->add("rdma.vns." + name, ratio(r.trace.rtt_ns[p], spans));
  }
  m->add("rdma.bytes_per_op", per_op(r, net.bytes_total()));
  m->add("rdma.verbs_per_rtt", ratio(net.verbs(), net.round_trips));
  double busiest = 0;
  for (double busy : r.nic_busy_s) busiest = std::max(busiest, busy);
  m->add("rdma.nic_max_util", ratio(busiest, r.sim_s));
  uint64_t mn_total = 0, mn_max = 0;
  for (uint64_t msgs : net.msgs_per_mn) {
    mn_total += msgs;
    mn_max = std::max(mn_max, msgs);
  }
  m->add("rdma.mn_msg_balance",
         ratio(static_cast<double>(mn_max) * net.msgs_per_mn.size(), mn_total));

  // filter: SFC/PEC/LAC hit, false-positive, staleness and eviction rates.
  const core::SphinxStats& sx = r.clients.sphinx;
  const CacheCounters& cc = r.caches;
  const double sfc_served = static_cast<double>(sx.filter_hits - sx.fp_rejects);
  m->add("filter.sfc_hit_ratio",
         ratio(sfc_served, sfc_served + sx.parallel_fallbacks));
  m->add("filter.sfc_fp_ratio", ratio(sx.fp_rejects, sx.filter_hits));
  m->add("filter.pec_hit_ratio",
         ratio(cc.pec_hits, cc.pec_hits + cc.pec_misses));
  m->add("filter.pec_stale_ratio", ratio(sx.pec_stale, sx.pec_hits));
  m->add("filter.lac_hit_ratio",
         ratio(cc.lac_hits, cc.lac_hits + cc.lac_misses));
  m->add("filter.lac_stale_ratio", ratio(sx.lac_stale, sx.lac_hits));
  m->add("filter.sfc_evictions_per_op", per_op(r, cc.sfc_evictions));
  m->add("filter.pec_evictions_per_op", per_op(r, cc.pec_evictions));
  m->add("filter.lac_evictions_per_op", per_op(r, cc.lac_evictions));
  m->add("filter.sfc_probe_host_ns", probes.sfc);
  m->add("filter.pec_probe_host_ns", probes.pec);
  m->add("filter.lac_probe_host_ns", probes.lac);

  // core: where Sphinx descents start and how often fusion pays off.
  const double descents =
      static_cast<double>(sx.start_successes + sx.root_fallbacks);
  m->add("core.start_below_root_ratio", ratio(sx.start_successes, descents));
  m->add("core.root_fallback_ratio", ratio(sx.root_fallbacks, descents));
  m->add("core.parallel_fallback_ratio",
         ratio(sx.parallel_fallbacks,
               descents + sx.scan_start_successes + sx.scan_root_fallbacks));
  m->add("core.speculative_win_ratio",
         ratio(sx.speculative_wins,
               sx.speculative_wins + sx.speculative_losses));
  m->add("core.lac_fused_win_ratio",
         ratio(sx.lac_fused_wins, sx.lac_fused_wins + sx.lac_fused_losses));
  m->add("core.batch_fused_ratio", ratio(sx.batch_fused_ops, sx.batch_ops));
  m->add("core.ops_per_fused_round",
         ratio(sx.batch_fused_ops, sx.batch_fused_rounds));
  m->add("core.batch_serial_ratio", ratio(sx.batch_serial_ops, sx.batch_ops));

  // racehash: the INHT.
  const race::RaceStats& rs = r.clients.race;
  m->add("racehash.searches_per_op", per_op(r, rs.searches));
  m->add("racehash.inserts_per_op", per_op(r, rs.inserts));
  m->add("racehash.dir_refreshes_per_op", per_op(r, rs.dir_refreshes));

  // art: the shared tree engine and its scan frontier.
  const ClientCounters& c = r.clients;
  m->add("art.op_retries_per_op", per_op(r, c.op_retries));
  m->add("art.lock_fail_retries_per_op", per_op(r, c.lock_fail_retries));
  m->add("art.splits_per_kop", per_op(r, c.splits) * 1000);
  m->add("art.type_switches_per_kop", per_op(r, c.type_switches) * 1000);
  m->add("art.backoff_vns_per_op", per_op(r, c.backoff_ns));
  m->add("art.scan.frontier_batches_per_scan",
         ratio(c.scan.frontier_batches, c.scan.scans));
  m->add("art.scan.nodes_per_batch",
         ratio(c.scan.frontier_nodes, c.scan.frontier_batches));
  // Scan entries include the re-entries of widen-and-resume.
  m->add("art.scan.jump_start_ratio",
         ratio(c.scan.jump_starts, c.scan.jump_starts + c.scan.root_starts));

  // smart: the baseline's CN node cache.
  m->add("smart.node_cache_hit_ratio",
         ratio(cc.node_hits, cc.node_hits + cc.node_misses));
  m->add("smart.node_cache_evictions_per_op", per_op(r, cc.node_evictions));

  // memnode: heap growth and epoch reclamation.
  m->add("memnode.heap_bytes_per_op", per_op(r, r.heap_growth));
  m->add("memnode.reclaimed_blocks_per_remove",
         ratio(r.reclaimed_blocks, r.remove_ops));
  m->add("memnode.epoch_advances_per_kop", per_op(r, r.epoch_advances) * 1000);

  // ycsb: CN-local virtual time, host time split, per-class latencies.
  m->add("ycsb.op_local_vns",
         ratio(r.trace.op_ns - r.trace.rtt_ns_inside_ops, spans));
  // Index calls run on kWorkers threads at once; divide their thread time
  // by the thread count so it splits the wall-time figure.
  const double index_ns = ratio(r.index_host_ns, ops * kWorkers);
  // Host time is a per-layer figure only: on a shared host it swings by
  // tens of percent between runs, far more than any bound could absorb.
  m->add("ycsb.host_ns_per_op", untraced.host_ns_per_op());
  m->add("ycsb.index_host_ns_per_op", index_ns);
  m->add("ycsb.harness_host_ns_per_op", r.host_ns_per_op() - index_ns);
  m->add("ycsb.trace_overhead_pct",
         (ratio(r.host_ns_per_op(), untraced.host_ns_per_op()) - 1) * 100);
  m->add_latency("ycsb.read_", r, 1u << kRead);
  m->add_latency("ycsb.write_", r, 1u << kWrite);
  m->add_latency("ycsb.scan_", r, 1u << kScan);
}

// ---- output -----------------------------------------------------------------

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out.push_back('\\');
    out.push_back(ch);
  }
  return out + "\"";
}

template <typename V>
std::string json_object(const std::vector<std::pair<std::string, V>>& kv) {
  std::ostringstream os;
  os << std::setprecision(17) << "{";
  for (size_t i = 0; i < kv.size(); ++i) {
    os << (i ? ", " : "") << json_string(kv[i].first) << ": " << kv[i].second;
  }
  os << "}";
  return os.str();
}

// Virtual figures of one phase, for run.py's traced-vs-untraced check.
std::string virtual_summary(const PhaseResult& r) {
  const LatencyStats st = latency_stats(r.samples, kAllClasses);
  return json_object<double>(
      {{"throughput_mops", throughput_mops(r)},
       {"mean_us", st.mean_us},
       {"tail_mean_us", st.tail_mean_us},
       {"rtts_per_op", per_op(r, static_cast<double>(r.net.round_trips))}});
}

// ---- self-check -------------------------------------------------------------

// Runs email-zipf-read at 20k keys with one loader and one worker (so the
// run is deterministic) with and without TimedIndex, serial and at depth 8,
// and requires identical round trips, bytes, per-phase arrays and final
// virtual clocks.
int self_check() {
  constexpr uint64_t kCheckKeys = 20'000;
  const std::vector<std::string> keys =
      ycsb::generate_keys(ycsb::DatasetKind::kEmail, kCheckKeys, 1);
  struct Outcome {
    rdma::EndpointStats net[2];
    double sim_s[2] = {0, 0};
  };
  auto run_once = [&](bool timed) {
    Outcome o;
    rdma::NetworkConfig config;
    mem::Cluster cluster(config, 64ull << 20);
    ycsb::SystemSetup setup(
        ycsb::SystemKind::kSphinx, cluster,
        ycsb::scaled_cache_budget(ycsb::kDefaultCacheBudget, kCheckKeys));
    LatencySink sink;
    ycsb::YcsbRunner runner(
        cluster, timed ? timed_factory(setup, sink, 0) : setup.factory(),
        keys);
    runner.load(kCheckKeys, kValueSize, 1);
    for (int i = 0; i < 2; ++i) {
      ycsb::RunOptions options;
      options.workers = 1;
      options.ops_per_worker = 20'000;
      options.seed = 1 + i;
      options.pipeline_depth = i == 0 ? 1 : 8;
      const ycsb::RunResult res =
          runner.run(ycsb::standard_workload('C'), options);
      o.net[i] = res.net;
      o.sim_s[i] = res.sim_seconds;
    }
    return o;
  };
  const Outcome bare = run_once(false);
  const Outcome timed = run_once(true);
  std::vector<std::string> mismatches;
  for (int i = 0; i < 2; ++i) {
    const std::string depth = i == 0 ? "depth 1: " : "depth 8: ";
    const rdma::EndpointStats& a = bare.net[i];
    const rdma::EndpointStats& t = timed.net[i];
    for (const auto& f : rdma::kEndpointStatsFields) {
      if (a.*(f.ptr) != t.*(f.ptr)) mismatches.push_back(depth + f.name);
    }
    if (a.rtts_by_phase != t.rtts_by_phase) {
      mismatches.push_back(depth + "rtts_by_phase");
    }
    if (a.bytes_by_phase != t.bytes_by_phase) {
      mismatches.push_back(depth + "bytes_by_phase");
    }
    if (a.msgs_per_mn != t.msgs_per_mn || a.bytes_per_mn != t.bytes_per_mn) {
      mismatches.push_back(depth + "per-MN traffic");
    }
    if (bare.sim_s[i] != timed.sim_s[i]) {
      mismatches.push_back(depth + "final virtual clock");
    }
    std::cerr << depth << a.round_trips << " round trips, " << a.bytes_total()
              << " bytes, " << bare.sim_s[i] * 1e9 << " virtual ns\n";
  }
  std::cout << "{\"self_check\": " << (mismatches.empty() ? "true" : "false")
            << ", \"mismatches\": [";
  for (size_t i = 0; i < mismatches.size(); ++i) {
    std::cout << (i ? ", " : "") << json_string(mismatches[i]);
  }
  std::cout << "]}" << std::endl;
  return mismatches.empty() ? 0 : 1;
}

// ---- main -------------------------------------------------------------------

int run(int argc, char** argv) {
  Flags flags(argc, argv);
  if (flags.get_bool("self-check", false)) return self_check();

  const std::string name = flags.get_string("workload", "");
  const Workload* wl = nullptr;
  for (const Workload& w : workloads()) {
    if (name == w.name) wl = &w;
  }
  if (wl == nullptr) {
    std::cerr << "--workload: unknown workload '" << name << "'; one of:";
    for (const Workload& w : workloads()) std::cerr << " " << w.name;
    std::cerr << "\n";
    return 2;
  }
  const uint64_t seed = flags.get_u64("seed", 1);
  const double seconds = flags.get_double("seconds", 5);
  const bool trace = flags.get_u64("trace", 0) != 0;
  const std::string trace_out = flags.get_string("trace-out", "");
  const unsigned cores = std::thread::hardware_concurrency();
  if (cores != 0 && std::max(kWorkers, kLoaders) > cores) {
    std::cerr << "refusing to run " << std::max(kWorkers, kLoaders)
              << " threads on " << cores << " cores\n";
    return 2;
  }
  if (!(seconds > 0)) {
    std::cerr << "--seconds must be positive\n";
    return 2;
  }
  const Clock::time_point run_start = Clock::now();
  // The amount of work is fixed by --seconds, not by the host clock: the
  // caches keep converging for tens of millions of ops, so a time-bounded
  // run would make the virtual metrics depend on host speed.
  const uint64_t chunks =
      std::max<int64_t>(1, std::llround(seconds / kChunkSeconds));

  // Key generation is input preparation, outside set-up time.
  const std::vector<std::string> keys =
      ycsb::generate_keys(wl->dataset, kKeys + kPoolHeadroom, seed);

  std::vector<std::string> errors;
  Metrics metrics;
  uint64_t attempted = 0, failed = 0;
  std::string virtual_check;
  std::unique_ptr<Bench> bench;
  if (!trace) {
    // Set-up time is the median of kSetups full set-ups; the last one is
    // kept and measured.
    std::vector<double> setup_times;
    for (int i = 0; i < kSetups; ++i) {
      bench.reset();
      const Clock::time_point t0 = Clock::now();
      bench = set_up(*wl, keys, seed);
      setup_times.push_back(
          std::chrono::duration<double>(Clock::now() - t0).count());
    }
    std::sort(setup_times.begin(), setup_times.end());
    const uint64_t heap_after_setup = heap_bytes(*bench->cluster);
    const PhaseResult r = measure(*wl, *bench, seed, chunks, 0, "");
    check_invariants(r, &errors);
    end_to_end_metrics(r, *bench, setup_times[setup_times.size() / 2],
                       heap_after_setup, &metrics);
    attempted = r.ops;
    failed = r.failed;
  } else {
    // The same chunks run twice from fresh set-ups: untraced, then traced
    // with a sampling rate sized from the untraced round trips so no
    // per-worker span buffer overflows.
    bench = set_up(*wl, keys, seed);
    const PhaseResult plain = measure(*wl, *bench, seed, chunks, 0, "");
    check_invariants(plain, &errors);
    bench.reset();
    bench = set_up(*wl, keys, seed);
    // At depth d the runner traces whole batches (d ops plus one span),
    // those starting at an op index divisible by the rate, so the rate is
    // a multiple of d and a chunk records about
    // chunk_ops * d * events_per_op / rate events per worker.
    const double events_per_op = 1 + per_op(plain, plain.net.round_trips);
    const uint32_t batches_per_trace = static_cast<uint32_t>(
        std::ceil(2.0 * wl->chunk_ops * events_per_op /
                  rdma::TraceRecorder::kDefaultCapacity));
    const uint32_t sample =
        std::max<uint32_t>(1, batches_per_trace) * wl->depth;
    bench->sink.host_timing = true;
    const PhaseResult traced =
        measure(*wl, *bench, seed, chunks, sample, trace_out);
    check_invariants(traced, &errors);
    per_layer_metrics(plain, traced, time_probes(*bench, keys, seed),
                      &metrics);
    attempted = plain.ops + traced.ops;
    failed = plain.failed + traced.failed;
    virtual_check = ", \"untraced\": " + virtual_summary(plain) +
                    ", \"traced\": " + virtual_summary(traced);
  }
  audit(*wl, *bench, keys, seed, &errors);
  bench.reset();

  const double wall_s =
      std::chrono::duration<double>(Clock::now() - run_start).count();
  std::cout << std::setprecision(17) << "{\"workload\": "
            << json_string(wl->name) << ", \"seed\": " << seed
            << ", \"trace\": " << (trace ? 1 : 0)
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"wall_s\": " << wall_s
            << ", \"metrics\": " << json_object(metrics.values)
            << ", \"samples\": " << json_object(metrics.samples)
            << virtual_check << ", \"errors\": [";
  for (size_t i = 0; i < errors.size(); ++i) {
    std::cout << (i ? ", " : "") << json_string(errors[i]);
  }
  std::cout << "]}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace sphinx::benchmark

int main(int argc, char** argv) { return sphinx::benchmark::run(argc, argv); }
