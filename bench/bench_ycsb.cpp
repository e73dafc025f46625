// Reproduces Figs. 4, 5 and 6 of the paper: YCSB throughput (workloads A,
// B, C, D, E, F and LOAD) on the u64 and email datasets for Sphinx, SMART
// (20 MB cache), SMART+C (200 MB cache) and the ART baseline (Fig. 4); how
// throughput and effective latency grow with workers (Fig. 5, and the knee
// study beyond it); and the MN-side memory each system holds right after
// its load (Fig. 6: inner nodes, leaves, hash table). --workloads takes a
// csv of letters and "churn" (20/40/40 read/insert/remove), the
// epoch-reclamation stress mix; --mem-budget shrinks the per-MN heap to
// drive the allocator into degraded mode instead of crashing.
//
// The paper loads 60 M keys on a 3x128 GB testbed; the default here is a
// proportional scale-down that regenerates the figure's *shape* (who wins,
// by what factor) in minutes. Scale with --keys / --ops.
//
// Usage:
//   bench_ycsb [--keys=1000000] [--ops=600] [--workers=192]
//              [--datasets=u64,email] [--workloads=A,B,C,D,E,L]
//              [--systems=sphinx,smart,smart+c,art] [--pipeline-depth=1]
//              [--mns=3] [--root-replicas=1] [--mem-budget=<bytes per MN>]
//              [--faults=0.02] [--crash-rate=0.0001] [--fault-seed=42]
//              [--json=out.json] [--trace=out.trace.json] [--no-scan-jump]
//
// --workers, --pipeline-depth and --mns each take a csv to sweep. Every
// (dataset, MN count, system) loads one cluster of that many MNs behind 3
// CNs, warms the CN caches once at the widest worker count, then runs every
// workload x depth x worker count in that order. The Fig. 4 and Fig. 6
// tables keep the first-listed MN count, depth and worker count; with
// several worker or MN counts each cluster's curve (Fig. 5: throughput,
// effective latency, NIC stretch and MN balance per worker count) follows
// them.
// Depth 1 submits batches of one, with the serial client's traffic; deeper
// runs keep N point ops in flight per worker
// (ycsb::RunOptions::pipeline_depth) and report under the workload name
// suffixed ":p<depth>" so JSON records and the regression gate keep
// distinct keys.
//
// --systems takes a csv of ycsb::kSystemNames CLI names. Besides the four
// paper systems (the default) it runs the Sphinx cache-tier ablations:
// sphinx-nosfc (INHT only: parallel reads of every prefix's hash entry),
// sphinx-nopec (no prefix entry cache) and sphinx-nolac (no leaf address
// cache, the pre-LAC configuration bit for bit). Each variant splits the
// same CN cache budget across the tiers it keeps (ycsb/systems.cpp).
// --root-replicas=0 makes ART and Sphinx read only the primary root (the
// pre-replication routing) for the before/after knee comparison of
// DESIGN.md Sec. 15.
//
// --faults=<rate> installs the standard background fault schedule
// (rdma/fault_injector.h) on the fabric for the measured phases: per-verb
// congestion delays with probability <rate>, plus proportionally rarer
// stalls and CAS race losses. Load and warmup stay fault-free. Per-fault
// counters are reported per system; --fault-seed makes a run replayable.
//
// --crash-rate=<p> kills clients: every tagged protocol verb crashes its
// endpoint with probability p. The runner reincarnates crashed workers;
// orphaned locks are reclaimed by survivors via the lease watch, and the
// recovery counters (lock reclaims, lease expiries, retry timeouts, backoff
// histogram) are reported per workload and emitted in --json records.
//
// --json=<path> additionally writes one machine-readable record per
// measured phase -- throughput, RTTs/op, read bytes/op, mean latency,
// per-phase RTT/byte attribution, crash/recovery counters, and the worker
// count, MN count, per-NIC utilization vectors and MN message balance that
// tools/find_knee.py reads -- for regression tracking (see BENCH_seed.json
// and tools/check_bench_regression.py).
// --trace=<path> records sampled per-op trace spans (1 in 32 ops) during
// every measured phase and writes a Chrome trace_event JSON on exit; open
// it in chrome://tracing or Perfetto. One trace process per measured phase,
// named <system>/<dataset>/mns=<M>/w=<workers>/<workload>.
// Both output paths are opened before the first load: one that cannot be
// written exits 2.
#include <algorithm>
#include <deque>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>

#include "art/remote_tree.h"
#include "bench_common.h"
#include "common/metrics.h"
#include "core/sphinx_index.h"
#include "rdma/trace.h"

namespace sphinx::bench {
namespace {

// One --json record. Fields mirror the stderr per-workload lines so the
// two outputs can be cross-checked.
struct JsonRecord {
  std::string system;
  std::string dataset;
  uint32_t num_mns = 0;
  uint32_t workers = 0;
  ycsb::RunResult result;
  rdma::RecoveryStats recovery;
  rdma::BackoffHistogram backoff;
  // Scan breakdown (workload E; zero elsewhere). scan_subtree_skips and
  // scan_leaf_drops must be zero in any fault-free run -- CI asserts it.
  rdma::ScanStats scan;
  // Sphinx cache-tier counters (zero for other systems). lac_wrong_value
  // must be zero in *every* run, faulted or not -- CI asserts it.
  core::SphinxStats sphinx;
};

// Sums the crash-recovery counters of every worker's index client (tree
// lock recovery + INHT lock recovery for Sphinx). Fed by the runner's
// per-worker hook, which also fires for each crashed incarnation.
struct RecoveryAgg {
  std::mutex mu;
  rdma::RecoveryStats recovery;
  rdma::BackoffHistogram backoff;
  rdma::ScanStats scan;
  core::SphinxStats sphinx_stats;

  void add(KvIndex& index) {
    std::lock_guard<std::mutex> lock(mu);
    if (auto* tree = dynamic_cast<art::RemoteTree*>(&index)) {
      recovery += tree->tree_stats().recovery;
      backoff += tree->tree_stats().backoff;
      scan += tree->tree_stats().scan;
    }
    if (auto* sphinx = dynamic_cast<core::SphinxIndex*>(&index)) {
      const race::RaceStats inht = sphinx->inht().aggregated_stats();
      recovery += inht.recovery;
      backoff += inht.backoff;
      sphinx_stats += sphinx->sphinx_stats();
    }
  }

  void reset() {
    recovery = rdma::RecoveryStats();
    backoff = rdma::BackoffHistogram();
    scan = rdma::ScanStats();
    sphinx_stats = core::SphinxStats();
  }
};

// Serializes one per-phase array as a nested JSON object, keyed by phase
// name, dropping zero entries (workloads exercise few phases each).
std::string phase_breakdown_json(
    const std::array<uint64_t, rdma::kNumPhases>& by_phase) {
  std::ostringstream os;
  metrics::JsonObjectWriter w(os);
  for (uint32_t p = 0; p < rdma::kNumPhases; ++p) {
    if (by_phase[p] == 0) continue;
    w.field(rdma::phase_name(static_cast<rdma::Phase>(p)), by_phase[p]);
  }
  w.close();
  return os.str();
}

// Serializes a sequence of numbers as a JSON array.
template <typename Seq>
std::string json_array(const Seq& values) {
  std::ostringstream os;
  os.precision(10);
  os << "[";
  const char* sep = "";
  for (const auto& v : values) {
    os << sep << v;
    sep = ", ";
  }
  os << "]";
  return os.str();
}

void write_json(std::ostream& out, const std::vector<JsonRecord>& recs) {
  out.precision(10);
  out << "[\n";
  for (size_t i = 0; i < recs.size(); ++i) {
    const JsonRecord& r = recs[i];
    const ycsb::RunResult& res = r.result;
    out << "  ";
    metrics::JsonObjectWriter w(out);
    w.field("system", r.system);
    w.field("dataset", r.dataset);
    w.field("workload", res.workload);
    w.field("workers", static_cast<uint64_t>(r.workers));
    w.field("num_mns", static_cast<uint64_t>(r.num_mns));
    w.field("ops_per_sec", res.ops_per_sec);
    w.field("rtts_per_op", res.rtts_per_op);
    w.field("read_bytes_per_op", res.read_bytes_per_op);
    // Dual latency view: effective (queueing-adjusted, consistent with
    // ops_per_sec) alongside the unloaded histogram mean, with the stretch
    // factor that relates them. Percentiles are effective, like the mean.
    w.field("mean_latency_ns", res.mean_latency_ns);
    w.field("mean_unloaded_latency_ns", res.mean_unloaded_latency_ns);
    w.field("latency_stretch", res.latency_stretch);
    w.field("p50_ns", res.effective_percentile_ns(50));
    w.field("p99_ns", res.effective_percentile_ns(99));
    w.field("nic_utilization", res.nic_utilization);
    // The per-NIC view behind nic_utilization (its max), and busiest-MN
    // messages over the per-MN mean: a knee with balance ~1 ran out of
    // aggregate capacity, one with balance >> 1 has a hot MN.
    w.raw_field("cn_utilization", json_array(res.cn_utilization));
    w.raw_field("mn_utilization", json_array(res.mn_utilization));
    w.field("mn_msg_balance", res.mn_msg_balance);
    w.field("total_ops", res.total_ops);
    w.field("round_trips", res.net.round_trips);
    w.field("messages", res.net.messages);
    w.field("misses", res.misses);
    w.field("insert_failures", res.insert_failures);
    // Inserts the key pool could not serve, run as updates instead; the
    // pool is sized so this stays zero.
    w.field("insert_overflow", res.insert_overflow);
    w.field("client_crashes", res.client_crashes);
    // Churn/RMW op breakdown (nonzero only for workloads with remove/rmw
    // shares). remove_misses must be zero in fault-free, memory-ample runs.
    w.field("remove_ops", res.remove_ops);
    w.field("remove_misses", res.remove_misses);
    w.field("remove_underflow", res.remove_underflow);
    w.field("reused_key_inserts", res.reused_key_inserts);
    w.field("rmw_ops", res.rmw_ops);
    w.field("rmw_misses", res.rmw_misses);
    // Epoch-reclamation flow and degraded-mode counters (cluster-wide
    // deltas for this phase). The gate requires churn rows to actually
    // recycle (reclaimed_blocks > 0) with bounded retired_bytes_outstanding,
    // and alloc_underflows to be zero everywhere.
    w.field("alloc_failures", res.alloc_failures);
    w.field("alloc_degraded_ops", res.alloc_degraded_ops);
    w.field("reclaimed_blocks", res.reclaimed_blocks);
    w.field("retired_bytes_total", res.retired_bytes_total);
    w.field("retired_bytes_outstanding", res.retired_bytes_outstanding);
    w.field("leaked_bytes", res.leaked_bytes);
    w.field("alloc_underflows", res.alloc_underflows);
    w.field("epoch_advances", res.epoch_advances);
    w.field("expired_epoch_slots", res.expired_epoch_slots);
    // Per-phase RTT/byte attribution; entries sum exactly to round_trips /
    // bytes_read+bytes_written (verified after every run).
    w.raw_field("phase_rtts", phase_breakdown_json(res.net.rtts_by_phase));
    w.raw_field("phase_bytes", phase_breakdown_json(res.net.bytes_by_phase));
    metrics::write_fields(w, r.recovery, rdma::kRecoveryStatsFields);
    w.field("scan_ops", res.scan_ops);
    w.field("scan_rtts_per_op", res.scan_rtts_per_op);
    w.field("scan_truncated_ops", res.scan_truncated);
    metrics::write_fields(w, r.scan, rdma::kScanStatsFields, "scan_");
    // Cache-tier counters (all zero for non-Sphinx systems). The regression
    // gate keys on lac_wrong_value: a 1-RTT speculative read that returned
    // a wrong value past validation -- must be zero in every run.
    metrics::write_fields(w, r.sphinx, core::kSphinxStatsFields);
    w.field("backoff_waits", r.backoff.waits);
    w.field("backoff_wait_ns", r.backoff.wait_ns);
    w.raw_field("backoff_hist", json_array(r.backoff.buckets));
    w.close();
    out << (i + 1 < recs.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

// One Fig. 6 row: MN-side bytes a system's index holds right after load.
struct MemoryRow {
  uint64_t inner = 0;
  uint64_t leaf = 0;
  uint64_t table = 0;
  uint64_t total() const { return inner + leaf + table; }

  static MemoryRow of(mem::Cluster& cluster) {
    const mem::AllocStats& stats = cluster.alloc_stats();
    return {stats.requested_bytes(mem::AllocTag::kInnerNode),
            stats.requested_bytes(mem::AllocTag::kLeaf),
            stats.requested_bytes(mem::AllocTag::kHashTable)};
  }
};

// Prints Fig. 6 for one dataset: each system's post-load MN memory, and the
// paper's two headline ratios when their systems ran (the INHT's overhead
// over plain ART, SMART's preallocation blowup over it).
void print_memory_table(const std::vector<ycsb::SystemKind>& systems,
                        const std::vector<MemoryRow>& rows, uint64_t keys) {
  auto find = [&](ycsb::SystemKind kind) -> const MemoryRow* {
    const auto it = std::find(systems.begin(), systems.end(), kind);
    return it == systems.end() ? nullptr : &rows[it - systems.begin()];
  };
  const MemoryRow* art = find(ycsb::SystemKind::kArt);
  const MemoryRow* sphinx = find(ycsb::SystemKind::kSphinx);
  const MemoryRow* smart = find(ycsb::SystemKind::kSmart);
  std::vector<std::string> header = {"system", "inner-nodes", "leaves",
                                     "hash-table", "total"};
  if (art != nullptr) header.push_back("vs-ART");
  TablePrinter table(header);
  for (size_t i = 0; i < systems.size(); ++i) {
    const MemoryRow& row = rows[i];
    std::vector<std::string> cells = {
        ycsb::system_kind_name(systems[i]), TablePrinter::fmt_bytes(row.inner),
        TablePrinter::fmt_bytes(row.leaf), TablePrinter::fmt_bytes(row.table),
        TablePrinter::fmt_bytes(row.total())};
    if (art != nullptr) {
      cells.push_back(
          TablePrinter::fmt_ratio(static_cast<double>(row.total()) /
                                  static_cast<double>(art->total())));
    }
    table.add_row(cells);
  }
  std::cout << "### Fig. 6 -- MN-side memory after loading " << keys
            << " key-value pairs (64 B values)\n";
  table.print();
  if (art != nullptr && sphinx != nullptr) {
    std::cout << "inner-node-hash-table overhead vs ART: "
              << TablePrinter::fmt_percent(
                     static_cast<double>(sphinx->total()) /
                         static_cast<double>(art->total()) -
                     1.0)
              << "  (paper: +3.3% u64 / +4.9% email)\n";
  }
  if (art != nullptr && smart != nullptr) {
    std::cout << "SMART blowup vs ART: "
              << TablePrinter::fmt_ratio(static_cast<double>(smart->total()) /
                                         static_cast<double>(art->total()))
              << "  (paper: 2.1-3.0x)\n";
  }
  std::cout << "\n";
}

// Prints one measured phase's stderr line, plus its scan, churn, reclaim
// and crash breakdowns where they apply.
void report_phase(const ycsb::RunResult& result, uint32_t workers,
                  const RecoveryAgg& agg) {
  std::cerr << "  " << result.workload << ", " << workers << " workers: "
            << TablePrinter::fmt_mops(result.ops_per_sec) << " ("
            << TablePrinter::fmt_double(result.rtts_per_op) << " rtt/op, "
            << result.latency.summary() << ")\n";
  if (result.scan_ops > 0) {
    std::cerr << "    scans: " << result.scan_ops << " ("
              << TablePrinter::fmt_double(result.scan_rtts_per_op)
              << " rtt/scan, " << agg.scan.jump_starts << " jump starts, "
              << agg.scan.widen_resumes << " widen-resumes, "
              << agg.scan.stale_retries << " stale retries, "
              << agg.scan.subtree_skips << " subtree skips, "
              << agg.scan.leaf_drops << " leaf drops, "
              << result.scan_truncated << " truncated)\n";
  }
  if (result.remove_ops > 0 || result.rmw_ops > 0) {
    std::cerr << "    churn: " << result.remove_ops << " removes ("
              << result.remove_misses << " misses), "
              << result.reused_key_inserts << " reused-key inserts, "
              << result.rmw_ops << " rmw (" << result.rmw_misses
              << " misses)\n";
  }
  if (result.retired_bytes_total > 0 || result.alloc_failures > 0) {
    std::cerr << "    reclaim: " << result.reclaimed_blocks
              << " blocks recycled, " << (result.retired_bytes_total >> 10)
              << " KiB retired ("
              << (result.retired_bytes_outstanding >> 10)
              << " KiB outstanding, " << (result.leaked_bytes >> 10)
              << " KiB leaked), " << result.epoch_advances
              << " epoch advances, " << result.expired_epoch_slots
              << " slots expired, " << result.alloc_failures
              << " alloc failures -> " << result.alloc_degraded_ops
              << " degraded ops, " << result.alloc_underflows
              << " accounting underflows\n";
  }
  if (result.client_crashes > 0 || agg.recovery.lock_reclaims > 0) {
    std::cerr << "    crashes: " << result.client_crashes
              << ", lock reclaims: " << agg.recovery.lock_reclaims << " ("
              << agg.recovery.lock_rollforwards
              << " roll-forward), lease expiries: "
              << agg.recovery.lease_expiries_observed
              << ", retry timeouts: " << agg.recovery.retry_timeouts << "\n";
  }
}

// Opens the output file --<flag> names, if any; false, with a diagnostic
// naming the flag and the path, when it cannot be written.
bool open_output(const char* flag, const std::string& path,
                 std::ofstream* out) {
  if (path.empty()) return true;
  out->open(path);
  if (*out) return true;
  std::cerr << "--" << flag << ": cannot open '" << path
            << "' for writing\n";
  return false;
}

int run(int argc, char** argv) {
  Flags flags(argc, argv);
  const uint64_t num_keys = flags.get_u64("keys", 1000000);
  const uint64_t ops_per_worker = flags.get_u64("ops", 600);
  const std::string workers_flag = flags.get_string("workers", "192");
  const std::string datasets_flag = flags.get_string("datasets", "u64,email");
  const std::string workloads_flag =
      flags.get_string("workloads", "A,B,C,D,E,L");
  // --mem-budget=<bytes>: per-MN region size override. Small budgets make
  // run-phase allocations fail; the expected outcome is degraded ops, not
  // crashes (the degraded-mode smoke asserts exactly that).
  const uint64_t mem_budget = flags.get_u64("mem-budget", 0);
  const double fault_rate = flags.get_double("faults", 0.0);
  const double crash_rate = flags.get_double("crash-rate", 0.0);
  const uint64_t fault_seed = flags.get_u64("fault-seed", 42);
  const std::string json_path = flags.get_string("json", "");
  const std::string trace_path = flags.get_string("trace", "");
  // A/B switch: run Sphinx scans without the SFC/PEC entry jump (root
  // descents, like the baselines). Point ops keep their caches.
  const bool scan_jump = !flags.get_bool("no-scan-jump", false);
  const bool root_replicas = flags.get_u64("root-replicas", 1) != 0;
  const std::string systems_flag =
      flags.get_string("systems", "sphinx,smart,smart+c,art");
  const std::string depths_flag = flags.get_string("pipeline-depth", "1");
  const std::string mns_flag = flags.get_string("mns", "3");
  flags.reject_unknown();
  std::vector<uint32_t> worker_counts;
  std::vector<ycsb::DatasetKind> datasets;
  std::vector<std::string> workload_tokens;
  std::vector<ycsb::SystemKind> systems;
  std::vector<uint32_t> depths;
  std::vector<uint32_t> mn_counts;
  if (!parse_u32_list("workers", workers_flag, &worker_counts) ||
      !parse_datasets(datasets_flag, &datasets) ||
      !parse_workloads(workloads_flag, &workload_tokens) ||
      !parse_systems(systems_flag, &systems) ||
      !parse_u32_list("pipeline-depth", depths_flag, &depths) ||
      !parse_u32_list("mns", mns_flag, &mn_counts)) {
    return 2;
  }
  std::ofstream json_out;
  std::ofstream trace_out;
  if (!open_output("json", json_path, &json_out) ||
      !open_output("trace", trace_path, &trace_out)) {
    return 2;
  }
  auto spec_for = [](const std::string& tok) {
    return tok == "churn" ? ycsb::churn_workload()
                          : ycsb::standard_workload(tok[0]);
  };
  auto ops_for = [ops_per_worker](const std::string& tok) {
    return tok == "E" || tok == "e"
               ? std::max<uint64_t>(ops_per_worker / 10, 50)
               : ops_per_worker;
  };
  // Key pool: the loaded keys plus every key the measured phases of one
  // cluster can claim (the warmup is read-only).
  uint64_t pool = num_keys + 1024;
  for (const std::string& wtok : workload_tokens) {
    for (const uint32_t workers : worker_counts) {
      pool += depths.size() *
              insert_claims(spec_for(wtok), workers, ops_for(wtok));
    }
  }
  const uint32_t max_workers =
      *std::max_element(worker_counts.begin(), worker_counts.end());
  std::vector<JsonRecord> json_records;
  // One recorder per measured phase; deque for stable addresses
  // (TraceProcess keeps pointers into it).
  std::deque<rdma::TraceRecorder> trace_recorders;
  std::vector<rdma::TraceProcess> trace_processes;
  bool attribution_ok = true;

  std::cout << "# Fig. 4 -- YCSB throughput, " << num_keys
            << " loaded keys, " << worker_counts.front() << " workers x "
            << ops_per_worker << " ops, zipfian 0.99, 64 B values\n";
  if (fault_rate > 0.0 || crash_rate > 0.0) {
    std::cout << "# fault injection on: rate=" << fault_rate
              << " crash-rate=" << crash_rate << " seed=" << fault_seed
              << "\n";
  }
  std::cout << "\n";

  for (const ycsb::DatasetKind dataset : datasets) {
    const auto keys = ycsb::generate_keys(dataset, pool, 1);

    std::vector<std::string> header = {"workload"};
    for (const ycsb::SystemKind kind : systems) {
      header.push_back(ycsb::system_kind_name(kind));
    }
    const auto art_it =
        std::find(systems.begin(), systems.end(), ycsb::SystemKind::kArt);
    const bool vs_art = art_it != systems.end() && systems.size() > 1;
    if (vs_art) header.push_back("best-vs-ART");
    TablePrinter table(header);
    std::vector<std::vector<double>> tput(
        workload_tokens.size(), std::vector<double>(systems.size(), 0.0));
    std::vector<MemoryRow> memory;
    // Fig. 5 curve tables, printed after the dataset's Fig. 4 and Fig. 6.
    std::ostringstream curves;

    for (size_t m = 0; m < mn_counts.size(); ++m) {
      for (size_t s = 0; s < systems.size(); ++s) {
        const ycsb::SystemKind kind = systems[s];
        rdma::NetworkConfig config;
        config.num_mns = mn_counts[m];
        auto cluster = make_cluster(pool, mem_budget, config);
        ycsb::SystemSetup setup(kind, *cluster,
                                cache_budget_for(kind, num_keys));
        setup.set_scan_jump(scan_jump);
        setup.set_root_replicas(root_replicas);
        ycsb::YcsbRunner runner(*cluster, setup.factory(), keys);
        runner.load(num_keys, 64);
        if (m == 0) memory.push_back(MemoryRow::of(*cluster));
        std::cerr << "[" << ycsb::dataset_name(dataset) << "] loaded "
                  << setup.name() << " (mns=" << mn_counts[m] << ")\n";

        // One short pass so CN-side caches (filter / node cache) reach
        // steady state before measurement, as in the paper's methodology.
        {
          ycsb::RunOptions warm;
          warm.workers = max_workers;
          warm.ops_per_worker = std::max<uint64_t>(ops_per_worker / 4, 200);
          runner.run(ycsb::standard_workload('C'), warm);
        }

        // Faults perturb only the measured phases; loading and warmup ran
        // clean so every system starts from an identical healthy state.
        std::unique_ptr<rdma::FaultInjector> injector;
        if (fault_rate > 0.0 || crash_rate > 0.0) {
          injector = make_fault_injector(fault_rate, fault_seed, crash_rate);
          cluster->fabric().set_fault_injector(injector.get());
        }

        // Crash-recovery counters, summed over every worker incarnation of
        // the current phase (reset between phases).
        RecoveryAgg recovery_agg;
        runner.set_per_worker_hook([&recovery_agg](KvIndex& index, uint32_t) {
          recovery_agg.add(index);
        });

        TablePrinter curve({"workload", "workers", "throughput", "eff-mean",
                            "eff-p50", "eff-p99", "stretch", "balance"});
        for (size_t w = 0; w < workload_tokens.size(); ++w) {
          const std::string& wtok = workload_tokens[w];
          for (const uint32_t depth : depths) {
            for (const uint32_t workers : worker_counts) {
              recovery_agg.reset();
              ycsb::RunOptions options;
              options.workers = workers;
              options.pipeline_depth = depth;
              options.ops_per_worker = ops_for(wtok);
              if (trace_out.is_open()) {
                trace_recorders.emplace_back();
                options.trace = &trace_recorders.back();
              }
              ycsb::RunResult result = runner.run(spec_for(wtok), options);
              // Pipelined rows keep distinct (system, dataset, workload)
              // keys in the JSON records and the regression gate.
              if (depth > 1) result.workload += ":p" + std::to_string(depth);
              if (options.trace != nullptr) {
                trace_processes.push_back(
                    {std::string(setup.name()) + "/" +
                         ycsb::dataset_name(dataset) + "/mns=" +
                         std::to_string(mn_counts[m]) + "/w=" +
                         std::to_string(workers) + "/" + result.workload,
                     options.trace});
              }
              // Attribution invariant: every round trip (and byte) carries
              // exactly one phase tag. A mismatch means a stats bump site
              // bypassed the phase accounting -- fail the whole bench run.
              if (result.net.rtts_sum_by_phase() != result.net.round_trips ||
                  result.net.bytes_sum_by_phase() !=
                      result.net.bytes_total()) {
                std::cerr << "ERROR: phase attribution mismatch for "
                          << setup.name() << "/"
                          << ycsb::dataset_name(dataset) << "/"
                          << result.workload << ": sum(phase_rtts)="
                          << result.net.rtts_sum_by_phase()
                          << " round_trips=" << result.net.round_trips
                          << " sum(phase_bytes)="
                          << result.net.bytes_sum_by_phase()
                          << " bytes_total=" << result.net.bytes_total()
                          << "\n";
                attribution_ok = false;
              }
              if (m == 0 && depth == depths.front() &&
                  workers == worker_counts.front()) {
                tput[w][s] = result.ops_per_sec;
              }
              report_phase(result, workers, recovery_agg);
              curve.add_row(
                  {result.workload, std::to_string(workers),
                   TablePrinter::fmt_mops(result.ops_per_sec),
                   TablePrinter::fmt_us(result.mean_latency_ns),
                   TablePrinter::fmt_us(result.effective_percentile_ns(50)),
                   TablePrinter::fmt_us(result.effective_percentile_ns(99)),
                   TablePrinter::fmt_double(result.latency_stretch),
                   TablePrinter::fmt_double(result.mn_msg_balance)});
              if (json_out.is_open()) {
                json_records.push_back(
                    {setup.name(), ycsb::dataset_name(dataset), mn_counts[m],
                     workers, result, recovery_agg.recovery,
                     recovery_agg.backoff, recovery_agg.scan,
                     recovery_agg.sphinx_stats});
              }
            }
          }
        }
        runner.set_per_worker_hook(nullptr);
        if (injector) {
          std::cerr << "  " << fault_summary(injector->stats()) << "\n";
          cluster->fabric().set_fault_injector(nullptr);
        }
        if (worker_counts.size() > 1 || mn_counts.size() > 1) {
          curves << "### Fig. 5 -- " << setup.name() << ", mns="
                 << mn_counts[m] << "\n"
                 << curve.render() << "\n";
        }
      }
    }

    for (size_t w = 0; w < workload_tokens.size(); ++w) {
      const std::vector<double>& r = tput[w];
      std::vector<std::string> cells = {spec_for(workload_tokens[w]).name};
      double best = 0.0;
      for (size_t i = 0; i < r.size(); ++i) {
        cells.push_back(TablePrinter::fmt_mops(r[i]));
        if (systems[i] != ycsb::SystemKind::kArt) best = std::max(best, r[i]);
      }
      if (vs_art) {
        const double art = r[static_cast<size_t>(art_it - systems.begin())];
        cells.push_back(art > 0 ? TablePrinter::fmt_ratio(best / art) : "-");
      }
      table.add_row(cells);
    }
    std::cout << "## dataset: " << ycsb::dataset_name(dataset) << "\n";
    table.print();
    std::cout << "\n";
    print_memory_table(systems, memory, num_keys);
    std::cout << curves.str() << std::flush;
  }
  if (json_out.is_open()) {
    write_json(json_out, json_records);
    std::cerr << "wrote " << json_records.size() << " records to "
              << json_path << "\n";
  }
  if (trace_out.is_open()) {
    rdma::write_chrome_trace(trace_out, trace_processes);
    uint64_t events = 0;
    uint64_t dropped = 0;
    for (const rdma::TraceRecorder& rec : trace_recorders) {
      events += rec.events().size();
      dropped += rec.dropped();
    }
    std::cerr << "wrote " << events << " trace events (" << dropped
              << " dropped at buffer capacity) to " << trace_path << "\n";
  }
  if (!attribution_ok) {
    std::cerr << "phase attribution check FAILED\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace sphinx::bench

int main(int argc, char** argv) { return sphinx::bench::run(argc, argv); }
