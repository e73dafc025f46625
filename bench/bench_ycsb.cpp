// Reproduces Fig. 4 of the paper: YCSB throughput (workloads A, B, C, D, E,
// F and LOAD) on the u64 and email datasets for Sphinx, SMART (20 MB cache),
// SMART+C (200 MB cache) and the ART baseline -- and Fig. 6, the MN-side
// memory each system holds right after its load (inner nodes, leaves, hash
// table). --workloads also accepts a csv mixing letters with "churn"
// (20/40/40 read/insert/remove), the epoch-reclamation stress mix;
// --mem-budget shrinks the per-MN heap to drive the allocator into degraded
// mode instead of crashing.
//
// The paper loads 60 M keys on a 3x128 GB testbed; the default here is a
// proportional scale-down that regenerates the figure's *shape* (who wins,
// by what factor) in minutes. Scale with --keys / --ops.
//
// Usage:
//   bench_ycsb [--keys=1000000] [--ops=600] [--workers=192]
//              [--datasets=u64,email] [--workloads=ABCDEL] [--warmup=1]
//              [--systems=sphinx,smart,smart+c,art]
//              [--mem-budget=<bytes per MN>]
//              [--faults=0.02] [--crash-rate=0.0001] [--fault-seed=42]
//              [--json=out.json] [--trace=out.trace.json] [--no-scan-jump]
//
// --systems takes a csv of ycsb::kSystemNames CLI names. Besides the four
// paper systems (the default) it runs the Sphinx cache-tier ablations:
// sphinx-nosfc (INHT only: parallel reads of every prefix's hash entry),
// sphinx-nopec (no prefix entry cache) and sphinx-nolac (no leaf address
// cache, the pre-LAC configuration bit for bit). Each variant splits the
// same CN cache budget across the tiers it keeps (ycsb/systems.cpp).
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
// (system, dataset, workload) -- throughput, RTTs/op, read bytes/op, mean
// latency, per-phase RTT/byte attribution, crash/recovery counters -- for
// regression tracking (see BENCH_seed.json and
// tools/check_bench_regression.py).
// --trace=<path> records sampled per-op trace spans (1 in 32 ops) during
// every measured phase and writes a Chrome trace_event JSON on exit; open
// it in chrome://tracing or Perfetto. One trace process per
// (system, dataset, workload).
// --pipeline-depth=<csv> runs every workload once per listed depth (e.g.
// "1,8"). Depth 1 submits batches of one, with the serial client's
// traffic; deeper runs keep N point ops in flight per worker
// (ycsb::RunOptions::pipeline_depth) and report under the workload name
// suffixed ":p<depth>" so JSON records and the regression gate keep
// distinct keys. The Fig. 4 table shows the depth-1 (paper-comparable)
// numbers; pipelined rows go to stderr and --json.
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

void write_json(const std::string& path, const std::vector<JsonRecord>& recs) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot open --json path: " << path << "\n";
    return;
  }
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
    {
      std::ostringstream hist;
      hist << "[";
      for (uint32_t b = 0; b < rdma::BackoffHistogram::kBuckets; ++b) {
        hist << (b > 0 ? ", " : "") << r.backoff.buckets[b];
      }
      hist << "]";
      w.raw_field("backoff_hist", hist.str());
    }
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

int run(int argc, char** argv) {
  Flags flags(argc, argv);
  const uint64_t num_keys = flags.get_u64("keys", 1000000);
  const uint64_t ops_per_worker = flags.get_u64("ops", 600);
  const uint32_t workers = static_cast<uint32_t>(flags.get_u64("workers", 192));
  std::vector<ycsb::DatasetKind> datasets;
  if (!parse_datasets(flags.get_string("datasets", "u64,email"), &datasets)) {
    return 2;
  }
  // Workloads: either the legacy letter string ("ABCDEL") or a csv of
  // tokens mixing letters with named mixes ("A,B,churn"). Letters map to
  // standard_workload; "churn" is the reclamation-stress mix.
  const std::string workloads_flag = flags.get_string("workloads", "ABCDEL");
  std::vector<std::string> workload_tokens;
  if (workloads_flag.find(',') == std::string::npos &&
      workloads_flag.find("churn") == std::string::npos) {
    for (char c : workloads_flag) workload_tokens.emplace_back(1, c);
  } else {
    std::stringstream ws(workloads_flag);
    std::string tok;
    while (std::getline(ws, tok, ',')) {
      if (!tok.empty()) workload_tokens.push_back(tok);
    }
  }
  for (const std::string& tok : workload_tokens) {
    if (tok != "churn" &&
        (tok.size() != 1 ||
         std::string("ABCDEFLabcdefl").find(tok[0]) == std::string::npos)) {
      std::cerr << "--workloads: unknown token '" << tok << "'\n";
      return 2;
    }
  }
  auto spec_for = [](const std::string& tok) {
    return tok == "churn" ? ycsb::churn_workload()
                          : ycsb::standard_workload(tok[0]);
  };
  // --mem-budget=<bytes>: per-MN region size override. Small budgets make
  // run-phase allocations fail; the expected outcome is degraded ops, not
  // crashes (the degraded-mode smoke asserts exactly that).
  const uint64_t mem_budget = flags.get_u64("mem-budget", 0);
  const bool warmup = flags.get_bool("warmup", true);
  const double fault_rate = flags.get_double("faults", 0.0);
  const double crash_rate = flags.get_double("crash-rate", 0.0);
  const uint64_t fault_seed = flags.get_u64("fault-seed", 42);
  const std::string json_path = flags.get_string("json", "");
  const std::string trace_path = flags.get_string("trace", "");
  // A/B switch: run Sphinx scans without the SFC/PEC entry jump (root
  // descents, like the baselines). Point ops keep their caches.
  const bool scan_jump = !flags.get_bool("no-scan-jump", false);
  std::vector<ycsb::SystemKind> systems;
  if (!parse_systems(flags.get_string("systems", "sphinx,smart,smart+c,art"),
                     &systems)) {
    return 2;
  }
  // Pipeline depths to sweep, comma-separated (default: serial only).
  std::vector<uint32_t> depths;
  const std::string depths_flag = flags.get_string("pipeline-depth", "1");
  flags.reject_unknown();
  if (!parse_u32_list("pipeline-depth", depths_flag, &depths)) {
    return 2;
  }
  auto ops_for = [ops_per_worker](const std::string& tok) {
    return tok == "E" || tok == "e"
               ? std::max<uint64_t>(ops_per_worker / 10, 50)
               : ops_per_worker;
  };
  // Key pool: the loaded keys plus every key the measured phases can claim
  // (the warmup is read-only).
  uint64_t pool = num_keys + 1024;
  for (const std::string& wtok : workload_tokens) {
    pool += depths.size() *
            insert_claims(spec_for(wtok), workers, ops_for(wtok));
  }
  std::vector<JsonRecord> json_records;
  // One recorder per measured (system, dataset, workload) phase; deque for
  // stable addresses (TraceProcess keeps pointers into it).
  std::deque<rdma::TraceRecorder> trace_recorders;
  std::vector<rdma::TraceProcess> trace_processes;
  bool attribution_ok = true;

  std::cout << "# Fig. 4 -- YCSB throughput, " << num_keys
            << " loaded keys, " << workers << " workers x " << ops_per_worker
            << " ops, zipfian 0.99, 64 B values\n";
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

    size_t sys_col = 0;
    for (const ycsb::SystemKind kind : systems) {
      auto cluster = make_cluster(pool, mem_budget);
      ycsb::SystemSetup setup(kind, *cluster, cache_budget_for(kind, num_keys));
      setup.set_scan_jump(scan_jump);
      ycsb::YcsbRunner runner(*cluster, setup.factory(), keys);
      runner.load(num_keys, 64);
      memory.push_back(MemoryRow::of(*cluster));
      std::cerr << "[" << ycsb::dataset_name(dataset) << "] loaded "
                << setup.name() << "\n";

      if (warmup) {
        // One short pass so CN-side caches (filter / node cache) reach
        // steady state before measurement, as in the paper's methodology.
        ycsb::RunOptions warm;
        warm.workers = workers;
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
      // the current workload (reset between workloads).
      RecoveryAgg recovery_agg;
      runner.set_per_worker_hook(
          [&recovery_agg](KvIndex& index, uint32_t) { recovery_agg.add(index); });

      size_t row = 0;
      for (const std::string& wtok : workload_tokens) {
        for (const uint32_t depth : depths) {
        recovery_agg.reset();
        ycsb::RunOptions options;
        options.workers = workers;
        options.pipeline_depth = depth;
        options.ops_per_worker = ops_for(wtok);
        if (!trace_path.empty()) {
          trace_recorders.emplace_back();
          options.trace = &trace_recorders.back();
        }
        ycsb::RunResult result = runner.run(spec_for(wtok), options);
        // Pipelined rows keep distinct (system, dataset, workload) keys in
        // the JSON records and the regression gate.
        if (depth > 1) result.workload += ":p" + std::to_string(depth);
        if (options.trace != nullptr) {
          trace_processes.push_back(
              {std::string(setup.name()) + "/" +
                   ycsb::dataset_name(dataset) + "/" + result.workload,
               options.trace});
        }
        // Attribution invariant: every round trip (and byte) carries exactly
        // one phase tag. A mismatch means a stats bump site bypassed the
        // phase accounting -- fail the whole bench run.
        if (result.net.rtts_sum_by_phase() != result.net.round_trips ||
            result.net.bytes_sum_by_phase() != result.net.bytes_total()) {
          std::cerr << "ERROR: phase attribution mismatch for "
                    << setup.name() << "/" << ycsb::dataset_name(dataset)
                    << "/" << result.workload << ": sum(phase_rtts)="
                    << result.net.rtts_sum_by_phase()
                    << " round_trips=" << result.net.round_trips
                    << " sum(phase_bytes)=" << result.net.bytes_sum_by_phase()
                    << " bytes_total=" << result.net.bytes_total() << "\n";
          attribution_ok = false;
        }
        // The Fig. 4 comparison table keeps the first-listed depth
        // (normally 1, the paper-comparable serial client).
        if (depth == depths.front()) {
          tput[row][sys_col] = result.ops_per_sec;
        }
        std::cerr << "  " << result.workload << ": "
                  << TablePrinter::fmt_mops(result.ops_per_sec) << " ("
                  << TablePrinter::fmt_double(result.rtts_per_op) << " rtt/op, "
                  << result.latency.summary() << ")\n";
        if (result.scan_ops > 0) {
          std::cerr << "    scans: " << result.scan_ops << " ("
                    << TablePrinter::fmt_double(result.scan_rtts_per_op)
                    << " rtt/scan, " << recovery_agg.scan.jump_starts
                    << " jump starts, " << recovery_agg.scan.widen_resumes
                    << " widen-resumes, " << recovery_agg.scan.stale_retries
                    << " stale retries, " << recovery_agg.scan.subtree_skips
                    << " subtree skips, " << recovery_agg.scan.leaf_drops
                    << " leaf drops, " << result.scan_truncated
                    << " truncated)\n";
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
                    << " blocks recycled, "
                    << (result.retired_bytes_total >> 10) << " KiB retired ("
                    << (result.retired_bytes_outstanding >> 10)
                    << " KiB outstanding, " << (result.leaked_bytes >> 10)
                    << " KiB leaked), " << result.epoch_advances
                    << " epoch advances, " << result.expired_epoch_slots
                    << " slots expired, " << result.alloc_failures
                    << " alloc failures -> " << result.alloc_degraded_ops
                    << " degraded ops, " << result.alloc_underflows
                    << " accounting underflows\n";
        }
        if (result.client_crashes > 0 ||
            recovery_agg.recovery.lock_reclaims > 0) {
          std::cerr << "    crashes: " << result.client_crashes
                    << ", lock reclaims: "
                    << recovery_agg.recovery.lock_reclaims << " ("
                    << recovery_agg.recovery.lock_rollforwards
                    << " roll-forward), lease expiries: "
                    << recovery_agg.recovery.lease_expiries_observed
                    << ", retry timeouts: "
                    << recovery_agg.recovery.retry_timeouts << "\n";
        }
        if (!json_path.empty()) {
          json_records.push_back({setup.name(), ycsb::dataset_name(dataset),
                                  result, recovery_agg.recovery,
                                  recovery_agg.backoff, recovery_agg.scan,
                                  recovery_agg.sphinx_stats});
        }
        }
        row++;
      }
      runner.set_per_worker_hook(nullptr);
      if (injector) {
        std::cerr << "  " << fault_summary(injector->stats()) << "\n";
        cluster->fabric().set_fault_injector(nullptr);
      }
      sys_col++;
    }

    size_t row = 0;
    for (const std::string& wtok : workload_tokens) {
      const std::vector<double>& r = tput[row++];
      std::vector<std::string> cells = {spec_for(wtok).name};
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
  }
  if (!json_path.empty()) {
    write_json(json_path, json_records);
    std::cerr << "wrote " << json_records.size() << " records to "
              << json_path << "\n";
  }
  if (!trace_path.empty()) {
    std::ofstream tout(trace_path);
    if (!tout) {
      std::cerr << "cannot open --trace path: " << trace_path << "\n";
    } else {
      rdma::write_chrome_trace(tout, trace_processes);
      uint64_t events = 0;
      uint64_t dropped = 0;
      for (const rdma::TraceRecorder& rec : trace_recorders) {
        events += rec.events().size();
        dropped += rec.dropped();
      }
      std::cerr << "wrote " << events << " trace events ("
                << dropped << " dropped at buffer capacity) to "
                << trace_path << "\n";
    }
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
