// Multi-threaded stress harness with per-key linearizability checking.
//
// N client threads run a mixed insert/update/lookup/scan workload against
// one index (any ycsb::SystemKind), optionally under a randomized fault
// schedule (fault_injector.h). Correctness is judged two ways:
//
//   * Linearizability keys ("lin" keys, one writer each): the writer
//     publishes started[k] = v before attempting to install version v and
//     completed[k] = v after the install returns. Any reader brackets its
//     search with lo = completed[k] (before) and hi = started[k] (after);
//     a linearizable register must return a version in [lo, hi], and the
//     key -- inserted during load, never removed -- must always be found.
//   * Churn keys (one owner each, inserted/updated/removed at random): the
//     owner tracks the expected final state in a private oracle map, which
//     is checked exactly after all threads quiesce.
//
// Scans additionally assert strict ascending key order. With a fixed seed
// and one thread, a run is bit-for-bit reproducible (verified by
// test_stress.cpp by comparing fault event logs, clocks and reports).
#pragma once

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/slice.h"
#include "core/sphinx_index.h"
#include "memnode/cluster.h"
#include "rdma/fault_injector.h"
#include "rdma/stats.h"
#include "test_util.h"
#include "ycsb/systems.h"

namespace sphinx::testing {

struct StressOptions {
  ycsb::SystemKind kind = ycsb::SystemKind::kSphinx;
  int threads = 4;
  int lin_keys_per_thread = 8;
  int churn_keys_per_thread = 64;
  int ops_per_thread = 2000;
  uint64_t seed = 42;
  // When true, installs a randomized background fault schedule (delays,
  // stalls, CAS race losses) derived from `seed`.
  bool faults = false;
  // Number of deterministic MN-outage bursts injected mid-run (rotating
  // target MN, fixed reject budget each).
  int offline_bursts = 0;
  // Probability that any tagged protocol verb kills its client. The worker
  // reincarnates with a fresh endpoint + index client (orphaned locks stay
  // set until survivors' lease watches reclaim them) and resolves the
  // crashed op's outcome by reading the key back before continuing.
  double crash_rate = 0.0;
  // Restricts crash injection to one protocol step (kAny = every tagged
  // site), so each crash window can be stressed in isolation.
  rdma::FaultSite crash_site = rdma::FaultSite::kAny;
  // Point ops kept in flight per worker. Every worker plans up to this
  // many ops, submits them as one KvIndex::execute_batch call and resolves
  // every outcome -- bracket checks, oracle updates, crash resolution --
  // against the BatchOp done/ok contract; 1 (and 0) submit batches of one.
  // A second mutation of a key already mutated in the current batch is
  // demoted to an unchecked read (batch-internal order is unspecified, so
  // chaining two mutations of one key inside a batch has no serial
  // oracle); scans close the batch and run alone after it.
  int pipeline_depth = 1;
  // When > 0, every worker waits at a shared barrier before each run of
  // `lockstep_ops` ops. Workers then interleave at least at that
  // granularity even when host scheduling would otherwise run them one
  // after another, so cross-worker effects (a reader's cached binding
  // going stale under another worker's mutation) are reliably exercised.
  // Batches stop at each run's end, so every worker reaches every barrier
  // at any depth.
  int lockstep_ops = 0;
};

struct StressReport {
  uint64_t lin_violations = 0;         // version outside [lo, hi] / lost key
  uint64_t scan_order_violations = 0;  // scan output not strictly ascending
  uint64_t oracle_mismatches = 0;      // quiesced state != churn oracle
  // One line per oracle mismatch: the key, its oracle state, what the
  // verifier read, and the event that last decided the oracle's state
  // (completed op, crash or timeout resolution) with its worker, op index
  // and crash site.
  std::string lost_keys;
  uint64_t failed_ops = 0;             // op the oracle says must succeed
  uint64_t total_ops = 0;
  uint64_t final_clock_ns = 0;  // sum of worker virtual clocks
  rdma::FaultStats fault_stats;
  // Prefix-entry-cache traffic summed over Sphinx workers (zero for other
  // systems or with the PEC disabled).
  uint64_t pec_hits = 0;
  uint64_t pec_stale = 0;
  uint64_t speculative_wins = 0;
  uint64_t speculative_losses = 0;
  // Staleness observed by verify_quiesced's *second* pass: the first pass
  // purged or refreshed every entry it touched, so a coherent PEC yields 0
  // here -- stale entries self-heal instead of festering.
  uint64_t pec_second_pass_stale = 0;
  // Leaf-address-cache traffic, same discipline as the PEC counters.
  // lac_wrong_value is the tripwire: a speculative leaf read that passed
  // validation but would have returned bytes for the wrong key. Any
  // nonzero count is a coherence bug (clean() fails on it).
  uint64_t lac_hits = 0;
  uint64_t lac_stale = 0;
  uint64_t lac_wrong_value = 0;
  uint64_t lac_second_pass_stale = 0;
  // Pipelined-client traffic (pipeline_depth > 1, Sphinx only): point ops
  // whose leaf reads were merged into shared doorbell rounds, the number
  // of those fused rounds, and the searches decided by the staged rounds
  // after them (the miss path). Zero in serial runs.
  uint64_t batch_fused_ops = 0;
  uint64_t batch_fused_rounds = 0;
  uint64_t batch_shared_ops = 0;
  // Crash-tolerance accounting: injected client deaths, post-crash reads
  // that observed a state outside the crashed op's acceptable set (old xor
  // new -- a torn or lost-ack outcome), mutations that honestly exhausted
  // their retry budget while a dead client's lease ran out (verified
  // no-torn-effect, not counted as failures), and lock-recovery counters
  // summed over every worker incarnation (tree + INHT).
  uint64_t client_crashes = 0;
  uint64_t crash_resolve_violations = 0;
  uint64_t crash_timeouts = 0;
  rdma::RecoveryStats recovery;
  // Epoch-based reclamation pipeline, read off the shared cluster after
  // the run quiesces (memnode/epoch.h): blocks recycled through the
  // freelists, quarantine level vs total flow (a stuck epoch shows as
  // outstanding ~= total), accounting-drift tripwire, epoch progress, and
  // crashed-slot expiries (a dead worker must not pin the epoch forever).
  uint64_t reclaimed_blocks = 0;
  uint64_t retired_bytes_total = 0;
  uint64_t retired_bytes_outstanding = 0;
  uint64_t alloc_underflows = 0;
  uint64_t epoch_advances = 0;
  uint64_t expired_epoch_slots = 0;

  bool clean() const {
    return lin_violations == 0 && scan_order_violations == 0 &&
           oracle_mismatches == 0 && failed_ops == 0 &&
           crash_resolve_violations == 0 && lac_wrong_value == 0;
  }
};

class StressHarness {
 public:
  explicit StressHarness(const StressOptions& options)
      : options_(options),
        cluster_(make_test_cluster()),
        setup_(options.kind, *cluster_, ycsb::kDefaultCacheBudget),
        injector_(options.seed),
        lin_count_(static_cast<size_t>(options.threads) *
                   static_cast<size_t>(options.lin_keys_per_thread)),
        started_(lin_count_),
        completed_(lin_count_) {}

  StressReport run() {
    StressReport report;
    load_lin_keys();

    if (options_.faults) arm_background_schedule();
    if (options_.crash_rate > 0.0) {
      rdma::FaultRule crash;
      crash.kind = rdma::FaultKind::kClientCrash;
      crash.probability = options_.crash_rate;
      crash.site = options_.crash_site;
      injector_.add_rule(crash);
    }
    if (options_.faults || options_.offline_bursts > 0 ||
        options_.crash_rate > 0.0) {
      cluster_->fabric().set_fault_injector(&injector_);
    }

    std::vector<ChurnOracle> oracles(static_cast<size_t>(options_.threads));
    std::atomic<uint64_t> lin_violations{0};
    std::atomic<uint64_t> scan_violations{0};
    std::atomic<uint64_t> failed_ops{0};
    std::atomic<uint64_t> clock_sum{0};

    std::barrier lockstep(options_.threads);
    std::vector<std::thread> workers;
    for (int t = 0; t < options_.threads; ++t) {
      workers.emplace_back([&, t] {
        worker(t, &oracles[static_cast<size_t>(t)], &lin_violations,
               &scan_violations, &failed_ops, &clock_sum, &lockstep);
      });
    }
    if (options_.offline_bursts > 0) run_outage_controller();
    for (auto& w : workers) w.join();

    // Quiesce: verification happens on a pristine fabric.
    cluster_->fabric().set_fault_injector(nullptr);

    report.lin_violations = lin_violations.load();
    report.scan_order_violations = scan_violations.load();
    report.failed_ops = failed_ops.load();
    report.total_ops = static_cast<uint64_t>(options_.threads) *
                       static_cast<uint64_t>(options_.ops_per_thread);
    report.final_clock_ns = clock_sum.load();
    report.fault_stats = injector_.stats();
    report.pec_hits = pec_hits_.load();
    report.pec_stale = pec_stale_.load();
    report.speculative_wins = spec_wins_.load();
    report.speculative_losses = spec_losses_.load();
    report.lac_hits = lac_hits_.load();
    report.lac_stale = lac_stale_.load();
    report.batch_fused_ops = batch_fused_ops_.load();
    report.batch_fused_rounds = batch_fused_rounds_.load();
    report.batch_shared_ops = batch_shared_ops_.load();
    report.client_crashes = crashes_.load();
    report.crash_timeouts = crash_timeouts_.load();
    verify_quiesced(oracles, &report);
    // After verification: crashes near the end of the run leave orphan
    // locks that only the verifier's reads reclaim, and its client stats
    // are salvaged into recovery_ like any other incarnation's.
    report.crash_resolve_violations = crash_resolve_violations_.load();
    // After verify_quiesced so the verifier's own reads are audited too.
    report.lac_wrong_value = lac_wrong_value_.load();
    {
      std::lock_guard<std::mutex> lock(recovery_mu_);
      report.recovery = recovery_;
    }
    // After verification every worker incarnation's allocator has been
    // destroyed (flushing or donating its quarantine), so these are the
    // run's settled reclamation totals.
    report.reclaimed_blocks = cluster_->alloc_stats().reclaimed_blocks();
    report.retired_bytes_total = cluster_->alloc_stats().retired_bytes_total();
    report.retired_bytes_outstanding =
        cluster_->alloc_stats().retired_bytes_outstanding();
    report.alloc_underflows = cluster_->alloc_stats().underflows();
    report.epoch_advances = cluster_->epochs().advances();
    report.expired_epoch_slots = cluster_->epochs().expired_slots();
    return report;
  }

  rdma::FaultInjector& injector() { return injector_; }

 private:
  // Key naming: readable strings whose varied lengths exercise ART path
  // compression.
  static std::string lin_key(int t, int i) {
    return "lin:" + std::to_string(t) + ":" + std::to_string(i);
  }

  static std::string churn_key(int t, int i) {
    return "churn:" + std::to_string(t) + ":" + std::to_string(i);
  }

  size_t lin_slot(int t, int i) const {
    return static_cast<size_t>(t) *
               static_cast<size_t>(options_.lin_keys_per_thread) +
           static_cast<size_t>(i);
  }

  static std::string lin_value(int64_t version) {
    return "v:" + std::to_string(version);
  }

  static int64_t parse_lin_version(const std::string& value) {
    if (value.size() < 3 || value[0] != 'v' || value[1] != ':') return -1;
    return std::atoll(value.c_str() + 2);
  }

  void load_lin_keys() {
    // Loading happens before the injector is installed; version 0 of every
    // lin key is durably in place when the clock starts.
    rdma::Endpoint ep(cluster_->fabric(), 0, /*metered=*/false);
    mem::RemoteAllocator alloc(*cluster_, ep);
    auto loader = setup_.make_client(0, ep, alloc);
    for (int t = 0; t < options_.threads; ++t) {
      for (int i = 0; i < options_.lin_keys_per_thread; ++i) {
        loader->insert(lin_key(t, i), lin_value(0));
        started_[lin_slot(t, i)].store(0);
        completed_[lin_slot(t, i)].store(0);
      }
    }
  }

  void arm_background_schedule() {
    rdma::FaultRule delay;
    delay.kind = rdma::FaultKind::kDelay;
    delay.probability = 0.05;
    delay.delay_ns = 400;
    injector_.add_rule(delay);

    rdma::FaultRule stall;
    stall.kind = rdma::FaultKind::kStall;
    stall.probability = 0.01;
    stall.delay_ns = 2000;
    injector_.add_rule(stall);

    rdma::FaultRule casfail;
    casfail.kind = rdma::FaultKind::kCasFail;
    casfail.probability = 0.03;
    casfail.site = rdma::FaultSite::kAny;
    injector_.add_rule(casfail);
  }

  void run_outage_controller() {
    // Deterministic self-terminating bursts (countdown rejects), spaced by
    // real sleeps so they land at varied points of the run.
    const uint32_t num_mns = cluster_->config().num_mns;
    for (int b = 0; b < options_.offline_bursts; ++b) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      injector_.arm_mn_offline(static_cast<uint32_t>(b) % num_mns, 250);
    }
  }

  // Identifies the mutation whose outcome became unknown (crash or retry
  // timeout), so the resolution read knows the acceptable state set.
  enum class OpKind { kNone, kLinWrite, kChurnInsert, kChurnUpdate,
                      kChurnRemove };
  static constexpr const char* kOpKindName[] = {"read", "lin write", "insert",
                                                "update", "remove"};

  // The last event that decided a churn key's oracle state: a completed
  // op, or the read-back resolving a crashed or timed-out one. Named in
  // the report when the quiesced state disagrees with the oracle.
  struct KeyEvent {
    const char* what = "completed";
    OpKind kind = OpKind::kNone;
    int op = 0;
    rdma::FaultSite site = rdma::FaultSite::kNone;  // crash resolutions
  };

  // One worker's churn stripe: the expected final state of each key it
  // owns, and the event that last decided it.
  struct ChurnOracle {
    std::map<std::string, std::string> state;
    std::map<std::string, KeyEvent> last;
  };

  // Folds one retiring index client's internal counters into the harness
  // totals (called for every incarnation, including ones that crashed).
  void salvage_client_stats(KvIndex* index) {
    if (index == nullptr) return;
    if (const auto* sx = dynamic_cast<core::SphinxIndex*>(index)) {
      pec_hits_.fetch_add(sx->sphinx_stats().pec_hits);
      pec_stale_.fetch_add(sx->sphinx_stats().pec_stale);
      spec_wins_.fetch_add(sx->sphinx_stats().speculative_wins);
      spec_losses_.fetch_add(sx->sphinx_stats().speculative_losses);
      lac_hits_.fetch_add(sx->sphinx_stats().lac_hits);
      lac_stale_.fetch_add(sx->sphinx_stats().lac_stale);
      lac_wrong_value_.fetch_add(sx->sphinx_stats().lac_wrong_value);
      batch_fused_ops_.fetch_add(sx->sphinx_stats().batch_fused_ops);
      batch_fused_rounds_.fetch_add(sx->sphinx_stats().batch_fused_rounds);
      batch_shared_ops_.fetch_add(sx->sphinx_stats().batch_shared_ops);
    }
    std::lock_guard<std::mutex> lock(recovery_mu_);
    if (const auto* tree = dynamic_cast<art::RemoteTree*>(index)) {
      recovery_ += tree->tree_stats().recovery;
    }
    if (auto* sx = dynamic_cast<core::SphinxIndex*>(index)) {
      recovery_ += sx->inht().aggregated_stats().recovery;
    }
  }

  void worker(int t, ChurnOracle* oracle,
              std::atomic<uint64_t>* lin_violations,
              std::atomic<uint64_t>* scan_violations,
              std::atomic<uint64_t>* failed_ops,
              std::atomic<uint64_t>* clock_sum, std::barrier<>* lockstep) {
    // The client triple lives behind pointers so an injected crash can kill
    // it: the dead endpoint is abandoned (locks it held stay orphaned until
    // another client's lease watch expires) and a successor with a distinct
    // fault id and the same virtual clock takes over.
    std::unique_ptr<rdma::Endpoint> ep;
    std::unique_ptr<mem::RemoteAllocator> alloc;
    std::unique_ptr<KvIndex> index;
    uint32_t generation = 0;
    uint64_t clock_carry = 0;
    auto incarnate = [&] {
      if (ep) clock_carry = ep->clock_ns();
      salvage_client_stats(index.get());
      index.reset();
      alloc.reset();
      ep = std::make_unique<rdma::Endpoint>(cluster_->fabric(),
                                            static_cast<uint32_t>(t) % 3, true);
      ep->set_fault_client_id(static_cast<uint32_t>(t) + 1000u * generation);
      ep->set_clock_ns(clock_carry);
      alloc = std::make_unique<mem::RemoteAllocator>(*cluster_, *ep);
      index = setup_.make_client(static_cast<uint32_t>(t) % 3, *ep, *alloc);
    };
    incarnate();
    // The one crash-reincarnation path: runs one submission and, when an
    // injected crash kills the client mid-way, hands the rest of the run to
    // a successor and keeps the crash site for the resolution report.
    // Returns false on a crash.
    rdma::FaultSite crash_site = rdma::FaultSite::kNone;
    auto survive = [&](auto&& submit) {
      try {
        submit();
        return true;
      } catch (const rdma::ClientCrashed& crash) {
        crashes_.fetch_add(1);
        crash_site = crash.site;
        ++generation;
        incarnate();
        return false;
      }
    };
    // Post-crash resolution reads must eventually succeed: each one is
    // retried through every crash that cuts it.
    auto read_back = [&](const std::string& key, std::string* cur) {
      bool found = false;
      while (!survive([&] { found = index->search(key, cur); })) {
      }
      return found;
    };
    // A crashed op's outcome is frozen at the crash point: either it
    // linearized or it did not, and nothing retries it. Reading the key
    // back (which reclaims any lock the dead client orphaned on that path)
    // must therefore observe exactly the old or the new state.
    auto resolve_lin_write = [&](size_t slot, const std::string& key,
                                 int64_t ver) {
      std::string cur;
      if (!read_back(key, &cur)) {
        (*lin_violations)++;  // lin keys are never removed
        return;
      }
      const int64_t got = parse_lin_version(cur);
      if (got == ver) {
        completed_[slot].store(ver);  // the write linearized before the crash
      } else if (got != completed_[slot].load()) {
        crash_resolve_violations_.fetch_add(1);
      }
    };
    // Same resolution for a churn mutation: the observed state must be the
    // old one or the attempted one, and the oracle is re-pointed at it so
    // the quiesced check stays exact.
    auto resolve_churn = [&](OpKind kind, const std::string& key,
                             const std::string& value, const std::string& old) {
      std::string cur;
      const bool found = read_back(key, &cur);
      bool ok = false;
      switch (kind) {
        case OpKind::kChurnInsert:
          ok = !found || cur == value;
          break;
        case OpKind::kChurnUpdate:
          ok = found && (cur == value || cur == old);
          break;
        case OpKind::kChurnRemove:
          ok = !found || cur == old;
          break;
        default:
          break;
      }
      if (!ok) crash_resolve_violations_.fetch_add(1);
      if (found) {
        oracle->state[key] = cur;
      } else {
        oracle->state.erase(key);
      }
    };

    Rng rng(options_.seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(t));
    std::vector<int64_t> my_version(
        static_cast<size_t>(options_.lin_keys_per_thread), 0);
    std::vector<std::pair<std::string, std::string>> scan_out;

    // Plan a batch of point ops locally (publishing started_ for lin writes
    // at plan time -- the bracket [lo-at-plan, hi-after-batch] is a
    // superset of each op's own interval, so the linearizability check
    // stays sound), submit one execute_batch call, then resolve every
    // outcome in plan order. Depth 1 is a batch of one. Ops a crash left
    // with done == false resolve by reading the key back. A scan draw
    // closes the batch and runs alone after it.
    struct Planned {
      OpKind kind = OpKind::kNone;  // mutation class, for resolution
      bool lin_checked = false;     // lin read with bracket check
      size_t slot = 0;
      int64_t lo = 0;    // lin read: completed_ observed at plan time
      int64_t ver = 0;   // lin write version
      std::string key;
      std::string value;  // attempted value (insert/update)
      std::string old;    // previous oracle value (update/remove)
    };
    const size_t depth =
        static_cast<size_t>(std::max(1, options_.pipeline_depth));
    std::vector<Planned> plan(depth);
    std::vector<BatchOp> batch(depth);
    std::vector<std::string> read_bufs(depth);
    std::set<std::string> batch_muts;  // keys already mutated this batch
    int op = 0;
    while (op < options_.ops_per_thread) {
      // A batch never straddles a lockstep boundary, so every worker stops
      // at each boundary and waits there the same number of times.
      int limit = options_.ops_per_thread;
      if (options_.lockstep_ops > 0) {
        const int round = op / options_.lockstep_ops;
        if (op % options_.lockstep_ops == 0) lockstep->arrive_and_wait();
        limit = std::min(limit, (round + 1) * options_.lockstep_ops);
      }
      size_t planned = 0;
      bool have_scan = false;
      int scan_t = 0;
      batch_muts.clear();
      while (planned < depth && op + static_cast<int>(planned) < limit) {
        const uint64_t r = rng.next_below(100);
        Planned& p = plan[planned];
        p = Planned{};
        BatchOp& b = batch[planned];
        b = BatchOp{};
        if (r >= 90) {
          // Scan from a random lin key: keys must come back strictly
          // ascending no matter what is in flight.
          scan_t = static_cast<int>(rng.next_below(
              static_cast<uint64_t>(options_.threads)));
          have_scan = true;
          break;
        }
        if (r < 35) {
          // Lin read of anyone's key, with the bracket check.
          const int ot = static_cast<int>(rng.next_below(
              static_cast<uint64_t>(options_.threads)));
          const int oi = static_cast<int>(rng.next_below(
              static_cast<uint64_t>(options_.lin_keys_per_thread)));
          p.lin_checked = true;
          p.slot = lin_slot(ot, oi);
          p.lo = completed_[p.slot].load();
          p.key = lin_key(ot, oi);
        } else if (r < 50) {
          // Lin write: bump the version of one of my keys.
          const int i = static_cast<int>(rng.next_below(
              static_cast<uint64_t>(options_.lin_keys_per_thread)));
          p.key = lin_key(t, i);
          // A key already mutated in this batch demotes to an unchecked
          // read: batch-internal order is unspecified, so two mutations of
          // one key inside a batch have no oracle.
          if (batch_muts.insert(p.key).second) {
            const int64_t ver = ++my_version[static_cast<size_t>(i)];
            b.kind = BatchOp::Kind::kUpdate;
            p.kind = OpKind::kLinWrite;
            p.slot = lin_slot(t, i);
            p.ver = ver;
            p.value = lin_value(ver);
            started_[p.slot].store(ver);
          }
        } else if (r < 80) {
          // Churn on my own stripe, mirrored in the oracle.
          const int i = static_cast<int>(rng.next_below(
              static_cast<uint64_t>(options_.churn_keys_per_thread)));
          p.key = churn_key(t, i);
          if (batch_muts.insert(p.key).second) {
            auto it = oracle->state.find(p.key);
            const std::string value =
                "c:" + std::to_string(op + static_cast<int>(planned));
            if (it == oracle->state.end()) {
              b.kind = BatchOp::Kind::kInsert;
              p.kind = OpKind::kChurnInsert;
              p.value = value;
            } else if (rng.next_below(3) == 0) {
              b.kind = BatchOp::Kind::kRemove;
              p.kind = OpKind::kChurnRemove;
              p.old = it->second;
            } else {
              b.kind = BatchOp::Kind::kUpdate;
              p.kind = OpKind::kChurnUpdate;
              p.value = value;
              p.old = it->second;
            }
          }
        } else {
          // Cross-stripe read: result races with the owner; no assertion.
          const int ot = static_cast<int>(rng.next_below(
              static_cast<uint64_t>(options_.threads)));
          const int oi = static_cast<int>(rng.next_below(
              static_cast<uint64_t>(options_.churn_keys_per_thread)));
          p.key = churn_key(ot, oi);
        }
        // BatchOps carry Slices: set them once the planned key and value
        // strings are final.
        b.key = Slice(p.key);
        b.value = Slice(p.value);
        if (b.kind == BatchOp::Kind::kSearch) b.value_out = &read_bufs[planned];
        planned++;
      }
      if (planned > 0) {
        survive([&] { index->execute_batch(batch.data(), planned); });
        // The batch's crash site, kept before a read-back below crashes.
        const rdma::FaultSite site = crash_site;
        for (size_t i = 0; i < planned; ++i) {
          const Planned& p = plan[i];
          const BatchOp& b = batch[i];
          if (p.kind == OpKind::kNone) {
            // Reads abandoned by a crash carry no state to resolve.
            if (b.done && p.lin_checked) {
              const int64_t hi = started_[p.slot].load();
              if (!b.ok) {
                (*lin_violations)++;  // lin keys are never removed
              } else {
                const int64_t ver = parse_lin_version(read_bufs[i]);
                if (ver < p.lo || ver > hi) (*lin_violations)++;
              }
            }
          } else if (p.kind == OpKind::kLinWrite) {
            if (!b.done) {
              resolve_lin_write(p.slot, p.key, p.ver);
            } else if (b.ok) {
              completed_[p.slot].store(p.ver);
            } else if (options_.crash_rate > 0.0) {
              // Bounded retries may honestly give up while a dead client's
              // lease runs out; like a crash, the outcome is unknown and
              // must resolve to exactly the old or the new state.
              crash_timeouts_.fetch_add(1);
              resolve_lin_write(p.slot, p.key, p.ver);
            } else {
              (*failed_ops)++;  // the key exists; update must succeed
            }
          } else {
            KeyEvent& ev = oracle->last[p.key];
            ev = KeyEvent{"completed", p.kind, op + static_cast<int>(i)};
            if (!b.done) {
              ev.what = "crash resolution";
              ev.site = site;
              resolve_churn(p.kind, p.key, p.value, p.old);
            } else if (b.ok) {
              if (p.kind == OpKind::kChurnRemove) {
                oracle->state.erase(p.key);
              } else {
                oracle->state[p.key] = p.value;
              }
            } else if (options_.crash_rate > 0.0) {
              ev.what = "timeout resolution";
              crash_timeouts_.fetch_add(1);
              resolve_churn(p.kind, p.key, p.value, p.old);
            } else {
              ev.what = "failed";
              (*failed_ops)++;
            }
          }
        }
        op += static_cast<int>(planned);
      }
      if (have_scan) {
        survive([&] {
          scan_out.clear();
          index->scan(lin_key(scan_t, 0), 16, &scan_out);
          for (size_t j = 1; j < scan_out.size(); ++j) {
            if (scan_out[j - 1].first >= scan_out[j].first) {
              (*scan_violations)++;
            }
          }
        });
        op += 1;
      }
    }
    clock_sum->fetch_add(ep->clock_ns());
    salvage_client_stats(index.get());
  }

  // One report line per churn key whose quiesced state disagrees with
  // its oracle: both states and the event that last decided the oracle's.
  static std::string describe_mismatch(const std::string& key, int owner,
                                       const ChurnOracle& oracle,
                                       bool found, const std::string& read) {
    auto it = oracle.state.find(key);
    std::string line = key + ": oracle=" +
                       (it == oracle.state.end() ? "absent" : it->second) +
                       " read=" + (found ? read : "absent") + " last=";
    auto ev = oracle.last.find(key);
    if (ev == oracle.last.end()) return line + "none\n";
    line += std::string(ev->second.what) + " " +
            kOpKindName[static_cast<int>(ev->second.kind)] + " by worker " +
            std::to_string(owner) + " at op " + std::to_string(ev->second.op);
    if (ev->second.site != rdma::FaultSite::kNone) {
      line += " (crash site " +
              std::to_string(static_cast<int>(ev->second.site)) + ")";
    }
    return line + "\n";
  }

  void verify_quiesced(const std::vector<ChurnOracle>& oracles,
                       StressReport* report) {
    rdma::Endpoint ep(cluster_->fabric(), 0, true);
    mem::RemoteAllocator alloc(*cluster_, ep);
    auto verifier = setup_.make_client(0, ep, alloc);
    std::string v;

    // Every lin key ends at exactly its writer's last completed version.
    for (int t = 0; t < options_.threads; ++t) {
      for (int i = 0; i < options_.lin_keys_per_thread; ++i) {
        if (!verifier->search(lin_key(t, i), &v)) {
          report->lin_violations++;
          continue;
        }
        const int64_t want = completed_[lin_slot(t, i)].load();
        if (parse_lin_version(v) != want) report->lin_violations++;
      }
    }

    // Churn stripes must match their oracles exactly (both directions).
    for (int t = 0; t < options_.threads; ++t) {
      const ChurnOracle& oracle = oracles[static_cast<size_t>(t)];
      for (int i = 0; i < options_.churn_keys_per_thread; ++i) {
        const std::string k = churn_key(t, i);
        const bool found = verifier->search(k, &v);
        auto it = oracle.state.find(k);
        const bool want = it != oracle.state.end();
        if (found != want || (found && v != it->second)) {
          report->oracle_mismatches++;
          report->lost_keys += describe_mismatch(k, t, oracle, found, v);
        }
      }
    }

    // Cache self-heal: the pass above purged or refreshed every stale PEC
    // and LAC entry it touched (validation failure -> invalidate_if ->
    // re-adopt / repopulate), so re-reading the same keys must observe
    // zero new staleness in either tier.
    if (auto* sx = dynamic_cast<core::SphinxIndex*>(verifier.get())) {
      const uint64_t pec_stale_before = sx->sphinx_stats().pec_stale;
      const uint64_t lac_stale_before = sx->sphinx_stats().lac_stale;
      for (int t = 0; t < options_.threads; ++t) {
        for (int i = 0; i < options_.lin_keys_per_thread; ++i) {
          verifier->search(lin_key(t, i), &v);
        }
        for (int i = 0; i < options_.churn_keys_per_thread; ++i) {
          verifier->search(churn_key(t, i), &v);
        }
      }
      report->pec_second_pass_stale =
          sx->sphinx_stats().pec_stale - pec_stale_before;
      report->lac_second_pass_stale =
          sx->sphinx_stats().lac_stale - lac_stale_before;
    }
    salvage_client_stats(verifier.get());
  }

  StressOptions options_;
  std::unique_ptr<mem::Cluster> cluster_;
  ycsb::SystemSetup setup_;
  rdma::FaultInjector injector_;

  size_t lin_count_;
  // Indexed by lin_slot(); written by each key's single owner, read by all.
  std::vector<std::atomic<int64_t>> started_;
  std::vector<std::atomic<int64_t>> completed_;
  // Per-worker Sphinx PEC/LAC stats, summed as each worker retires.
  std::atomic<uint64_t> pec_hits_{0};
  std::atomic<uint64_t> pec_stale_{0};
  std::atomic<uint64_t> spec_wins_{0};
  std::atomic<uint64_t> spec_losses_{0};
  std::atomic<uint64_t> lac_hits_{0};
  std::atomic<uint64_t> lac_stale_{0};
  std::atomic<uint64_t> lac_wrong_value_{0};
  std::atomic<uint64_t> batch_fused_ops_{0};
  std::atomic<uint64_t> batch_fused_rounds_{0};
  std::atomic<uint64_t> batch_shared_ops_{0};
  // Crash-tolerance accounting (see StressReport).
  std::atomic<uint64_t> crashes_{0};
  std::atomic<uint64_t> crash_resolve_violations_{0};
  std::atomic<uint64_t> crash_timeouts_{0};
  std::mutex recovery_mu_;
  rdma::RecoveryStats recovery_;  // summed over all retired incarnations
};

inline StressReport run_stress(const StressOptions& options) {
  return StressHarness(options).run();
}

}  // namespace sphinx::testing
