// Multi-worker YCSB runner over the simulated DM cluster.
//
// Worker model: the paper drives each system with coroutine workers spread
// over 3 CNs; here every worker is an OS thread owning one Endpoint (its
// virtual clock plays the coroutine's timeline) and one index client
// produced by the caller's factory. Worker timelines stay independent and
// carry unloaded costs only; after the join, the fluid capacity model
// stretches the phase by the busiest NIC's utilization (DESIGN.md Sec. 2),
// so adding workers saturates the fabric like adding coroutines saturates
// the real NICs.
//
// Reported throughput = total ops / stretched makespan; latency histograms
// aggregate per-op virtual durations (see RunResult).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/kv_index.h"
#include "memnode/cluster.h"
#include "memnode/remote_allocator.h"
#include "rdma/endpoint.h"
#include "ycsb/workload.h"

namespace sphinx::ycsb {

// Builds a per-worker index client bound to the worker's endpoint and
// allocator. `cn` identifies the compute node the worker lives on, so the
// factory can hand out per-CN shared state (filter cache, node cache).
using IndexFactory = std::function<std::unique_ptr<KvIndex>(
    uint32_t worker_id, uint32_t cn, rdma::Endpoint& endpoint,
    mem::RemoteAllocator& allocator)>;

// Called per worker after its ops complete, before the index client is
// destroyed (e.g. to aggregate system-internal statistics).
using PerWorkerHook = std::function<void(KvIndex&, uint32_t worker_id)>;

struct RunOptions {
  uint32_t workers = 6;
  uint64_t ops_per_worker = 10000;
  uint64_t seed = 42;
  // When non-null, 1-in-`trace_sample` ops record trace spans (an enclosing
  // "op:*" span plus one phase-named span per round trip) into per-worker
  // bounded buffers that are merged into `trace` after the join. Null (the
  // default) leaves the endpoints' trace hook detached: virtual clocks and
  // stats are bit-identical to an untraced run.
  rdma::TraceRecorder* trace = nullptr;
  uint32_t trace_sample = 32;
  // Point ops kept in flight per worker. Each worker runs one op loop at
  // every depth: it plans up to this many ops -- drawing the workload
  // stream (roll, then key index) in op order -- and submits them as one
  // KvIndex::execute_batch call, letting pipelined clients fuse round
  // trips across ops. 1 (the default) and 0 submit batches of one, whose
  // traffic matches the serial client's (pinned by
  // Runner.Depth1TrafficMatchesRecordedFingerprint). A scan or RMW draw
  // closes the current batch and runs alone after it: scans have no batch
  // form, and an RMW's write depends on its read. With tracing on, a batch
  // of two or more ops records one "op:batch" span; a batch of one, a scan
  // and an RMW record their own "op:<kind>" span.
  uint32_t pipeline_depth = 1;
};

struct RunResult {
  std::string workload;
  uint64_t total_ops = 0;
  uint64_t misses = 0;        // reads/updates of not-yet-visible keys
  uint64_t insert_overflow = 0;  // insert pool exhausted (fell back to update)
  // Run-phase inserts whose index->insert() returned false. Failed inserts
  // do NOT advance the visible set; the claimed key stays a hole in the
  // pool and later reads of it count as misses. The latest distribution's
  // watermark still moves past the hole: every fresh claim is acknowledged
  // once its insert has finished, landed, failed or abandoned by a crash,
  // and never before. Zero in any fault-free run.
  uint64_t insert_failures = 0;
  // Injected client crashes (kClientCrash faults). Each kills one worker
  // mid-op; the runner reincarnates it with a fresh endpoint + index client
  // and carries its virtual clock forward. The in-flight op is abandoned
  // (its fate, like a real crashed client's, is decided by the survivors'
  // lock reclamation).
  uint64_t client_crashes = 0;
  // Effective wall time of the phase on the simulated cluster: the longest
  // worker timeline, stretched by the NIC-capacity model when the phase
  // demands more NIC service time than the fabric can supply (fluid
  // queueing approximation -- this is what makes message-hungry systems
  // saturate first, reproducing the paper's Fig. 5 shape).
  double sim_seconds = 0;
  double ops_per_sec = 0;
  // Busiest-NIC utilization at unloaded pacing; > 1 means saturated. This
  // is the max over the per-NIC vectors below.
  double nic_utilization = 0;
  // Per-NIC utilization at unloaded pacing (service demand placed on that
  // NIC divided by the unloaded makespan). MN entries charge both the
  // per-message processing time and the byte/bandwidth term; CN entries
  // charge the same two terms for everything the CN's workers put on the
  // wire (a CN NIC byte-saturates on large transfers exactly like an MN
  // NIC -- the old model forgot the CN byte term).
  std::vector<double> mn_utilization;
  std::vector<double> cn_utilization;
  // Placement-balance figure: busiest-MN messages over mean-per-MN
  // messages. 1.0 is a perfectly balanced cluster; a hot MN pushes it
  // toward num_mns. The knee study reports this next to every curve so
  // placement skew is never mistaken for capacity exhaustion.
  double mn_msg_balance = 1.0;
  // Latency is dual-reported and the two views differ exactly by the
  // NIC-capacity stretch factor `latency_stretch` = max(1, nic_utilization):
  //  * `latency` (and mean_unloaded_latency_ns) is the per-op distribution
  //    at unloaded pacing -- no NIC queueing applied, what each op cost on
  //    its own virtual timeline. Under pipelining (pipeline_depth > 1) an
  //    op's sample spans batch submit to *that op's* completion stamp
  //    (BatchOp::done_clock_ns), so in-batch queueing is measured per op
  //    -- ops finished by an early fused round trip record less than ops
  //    serialized behind them in the same batch -- rather than dividing
  //    the batch's wall time evenly by its depth;
  //  * `mean_latency_ns` and effective_percentile_ns() are *effective*
  //    (queueing-adjusted) figures consistent with the reported throughput
  //    via Little's law with L = min(workers x pipeline_depth, total_ops)
  //    ops in flight (clamped: a phase with fewer ops than the nominal
  //    window never has the full window in flight).
  //    On an unsaturated fabric at depth 1 the two views coincide.
  double mean_latency_ns = 0;
  double mean_unloaded_latency_ns = 0;
  // Makespan stretch: max(1, nic_utilization). The *busiest* NIC gates
  // when the whole phase can finish, so throughput is always derated by
  // this factor; per-op latency is NOT (see latency_effective).
  double latency_stretch = 1.0;
  // Per-op latency distribution at unloaded pacing (no queueing applied).
  LatencyHistogram latency;
  // Per-op latency with *per-NIC* queueing applied: each worker's unloaded
  // samples scaled by that worker's own stretch -- the traffic-weighted
  // mean of max(1, utilization) over the NICs its verbs actually crossed
  // (its CN NIC plus its per-MN demand mix). On a balanced cluster this
  // coincides with the uniform latency_stretch scaling; under skew the
  // workers hammering the hot MN stretch while the rest stay fast, so a
  // hot MN is visible as a fat tail here instead of being flattened into
  // one global factor.
  LatencyHistogram latency_effective;

  // Queueing-adjusted percentile from the per-NIC-stretched distribution.
  // Falls back to the uniform-stretch scaling for hand-built results that
  // never populated latency_effective.
  double effective_percentile_ns(double p) const {
    if (latency_effective.count() > 0) {
      return static_cast<double>(latency_effective.percentile_ns(p));
    }
    return static_cast<double>(latency.percentile_ns(p)) * latency_stretch;
  }
  rdma::EndpointStats net;
  double rtts_per_op = 0;
  double read_bytes_per_op = 0;
  // Scan-op breakdown (E-style workloads; all zero elsewhere).
  uint64_t scan_ops = 0;
  uint64_t scan_keys = 0;         // pairs returned across all scans
  uint64_t scan_truncated = 0;    // scans reporting possible missing keys
  uint64_t scan_round_trips = 0;  // RTTs spent inside scan calls
  double scan_rtts_per_op = 0;    // scan_round_trips / scan_ops
  // Churn/RMW breakdown (workloads with remove/rmw shares; zero elsewhere).
  uint64_t remove_ops = 0;     // removes actually issued
  uint64_t remove_misses = 0;  // removes of a key the worker believed live
  uint64_t remove_underflow = 0;  // remove drawn with nothing left to remove
  uint64_t reused_key_inserts = 0;  // inserts that recycled a removed key
  uint64_t rmw_ops = 0;
  uint64_t rmw_misses = 0;  // RMW whose read or write leg failed
  // Reclamation + degraded-mode counters, measured as deltas of the
  // cluster-wide AllocStats / EpochManager across this phase (absolute for
  // *_outstanding, which is a level, not a flow).
  uint64_t alloc_failures = 0;
  uint64_t alloc_degraded_ops = 0;
  uint64_t reclaimed_blocks = 0;
  uint64_t retired_bytes_total = 0;
  uint64_t retired_bytes_outstanding = 0;
  uint64_t leaked_bytes = 0;
  uint64_t alloc_underflows = 0;  // accounting drift tripwire; 0 when sane
  uint64_t epoch_advances = 0;
  uint64_t expired_epoch_slots = 0;
};

class YcsbRunner {
 public:
  // `keys` is the full key pool: the first `load()`ed prefix becomes the
  // dataset; the remainder feeds insert operations of workloads D/E/LOAD.
  YcsbRunner(mem::Cluster& cluster, IndexFactory factory,
             std::vector<std::string> keys);

  // Bulk-loads keys[0, count) with `workers` parallel unmetered clients.
  void load(uint64_t count, uint32_t value_size, uint32_t workers = 8);

  // Runs one workload phase.
  RunResult run(const WorkloadSpec& spec, const RunOptions& options);

  void set_per_worker_hook(PerWorkerHook hook) { hook_ = std::move(hook); }

  uint64_t visible_keys() const {
    return visible_.load(std::memory_order_relaxed);
  }
  const std::vector<std::string>& keys() const { return keys_; }
  mem::Cluster& cluster() { return cluster_; }

 private:
  mem::Cluster& cluster_;
  IndexFactory factory_;
  std::vector<std::string> keys_;
  PerWorkerHook hook_;
  std::atomic<uint64_t> visible_{0};
  std::atomic<uint64_t> insert_cursor_{0};
};

}  // namespace sphinx::ycsb
