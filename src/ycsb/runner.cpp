#include "ycsb/runner.h"

#include <algorithm>
#include <cstring>
#include <thread>

#include "common/dist.h"
#include "common/rng.h"

namespace sphinx::ycsb {

YcsbRunner::YcsbRunner(mem::Cluster& cluster, IndexFactory factory,
                       std::vector<std::string> keys)
    : cluster_(cluster), factory_(std::move(factory)), keys_(std::move(keys)) {}

void YcsbRunner::load(uint64_t count, uint32_t value_size, uint32_t workers) {
  count = std::min<uint64_t>(count, keys_.size());
  std::vector<std::thread> threads;
  std::atomic<uint64_t> failures{0};
  const uint32_t num_cns = cluster_.config().num_cns;
  for (uint32_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      rdma::Endpoint endpoint(cluster_.fabric(), w % num_cns,
                              /*metered=*/false);
      mem::RemoteAllocator allocator(cluster_, endpoint);
      std::unique_ptr<KvIndex> index =
          factory_(w, w % num_cns, endpoint, allocator);
      std::string value(value_size, 'v');
      const uint64_t lo = count * w / workers;
      const uint64_t hi = count * (w + 1) / workers;
      for (uint64_t i = lo; i < hi; ++i) {
        std::memcpy(value.data(), &i, std::min<size_t>(8, value.size()));
        if (!index->insert(keys_[i], value)) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
      if (hook_) hook_(*index, w);
    });
  }
  for (auto& t : threads) t.join();
  visible_.store(count, std::memory_order_relaxed);
  insert_cursor_.store(count, std::memory_order_relaxed);
  if (failures.load() != 0) {
    // Duplicate keys in the pool would show up here; the generators
    // guarantee distinctness, so this indicates a bug.
    throw std::runtime_error("bulk load: " + std::to_string(failures.load()) +
                             " inserts failed");
  }
}

RunResult YcsbRunner::run(const WorkloadSpec& spec, const RunOptions& options) {
  RunResult result;
  result.workload = spec.name;

  const uint64_t n0 = visible_.load(std::memory_order_relaxed);
  const uint32_t num_cns = cluster_.config().num_cns;

  // Request distribution, shared across workers (stateless draws; the
  // latest-distribution frontier is atomic).
  std::shared_ptr<IndexDistribution> dist;
  std::shared_ptr<LatestDistribution> latest;
  switch (spec.dist) {
    case RequestDist::kZipfian:
      dist = std::make_shared<ScrambledZipfianDistribution>(
          std::max<uint64_t>(n0, 1), spec.zipf_theta);
      break;
    case RequestDist::kUniform:
      dist = std::make_shared<UniformDistribution>(std::max<uint64_t>(n0, 1));
      break;
    case RequestDist::kLatest:
      // The watermark starts at the first index this run's inserts claim
      // (insert failures of earlier runs leave it above visible_).
      latest = std::make_shared<LatestDistribution>(std::max<uint64_t>(
          std::min<uint64_t>(insert_cursor_.load(std::memory_order_relaxed),
                             keys_.size()),
          1));
      dist = latest;
      break;
  }

  const double p_read = spec.read / spec.total();
  const double p_update = p_read + spec.update / spec.total();
  const double p_insert = p_update + spec.insert / spec.total();
  const double p_remove = p_insert + spec.remove / spec.total();
  const double p_rmw = p_remove + spec.rmw / spec.total();

  // Reclamation / degraded-mode counters are cluster-global; snapshot them
  // so the result reports this phase's flow as deltas.
  mem::AllocStats& astats = cluster_.alloc_stats();
  mem::EpochManager& epochs = cluster_.epochs();
  const uint64_t alloc_failures0 = astats.alloc_failures();
  const uint64_t degraded0 = astats.alloc_degraded_ops();
  const uint64_t reclaimed0 = astats.reclaimed_blocks();
  const uint64_t retired_total0 = astats.retired_bytes_total();
  const uint64_t advances0 = epochs.advances();
  const uint64_t expired0 = epochs.expired_slots();

  struct WorkerOut {
    LatencyHistogram latency;
    rdma::EndpointStats net;
    uint64_t misses = 0;
    uint64_t insert_overflow = 0;
    uint64_t insert_failures = 0;
    uint64_t client_crashes = 0;
    uint64_t end_clock_ns = 0;
    uint64_t scan_ops = 0;
    uint64_t scan_keys = 0;
    uint64_t scan_truncated = 0;
    uint64_t scan_round_trips = 0;
    uint64_t remove_ops = 0;
    uint64_t remove_misses = 0;
    uint64_t remove_underflow = 0;
    uint64_t reused_key_inserts = 0;
    uint64_t rmw_ops = 0;
    uint64_t rmw_misses = 0;
  };
  std::vector<WorkerOut> outs(options.workers);
  // Per-worker span buffers (merged into options.trace after the join, so
  // recording is contention-free). Sized 0 when tracing is off.
  std::vector<rdma::TraceRecorder> traces(
      options.trace != nullptr ? options.workers : 0);
  std::vector<std::thread> threads;

  for (uint32_t w = 0; w < options.workers; ++w) {
    threads.emplace_back([&, w] {
      WorkerOut& out = outs[w];
      const uint32_t cn = w % num_cns;
      // Endpoint/allocator/index live behind pointers so an injected client
      // crash can reincarnate the worker: the dead endpoint is discarded
      // (its held locks stay orphaned on the MN until survivors reclaim
      // them) and a successor with a fresh fault client id and the same
      // virtual clock takes over the remaining ops.
      std::unique_ptr<rdma::Endpoint> endpoint;
      std::unique_ptr<mem::RemoteAllocator> allocator;
      std::unique_ptr<KvIndex> index;
      uint32_t generation = 0;
      uint64_t clock_carry = 0;
      auto incarnate = [&] {
        index.reset();
        allocator.reset();
        endpoint = std::make_unique<rdma::Endpoint>(cluster_.fabric(), cn,
                                                    /*metered=*/true);
        // Distinct per worker (not per CN) so probabilistic fault schedules
        // are a pure function of the worker, independent of thread timing.
        // Reincarnations shift by 1000 per generation so the successor's
        // fault schedule is distinct from its dead predecessor's.
        endpoint->set_fault_client_id(w + 1000u * generation);
        endpoint->set_clock_ns(clock_carry);
        allocator = std::make_unique<mem::RemoteAllocator>(cluster_, *endpoint);
        index = factory_(w, cn, *endpoint, *allocator);
      };
      incarnate();
      Rng rng(options.seed * 7919 + w);
      // Churn-key lifecycle, worker-local so no two workers ever contend on
      // the same key's presence: `owned` holds pool indexes this worker
      // inserted and believes live, `freed` holds indexes its removes freed
      // (inserts prefer reusing those, cycling blocks through the epoch
      // quarantine). Both survive crash reincarnation -- key presence is
      // index state, not client state -- but a key whose op the crash
      // caught mid-flight is dropped from tracking (its fate is unknown).
      std::vector<uint64_t> owned;
      std::vector<uint64_t> freed;

      rdma::TraceRecorder* wrec = traces.empty() ? nullptr : &traces[w];
      // Attaches the trace hook for a submission starting at op `opno` when
      // that op is sampled (detaches it otherwise); returns whether it did.
      auto attach_trace = [&](uint64_t opno) {
        const bool on = wrec != nullptr && opno % options.trace_sample == 0;
        endpoint->set_trace(on ? wrec : nullptr, w);
        return on;
      };
      // The one crash-reincarnation path: runs one submission and, when an
      // injected crash kills the client mid-way, salvages the dead client's
      // stats and reincarnates the worker. Returns false on a crash; ops
      // the crash caught mid-flight are abandoned, not retried.
      auto survive = [&](auto&& submit) {
        try {
          submit();
          return true;
        } catch (const rdma::ClientCrashed&) {
          out.client_crashes++;
          out.net += endpoint->stats();
          clock_carry = endpoint->clock_ns();
          if (hook_) hook_(*index, w);
          ++generation;
          incarnate();
          return false;
        }
      };

      // Plan up to `depth` point ops -- drawing rolls, key indexes and
      // insert-cursor claims in workload order -- submit them as one
      // execute_batch call, then resolve outcomes in plan order. Depth 1 is
      // a batch of one. A scan or RMW draw closes the batch and runs alone
      // after it: scans have no batch form, and an RMW's write depends on
      // its read. Each op's latency sample spans its submission to its own
      // completion stamp, so in-batch queueing is measured per op.
      const uint32_t depth = std::max<uint32_t>(1, options.pipeline_depth);
      struct Planned {
        uint64_t key_idx = 0;
        bool reused = false;  // insert of a key freed by an earlier remove
      };
      std::vector<Planned> plan(depth);
      std::vector<BatchOp> batch(depth);
      // Per-slot buffers: BatchOps hold Slices, so payloads must stay put
      // until the batch resolves. The closing scan or RMW reuses slot 0's.
      std::vector<std::string> values(depth, std::string(spec.value_size, 'v'));
      std::vector<std::string> read_bufs(depth);
      std::vector<std::pair<std::string, std::string>> scan_buf;
      enum class Solo { kNone, kScan, kRmw };
      uint64_t op = 0;
      while (op < options.ops_per_worker) {
        const uint64_t budget = options.ops_per_worker - op;
        uint32_t planned = 0;
        Solo solo = Solo::kNone;
        uint64_t solo_idx = 0;
        size_t scan_len = 0;
        while (planned < depth && planned < budget) {
          const double roll = rng.next_double();
          if (roll >= p_remove) {
            solo = roll >= p_rmw ? Solo::kScan : Solo::kRmw;
            solo_idx = dist->next(rng);
            if (solo == Solo::kScan) {
              scan_len = 1 + rng.next_below(spec.max_scan_len);
            }
            break;
          }
          Planned& p = plan[planned];
          BatchOp& b = batch[planned];
          b = BatchOp{};
          p.reused = false;
          const uint64_t opno = op + planned;
          std::memcpy(values[planned].data(), &opno,
                      std::min<size_t>(8, values[planned].size()));
          if (roll < p_read) {
            b.kind = BatchOp::Kind::kSearch;
            p.key_idx = dist->next(rng);
          } else if (roll < p_update) {
            b.kind = BatchOp::Kind::kUpdate;
            p.key_idx = dist->next(rng);
          } else if (roll < p_insert) {
            if (!freed.empty()) {
              // Reinsert a key this worker removed earlier instead of
              // claiming fresh pool space: the allocation lands on the
              // freelists the removes fed, exercising recycle end to end.
              p.key_idx = freed.back();
              freed.pop_back();
              p.reused = true;
              out.reused_key_inserts++;
            } else {
              p.key_idx =
                  insert_cursor_.fetch_add(1, std::memory_order_relaxed);
            }
            b.kind = BatchOp::Kind::kInsert;
            if (p.key_idx >= keys_.size()) {
              // Key pool exhausted: degrade to an update so the op mix keeps
              // its write share (counted so benches can size the pool); a
              // failed fallback update is a miss like any other update's.
              out.insert_overflow++;
              b.kind = BatchOp::Kind::kUpdate;
              p.key_idx = dist->next(rng);
            }
          } else if (owned.empty()) {
            // Remove with nothing of ours to remove yet: keep the op count
            // honest with a read (counted, so benches see the warmup share).
            out.remove_underflow++;
            b.kind = BatchOp::Kind::kSearch;
            p.key_idx = dist->next(rng);
          } else {
            const size_t pos = rng.next_below(owned.size());
            b.kind = BatchOp::Kind::kRemove;
            p.key_idx = owned[pos];
            owned[pos] = owned.back();
            owned.pop_back();
          }
          b.key = Slice(keys_[p.key_idx]);
          b.value = Slice(values[planned]);
          if (b.kind == BatchOp::Kind::kSearch) {
            b.value_out = &read_bufs[planned];
          }
          planned++;
        }
        if (planned > 0) {
          const bool trace_on = attach_trace(op);
          const uint64_t t0 = endpoint->clock_ns();
          const bool survived =
              survive([&] { index->execute_batch(batch.data(), planned); });
          for (uint32_t i = 0; i < planned; ++i) {
            const Planned& p = plan[i];
            const BatchOp& b = batch[i];
            // Every fresh insert claim is acknowledged once its insert is
            // over, landed or not (reinserts are already below the
            // watermark).
            if (latest && b.kind == BatchOp::Kind::kInsert && !p.reused) {
              latest->acknowledge(p.key_idx);
            }
            // Ops a crash caught mid-flight record no outcome and no
            // latency sample (their fate is decided by the survivors' lock
            // reclamation).
            if (!b.done) continue;
            switch (b.kind) {
              case BatchOp::Kind::kSearch:
              case BatchOp::Kind::kUpdate:
                if (!b.ok) out.misses++;
                break;
              case BatchOp::Kind::kInsert:
                if (b.ok) {
                  owned.push_back(p.key_idx);
                  // Only successful fresh inserts become visible (a
                  // reinsert already is). A failed fresh insert leaves the
                  // key a permanent hole: once later successes move
                  // `visible_` past it, reads drawing it miss -- honestly.
                  if (!p.reused) {
                    visible_.fetch_add(1, std::memory_order_relaxed);
                  }
                } else {
                  out.insert_failures++;
                  // A reused key is still absent; a later insert retries it.
                  if (p.reused) freed.push_back(p.key_idx);
                }
                break;
              case BatchOp::Kind::kRemove:
                out.remove_ops++;
                if (b.ok) {
                  freed.push_back(p.key_idx);
                } else {
                  // We believed the key live; a miss here is loss (or a
                  // degraded op under memory pressure) -- the gate trips on
                  // it in fault-free runs.
                  out.remove_misses++;
                }
                break;
            }
            // Indexes without a virtual clock stamp 0; degrade those
            // samples to end-of-batch (the serial-equivalent bound).
            const uint64_t done_ns =
                b.done_clock_ns >= t0 ? b.done_clock_ns : endpoint->clock_ns();
            out.latency.record(done_ns - t0);
          }
          if (trace_on && survived) {
            // A batch of one is a plain op and keeps its op-kind span.
            static constexpr const char* kOpSpan[] = {
                "op:read", "op:insert", "op:update", "op:remove"};
            wrec->record(planned == 1
                             ? kOpSpan[static_cast<int>(batch[0].kind)]
                             : "op:batch",
                         t0, endpoint->clock_ns() - t0, w);
          }
          op += planned;
        }
        if (solo != Solo::kNone) {
          const bool trace_on = attach_trace(op);
          const uint64_t t0 = endpoint->clock_ns();
          std::string& value = values[0];
          std::string& read_buf = read_bufs[0];
          const bool survived = survive([&] {
            if (solo == Solo::kRmw) {
              out.rmw_ops++;
              if (index->search(keys_[solo_idx], &read_buf)) {
                std::memcpy(value.data(), &op,
                            std::min<size_t>(8, value.size()));
                // The written value depends on the read one -- the
                // "modify" in read-modify-write.
                if (!read_buf.empty()) value[value.size() - 1] = read_buf[0];
                if (!index->update(keys_[solo_idx], value)) out.rmw_misses++;
              } else {
                out.rmw_misses++;
              }
            } else {
              const uint64_t rtts_before = endpoint->stats().round_trips;
              out.scan_keys +=
                  index->scan(keys_[solo_idx], scan_len, &scan_buf);
              out.scan_round_trips +=
                  endpoint->stats().round_trips - rtts_before;
              out.scan_ops++;
              if (index->last_scan_truncated()) out.scan_truncated++;
            }
          });
          if (survived) {
            out.latency.record(endpoint->clock_ns() - t0);
            if (trace_on) {
              wrec->record(solo == Solo::kRmw ? "op:rmw" : "op:scan", t0,
                           endpoint->clock_ns() - t0, w);
            }
          }
          op += 1;
        }
      }
      out.net += endpoint->stats();
      out.end_clock_ns = endpoint->clock_ns();
      if (hook_) hook_(*index, w);
    });
  }
  for (auto& t : threads) t.join();

  uint64_t max_clock = 0;
  std::vector<uint64_t> cn_msgs(num_cns, 0);
  std::vector<uint64_t> cn_bytes(num_cns, 0);
  for (uint32_t w = 0; w < options.workers; ++w) {
    const WorkerOut& out = outs[w];
    result.latency.merge(out.latency);
    result.net += out.net;
    result.misses += out.misses;
    result.insert_overflow += out.insert_overflow;
    result.insert_failures += out.insert_failures;
    result.client_crashes += out.client_crashes;
    result.scan_ops += out.scan_ops;
    result.scan_keys += out.scan_keys;
    result.scan_truncated += out.scan_truncated;
    result.scan_round_trips += out.scan_round_trips;
    result.remove_ops += out.remove_ops;
    result.remove_misses += out.remove_misses;
    result.remove_underflow += out.remove_underflow;
    result.reused_key_inserts += out.reused_key_inserts;
    result.rmw_ops += out.rmw_ops;
    result.rmw_misses += out.rmw_misses;
    cn_msgs[w % num_cns] += out.net.messages;
    cn_bytes[w % num_cns] += out.net.bytes_total();
    max_clock = std::max(max_clock, out.end_clock_ns);
  }
  if (options.trace != nullptr) {
    for (const rdma::TraceRecorder& rec : traces) options.trace->merge(rec);
  }
  result.total_ops = options.ops_per_worker * options.workers;

  // Fluid NIC-capacity model: each NIC supplies one second of service time
  // per second. Per-NIC utilization = the phase's aggregate service demand
  // on that NIC over the unloaded makespan. The *busiest* NIC gates when
  // the phase can finish (makespan stretch, below); per-op latency is
  // charged per NIC actually touched (per-worker stretch, further below).
  const rdma::NetworkConfig& cfg = cluster_.config();
  const double t_unloaded = static_cast<double>(max_clock);
  // The per-MN vectors are sized from the fabric (and grown on demand), so
  // every MN's traffic enters the capacity model -- nothing escapes on
  // clusters wider than the old fixed-size tracking arrays.
  const uint32_t tracked_mns = std::max<uint32_t>(
      cluster_.num_mns(),
      static_cast<uint32_t>(result.net.msgs_per_mn.size()));
  result.mn_utilization.assign(tracked_mns, 0.0);
  result.cn_utilization.assign(num_cns, 0.0);
  // An MN verb costs the NIC per-message processing plus wire time for its
  // payload. The same two terms apply CN-side: every message a CN's
  // workers put on the wire crosses the CN NIC, payload included (the old
  // model charged CN messages but not CN bytes, so a CN could never
  // byte-saturate no matter how large the transfers).
  for (uint32_t mn = 0; mn < result.net.msgs_per_mn.size(); ++mn) {
    const double demand =
        static_cast<double>(result.net.msgs_per_mn[mn]) *
            static_cast<double>(cfg.mn_msg_ns) +
        static_cast<double>(result.net.bytes_per_mn[mn]) / cfg.bytes_per_ns;
    if (t_unloaded > 0) result.mn_utilization[mn] = demand / t_unloaded;
  }
  for (uint32_t cn = 0; cn < num_cns; ++cn) {
    const double demand =
        static_cast<double>(cn_msgs[cn]) *
            static_cast<double>(cfg.cn_msg_ns) +
        static_cast<double>(cn_bytes[cn]) / cfg.bytes_per_ns;
    if (t_unloaded > 0) result.cn_utilization[cn] = demand / t_unloaded;
  }
  double u_max = 0.0;
  for (double u : result.mn_utilization) u_max = std::max(u_max, u);
  for (double u : result.cn_utilization) u_max = std::max(u_max, u);
  result.nic_utilization = u_max;
  result.latency_stretch = std::max(1.0, u_max);
  const double t_eff = t_unloaded * result.latency_stretch;

  // Placement balance: busiest MN's messages over the per-MN mean across
  // the whole cluster (idle provisioned MNs count in the mean -- an MN the
  // placement never uses IS imbalance).
  {
    uint64_t total_mn_msgs = 0;
    uint64_t max_mn_msgs = 0;
    for (uint64_t m : result.net.msgs_per_mn) {
      total_mn_msgs += m;
      max_mn_msgs = std::max(max_mn_msgs, m);
    }
    result.mn_msg_balance =
        total_mn_msgs > 0
            ? static_cast<double>(max_mn_msgs) * tracked_mns /
                  static_cast<double>(total_mn_msgs)
            : 1.0;
  }

  // Per-worker latency stretch: a worker's timeline inflates by the
  // congestion of the NICs its verbs crossed -- the demand-weighted mean
  // of max(1, u_mn) over its per-MN traffic mix, floored by its own CN
  // NIC's stretch (every one of its messages crosses that CN). On a
  // balanced cluster every worker gets ~latency_stretch; under skew only
  // the workers feeding the hot NIC stretch. The scaled per-worker
  // histograms merge into latency_effective.
  for (uint32_t w = 0; w < options.workers; ++w) {
    const rdma::EndpointStats& n = outs[w].net;
    double demand_total = 0.0;
    double weighted = 0.0;
    for (uint32_t mn = 0; mn < n.msgs_per_mn.size(); ++mn) {
      const double d =
          static_cast<double>(n.msgs_per_mn[mn]) *
              static_cast<double>(cfg.mn_msg_ns) +
          static_cast<double>(n.bytes_per_mn[mn]) / cfg.bytes_per_ns;
      demand_total += d;
      const double u =
          mn < result.mn_utilization.size() ? result.mn_utilization[mn] : 0.0;
      weighted += d * std::max(1.0, u);
    }
    double stretch_w = demand_total > 0 ? weighted / demand_total : 1.0;
    stretch_w =
        std::max(stretch_w, std::max(1.0, result.cn_utilization[w % num_cns]));
    result.latency_effective.merge_scaled(outs[w].latency, stretch_w);
  }

  result.sim_seconds = t_eff / 1e9;
  result.ops_per_sec =
      result.sim_seconds > 0
          ? static_cast<double>(result.total_ops) / result.sim_seconds
          : 0;
  // Effective mean (Little's law with L = the ops actually in flight,
  // consistent with ops_per_sec); the unloaded mean comes from the same
  // histogram the percentiles do, so both latency views are internally
  // consistent. At depth 1 with ops >> workers this reduces exactly to
  // the pre-pipelining workers-only formula. L is clamped to total_ops:
  // a phase with fewer ops than the nominal workers x depth window (tiny
  // warmups) never has the full window in flight, and charging the
  // phantom occupancy overstated the mean by workers x depth / total.
  const double in_flight = std::min(
      static_cast<double>(options.workers) *
          static_cast<double>(std::max<uint32_t>(1, options.pipeline_depth)),
      static_cast<double>(result.total_ops));
  result.mean_latency_ns =
      result.total_ops > 0
          ? in_flight * t_eff / static_cast<double>(result.total_ops)
          : 0;
  result.mean_unloaded_latency_ns = result.latency.mean_ns();
  result.rtts_per_op = static_cast<double>(result.net.round_trips) /
                       static_cast<double>(result.total_ops);
  result.read_bytes_per_op = static_cast<double>(result.net.bytes_read) /
                             static_cast<double>(result.total_ops);
  result.scan_rtts_per_op =
      result.scan_ops > 0 ? static_cast<double>(result.scan_round_trips) /
                                static_cast<double>(result.scan_ops)
                          : 0;
  result.alloc_failures = astats.alloc_failures() - alloc_failures0;
  result.alloc_degraded_ops = astats.alloc_degraded_ops() - degraded0;
  result.reclaimed_blocks = astats.reclaimed_blocks() - reclaimed0;
  result.retired_bytes_total = astats.retired_bytes_total() - retired_total0;
  result.retired_bytes_outstanding = astats.retired_bytes_outstanding();
  result.leaked_bytes = astats.leaked_bytes();
  result.alloc_underflows = astats.underflows();
  result.epoch_advances = epochs.advances() - advances0;
  result.expired_epoch_slots = epochs.expired_slots() - expired0;
  return result;
}

}  // namespace sphinx::ycsb
