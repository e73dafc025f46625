// Per-endpoint traffic statistics. Everything the paper's analysis reasons
// about -- round trips, messages, bytes on the wire -- is counted here so
// benches can print RTT histograms (E6) and bandwidth figures directly.
// Per-MN breakdowns feed the NIC capacity model (see runner.cpp); per-phase
// breakdowns (phase.h) attribute every round trip to a protocol step.
// Scalar counters are registered in metrics::Field tables so merge/diff/
// JSON come from one list per struct instead of hand-rolled boilerplate.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "common/metrics.h"
#include "rdma/phase.h"

namespace sphinx::rdma {

struct EndpointStats {
  uint64_t reads = 0;        // READ verbs issued
  uint64_t writes = 0;       // WRITE verbs issued
  uint64_t cas = 0;          // CAS verbs issued
  uint64_t faa = 0;          // FAA verbs issued
  uint64_t round_trips = 0;  // network round trips (a doorbell batch == 1)
  uint64_t bytes_read = 0;   // payload bytes fetched from MNs
  uint64_t bytes_written = 0;
  uint64_t messages = 0;     // individual verbs on the wire
  // Round trips / wire bytes by protocol phase (the endpoint's phase at
  // charge time). Incremented at exactly the two sites that bump
  // round_trips / bytes_*, so the per-phase sums equal the totals.
  std::array<uint64_t, kNumPhases> rtts_by_phase{};
  std::array<uint64_t, kNumPhases> bytes_by_phase{};
  // Sized from the fabric by the Endpoint constructor (one slot per MN);
  // note_mn() grows them defensively so no MN's traffic is ever dropped.
  std::vector<uint64_t> msgs_per_mn;
  std::vector<uint64_t> bytes_per_mn;

  uint64_t verbs() const { return reads + writes + cas + faa; }
  uint64_t bytes_total() const { return bytes_read + bytes_written; }

  uint64_t rtts_sum_by_phase() const {
    uint64_t s = 0;
    for (uint64_t v : rtts_by_phase) s += v;
    return s;
  }
  uint64_t bytes_sum_by_phase() const {
    uint64_t s = 0;
    for (uint64_t v : bytes_by_phase) s += v;
    return s;
  }

  void reserve_mns(uint32_t num_mns) {
    if (msgs_per_mn.size() < num_mns) {
      msgs_per_mn.resize(num_mns, 0);
      bytes_per_mn.resize(num_mns, 0);
    }
  }

  void note_mn(uint32_t mn, uint64_t payload) {
    if (mn >= msgs_per_mn.size()) reserve_mns(mn + 1);
    msgs_per_mn[mn]++;
    bytes_per_mn[mn] += payload;
  }

  // True when no counter has moved. Unmetered endpoints (bootstrap and
  // loading paths) must keep this true for their whole lifetime, even
  // under fault injection; test_fault_injection.cpp asserts it.
  bool all_zero() const;

  EndpointStats& operator+=(const EndpointStats& o);
  EndpointStats operator-(const EndpointStats& o) const;
};

inline constexpr metrics::Field<EndpointStats> kEndpointStatsFields[] = {
    {"reads", &EndpointStats::reads},
    {"writes", &EndpointStats::writes},
    {"cas", &EndpointStats::cas},
    {"faa", &EndpointStats::faa},
    {"round_trips", &EndpointStats::round_trips},
    {"bytes_read", &EndpointStats::bytes_read},
    {"bytes_written", &EndpointStats::bytes_written},
    {"messages", &EndpointStats::messages},
};

inline bool EndpointStats::all_zero() const {
  if (!metrics::all_zero(*this, kEndpointStatsFields)) return false;
  for (uint64_t v : rtts_by_phase) {
    if (v != 0) return false;
  }
  for (uint64_t v : bytes_by_phase) {
    if (v != 0) return false;
  }
  for (uint64_t v : msgs_per_mn) {
    if (v != 0) return false;
  }
  for (uint64_t v : bytes_per_mn) {
    if (v != 0) return false;
  }
  return true;
}

inline EndpointStats& EndpointStats::operator+=(const EndpointStats& o) {
  metrics::add(*this, o, kEndpointStatsFields);
  for (uint32_t i = 0; i < kNumPhases; ++i) {
    rtts_by_phase[i] += o.rtts_by_phase[i];
    bytes_by_phase[i] += o.bytes_by_phase[i];
  }
  metrics::add_vec(msgs_per_mn, o.msgs_per_mn);
  metrics::add_vec(bytes_per_mn, o.bytes_per_mn);
  return *this;
}

inline EndpointStats EndpointStats::operator-(const EndpointStats& o) const {
  EndpointStats r = *this;
  metrics::sub(r, o, kEndpointStatsFields);
  for (uint32_t i = 0; i < kNumPhases; ++i) {
    r.rtts_by_phase[i] -= o.rtts_by_phase[i];
    r.bytes_by_phase[i] -= o.bytes_by_phase[i];
  }
  metrics::sub_vec(r.msgs_per_mn, o.msgs_per_mn);
  metrics::sub_vec(r.bytes_per_mn, o.bytes_per_mn);
  return r;
}

// Plain snapshot of the fault-injection counters (see fault_injector.h),
// safe to copy/compare in tests and bench reports.
struct FaultStats {
  uint64_t verbs_inspected = 0;  // verbs that consulted the injector
  uint64_t cas_failures = 0;     // CAS verbs forced to lose their race
  uint64_t delays = 0;           // verbs charged extra virtual latency
  uint64_t stalls = 0;           // verbs preceded by an endpoint stall
  uint64_t offline_rejects = 0;  // verbs rejected by an offline MN
  uint64_t offline_giveups = 0;  // endpoint retry cap hit while MN offline
  uint64_t client_crashes = 0;   // endpoints killed mid-protocol

  uint64_t total_faults() const {
    return cas_failures + delays + stalls + offline_rejects + client_crashes;
  }

  bool operator==(const FaultStats& o) const = default;
};

inline constexpr metrics::Field<FaultStats> kFaultStatsFields[] = {
    {"verbs_inspected", &FaultStats::verbs_inspected},
    {"cas_failures", &FaultStats::cas_failures},
    {"delays", &FaultStats::delays},
    {"stalls", &FaultStats::stalls},
    {"offline_rejects", &FaultStats::offline_rejects},
    {"offline_giveups", &FaultStats::offline_giveups},
    {"client_crashes", &FaultStats::client_crashes},
};

// Live fault counters, shared by every endpoint of a fabric (hence atomic;
// endpoints on different threads bump them concurrently).
struct FaultCounters {
  std::atomic<uint64_t> verbs_inspected{0};
  std::atomic<uint64_t> cas_failures{0};
  std::atomic<uint64_t> delays{0};
  std::atomic<uint64_t> stalls{0};
  std::atomic<uint64_t> offline_rejects{0};
  std::atomic<uint64_t> offline_giveups{0};
  std::atomic<uint64_t> client_crashes{0};

  FaultStats snapshot() const {
    FaultStats s;
    s.verbs_inspected = verbs_inspected.load(std::memory_order_relaxed);
    s.cas_failures = cas_failures.load(std::memory_order_relaxed);
    s.delays = delays.load(std::memory_order_relaxed);
    s.stalls = stalls.load(std::memory_order_relaxed);
    s.offline_rejects = offline_rejects.load(std::memory_order_relaxed);
    s.offline_giveups = offline_giveups.load(std::memory_order_relaxed);
    s.client_crashes = client_crashes.load(std::memory_order_relaxed);
    return s;
  }
};

// Crash-recovery counters kept by every lock-taking client (tree and RACE
// table alike); aggregated into bench JSON next to FaultStats.
struct RecoveryStats {
  uint64_t lease_expiries_observed = 0;  // watch saw a lease run out
  uint64_t lock_reclaims = 0;            // reclaim CAS won; node restored
  uint64_t lock_rollforwards = 0;        // reclaimed image rolled forward
  uint64_t retry_timeouts = 0;           // per-op retry budget exhausted

  RecoveryStats& operator+=(const RecoveryStats& o);
};

inline constexpr metrics::Field<RecoveryStats> kRecoveryStatsFields[] = {
    {"lease_expiries_observed", &RecoveryStats::lease_expiries_observed},
    {"lock_reclaims", &RecoveryStats::lock_reclaims},
    {"lock_rollforwards", &RecoveryStats::lock_rollforwards},
    {"retry_timeouts", &RecoveryStats::retry_timeouts},
};

inline RecoveryStats& RecoveryStats::operator+=(const RecoveryStats& o) {
  metrics::add(*this, o, kRecoveryStatsFields);
  return *this;
}

// Range-scan engine counters kept per tree client (remote_tree.cpp) and
// aggregated into bench JSON. The two "data loss" counters at the bottom
// must stay zero in any fault-free run; CI asserts this on YCSB-E.
struct ScanStats {
  uint64_t scans = 0;             // scan()/scan_range() calls
  uint64_t jump_starts = 0;       // entered below the root (find_scan_start)
  uint64_t root_starts = 0;       // entered at the root (cached or fetched)
  uint64_t widen_resumes = 0;     // count-scan spilled past its entry subtree
  uint64_t early_widens = 0;      // of those, before reading entry leaves
  uint64_t restarts = 0;          // frontier rebuilt after a stale path
  uint64_t frontier_batches = 0;  // doorbell batches issued by the frontier
  uint64_t frontier_nodes = 0;    // nodes fetched by those batches
  uint64_t root_refreshes = 0;    // cached root image found stale, reseeded
  uint64_t stale_retries = 0;     // stale child re-resolved via parent slot
  uint64_t subtree_skips = 0;     // inner child dropped, retries exhausted
  uint64_t leaf_drops = 0;        // leaf dropped, retries exhausted
  uint64_t truncated_scans = 0;   // scans that reported incompleteness

  ScanStats& operator+=(const ScanStats& o);
};

inline constexpr metrics::Field<ScanStats> kScanStatsFields[] = {
    {"scans", &ScanStats::scans},
    {"jump_starts", &ScanStats::jump_starts},
    {"root_starts", &ScanStats::root_starts},
    {"widen_resumes", &ScanStats::widen_resumes},
    {"early_widens", &ScanStats::early_widens},
    {"restarts", &ScanStats::restarts},
    {"frontier_batches", &ScanStats::frontier_batches},
    {"frontier_nodes", &ScanStats::frontier_nodes},
    {"root_refreshes", &ScanStats::root_refreshes},
    {"stale_retries", &ScanStats::stale_retries},
    {"subtree_skips", &ScanStats::subtree_skips},
    {"leaf_drops", &ScanStats::leaf_drops},
    {"truncated_scans", &ScanStats::truncated_scans},
};

inline ScanStats& ScanStats::operator+=(const ScanStats& o) {
  metrics::add(*this, o, kScanStatsFields);
  return *this;
}

// Log2 histogram of the virtual backoff waits charged by RetryPolicy:
// bucket i counts waits in [2^i, 2^(i+1)) ns.
struct BackoffHistogram {
  static constexpr uint32_t kBuckets = 24;
  std::array<uint64_t, kBuckets> buckets{};
  uint64_t waits = 0;
  uint64_t wait_ns = 0;

  void record(uint64_t ns) {
    waits++;
    wait_ns += ns;
    uint32_t b = 0;
    while ((2ULL << b) <= ns && b + 1 < kBuckets) ++b;
    buckets[b]++;
  }

  BackoffHistogram& operator+=(const BackoffHistogram& o) {
    for (uint32_t i = 0; i < kBuckets; ++i) buckets[i] += o.buckets[i];
    waits += o.waits;
    wait_ns += o.wait_ns;
    return *this;
  }
};

}  // namespace sphinx::rdma
