// Protocol-phase taxonomy for RTT attribution. Every metered round trip is
// charged to the endpoint's *current phase* (set by the innermost live
// PhaseScope, see endpoint.h), so per-phase counters sum exactly to
// EndpointStats::round_trips by construction: the two counters increment at
// the same two sites (Endpoint::charge_single and the batched
// DoorbellBatch::execute path) and nowhere else.
//
// The taxonomy follows the paper's search-path decomposition (Sec. IV):
// filter probe -> PEC validation -> INHT entry read -> inner-node read ->
// leaf read, plus the write-side phases (leaf/inner writes, locks), the
// scan frontier, allocation, and crash recovery. Filter probes are CN-local
// (advance_local only), so kFilterProbe exists for trace spans but should
// never accumulate round trips.
//
// Charging rule under cross-op fusion: phases charge per ROUND TRIP, never
// per verb and never per op. When one doorbell round trip serves several
// operations (the pipelined client's shared rounds, or a cold hit's
// leaf+inner hedge), the whole round trip -- its one RTT and all its
// bytes -- is charged once, to the phase of the innermost scope at execute
// time. The pipelined client sets that scope per round: kLacFusedRead for
// the round carrying LAC-hit leaf reads, otherwise the phase of the first
// op, in batch order, that posted into the round (a one-op round thus
// keeps the serial walk's phase). Nothing is split or
// prorated across the ops sharing the wire: splitting would require a
// per-op cost model the fabric doesn't have, and any rule that charges
// fractions re-opens rounding gaps between per-phase sums and totals. The
// invariant "sum over phases == round_trips, exactly" therefore survives
// arbitrary fusion, and tests/test_observability.cpp asserts it on
// pipelined runs.
#pragma once

#include <cstdint>

namespace sphinx::rdma {

enum class Phase : uint8_t {
  kUnattributed = 0,  // no scope active; should stay at zero RTTs
  kFilterProbe,       // SFC probe (CN-local; 0 RTTs by design)
  kPecValidate,       // PEC-hinted speculative node read + validation
  kInhtRead,          // INHT hash-entry / group reads
  kInhtWrite,         // INHT inserts/updates/erases/splits
  kInnerRead,         // ART inner-node fetches
  kInnerWrite,        // inner-node installs, slot CASes, type switches
  kLeafRead,          // leaf fetches
  kLacFusedRead,      // LAC-hinted speculative leaf read (+ fused fallback)
  kLeafWrite,         // leaf payload writes / invalidations
  kLock,              // lock acquire/release words
  kScanFrontier,      // range-scan frontier batches
  kRecovery,          // orphan-lock reclaim, reachability probes
  kAlloc,             // remote allocator bump-pointer leases
  kCount,
};

inline constexpr uint32_t kNumPhases = static_cast<uint32_t>(Phase::kCount);

inline const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kUnattributed: return "unattributed";
    case Phase::kFilterProbe: return "filter_probe";
    case Phase::kPecValidate: return "pec_validate";
    case Phase::kInhtRead: return "inht_read";
    case Phase::kInhtWrite: return "inht_write";
    case Phase::kInnerRead: return "inner_read";
    case Phase::kInnerWrite: return "inner_write";
    case Phase::kLeafRead: return "leaf_read";
    case Phase::kLacFusedRead: return "lac_fused_read";
    case Phase::kLeafWrite: return "leaf_write";
    case Phase::kLock: return "lock";
    case Phase::kScanFrontier: return "scan_frontier";
    case Phase::kRecovery: return "recovery";
    case Phase::kAlloc: return "alloc";
    case Phase::kCount: break;
  }
  return "?";
}

}  // namespace sphinx::rdma
