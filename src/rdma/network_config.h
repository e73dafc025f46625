// Cost-model parameters for the simulated RDMA fabric.
//
// The paper's testbed: 3 machines, each hosting one CN and one MN, connected
// by 2x100 Gbps ConnectX-6 NICs with ~2 us one-sided latency. Our model
// charges every verb (a) a base round-trip latency, (b) per-byte time from
// link bandwidth, and (c) per-message NIC processing time. Each client's
// virtual clock is charged the unloaded cost only; the YCSB runner then
// applies queueing analytically from every NIC's aggregate service demand
// (the fluid capacity model, DESIGN.md Sec. 2), which is what makes
// message-hungry indexes (tree traversal, multi-entry hash reads) saturate
// first, reproducing the paper's Fig. 5 shape.
#pragma once

#include <cstdint>

namespace sphinx::rdma {

struct NetworkConfig {
  // One-sided verb round-trip latency (client -> MN -> client), ns.
  uint64_t base_rtt_ns = 2000;

  // Usable bandwidth per MN in bytes/ns. The paper's dual-port 2x100 Gbps
  // ConnectX-6 sits on one PCIe 3.0 x16 slot, which caps host throughput
  // at ~126 Gbps (~15 GB/s) regardless of the two ports' line rate.
  double bytes_per_ns = 15.0;

  // Per-message processing time at an MN-side NIC, ns (~66 M msg/s,
  // conservative for per-QP ConnectX-6 small-verb rates).
  uint64_t mn_msg_ns = 15;

  // Per-message processing time at a CN-side NIC, ns (request issue +
  // completion handling).
  uint64_t cn_msg_ns = 8;

  // CPU time to post one verb to the NIC (doorbell write, WQE build), ns.
  uint64_t post_verb_ns = 80;

  // Number of compute-node NICs (paper: 3 CNs) and memory-node NICs
  // (paper: 3 MNs).
  uint32_t num_cns = 3;
  uint32_t num_mns = 3;

  // Time for a client to decide a verb is lost (transport retry exhausted /
  // QP error surfaced) when its target MN is unreachable; charged per
  // rejected verb under fault injection before the endpoint reissues it.
  uint64_t verb_timeout_ns = 8000;
};

// CN-local CPU costs, charged to a client's virtual clock through
// Endpoint::advance_local. These are hand-set estimates, not host
// measurements; this table is what a calibration against measured probe
// and parse times would replace.
inline constexpr uint64_t kFilterProbeNs = 15;  // one SFC lookup or insert
inline constexpr uint64_t kHintProbeNs = 15;    // one hint cache (PEC/LAC) probe
inline constexpr uint64_t kPrefixHashNs = 25;   // hashing one key prefix
// Parsing one tree node image (fetched or cache-hit): a fixed cost plus a
// per-byte copy/parse term, so a 2 KiB Node-256 costs real CN cycles that a
// 56 B Node-4 does not.
inline constexpr uint64_t kNodeParseNs = 60;
inline constexpr double kNodeParseBytesPerNs = 10.0;

inline constexpr uint64_t node_parse_ns(uint64_t node_bytes) {
  return kNodeParseNs +
         static_cast<uint64_t>(node_bytes / kNodeParseBytesPerNs);
}

}  // namespace sphinx::rdma
