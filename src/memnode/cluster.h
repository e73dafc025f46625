// Cluster bootstrap: owns the simulated fabric, the consistent-hash ring,
// the shared allocation accounting, and the per-MN well-known bootstrap
// area (root pointers, hash-table descriptors, allocation bump pointer).
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>

#include "memnode/alloc_stats.h"
#include "memnode/consistent_hash.h"
#include "memnode/epoch.h"
#include "rdma/endpoint.h"
#include "rdma/fabric.h"

namespace sphinx::mem {

// Fixed layout at the base of every MN region:
//   [0, 8)      : reserved (null-address guard, never allocated)
//   [8, 16)     : allocation bump pointer (clients lease chunks via FAA)
//   [64, 64K)   : bootstrap slots -- 8-byte words handed out by index
//                 constructors for root pointers / table descriptors
//   [64K, ...)  : allocatable heap
constexpr uint64_t kBumpPointerOffset = 8;
constexpr uint64_t kBootstrapBase = 64;
constexpr uint64_t kBootstrapSlots = 8192;  // 64 KiB of 8-byte slots
constexpr uint64_t kHeapBase = kBootstrapBase + kBootstrapSlots * 8;

class Cluster {
 public:
  Cluster(const rdma::NetworkConfig& config, uint64_t mn_size_bytes)
      : fabric_(config, mn_size_bytes),
        ring_(config.num_mns),
        next_bootstrap_slot_(0) {
    for (uint32_t mn = 0; mn < fabric_.num_mns(); ++mn) {
      fabric_.region(mn).store64(kBumpPointerOffset, kHeapBase);
    }
  }

  rdma::Fabric& fabric() { return fabric_; }
  const rdma::NetworkConfig& config() const { return fabric_.config(); }
  uint32_t num_mns() const { return fabric_.num_mns(); }
  const ConsistentHashRing& ring() const { return ring_; }
  AllocStats& alloc_stats() { return alloc_stats_; }
  EpochManager& epochs() { return epochs_; }

  // Creates a metered endpoint on compute node `cn`.
  rdma::Endpoint make_endpoint(uint32_t cn) {
    return rdma::Endpoint(fabric_, cn, /*metered=*/true);
  }

  // Creates an unmetered endpoint for bootstrap / bulk loading.
  rdma::Endpoint make_loader_endpoint() {
    return rdma::Endpoint(fabric_, 0, /*metered=*/false);
  }

  // Hands out the next unused 8-byte bootstrap slot on MN `mn`. Index
  // constructors use these as well-known addresses (root pointer, etc.).
  // Single-threaded use (construction time) only.
  rdma::GlobalAddr reserve_bootstrap_slot(uint32_t mn) {
    const uint64_t slot = next_bootstrap_slot_++;
    if (slot >= kBootstrapSlots) {
      throw std::runtime_error("bootstrap area exhausted");
    }
    return rdma::GlobalAddr(mn, kBootstrapBase + slot * 8);
  }

 private:
  rdma::Fabric fabric_;
  ConsistentHashRing ring_;
  AllocStats alloc_stats_;
  EpochManager epochs_;
  uint64_t next_bootstrap_slot_;
};

}  // namespace sphinx::mem
