// The simulated RDMA fabric: the memory-node regions and the cost model.
// Endpoints (one per client/worker) issue one-sided verbs against it and
// charge their own virtual clocks; see endpoint.h. NIC queueing is applied
// afterwards by the YCSB runner's fluid capacity model, so the fabric holds
// no shared clock state. An optional FaultInjector (fault_injector.h) can
// be installed to perturb every metered verb with deterministic faults.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "rdma/global_addr.h"
#include "rdma/memory_region.h"
#include "rdma/network_config.h"

namespace sphinx::rdma {

class FaultInjector;

class Fabric {
 public:
  // Creates `config.num_mns` memory regions of `mn_size_bytes` each.
  Fabric(const NetworkConfig& config, uint64_t mn_size_bytes)
      : config_(config) {
    regions_.reserve(config.num_mns);
    for (uint32_t i = 0; i < config.num_mns; ++i) {
      regions_.push_back(std::make_unique<MemoryRegion>(mn_size_bytes));
    }
  }

  const NetworkConfig& config() const { return config_; }
  uint32_t num_mns() const { return static_cast<uint32_t>(regions_.size()); }

  MemoryRegion& region(uint32_t mn) {
    assert(mn < regions_.size());
    return *regions_[mn];
  }
  const MemoryRegion& region(uint32_t mn) const {
    assert(mn < regions_.size());
    return *regions_[mn];
  }

  // Installs (or removes, with nullptr) a fault injector consulted by every
  // metered verb. Non-owning; the injector must outlive its installation.
  void set_fault_injector(FaultInjector* injector) {
    fault_injector_.store(injector, std::memory_order_release);
  }
  FaultInjector* fault_injector() const {
    return fault_injector_.load(std::memory_order_acquire);
  }

 private:
  NetworkConfig config_;
  std::vector<std::unique_ptr<MemoryRegion>> regions_;
  std::atomic<FaultInjector*> fault_injector_{nullptr};
};

}  // namespace sphinx::rdma
