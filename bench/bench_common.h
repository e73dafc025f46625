// Plumbing for bench_ycsb: cluster sizing, flag parsing, the standard fault
// schedule and per-system cache budgets.
#pragma once

#include <cstdint>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/table_printer.h"
#include "memnode/cluster.h"
#include "rdma/fault_injector.h"
#include "rdma/network_config.h"
#include "ycsb/dataset.h"
#include "ycsb/runner.h"
#include "ycsb/systems.h"
#include "ycsb/workload.h"

namespace sphinx::bench {

// Sizes each MN region so `keys` fit with headroom for the most
// memory-hungry system (SMART's homogeneous nodes) plus fragmentation.
inline uint64_t mn_bytes_for_keys(uint64_t keys, uint32_t num_mns) {
  // Leaf (128 B) + inner-node share with SMART's homogeneous Node-256
  // blowup (email trees run ~0.4 inner nodes per key x 2112 B) + allocator
  // chunk leases for hundreds of workers.
  const uint64_t per_key = 1600;
  const uint64_t per_mn = keys * per_key / num_mns + (128ull << 20);
  return per_mn;
}

// Builds a cluster sized for `keys` on `config`'s fabric topology.
// `mn_bytes_override` (--mem-budget) replaces the per-MN auto-sizing when
// nonzero; a deliberately small budget drives the allocator into degraded
// mode (alloc_failures / alloc_degraded_ops instead of crashes).
inline std::unique_ptr<mem::Cluster> make_cluster(
    uint64_t keys, uint64_t mn_bytes_override,
    const rdma::NetworkConfig& config) {
  const uint64_t mn_bytes = mn_bytes_override > 0
                                ? mn_bytes_override
                                : mn_bytes_for_keys(keys, config.num_mns);
  return std::make_unique<mem::Cluster>(config, mn_bytes);
}

// Parses --systems as a csv of names from ycsb::kSystemNames; rejects
// unknown names instead of silently picking a default (a sweep script that
// typos a system must not benchmark the wrong baseline all night).
inline bool parse_systems(const std::string& spec,
                          std::vector<ycsb::SystemKind>* out) {
  out->clear();
  std::stringstream ss(spec);
  std::string token;
  while (std::getline(ss, token, ',')) {
    ycsb::SystemKind kind;
    if (!ycsb::parse_system_kind(token, &kind)) {
      std::cerr << "--systems: unknown system '" << token << "' (expected";
      for (const ycsb::SystemName& n : ycsb::kSystemNames) {
        std::cerr << " " << n.cli;
      }
      std::cerr << ")\n";
      return false;
    }
    out->push_back(kind);
  }
  if (out->empty()) {
    std::cerr << "--systems: empty list\n";
    return false;
  }
  return true;
}

// Fresh keys one phase of `spec` can claim from the runner's key pool: one
// per op when its mix inserts (every op may draw an insert), else none.
// A runner serves every phase of a cluster in turn, so the pool must cover
// the sum over all of them; past its end the runner turns inserts into
// updates (RunResult::insert_overflow).
inline uint64_t insert_claims(const ycsb::WorkloadSpec& spec,
                              uint64_t workers, uint64_t ops_per_worker) {
  return spec.insert > 0 ? workers * ops_per_worker : 0;
}

// Parses a csv of positive integers ("6,12,24"). Returns false -- with a
// "--<flag>: ..." diagnostic on stderr -- on empty tokens, non-numeric
// garbage, trailing junk ("12x"), zeros, or an empty list, instead of
// letting std::stoul throw (or worse, parse "12x" as 12).
inline bool parse_u32_list(const std::string& flag, const std::string& spec,
                           std::vector<uint32_t>* out) {
  out->clear();
  std::stringstream ss(spec);
  std::string token;
  while (std::getline(ss, token, ',')) {
    uint64_t v = 0;
    size_t pos = 0;
    try {
      v = std::stoul(token, &pos);
    } catch (const std::exception&) {
      pos = 0;
    }
    if (token.empty() || pos != token.size() || v == 0 || v > UINT32_MAX) {
      std::cerr << "--" << flag << ": expected a csv of positive integers, "
                << "got '" << spec << "' (bad token '" << token << "')\n";
      return false;
    }
    out->push_back(static_cast<uint32_t>(v));
  }
  if (out->empty()) {
    std::cerr << "--" << flag << ": empty list\n";
    return false;
  }
  return true;
}

// Parses --datasets as exact comma-separated tokens ("u64,email"). Exact
// match, not substring: the old `spec.find(name) != npos` test meant
// --datasets=u or any typo containing 'u' silently selected u64 (and
// "email" contains no dataset name it doesn't own, but "u64,emial" kept
// u64 and dropped email without a word). Unknown tokens are errors.
inline bool parse_datasets(const std::string& spec,
                           std::vector<ycsb::DatasetKind>* out) {
  out->clear();
  std::stringstream ss(spec);
  std::string token;
  while (std::getline(ss, token, ',')) {
    if (token == ycsb::dataset_name(ycsb::DatasetKind::kU64)) {
      out->push_back(ycsb::DatasetKind::kU64);
    } else if (token == ycsb::dataset_name(ycsb::DatasetKind::kEmail)) {
      out->push_back(ycsb::DatasetKind::kEmail);
    } else {
      std::cerr << "--datasets: unknown dataset '" << token
                << "' (expected u64, email)\n";
      return false;
    }
  }
  if (out->empty()) {
    std::cerr << "--datasets: empty list\n";
    return false;
  }
  return true;
}

// Parses --workloads as a csv of standard workload letters (A-F, L, either
// case) and "churn" (the reclamation-stress mix). Unknown or empty tokens
// are errors.
inline bool parse_workloads(const std::string& spec,
                            std::vector<std::string>* out) {
  out->clear();
  std::stringstream ss(spec);
  std::string token;
  while (std::getline(ss, token, ',')) {
    if (token != "churn" &&
        (token.size() != 1 ||
         std::string("ABCDEFLabcdefl").find(token[0]) == std::string::npos)) {
      std::cerr << "--workloads: unknown token '" << token
                << "' (expected a csv of A-F, L and churn)\n";
      return false;
    }
    out->push_back(token);
  }
  if (out->empty()) {
    std::cerr << "--workloads: empty list\n";
    return false;
  }
  return true;
}

// Standard background fault schedule for `--faults=<rate>` bench runs:
// `rate` scales the per-verb probability of a congestion delay, with
// proportionally rarer stalls and CAS race losses (tagged sites only).
// `crash_rate` (--crash-rate) additionally kills clients: any tagged
// protocol verb crashes its endpoint with that probability, exercising the
// lease-reclamation paths (the runner reincarnates crashed workers).
// Deterministic under `seed`; see rdma/fault_injector.h and
// EXPERIMENTS.md ("Fault injection & stress testing").
inline std::unique_ptr<rdma::FaultInjector> make_fault_injector(
    double rate, uint64_t seed, double crash_rate = 0.0) {
  auto injector = std::make_unique<rdma::FaultInjector>(seed);
  if (rate > 0.0) {
    rdma::FaultRule delay;
    delay.kind = rdma::FaultKind::kDelay;
    delay.probability = rate;
    delay.delay_ns = 400;
    injector->add_rule(delay);
    rdma::FaultRule stall;
    stall.kind = rdma::FaultKind::kStall;
    stall.probability = rate / 5.0;
    stall.delay_ns = 2000;
    injector->add_rule(stall);
    rdma::FaultRule casfail;
    casfail.kind = rdma::FaultKind::kCasFail;
    casfail.probability = rate / 2.0;
    casfail.site = rdma::FaultSite::kAny;
    injector->add_rule(casfail);
  }
  if (crash_rate > 0.0) {
    rdma::FaultRule crash;
    crash.kind = rdma::FaultKind::kClientCrash;
    crash.probability = crash_rate;
    crash.site = rdma::FaultSite::kAny;
    injector->add_rule(crash);
  }
  return injector;
}

inline std::string fault_summary(const rdma::FaultStats& stats) {
  return "faults: " + std::to_string(stats.delays) + " delays, " +
         std::to_string(stats.stalls) + " stalls, " +
         std::to_string(stats.cas_failures) + " cas-losses, " +
         std::to_string(stats.offline_rejects) + " offline-rejects, " +
         std::to_string(stats.client_crashes) + " client-crashes (" +
         std::to_string(stats.verbs_inspected) + " verbs inspected)";
}

// CN cache budget for `kind`, scaled from the paper's 20 MB / 200 MB @60M
// keys down to the bench's key count (see ycsb::scaled_cache_budget).
inline uint64_t cache_budget_for(ycsb::SystemKind kind, uint64_t keys) {
  const uint64_t paper_budget = kind == ycsb::SystemKind::kSmartC
                                    ? ycsb::kLargeCacheBudget
                                    : ycsb::kDefaultCacheBudget;
  return ycsb::scaled_cache_budget(paper_budget, keys);
}

}  // namespace sphinx::bench
