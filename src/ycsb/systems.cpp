#include "ycsb/systems.h"

#include "art/art_index.h"
#include "smart/smart_index.h"

namespace sphinx::ycsb {

const char* system_kind_name(SystemKind kind) {
  for (const SystemName& n : kSystemNames) {
    if (n.kind == kind) return n.display;
  }
  return "?";
}

bool parse_system_kind(const std::string& name, SystemKind* out) {
  for (const SystemName& n : kSystemNames) {
    if (name == n.cli || name == n.display) {
      *out = n.kind;
      return true;
    }
  }
  return false;
}

namespace {

// How each Sphinx variant splits the CN cache budget, in percent: filter
// (SFC), prefix entry cache, leaf address cache. About 5% stays reserved
// for the INHT directory caches (the paper sizes those at 2-5% of the
// filter budget), and a tier a variant turns off hands its slice to the
// filter -- except in NoSFC, the pure-INHT baseline, which has no tiers.
// A tier with a zero share is off (null pointer in SphinxIndex).
struct TierShares {
  uint64_t sfc = 0;
  uint64_t pec = 0;
  uint64_t lac = 0;
};

TierShares sphinx_tier_shares(SystemKind kind) {
  switch (kind) {
    case SystemKind::kSphinx:
      return {45, 25, 25};
    case SystemKind::kSphinxNoPec:
      return {70, 0, 25};
    case SystemKind::kSphinxNoLac:
      return {70, 25, 0};
    default:
      return {};
  }
}

}  // namespace

SystemSetup::SystemSetup(SystemKind kind, mem::Cluster& cluster,
                         uint64_t cache_budget_bytes)
    : kind_(kind), cluster_(cluster), name_(system_kind_name(kind)) {
  const uint32_t num_cns = cluster.config().num_cns;
  switch (kind) {
    case SystemKind::kSphinx:
    case SystemKind::kSphinxNoFilter:
    case SystemKind::kSphinxNoPec:
    case SystemKind::kSphinxNoLac: {
      sphinx_refs_ = std::make_unique<core::SphinxRefs>(
          core::create_sphinx(cluster));
      const TierShares shares = sphinx_tier_shares(kind);
      for (uint32_t cn = 0; cn < num_cns; ++cn) {
        if (shares.sfc > 0) {
          filters_.push_back(filter::CuckooFilter::with_budget(
              cache_budget_bytes * shares.sfc / 100));
        }
        if (shares.pec > 0) {
          pecs_.push_back(filter::HintCache::with_budget(
              cache_budget_bytes * shares.pec / 100));
        }
        if (shares.lac > 0) {
          lacs_.push_back(filter::HintCache::with_budget(
              cache_budget_bytes * shares.lac / 100));
        }
      }
      break;
    }
    case SystemKind::kSmart:
    case SystemKind::kSmartC:
      tree_ref_ = art::create_tree(cluster);
      for (uint32_t cn = 0; cn < num_cns; ++cn) {
        caches_.push_back(
            std::make_unique<smart::NodeCache>(cache_budget_bytes));
      }
      break;
    case SystemKind::kArt:
      tree_ref_ = art::create_tree(cluster);
      break;
  }
}

// Pipelining honesty note: only Sphinx overrides KvIndex::execute_batch
// (cross-op doorbell fusion of the LAC fast path). SMART, SMART+C and ART
// deliberately keep the inherited naive serial loop -- one op at a time,
// zero overlap -- so --pipeline-depth > 1 changes *their* numbers only
// through batch-boundary effects (none on the virtual clock), and the
// 4-system comparison measures Sphinx's pipelined client against
// unpipelined baselines explicitly, not against accidental stubs.
std::unique_ptr<KvIndex> SystemSetup::make_client(
    uint32_t cn, rdma::Endpoint& endpoint, mem::RemoteAllocator& allocator) {
  switch (kind_) {
    case SystemKind::kSphinx:
    case SystemKind::kSphinxNoFilter:
    case SystemKind::kSphinxNoPec:
    case SystemKind::kSphinxNoLac: {
      art::TreeConfig config;
      config.scan_jump = scan_jump_;
      config.replicate_root = root_replicas_;
      return std::make_unique<core::SphinxIndex>(
          cluster_, endpoint, allocator, *sphinx_refs_, filter(cn), pec(cn),
          lac(cn), config);
    }
    case SystemKind::kSmart:
    case SystemKind::kSmartC:
      return std::make_unique<smart::SmartIndex>(
          cluster_, endpoint, allocator, tree_ref_, *caches_[cn],
          system_kind_name(kind_));
    case SystemKind::kArt: {
      art::TreeConfig config = art::ArtIndex::baseline_config();
      config.replicate_root = root_replicas_;
      return std::make_unique<art::ArtIndex>(cluster_, endpoint, allocator,
                                             tree_ref_, config);
    }
  }
  return nullptr;
}

IndexFactory SystemSetup::factory() {
  return [this](uint32_t worker_id, uint32_t cn, rdma::Endpoint& endpoint,
                mem::RemoteAllocator& allocator) {
    (void)worker_id;
    return make_client(cn, endpoint, allocator);
  };
}

uint64_t SystemSetup::cn_cache_bytes(uint32_t cn) const {
  uint64_t total = 0;
  if (cn < filters_.size() && filters_[cn]) {
    total += filters_[cn]->memory_bytes();
  }
  if (cn < pecs_.size() && pecs_[cn]) {
    total += pecs_[cn]->memory_bytes();
  }
  if (cn < lacs_.size() && lacs_[cn]) {
    total += lacs_[cn]->memory_bytes();
  }
  if (cn < caches_.size() && caches_[cn]) {
    total += caches_[cn]->bytes_used();
  }
  return total;
}

}  // namespace sphinx::ycsb
