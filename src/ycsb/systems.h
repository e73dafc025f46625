// Constructs the four evaluated systems (Sphinx, SMART, SMART+C, ART) plus
// the Sphinx cache-tier ablations behind a uniform factory interface,
// owning the shared CN-side state (succinct filter caches, node caches)
// each system needs.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "art/remote_tree.h"
#include "core/sphinx_index.h"
#include "filter/cuckoo_filter.h"
#include "filter/hint_cache.h"
#include "smart/node_cache.h"
#include "ycsb/runner.h"

namespace sphinx::ycsb {

// New kinds go at the end: parameterized test names print the value.
enum class SystemKind {
  kSphinx,          // INHT + SFC + prefix entry cache + leaf address cache
  kSphinxNoFilter,  // ablation A1: INHT only (parallel multi-entry reads)
  kSmart,           // ART + CN node cache (paper: 20 MB)
  kSmartC,          // SMART with the large cache (paper: 200 MB)
  kArt,             // plain ART ported to DM
  kSphinxNoPec,     // ablation: Sphinx without the prefix entry cache
  kSphinxNoLac,     // ablation: Sphinx without the leaf address cache
};

// The one name table: display names head bench tables and JSON records;
// CLI names are what --systems takes.
struct SystemName {
  SystemKind kind;
  const char* display;
  const char* cli;
};
inline constexpr SystemName kSystemNames[] = {
    {SystemKind::kSphinx, "Sphinx", "sphinx"},
    {SystemKind::kSphinxNoFilter, "Sphinx-NoSFC", "sphinx-nosfc"},
    {SystemKind::kSphinxNoPec, "Sphinx-NoPEC", "sphinx-nopec"},
    {SystemKind::kSphinxNoLac, "Sphinx-NoLAC", "sphinx-nolac"},
    {SystemKind::kSmart, "SMART", "smart"},
    {SystemKind::kSmartC, "SMART+C", "smart+c"},
    {SystemKind::kArt, "ART", "art"},
};

const char* system_kind_name(SystemKind kind);

// Looks `name` up as a CLI or display name; false if it is neither.
bool parse_system_kind(const std::string& name, SystemKind* out);

// Per-CN cache budgets from the paper's setup (Sec. V-A).
constexpr uint64_t kDefaultCacheBudget = 20ull << 20;   // 20 MB
constexpr uint64_t kLargeCacheBudget = 200ull << 20;    // 200 MB (SMART+C)
constexpr uint64_t kPaperDatasetKeys = 60'000'000;      // paper: 60 M keys

// Scales the paper's absolute CN-side cache budget to a scaled-down
// dataset. The paper pairs 20 MB caches with 60 M keys (4.2% of the u64
// key bytes, 1.8% of email); keeping that *ratio* preserves the regime the
// figures measure -- a cache far smaller than the index's hot working set.
inline uint64_t scaled_cache_budget(uint64_t budget_at_paper_scale,
                                    uint64_t keys) {
  const uint64_t scaled =
      budget_at_paper_scale * keys / kPaperDatasetKeys;
  return scaled < (96ull << 10) ? (96ull << 10) : scaled;
}

class SystemSetup {
 public:
  // Creates the remote structures for `kind` on `cluster` and the per-CN
  // shared caches sized to `cache_budget_bytes`: SMART's node cache takes
  // all of it, and each Sphinx variant splits it across its cache tiers by
  // the table in systems.cpp.
  SystemSetup(SystemKind kind, mem::Cluster& cluster,
              uint64_t cache_budget_bytes = kDefaultCacheBudget);

  const std::string& name() const { return name_; }
  SystemKind kind() const { return kind_; }
  IndexFactory factory();

  // Builds a standalone client (e.g. for examples/tests outside the
  // runner); caller keeps endpoint/allocator alive.
  std::unique_ptr<KvIndex> make_client(uint32_t cn, rdma::Endpoint& endpoint,
                                       mem::RemoteAllocator& allocator);

  // CN-side cache memory actually in use (filter slots / cached nodes).
  uint64_t cn_cache_bytes(uint32_t cn) const;

  // A/B switch for bench_ycsb --no-scan-jump: when false, Sphinx clients
  // enter scans at the root like the baselines (SFC/PEC still serve point
  // ops). No effect on non-Sphinx systems.
  void set_scan_jump(bool enabled) { scan_jump_ = enabled; }

  // A/B switch for bench_ycsb --root-replicas: when false, ART and
  // Sphinx clients read only the primary root (pre-replication routing),
  // exposing the root MN's NIC as the saturation bottleneck. SMART always
  // runs with replicas off (its NodeCache fronts the primary root).
  void set_root_replicas(bool enabled) { root_replicas_ = enabled; }

  filter::CuckooFilter* filter(uint32_t cn) {
    return cn < filters_.size() ? filters_[cn].get() : nullptr;
  }
  filter::HintCache* pec(uint32_t cn) {
    return cn < pecs_.size() ? pecs_[cn].get() : nullptr;
  }
  filter::HintCache* lac(uint32_t cn) {
    return cn < lacs_.size() ? lacs_[cn].get() : nullptr;
  }
  smart::NodeCache* node_cache(uint32_t cn) {
    return cn < caches_.size() ? caches_[cn].get() : nullptr;
  }
  const core::SphinxRefs* sphinx_refs() const {
    return sphinx_refs_ ? sphinx_refs_.get() : nullptr;
  }

 private:
  SystemKind kind_;
  mem::Cluster& cluster_;
  std::string name_;
  bool scan_jump_ = true;
  bool root_replicas_ = true;
  art::TreeRef tree_ref_;
  std::unique_ptr<core::SphinxRefs> sphinx_refs_;
  std::vector<std::unique_ptr<filter::CuckooFilter>> filters_;      // per CN
  std::vector<std::unique_ptr<filter::HintCache>> pecs_;            // per CN
  std::vector<std::unique_ptr<filter::HintCache>> lacs_;            // per CN
  std::vector<std::unique_ptr<smart::NodeCache>> caches_;           // per CN
};

}  // namespace sphinx::ycsb
