// Tests for the frontier-batched scan engine: oracle semantics, the
// concurrent-mutation recovery paths (stale frontier pointers chased, not
// dropped; genuine deletes skipped; exhausted budgets reported as
// truncation instead of silent success), the validated cached-root entry,
// and the Sphinx cache-aware entry (SFC/PEC jump + widen-and-resume).
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "art/art_index.h"
#include "art/node_layout.h"
#include "common/rng.h"
#include "core/sphinx_index.h"
#include "test_util.h"
#include "ycsb/systems.h"

namespace sphinx::art {
namespace {

using KvList = std::vector<std::pair<std::string, std::string>>;

// A RemoteTree whose on_scan_inner hook is a test-installable callback:
// the hook fires when the frontier expands a fetched inner node, which is
// exactly the window in which a concurrent mutator can invalidate sibling
// slots the scan has already snapshotted.
class HookedTree : public RemoteTree {
 public:
  HookedTree(mem::Cluster& cluster, rdma::Endpoint& endpoint,
             mem::RemoteAllocator& allocator, const TreeRef& ref,
             const TreeConfig& config)
      : RemoteTree(cluster, endpoint, allocator, ref, config) {}

  std::function<void(rdma::GlobalAddr, const InnerImage&)> hook;

 protected:
  void on_scan_inner(rdma::GlobalAddr addr, const InnerImage& image) override {
    if (hook) hook(addr, image);
  }
};

// Fixture with two independent clients on one tree: a hooked scanner and a
// plain ART mutator whose writes race the scanner's frontier.
class ScanRaceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_ = testing::make_test_cluster();
    ref_ = create_tree(*cluster_);
    scan_ep_ = std::make_unique<rdma::Endpoint>(cluster_->fabric(), 0, true);
    scan_alloc_ =
        std::make_unique<mem::RemoteAllocator>(*cluster_, *scan_ep_);
    mut_ep_ = std::make_unique<rdma::Endpoint>(cluster_->fabric(), 1, true);
    mut_alloc_ = std::make_unique<mem::RemoteAllocator>(*cluster_, *mut_ep_);
    mutator_ =
        std::make_unique<ArtIndex>(*cluster_, *mut_ep_, *mut_alloc_, ref_);
  }

  void make_scanner(const TreeConfig& config) {
    scanner_ = std::make_unique<HookedTree>(*cluster_, *scan_ep_,
                                            *scan_alloc_, ref_, config);
  }

  // root -> "a" (inner, depth 1) -> { "aa" (full Node-4: aa1..aa4),
  // "ab" (leaf), "ac" (leaf) }, plus "b" so the root has a sibling.
  void load_two_level_tree() {
    for (const char* k : {"aa1", "aa2", "aa3", "aa4", "ab", "ac", "b"}) {
      ASSERT_TRUE(mutator_->insert(k, std::string("v:") + k));
    }
  }

  std::vector<std::string> keys_of(const KvList& out) {
    std::vector<std::string> keys;
    for (const auto& [k, v] : out) keys.push_back(k);
    return keys;
  }

  std::unique_ptr<mem::Cluster> cluster_;
  TreeRef ref_;
  std::unique_ptr<rdma::Endpoint> scan_ep_;
  std::unique_ptr<mem::RemoteAllocator> scan_alloc_;
  std::unique_ptr<rdma::Endpoint> mut_ep_;
  std::unique_ptr<mem::RemoteAllocator> mut_alloc_;
  std::unique_ptr<ArtIndex> mutator_;
  std::unique_ptr<HookedTree> scanner_;
};

// Regression for the silent-subtree-skip bug: a frontier slot that goes
// stale because its child type-switched out of place (Node-4 "aa" grows to
// Node-16 at a new address) must be re-resolved through the live parent
// slot and the fresh subtree scanned -- not dropped.
TEST_F(ScanRaceTest, StaleFrontierPointerIsChasedNotDropped) {
  make_scanner(TreeConfig());
  load_two_level_tree();
  bool mutated = false;
  scanner_->hook = [&](rdma::GlobalAddr, const InnerImage& image) {
    if (mutated || image.depth() != 1) return;
    mutated = true;
    // The scanner has expanded "a" from an already-fetched image; growing
    // "aa" now invalidates the old node *after* its slot was snapshotted.
    ASSERT_TRUE(mutator_->insert("aa5", "v:aa5"));
  };
  KvList out;
  scanner_->scan("a", 100, &out);
  ASSERT_TRUE(mutated);

  const auto keys = keys_of(out);
  const std::vector<std::string> want = {"aa1", "aa2", "aa3", "aa4",
                                         "aa5", "ab",  "ac",  "b"};
  EXPECT_EQ(keys, want);
  const rdma::ScanStats& scan = scanner_->tree_stats().scan;
  EXPECT_GE(scan.stale_retries, 1u);
  EXPECT_EQ(scan.subtree_skips, 0u);
  EXPECT_EQ(scan.leaf_drops, 0u);
  EXPECT_FALSE(scanner_->last_scan_truncated());
}

// Same race, with the stale node fetched behind the head: the batch that
// reads aa's leaves and "ab" also reads "ac" (switched out after its slot
// was snapshotted) and "ad" speculatively. Expanding fetched nodes as they
// land must leave the stale image alone (expanding "ab" and "ad" around
// it), and the head loop must chase the fresh pointer once it gets there.
TEST_F(ScanRaceTest, StaleSiblingFetchedBehindTheHeadIsChased) {
  make_scanner(TreeConfig());
  // root -> "a" -> { "aa", "ab", "ad" (three leaves each), "ac" (full
  // Node-4: ac1..ac4) }, plus "b".
  for (const char* k : {"aa1", "aa2", "aa3", "ab1", "ab2", "ab3", "ac1",
                        "ac2", "ac3", "ac4", "ad1", "ad2", "ad3", "b"}) {
    ASSERT_TRUE(mutator_->insert(k, std::string("v:") + k));
  }
  std::string expanded;  // branch byte of each depth-2 node, in order
  scanner_->hook = [&](rdma::GlobalAddr, const InnerImage& image) {
    if (image.depth() != 2) return;
    const uint64_t fw = image.frag_word();
    expanded += static_cast<char>(frag_byte(fw, frag_len(fw) - 1));
    // "aa" is expanded before any sibling is fetched; growing "ac" now
    // leaves its snapshotted slot word pointing at the Invalid old node,
    // which the next batch fetches behind "ab".
    if (expanded == "a") ASSERT_TRUE(mutator_->insert("ac5", "v:ac5"));
  };
  KvList out;
  scanner_->scan("a", 100, &out);

  const std::vector<std::string> want = {
      "aa1", "aa2", "aa3", "ab1", "ab2", "ab3", "ac1", "ac2",
      "ac3", "ac4", "ac5", "ad1", "ad2", "ad3", "b"};
  EXPECT_EQ(keys_of(out), want);
  // "ad" was expanded on landing, ahead of the re-fetched "ac".
  EXPECT_EQ(expanded, "abdc");
  const rdma::ScanStats& scan = scanner_->tree_stats().scan;
  EXPECT_GE(scan.stale_retries, 1u);
  EXPECT_EQ(scan.subtree_skips, 0u);
  EXPECT_EQ(scan.leaf_drops, 0u);
  EXPECT_FALSE(scanner_->last_scan_truncated());
}

// A leaf removed mid-scan (Invalid status, slot possibly still linked) is
// a genuine delete: skipped with no counters tripped and no truncation.
TEST_F(ScanRaceTest, ConcurrentlyRemovedLeafIsSkippedCleanly) {
  make_scanner(TreeConfig());
  load_two_level_tree();
  bool mutated = false;
  scanner_->hook = [&](rdma::GlobalAddr, const InnerImage& image) {
    if (mutated || image.depth() != 1) return;
    mutated = true;
    ASSERT_TRUE(mutator_->remove("ab"));
  };
  KvList out;
  scanner_->scan("a", 100, &out);
  ASSERT_TRUE(mutated);

  const auto keys = keys_of(out);
  // "ab" may legitimately appear (scan linearized before the remove) only
  // if its leaf was fetched before the hook ran; the frontier fetches
  // children after the expansion that fires the hook, so it must be gone.
  const std::vector<std::string> want = {"aa1", "aa2", "aa3", "aa4", "ac",
                                         "b"};
  EXPECT_EQ(keys, want);
  const rdma::ScanStats& scan = scanner_->tree_stats().scan;
  EXPECT_EQ(scan.subtree_skips, 0u);
  EXPECT_EQ(scan.leaf_drops, 0u);
  EXPECT_FALSE(scanner_->last_scan_truncated());
}

// Regression for truncation-reported-as-success: when the retry budget
// exhausts on a subtree that never resolves, the scan must say so --
// last_scan_truncated() true, the skip counted -- while the rest of the
// range is still returned in order.
TEST_F(ScanRaceTest, ExhaustedRetryBudgetReportsSubtreeTruncation) {
  TreeConfig config;
  config.retry.max_attempts = 4;  // small budget so the drop is reached
  make_scanner(config);
  load_two_level_tree();

  // Locate the "aa" node (depth 2) via a clean scan, then corrupt its
  // header to a permanently-Invalid state with the parent slot unchanged:
  // re-resolution keeps returning the same dead pointer.
  rdma::GlobalAddr aa_addr;
  bool found = false;
  scanner_->hook = [&](rdma::GlobalAddr addr, const InnerImage& image) {
    if (image.depth() == 2) {
      aa_addr = addr;
      found = true;
    }
  };
  KvList warm;
  scanner_->scan("a", 100, &warm);
  ASSERT_TRUE(found);
  ASSERT_EQ(warm.size(), 7u);
  scanner_->hook = nullptr;

  rdma::Endpoint raw(cluster_->fabric(), 2, /*metered=*/false);
  raw.write64(aa_addr,
              with_status(raw.read64(aa_addr), NodeStatus::kInvalid));

  KvList out;
  scanner_->scan("a", 100, &out);
  const auto keys = keys_of(out);
  const std::vector<std::string> want = {"ab", "ac", "b"};
  EXPECT_EQ(keys, want);
  EXPECT_TRUE(scanner_->last_scan_truncated());
  const rdma::ScanStats& scan = scanner_->tree_stats().scan;
  EXPECT_GE(scan.subtree_skips, 1u);
  EXPECT_GE(scan.truncated_scans, 1u);

  // And the flag is per-scan: an unaffected range scans clean again.
  out.clear();
  scanner_->scan("b", 10, &out);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_FALSE(scanner_->last_scan_truncated());
}

// Same, for a single leaf whose image never passes the checksum: the drop
// is counted as a leaf loss and the scan reports incompleteness.
TEST_F(ScanRaceTest, ExhaustedLeafRereadsReportTruncation) {
  TreeConfig config;
  config.retry.max_attempts = 4;
  make_scanner(config);
  load_two_level_tree();

  // Grab the "ab" leaf address from the expansion of "a" (depth 1).
  rdma::GlobalAddr ab_addr;
  bool found = false;
  scanner_->hook = [&](rdma::GlobalAddr, const InnerImage& image) {
    if (image.depth() != 1) return;
    for (uint32_t i = 0; i < image.capacity(); ++i) {
      const uint64_t w = image.slot(i);
      if (slot_valid(w) && slot_is_leaf(w) && slot_pkey(w) == 'b') {
        ab_addr = slot_addr(w);
        found = true;
      }
    }
  };
  KvList warm;
  scanner_->scan("a", 100, &warm);
  ASSERT_TRUE(found);
  scanner_->hook = nullptr;

  // Flip a byte in the key/value body: the CRC fails against both the
  // header and the trailer lengths, so every reread looks torn.
  rdma::Endpoint raw(cluster_->fabric(), 2, /*metered=*/false);
  raw.write64(ab_addr.plus(16), raw.read64(ab_addr.plus(16)) ^ 0xff);

  KvList out;
  scanner_->scan("a", 100, &out);
  const auto keys = keys_of(out);
  const std::vector<std::string> want = {"aa1", "aa2", "aa3", "aa4", "ac",
                                         "b"};
  EXPECT_EQ(keys, want);
  EXPECT_TRUE(scanner_->last_scan_truncated());
  EXPECT_GE(scanner_->tree_stats().scan.leaf_drops, 1u);
}

// The cached-root entry must stay coherent: a subtree that appears under a
// brand-new first byte between two scans is caught by the piggybacked
// revalidation read, not missed.
TEST_F(ScanRaceTest, CachedRootRevalidationSeesNewSubtree) {
  make_scanner(TreeConfig());  // cache_scan_root defaults on
  load_two_level_tree();
  KvList out;
  scanner_->scan("a", 100, &out);  // warms the root cache
  EXPECT_EQ(out.size(), 7u);

  ASSERT_TRUE(mutator_->insert("zebra", "v:zebra"));
  out.clear();
  scanner_->scan("a", 100, &out);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.back().first, "zebra");
  EXPECT_GE(scanner_->tree_stats().scan.root_refreshes, 1u);
}

// Satellite of the redundant-root-RTT fix: once the root image is cached,
// a root-entry scan pays no standalone root round trip (the revalidation
// rides the first frontier batch).
TEST_F(ScanRaceTest, CachedRootSavesTheStandaloneRootRtt) {
  make_scanner(TreeConfig());
  load_two_level_tree();
  KvList out;
  scanner_->scan("a", 100, &out);
  const uint64_t cold = scan_ep_->stats().round_trips;
  out.clear();
  scanner_->scan("a", 100, &out);
  const uint64_t warm = scan_ep_->stats().round_trips - cold;
  EXPECT_EQ(out.size(), 7u);
  // Cold: root fetch + frontier batches. Warm: frontier batches only.
  EXPECT_LT(warm, cold);
  EXPECT_GE(scanner_->tree_stats().scan.root_starts, 2u);
}

// Every fetched inner node that validates is expanded when its batch
// lands, so one batch reads the leaves of all the subtrees fetched before
// it instead of one subtree per round trip.
TEST_F(ScanRaceTest, OneBatchReadsTheLeavesOfManySubtrees) {
  make_scanner(TreeConfig());
  // root -> "a" -> { "aa".."ad" (Node-4, three leaves each) }, plus "b".
  std::map<std::string, std::string> oracle;
  for (const char* sub : {"aa", "ab", "ac", "ad"}) {
    for (const char* leaf : {"1", "2", "3"}) {
      const std::string k = std::string(sub) + leaf;
      ASSERT_TRUE(mutator_->insert(k, "v:" + k));
      oracle.emplace(k, "v:" + k);
    }
  }
  ASSERT_TRUE(mutator_->insert("b", "v:b"));
  KvList out;
  scanner_->scan("a", 12, &out);  // warms the cached root

  const uint64_t batches = scanner_->tree_stats().scan.frontier_batches;
  const uint64_t rtts = scan_ep_->stats().round_trips;
  out.clear();
  scanner_->scan("a", 12, &out);
  // 1: "a" plus the root revalidation. 2: "aa". 3: aa's leaves plus
  // "ab".."ad", which expand on landing. 4: the nine leaves under those
  // three. Expanding at the frontier's head only took 6: one per subtree.
  EXPECT_EQ(scanner_->tree_stats().scan.frontier_batches - batches, 4u);
  EXPECT_EQ(scan_ep_->stats().round_trips - rtts, 4u);
  EXPECT_EQ(out, KvList(oracle.begin(), oracle.end()));
  EXPECT_FALSE(scanner_->last_scan_truncated());
}

// ---- oracle semantics ---------------------------------------------------------

TEST(ScanOracle, ArtScanAndScanRangeMatchStdMap) {
  auto cluster = testing::make_test_cluster();
  const TreeRef ref = create_tree(*cluster);
  rdma::Endpoint ep(cluster->fabric(), 0, true);
  mem::RemoteAllocator alloc(*cluster, ep);
  ArtIndex index(*cluster, ep, alloc, ref);

  std::map<std::string, std::string> oracle;
  const auto keys = testing::mixed_keys(1200);
  for (const auto& k : keys) {
    const std::string v = "v:" + k;
    index.insert(k, v);
    oracle.emplace(k, v);
  }

  Rng rng(0xd1ce);
  KvList out;
  for (int q = 0; q < 60; ++q) {
    const std::string& start = keys[rng.next_below(keys.size())];
    const size_t count = 1 + rng.next_below(64);
    out.clear();
    index.scan(start, count, &out);
    auto it = oracle.lower_bound(start);
    for (const auto& [k, v] : out) {
      ASSERT_NE(it, oracle.end());
      EXPECT_EQ(k, it->first);
      EXPECT_EQ(v, it->second);
      ++it;
    }
    const size_t avail =
        static_cast<size_t>(std::distance(oracle.lower_bound(start),
                                          oracle.end()));
    EXPECT_EQ(out.size(), std::min(count, avail));
    EXPECT_FALSE(index.last_scan_truncated());
  }
  for (int q = 0; q < 40; ++q) {
    std::string lo = keys[rng.next_below(keys.size())];
    std::string hi = keys[rng.next_below(keys.size())];
    if (hi < lo) std::swap(lo, hi);
    out.clear();
    index.scan_range(lo, hi, 1 << 20, &out);
    auto it = oracle.lower_bound(lo);
    const auto end = oracle.upper_bound(hi);
    for (const auto& [k, v] : out) {
      ASSERT_NE(it, end);
      EXPECT_EQ(k, it->first);
      ++it;
    }
    EXPECT_EQ(it, end);
  }
  const rdma::ScanStats& scan = index.tree_stats().scan;
  EXPECT_EQ(scan.subtree_skips, 0u);
  EXPECT_EQ(scan.leaf_drops, 0u);
  EXPECT_EQ(scan.truncated_scans, 0u);
}

// ---- Sphinx cache-aware entry -------------------------------------------------

class SphinxScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_ = testing::make_test_cluster();
    refs_ = core::create_sphinx(*cluster_);
    filter_ = filter::CuckooFilter::with_budget(1 << 20);
    endpoint_ = std::make_unique<rdma::Endpoint>(cluster_->fabric(), 0, true);
    allocator_ = std::make_unique<mem::RemoteAllocator>(*cluster_, *endpoint_);
    index_ = std::make_unique<core::SphinxIndex>(
        *cluster_, *endpoint_, *allocator_, refs_, filter_.get());
  }

  std::unique_ptr<mem::Cluster> cluster_;
  core::SphinxRefs refs_;
  std::unique_ptr<filter::CuckooFilter> filter_;
  std::unique_ptr<rdma::Endpoint> endpoint_;
  std::unique_ptr<mem::RemoteAllocator> allocator_;
  std::unique_ptr<core::SphinxIndex> index_;
};

// Count scans from deep keys enter below the root via the filter cache and
// widen-and-resume upward, and still return exactly the oracle's answer.
TEST_F(SphinxScanTest, JumpEntryAndWidenResumeMatchOracle) {
  std::map<std::string, std::string> oracle;
  const auto keys = testing::mixed_keys(1500);
  for (const auto& k : keys) {
    index_->insert(k, "v:" + k);
    oracle.emplace(k, "v:" + k);
  }

  Rng rng(0x5ca9);
  KvList out;
  for (int q = 0; q < 80; ++q) {
    const std::string& start = keys[rng.next_below(keys.size())];
    const size_t count = 1 + rng.next_below(48);
    out.clear();
    index_->scan(start, count, &out);
    auto it = oracle.lower_bound(start);
    for (const auto& [k, v] : out) {
      ASSERT_NE(it, oracle.end()) << start;
      EXPECT_EQ(k, it->first);
      ++it;
    }
    const size_t avail =
        static_cast<size_t>(std::distance(oracle.lower_bound(start),
                                          oracle.end()));
    EXPECT_EQ(out.size(), std::min(count, avail)) << start;
  }

  const rdma::ScanStats& scan = index_->tree_stats().scan;
  EXPECT_GT(scan.jump_starts, 0u);
  EXPECT_GT(scan.widen_resumes, 0u);
  EXPECT_GT(index_->sphinx_stats().scan_start_successes, 0u);
  EXPECT_EQ(scan.subtree_skips, 0u);
  EXPECT_EQ(scan.leaf_drops, 0u);
  EXPECT_EQ(scan.truncated_scans, 0u);
}

// A count scan whose entry lists fewer leaves than it needs widens before
// reading them: the wider entry's first batch fetches that subtree beside
// its siblings, one round trip less than reading the leaves first. A scan
// the entry's leaves can satisfy does not widen.
TEST_F(SphinxScanTest, CountScanWidensBeforeReadingTooFewLeaves) {
  // "user" (depth 4) -> { "user1", "user2", "user3" (leaves a, b, c) }.
  std::map<std::string, std::string> oracle;
  for (const char* user : {"user1", "user2", "user3"}) {
    for (const char* suffix : {"a", "b", "c"}) {
      const std::string k = std::string(user) + suffix;
      ASSERT_TRUE(index_->insert(k, "v:" + k));
      oracle.emplace(k, "v:" + k);
    }
  }
  struct Run {
    KvList out;
    uint64_t rtts = 0;
    uint64_t early_widens = 0;
  };
  auto scan = [&](size_t count) {
    Run r;
    const uint64_t rtts = endpoint_->stats().round_trips;
    const uint64_t early = index_->tree_stats().scan.early_widens;
    index_->scan("user1a", count, &r.out);
    r.rtts = endpoint_->stats().round_trips - rtts;
    r.early_widens = index_->tree_stats().scan.early_widens - early;
    return r;
  };
  auto oracle_from_start = [&](size_t count) {
    KvList want;
    for (auto it = oracle.begin(); it != oracle.end() && want.size() < count;
         ++it) {
      want.emplace_back(it->first, it->second);
    }
    return want;
  };
  scan(9);  // warms the SFC and PEC along the path

  // Entry "user1" (2 round trips); its three leaves cannot make six, so
  // the scan re-enters at "user" (2 more), reads "user1" and "user2" in
  // one batch and their six leaves in the next. Reading user1's leaves
  // before widening cost a seventh round trip.
  const Run wide = scan(6);
  EXPECT_EQ(wide.out, oracle_from_start(6));
  EXPECT_EQ(wide.early_widens, 1u);
  EXPECT_EQ(wide.rtts, 6u);

  // Three leaves meet a count of three: no widen, entry plus one batch.
  const Run narrow = scan(3);
  EXPECT_EQ(narrow.out, oracle_from_start(3));
  EXPECT_EQ(narrow.early_widens, 0u);
  EXPECT_EQ(narrow.rtts, 3u);
  EXPECT_EQ(index_->tree_stats().scan.truncated_scans, 0u);
}

// The A/B switch: jump-entry on and off produce byte-identical results
// (the off path is the bench_ycsb --no-scan-jump baseline).
TEST_F(SphinxScanTest, JumpOnAndOffProduceIdenticalResults) {
  const auto keys = testing::mixed_keys(900, 11);
  for (const auto& k : keys) index_->insert(k, "v:" + k);

  art::TreeConfig no_jump;
  no_jump.scan_jump = false;
  rdma::Endpoint ep2(cluster_->fabric(), 1, true);
  mem::RemoteAllocator alloc2(*cluster_, ep2);
  core::SphinxIndex plain(*cluster_, ep2, alloc2, refs_, filter_.get(),
                          nullptr, nullptr, no_jump);

  Rng rng(0xab);
  KvList a, b;
  for (int q = 0; q < 40; ++q) {
    const std::string& start = keys[rng.next_below(keys.size())];
    const size_t count = 1 + rng.next_below(40);
    a.clear();
    b.clear();
    index_->scan(start, count, &a);
    plain.scan(start, count, &b);
    EXPECT_EQ(a, b) << start;
  }
  EXPECT_GT(index_->tree_stats().scan.jump_starts, 0u);
  EXPECT_EQ(plain.tree_stats().scan.jump_starts, 0u);
  EXPECT_GT(plain.tree_stats().scan.root_starts, 0u);
}

// Range scans may jump as deep as the low/high common prefix; equality
// with the oracle exercises the hi-bounded frontier pruning.
TEST_F(SphinxScanTest, RangeScanJumpMatchesOracle) {
  std::map<std::string, std::string> oracle;
  const auto keys = testing::mixed_keys(1000, 5);
  for (const auto& k : keys) {
    index_->insert(k, "r:" + k);
    oracle.emplace(k, "r:" + k);
  }
  Rng rng(0xfeed);
  KvList out;
  for (int q = 0; q < 40; ++q) {
    std::string lo = keys[rng.next_below(keys.size())];
    std::string hi = keys[rng.next_below(keys.size())];
    if (hi < lo) std::swap(lo, hi);
    out.clear();
    index_->scan_range(lo, hi, 1 << 20, &out);
    auto it = oracle.lower_bound(lo);
    const auto end = oracle.upper_bound(hi);
    for (const auto& [k, v] : out) {
      ASSERT_NE(it, end);
      EXPECT_EQ(k, it->first);
      EXPECT_EQ(v, it->second);
      ++it;
    }
    EXPECT_EQ(it, end);
  }
  EXPECT_EQ(index_->tree_stats().scan.truncated_scans, 0u);
}

// ---- cross-system agreement ---------------------------------------------------

// Every evaluated system must return the same scan answers for the same
// data; only their round-trip/caching profiles differ.
TEST(ScanOracle, SystemsAgreeOnScansAndRanges) {
  auto cluster = testing::make_test_cluster();
  const auto keys = testing::mixed_keys(800, 21);

  struct Sys {
    std::unique_ptr<ycsb::SystemSetup> setup;
    std::unique_ptr<rdma::Endpoint> ep;
    std::unique_ptr<mem::RemoteAllocator> alloc;
    std::unique_ptr<KvIndex> index;
  };
  std::vector<Sys> systems;
  for (const auto kind : {ycsb::SystemKind::kSphinx, ycsb::SystemKind::kSmart,
                          ycsb::SystemKind::kArt}) {
    Sys s;
    s.setup = std::make_unique<ycsb::SystemSetup>(kind, *cluster);
    s.ep = std::make_unique<rdma::Endpoint>(cluster->fabric(), 0, true);
    s.alloc = std::make_unique<mem::RemoteAllocator>(*cluster, *s.ep);
    s.index = s.setup->make_client(0, *s.ep, *s.alloc);
    for (const auto& k : keys) {
      ASSERT_TRUE(s.index->insert(k, "x:" + k)) << k;
    }
    systems.push_back(std::move(s));
  }

  Rng rng(0xc0ffee);
  for (int q = 0; q < 30; ++q) {
    const std::string& start = keys[rng.next_below(keys.size())];
    const size_t count = 1 + rng.next_below(32);
    KvList base;
    systems[0].index->scan(start, count, &base);
    for (size_t s = 1; s < systems.size(); ++s) {
      KvList other;
      systems[s].index->scan(start, count, &other);
      EXPECT_EQ(base, other) << systems[s].index->name() << " @ " << start;
    }
    EXPECT_FALSE(systems[0].index->last_scan_truncated());
  }
}

}  // namespace
}  // namespace sphinx::art
