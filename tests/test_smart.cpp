// Tests for the SMART baseline: node cache behaviour (hits, LRU eviction,
// invalidation, budget), homogeneous Node-256 allocation, cache-coherence
// across clients, and oracle semantics.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "art/art_index.h"
#include "common/rng.h"
#include "smart/smart_index.h"
#include "test_util.h"
#include "ycsb/dataset.h"

namespace sphinx::smart {
namespace {

TEST(NodeCache, PutGetEvict) {
  NodeCache cache(NodeCache::kShards * 3000);  // ~3 KB per shard
  art::InnerImage img = art::InnerImage::create(art::NodeType::kN4,
                                                Slice("ab"));
  cache.put(64, img);
  art::InnerImage out;
  EXPECT_TRUE(cache.get(64, &out));
  EXPECT_EQ(out.depth(), img.depth());
  EXPECT_FALSE(cache.get(128, &out));
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(NodeCache, BudgetEnforced) {
  NodeCache cache(NodeCache::kShards * 4096);
  // Insert far more N256 images (2072 B) than fit.
  for (uint64_t i = 0; i < 1000; ++i) {
    cache.put(i * 64,
              art::InnerImage::create(art::NodeType::kN256, Slice("xy")));
  }
  EXPECT_LE(cache.bytes_used(), cache.budget_bytes());
  EXPECT_GT(cache.stats().evictions, 0u);
}

TEST(NodeCache, LruKeepsRecentlyUsed) {
  // Single-shard-sized budget games are fragile; instead verify that a
  // repeatedly-touched entry survives pressure that evicts most others.
  NodeCache cache(NodeCache::kShards * 8192);
  art::InnerImage img = art::InnerImage::create(art::NodeType::kN256,
                                                Slice("q"));
  cache.put(0, img);
  art::InnerImage out;
  for (uint64_t i = 1; i < 500; ++i) {
    cache.put(i * 64, img);
    cache.get(0, &out);  // keep it hot
  }
  EXPECT_TRUE(cache.get(0, &out));
}

TEST(NodeCache, EraseInvalidates) {
  NodeCache cache(1 << 20);
  cache.put(64, art::InnerImage::create(art::NodeType::kN4, Slice("a")));
  cache.erase(64);
  art::InnerImage out;
  EXPECT_FALSE(cache.get(64, &out));
  EXPECT_EQ(cache.stats().invalidations, 1u);
  cache.erase(64);  // idempotent
}

class SmartTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_ = testing::make_test_cluster();
    ref_ = art::create_tree(*cluster_);
    cache_ = std::make_unique<NodeCache>(20ull << 20);
    endpoint_ = std::make_unique<rdma::Endpoint>(cluster_->fabric(), 0, true);
    allocator_ = std::make_unique<mem::RemoteAllocator>(*cluster_, *endpoint_);
    index_ = std::make_unique<SmartIndex>(*cluster_, *endpoint_, *allocator_,
                                          ref_, *cache_);
  }

  std::unique_ptr<mem::Cluster> cluster_;
  art::TreeRef ref_;
  std::unique_ptr<NodeCache> cache_;
  std::unique_ptr<rdma::Endpoint> endpoint_;
  std::unique_ptr<mem::RemoteAllocator> allocator_;
  std::unique_ptr<SmartIndex> index_;
};

TEST_F(SmartTest, OracleRandomMixedOps) {
  std::map<std::string, std::string> oracle;
  Rng rng(4242);
  const auto keys = testing::mixed_keys(800);
  for (int op = 0; op < 8000; ++op) {
    const std::string& k = keys[rng.next_below(keys.size())];
    switch (rng.next_below(4)) {
      case 0: {
        const std::string v = "v" + std::to_string(op);
        EXPECT_EQ(index_->insert(k, v), oracle.emplace(k, v).second) << k;
        break;
      }
      case 1: {
        const std::string v = "u" + std::to_string(op);
        const bool expect = oracle.count(k) > 0;
        EXPECT_EQ(index_->update(k, v), expect) << k;
        if (expect) oracle[k] = v;
        break;
      }
      case 2:
        EXPECT_EQ(index_->remove(k), oracle.erase(k) > 0) << k;
        break;
      default: {
        std::string v;
        const bool expect = oracle.count(k) > 0;
        ASSERT_EQ(index_->search(k, &v), expect) << k;
        if (expect) {
          EXPECT_EQ(v, oracle[k]);
        }
        break;
      }
    }
  }
  EXPECT_EQ(index_->tree_stats().ops_failed, 0u);
}

TEST_F(SmartTest, HomogeneousNodesNeverTypeSwitch) {
  for (int i = 0; i < 300; ++i) {
    std::string k = "h";
    k.push_back(static_cast<char>(1 + (i % 250)));
    k += std::to_string(i);
    index_->insert(k, "v");
  }
  EXPECT_EQ(index_->tree_stats().type_switches, 0u);
}

TEST_F(SmartTest, HomogeneousNodesInflateMnMemory) {
  // Fig. 6: SMART's preallocated Node-256 layout costs 2-3x the adaptive
  // ART's inner-node memory for the same keys.
  const auto keys = ycsb::generate_email_keys(5000, 31);
  for (const auto& k : keys) {
    ASSERT_TRUE(index_->insert(k, std::string(64, 'v')));
  }
  const uint64_t smart_inner =
      cluster_->alloc_stats().requested_bytes(mem::AllocTag::kInnerNode);

  auto cluster2 = testing::make_test_cluster();
  art::TreeRef ref2 = art::create_tree(*cluster2);
  rdma::Endpoint ep2(cluster2->fabric(), 0, true);
  mem::RemoteAllocator alloc2(*cluster2, ep2);
  art::ArtIndex art_index(*cluster2, ep2, alloc2, ref2);
  for (const auto& k : keys) {
    ASSERT_TRUE(art_index.insert(k, std::string(64, 'v')));
  }
  const uint64_t art_inner =
      cluster2->alloc_stats().requested_bytes(mem::AllocTag::kInnerNode);
  EXPECT_GT(static_cast<double>(smart_inner),
            1.8 * static_cast<double>(art_inner));
}

TEST_F(SmartTest, CacheCutsRoundTrips) {
  const auto keys = ycsb::generate_u64_keys(2000, 3);
  for (const auto& k : keys) {
    ASSERT_TRUE(index_->insert(k, "v"));
  }
  // Warm pass.
  std::string v;
  for (const auto& k : keys) {
    ASSERT_TRUE(index_->search(k, &v));
  }
  const auto cache_stats0 = cache_->stats();
  const uint64_t rtt0 = endpoint_->stats().round_trips;
  for (const auto& k : keys) {
    ASSERT_TRUE(index_->search(k, &v));
  }
  const double rtts_per_op =
      static_cast<double>(endpoint_->stats().round_trips - rtt0) / 2000.0;
  EXPECT_GT(cache_->stats().hits, cache_stats0.hits);
  // With all inner nodes cached, a search costs ~1 RTT (the leaf read).
  EXPECT_LT(rtts_per_op, 1.7);
}

TEST_F(SmartTest, StaleCacheHealsAfterRemoteChange) {
  ASSERT_TRUE(index_->insert("alpha", "1"));
  ASSERT_TRUE(index_->insert("beta", "2"));
  std::string v;
  ASSERT_TRUE(index_->search("alpha", &v));  // populates our cache

  // A second client (own cache) deletes alpha and inserts gamma.
  NodeCache cache2(20ull << 20);
  rdma::Endpoint ep2(cluster_->fabric(), 1, true);
  mem::RemoteAllocator alloc2(*cluster_, ep2);
  SmartIndex peer(*cluster_, ep2, alloc2, ref_, cache2);
  ASSERT_TRUE(peer.remove("alpha"));
  ASSERT_TRUE(peer.insert("gamma", "3"));

  // Our cached root is stale; the reverse check must still give correct
  // answers.
  EXPECT_FALSE(index_->search("alpha", &v));
  ASSERT_TRUE(index_->search("gamma", &v));
  EXPECT_EQ(v, "3");
}

TEST_F(SmartTest, ReinsertVisibleDespiteCachedParent) {
  ASSERT_TRUE(index_->insert("key1", "a"));
  ASSERT_TRUE(index_->insert("key2", "b"));
  std::string v;
  ASSERT_TRUE(index_->search("key1", &v));

  NodeCache cache2(20ull << 20);
  rdma::Endpoint ep2(cluster_->fabric(), 1, true);
  mem::RemoteAllocator alloc2(*cluster_, ep2);
  SmartIndex peer(*cluster_, ep2, alloc2, ref_, cache2);
  ASSERT_TRUE(peer.search("key1", &v));  // cache the path
  ASSERT_TRUE(index_->remove("key1"));
  ASSERT_TRUE(index_->insert("key1", "a2"));
  // Peer's cached pointers lead to the dead leaf; the bypass retry must
  // find the reinserted value.
  ASSERT_TRUE(peer.search("key1", &v));
  EXPECT_EQ(v, "a2");
}

TEST_F(SmartTest, InsertPastStaleCachedParentEvictsIt) {
  // We cache the node holding key1; a peer removes key1 and inserts key1x,
  // which takes key1's branch byte in that node (key1's retired block stays
  // in the peer's quarantine). Our insert of key1 reaches the dead leaf
  // through the stale cached node, and the image under the node's lock
  // shows the slot moved: the insert must evict the node, or every retry
  // reads the same stale image again until the retry budget runs out.
  ASSERT_TRUE(index_->insert("key1", "a"));
  ASSERT_TRUE(index_->insert("key2", "b"));
  std::string v;
  ASSERT_TRUE(index_->search("key1", &v));  // caches the path to key1

  NodeCache cache2(20ull << 20);
  rdma::Endpoint ep2(cluster_->fabric(), 1, true);
  mem::RemoteAllocator alloc2(*cluster_, ep2);
  SmartIndex peer(*cluster_, ep2, alloc2, ref_, cache2);
  ASSERT_TRUE(peer.remove("key1"));
  ASSERT_TRUE(peer.insert("key1x", "c"));

  ASSERT_TRUE(index_->insert("key1", "a2"));
  ASSERT_TRUE(index_->search("key1", &v));
  EXPECT_EQ(v, "a2");
  ASSERT_TRUE(index_->search("key1x", &v));
  EXPECT_EQ(v, "c");
  EXPECT_EQ(index_->tree_stats().ops_failed, 0u);
}

TEST_F(SmartTest, ScanWorksWithCache) {
  std::map<std::string, std::string> oracle;
  const auto keys = testing::mixed_keys(300);
  for (const auto& k : keys) {
    index_->insert(k, "v:" + k);
    oracle[k] = "v:" + k;
  }
  std::vector<std::pair<std::string, std::string>> out;
  const size_t n = index_->scan("user:", 20, &out);
  auto it = oracle.lower_bound("user:");
  for (size_t i = 0; i < n; ++i, ++it) {
    EXPECT_EQ(out[i].first, it->first);
  }
}

}  // namespace
}  // namespace sphinx::smart
