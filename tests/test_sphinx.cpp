// Tests for the Sphinx index: INHT payload packing, the filter-guided
// search path and its round-trip budget, false-positive recovery, fallback
// paths, type-switch coherence, oracle semantics, and the insert walk
// lock's costs and its safety against stale cache entries.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <thread>

#include "art/art_index.h"
#include "common/rng.h"
#include "common/hash.h"
#include "core/sphinx_index.h"
#include "filter/hint_cache.h"
#include "rdma/retry_policy.h"
#include "test_util.h"
#include "ycsb/dataset.h"

namespace sphinx::core {
namespace {

TEST(InhtPayload, PackUnpack) {
  const rdma::GlobalAddr addr(3, 0xdeadbc0);
  const uint64_t p = pack_inht_payload(art::NodeType::kN48, addr);
  EXPECT_EQ(inht_payload_type(p), art::NodeType::kN48);
  EXPECT_EQ(inht_payload_addr(p), addr);
  EXPECT_LT(p, 1ULL << 51);  // fits the RACE payload field
}

class SphinxTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_ = testing::make_test_cluster();
    refs_ = create_sphinx(*cluster_);
    filter_ = filter::CuckooFilter::with_budget(1 << 20);
    endpoint_ = std::make_unique<rdma::Endpoint>(cluster_->fabric(), 0, true);
    allocator_ = std::make_unique<mem::RemoteAllocator>(*cluster_, *endpoint_);
    index_ = std::make_unique<SphinxIndex>(*cluster_, *endpoint_, *allocator_,
                                           refs_, filter_.get());
  }

  std::unique_ptr<mem::Cluster> cluster_;
  SphinxRefs refs_;
  std::unique_ptr<filter::CuckooFilter> filter_;
  std::unique_ptr<rdma::Endpoint> endpoint_;
  std::unique_ptr<mem::RemoteAllocator> allocator_;
  std::unique_ptr<SphinxIndex> index_;
};

TEST_F(SphinxTest, BasicRoundTrip) {
  EXPECT_TRUE(index_->insert("LYRICS", "music"));
  EXPECT_TRUE(index_->insert("LYRE", "harp"));
  EXPECT_TRUE(index_->insert("LOYAL", "dog"));
  std::string v;
  ASSERT_TRUE(index_->search("LYRICS", &v));
  EXPECT_EQ(v, "music");
  ASSERT_TRUE(index_->search("LYRE", &v));
  EXPECT_EQ(v, "harp");
  EXPECT_FALSE(index_->search("LYRIC", &v));
  EXPECT_FALSE(index_->search("L", &v));
}

TEST_F(SphinxTest, OracleRandomMixedOps) {
  std::map<std::string, std::string> oracle;
  Rng rng(99);
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
  std::string v;
  for (const auto& [k, val] : oracle) {
    ASSERT_TRUE(index_->search(k, &v)) << k;
    EXPECT_EQ(v, val);
  }
}

TEST_F(SphinxTest, WarmSearchTakesThreeRoundTrips) {
  // Paper Sec. III-B: with a warm filter cache an index operation needs
  // three round trips: hash entry, inner node, leaf.
  const auto keys = ycsb::generate_email_keys(500, 11);
  for (const auto& k : keys) {
    ASSERT_TRUE(index_->insert(k, "v"));
  }
  // Warm: one pass over all keys (fills the filter from visited paths).
  std::string v;
  for (const auto& k : keys) {
    ASSERT_TRUE(index_->search(k, &v));
  }
  // Measure.
  const uint64_t rtt0 = endpoint_->stats().round_trips;
  uint64_t ops = 0;
  for (const auto& k : keys) {
    ASSERT_TRUE(index_->search(k, &v));
    ++ops;
  }
  const double rtts_per_op =
      static_cast<double>(endpoint_->stats().round_trips - rtt0) /
      static_cast<double>(ops);
  EXPECT_LE(rtts_per_op, 3.3);
  EXPECT_GE(rtts_per_op, 2.0);
}

TEST_F(SphinxTest, WarmSearchTakesTwoRoundTripsWithPec) {
  // With the prefix entry cache warm, the hash-entry read disappears: a
  // search is node read + leaf read, two round trips.
  auto pec = filter::HintCache::with_budget(1 << 20);
  rdma::Endpoint ep(cluster_->fabric(), 0, true);
  mem::RemoteAllocator alloc(*cluster_, ep);
  SphinxIndex warm(*cluster_, ep, alloc, refs_, filter_.get(), pec.get());
  const auto keys = ycsb::generate_email_keys(500, 11);
  for (const auto& k : keys) {
    ASSERT_TRUE(warm.insert(k, "v"));
  }
  std::string v;
  for (const auto& k : keys) {
    ASSERT_TRUE(warm.search(k, &v));  // warm filter + PEC
  }
  const uint64_t rtt0 = ep.stats().round_trips;
  const uint64_t hits0 = warm.sphinx_stats().pec_hits;
  uint64_t ops = 0;
  for (const auto& k : keys) {
    ASSERT_TRUE(warm.search(k, &v));
    ++ops;
  }
  const double rtts_per_op =
      static_cast<double>(ep.stats().round_trips - rtt0) /
      static_cast<double>(ops);
  EXPECT_LE(rtts_per_op, 2.4);
  EXPECT_GE(rtts_per_op, 1.9);
  EXPECT_GT(warm.sphinx_stats().pec_hits, hits0);
}

TEST_F(SphinxTest, ColdPecHitFusesSpeculativeReadIntoTwoRoundTrips) {
  // A PEC entry seeded by node creation (never looked up -> cold) is
  // hedged: node read + INHT group read go out in one doorbell batch.
  // When the entry is fresh the search still completes in two round trips.
  auto pec = filter::HintCache::with_budget(1 << 18);
  rdma::Endpoint ep_a(cluster_->fabric(), 0, true);
  mem::RemoteAllocator alloc_a(*cluster_, ep_a);
  SphinxIndex writer(*cluster_, ep_a, alloc_a, refs_, filter_.get(),
                     pec.get());
  // Two keys diverging at byte 8 create one inner node at depth 8; its PEC
  // entry is seeded by on_inner_created and never looked up afterwards.
  ASSERT_TRUE(writer.insert("specpfx:Arest", "va"));
  ASSERT_TRUE(writer.insert("specpfx:Brest", "vb"));

  rdma::Endpoint ep_b(cluster_->fabric(), 0, true);
  mem::RemoteAllocator alloc_b(*cluster_, ep_b);
  SphinxIndex reader(*cluster_, ep_b, alloc_b, refs_, filter_.get(),
                     pec.get());
  // Pre-warm the reader's INHT directory cache for the prefix's MN (a
  // fresh client pays that once); this INHT probe does not touch the PEC,
  // so the entry stays cold.
  std::vector<uint64_t> scratch;
  reader.inht().search(art::prefix_hash(Slice("specpfx:")), scratch);
  const uint64_t rtt0 = ep_b.stats().round_trips;
  std::string v;
  ASSERT_TRUE(reader.search("specpfx:Arest", &v));
  EXPECT_EQ(v, "va");
  EXPECT_EQ(ep_b.stats().round_trips - rtt0, 2u);
  EXPECT_EQ(reader.sphinx_stats().speculative_wins, 1u);
  EXPECT_EQ(reader.sphinx_stats().pec_stale, 0u);
}

TEST_F(SphinxTest, StaleColdPecEntryCostsNoExtraRoundTrip) {
  // The fusion hedge pays off when the cold entry *is* stale: the fused
  // INHT group already holds the fresh payload, so recovery needs no
  // additional INHT round trip -- total three RTTs, the same as a search
  // with no PEC at all.
  auto pec = filter::HintCache::with_budget(1 << 18);
  rdma::Endpoint ep_a(cluster_->fabric(), 0, true);
  mem::RemoteAllocator alloc_a(*cluster_, ep_a);
  SphinxIndex writer(*cluster_, ep_a, alloc_a, refs_, filter_.get(),
                     pec.get());
  ASSERT_TRUE(writer.insert("fusepfx:Arest", "va"));
  ASSERT_TRUE(writer.insert("fusepfx:Brest", "vb"));

  // A PEC-less client grows the node past Node4 so it is copied to a new
  // address and the old one is marked invalid. The shared PEC entry (cold,
  // nobody ever looked it up) now points at a dead node.
  rdma::Endpoint ep_c(cluster_->fabric(), 1, true);
  mem::RemoteAllocator alloc_c(*cluster_, ep_c);
  SphinxIndex grower(*cluster_, ep_c, alloc_c, refs_, nullptr);
  for (char c = 'C'; c <= 'J'; ++c) {
    ASSERT_TRUE(grower.insert(std::string("fusepfx:") + c + "rest", "vg"));
  }
  ASSERT_GT(grower.tree_stats().type_switches, 0u);

  rdma::Endpoint ep_b(cluster_->fabric(), 0, true);
  mem::RemoteAllocator alloc_b(*cluster_, ep_b);
  SphinxIndex reader(*cluster_, ep_b, alloc_b, refs_, filter_.get(),
                     pec.get());
  // Warm the INHT directory cache outside the measured window (see
  // ColdPecHitFusesSpeculativeReadIntoTwoRoundTrips).
  std::vector<uint64_t> scratch;
  reader.inht().search(art::prefix_hash(Slice("fusepfx:")), scratch);
  const uint64_t rtt0 = ep_b.stats().round_trips;
  std::string v;
  ASSERT_TRUE(reader.search("fusepfx:Arest", &v));
  EXPECT_EQ(v, "va");
  // Fused (stale node + group) + fresh node + leaf = 3 RTTs.
  EXPECT_EQ(ep_b.stats().round_trips - rtt0, 3u);
  EXPECT_EQ(reader.sphinx_stats().speculative_losses, 1u);
  EXPECT_EQ(reader.sphinx_stats().pec_stale, 1u);
  // The loss purged and re-seeded the shared entry: the next cold search
  // validates on the first try.
  rdma::Endpoint ep_d(cluster_->fabric(), 0, true);
  mem::RemoteAllocator alloc_d(*cluster_, ep_d);
  SphinxIndex reader2(*cluster_, ep_d, alloc_d, refs_, filter_.get(),
                      pec.get());
  ASSERT_TRUE(reader2.search("fusepfx:Brest", &v));
  EXPECT_EQ(v, "vb");
  EXPECT_EQ(reader2.sphinx_stats().pec_stale, 0u);
}

TEST_F(SphinxTest, PecTagCollisionIsCaughtByNodeValidation) {
  // The PEC keeps 9-bit tags: two prefixes whose hashes share a set and a
  // tag share one slot, so a lookup for one returns the other's node. The
  // node's full prefix hash tells them apart: the search still returns the
  // right value and counts the entry stale.
  filter::HintCache pec(2);
  const uint64_t h1 = art::prefix_hash(Slice("node:"));
  constexpr uint32_t kTagShift = filter::HintCache::kTagShift;
  std::string other;
  for (uint64_t i = 0;; ++i) {
    other = "c" + std::to_string(i) + ":";
    const uint64_t h2 = art::prefix_hash(Slice(other));
    if (h2 >> kTagShift == h1 >> kTagShift &&
        (splitmix64(h2) & 1) == (splitmix64(h1) & 1)) {
      break;  // same tag, same set (mirrors HintCache::set_index)
    }
  }
  rdma::Endpoint ep(cluster_->fabric(), 0, true);
  mem::RemoteAllocator alloc(*cluster_, ep);
  SphinxIndex client(*cluster_, ep, alloc, refs_, filter_.get(), &pec);
  ASSERT_TRUE(client.insert("node:a", "va"));
  ASSERT_TRUE(client.insert("node:b", "vb"));
  ASSERT_TRUE(client.insert(other + "a", "oa"));
  ASSERT_TRUE(client.insert(other + "b", "ob"));
  std::string v;
  ASSERT_TRUE(client.search(other + "a", &v));  // the slot now names `other`
  EXPECT_EQ(v, "oa");
  uint64_t p1 = 0, p2 = 0;
  bool hot = false;
  ASSERT_TRUE(pec.lookup(h1, &p1, &hot));
  ASSERT_TRUE(pec.lookup(art::prefix_hash(Slice(other)), &p2, &hot));
  EXPECT_EQ(p1, p2);  // one slot answers for both prefixes

  const uint64_t stale0 = client.sphinx_stats().pec_stale;
  ASSERT_TRUE(client.search("node:a", &v));
  EXPECT_EQ(v, "va");
  EXPECT_EQ(client.sphinx_stats().pec_stale, stale0 + 1);
  // The search re-seeded the slot with this prefix's own node.
  ASSERT_TRUE(pec.lookup(h1, &p1, &hot));
  EXPECT_NE(p1, p2);
  ASSERT_TRUE(client.search(other + "b", &v));
  EXPECT_EQ(v, "ob");
  EXPECT_EQ(client.sphinx_stats().pec_stale, stale0 + 2);
}

TEST_F(SphinxTest, PecStaleEntriesSelfHealAfterTypeSwitches) {
  // Warm a client's PEC, let a second client churn the same prefixes
  // through type switches, then verify the first client's searches (a)
  // stay correct and (b) purge-and-refresh each stale entry exactly once:
  // a second pass over the same keys finds no new staleness.
  auto pec = filter::HintCache::with_budget(1 << 20);
  rdma::Endpoint ep_a(cluster_->fabric(), 0, true);
  mem::RemoteAllocator alloc_a(*cluster_, ep_a);
  SphinxIndex client(*cluster_, ep_a, alloc_a, refs_, filter_.get(),
                     pec.get());
  std::vector<std::string> keys;
  for (int p = 0; p < 20; ++p) {
    keys.push_back("heal" + std::to_string(p) + ":a1");
    keys.push_back("heal" + std::to_string(p) + ":b2");
  }
  std::string v;
  for (const auto& k : keys) {
    ASSERT_TRUE(client.insert(k, "v:" + k));
  }
  for (const auto& k : keys) {
    ASSERT_TRUE(client.search(k, &v));  // warm + mark entries hot
  }

  rdma::Endpoint ep_c(cluster_->fabric(), 1, true);
  mem::RemoteAllocator alloc_c(*cluster_, ep_c);
  SphinxIndex churner(*cluster_, ep_c, alloc_c, refs_, nullptr);
  for (int p = 0; p < 20; ++p) {
    for (char c = 'c'; c <= 'j'; ++c) {
      const std::string k =
          "heal" + std::to_string(p) + ":" + std::string(1, c) + "x";
      ASSERT_TRUE(churner.insert(k, "v:" + k));
      keys.push_back(k);
    }
  }
  ASSERT_GT(churner.tree_stats().type_switches, 0u);

  for (const auto& k : keys) {
    ASSERT_TRUE(client.search(k, &v)) << k;
    EXPECT_EQ(v, "v:" + k);
  }
  const uint64_t stale_after_first = client.sphinx_stats().pec_stale;
  EXPECT_GT(stale_after_first, 0u);
  for (const auto& k : keys) {
    ASSERT_TRUE(client.search(k, &v)) << k;
  }
  EXPECT_EQ(client.sphinx_stats().pec_stale, stale_after_first);
}

TEST_F(SphinxTest, SearchIsCheaperThanArtForDeepKeys) {
  // The headline claim: Sphinx's hash-based jump beats level-by-level
  // traversal for long keys / deep trees.
  const auto keys = ycsb::generate_email_keys(2000, 5);
  for (const auto& k : keys) {
    ASSERT_TRUE(index_->insert(k, "v"));
  }
  std::string v;
  for (const auto& k : keys) {
    ASSERT_TRUE(index_->search(k, &v));  // warm the filter
  }
  const uint64_t sphinx_rtt0 = endpoint_->stats().round_trips;
  for (const auto& k : keys) {
    ASSERT_TRUE(index_->search(k, &v));
  }
  const uint64_t sphinx_rtts = endpoint_->stats().round_trips - sphinx_rtt0;

  // Same data in a fresh ART on a fresh cluster.
  auto cluster2 = testing::make_test_cluster();
  art::TreeRef art_ref = art::create_tree(*cluster2);
  rdma::Endpoint ep2(cluster2->fabric(), 0, true);
  mem::RemoteAllocator alloc2(*cluster2, ep2);
  art::ArtIndex art_index(*cluster2, ep2, alloc2, art_ref);
  for (const auto& k : keys) {
    ASSERT_TRUE(art_index.insert(k, "v"));
  }
  const uint64_t art_rtt0 = ep2.stats().round_trips;
  for (const auto& k : keys) {
    ASSERT_TRUE(art_index.search(k, &v));
  }
  const uint64_t art_rtts = ep2.stats().round_trips - art_rtt0;
  EXPECT_LT(sphinx_rtts, art_rtts);
}

TEST_F(SphinxTest, PipelinedSearchesShareEveryRoundTrip) {
  // Four keys under four distinct inner nodes (g0- .. g3-). A reader with
  // the shared warm filter and warm INHT directories, but its own cold PEC
  // and LAC, pays 3 round trips per search (INHT entry, inner node,
  // leaf). Batched, each round carries every search's next read, so the
  // four cost the 3 round trips of the longest.
  const char* keys[] = {"g0-a", "g1-a", "g2-a", "g3-a"};
  for (int g = 0; g < 4; ++g) {
    for (const char* leaf : {"a", "b"}) {
      const std::string k = "g" + std::to_string(g) + "-" + leaf;
      ASSERT_TRUE(index_->insert(k, "v-" + k));
    }
  }
  struct Reader {
    rdma::Endpoint ep;
    mem::RemoteAllocator alloc;
    std::unique_ptr<filter::HintCache> pec;
    SphinxIndex index;
    Reader(mem::Cluster& cluster, const SphinxRefs& refs,
           filter::CuckooFilter* filter, filter::HintCache* lac)
        : ep(cluster.fabric(), 1, true),
          alloc(cluster, ep),
          pec(filter::HintCache::with_budget(1 << 16)),
          index(cluster, ep, alloc, refs, filter, pec.get(), lac) {
      // Warm every MN's INHT directory cache, and nothing else.
      for (uint64_t i = 0; i < 64; ++i) {
        index.inht().client_for(splitmix64(i)).refresh_directory();
      }
    }
    uint64_t rtts() const { return ep.stats().round_trips; }
  };
  std::string v;
  for (const char* k : keys) {
    auto lac = filter::HintCache::with_budget(1 << 16);
    Reader alone(*cluster_, refs_, filter_.get(), lac.get());
    const uint64_t rtt0 = alone.rtts();
    ASSERT_TRUE(alone.index.search(k, &v));
    EXPECT_EQ(v, std::string("v-") + k);
    EXPECT_EQ(alone.rtts() - rtt0, 3u) << k;
  }

  std::string values[4];
  auto run_batch = [&](Reader& r) {
    BatchOp ops[4];
    for (int i = 0; i < 4; ++i) {
      ops[i].key = keys[i];
      ops[i].value_out = &values[i];
    }
    const uint64_t rtt0 = r.rtts();
    r.index.execute_batch(ops, 4);
    for (int i = 0; i < 4; ++i) {
      EXPECT_TRUE(ops[i].done && ops[i].ok) << keys[i];
      EXPECT_EQ(values[i], std::string("v-") + keys[i]);
    }
    EXPECT_EQ(r.ep.stats().rtts_sum_by_phase(), r.ep.stats().round_trips);
    EXPECT_EQ(r.ep.stats().bytes_sum_by_phase(), r.ep.stats().bytes_total());
    return r.rtts() - rtt0;
  };
  auto phase_rtts = [](const Reader& r, rdma::Phase p) {
    return r.ep.stats().rtts_by_phase[static_cast<size_t>(p)];
  };

  {
    auto lac = filter::HintCache::with_budget(1 << 16);
    Reader r(*cluster_, refs_, filter_.get(), lac.get());
    const uint64_t inht0 = phase_rtts(r, rdma::Phase::kInhtRead);
    EXPECT_EQ(run_batch(r), 3u);  // serial: 4 x 3 = 12
    const SphinxStats& s = r.index.sphinx_stats();
    EXPECT_EQ(s.batch_ops, 4u);
    EXPECT_EQ(s.batch_fused_rounds, 0u);
    EXPECT_EQ(s.batch_fused_ops, 0u);
    EXPECT_EQ(s.batch_serial_ops, 4u);
    EXPECT_EQ(s.batch_shared_rounds, 3u);
    EXPECT_EQ(s.batch_shared_ops, 4u);
    // Each round is charged whole to its first poster's phase.
    EXPECT_EQ(phase_rtts(r, rdma::Phase::kInhtRead) - inht0, 1u);
    EXPECT_EQ(phase_rtts(r, rdma::Phase::kInnerRead), 1u);
    EXPECT_EQ(phase_rtts(r, rdma::Phase::kLeafRead), 1u);
  }
  {
    // Bind g0-a in the reader's LAC through a helper sharing only the LAC.
    auto lac = filter::HintCache::with_budget(1 << 16);
    Reader helper(*cluster_, refs_, filter_.get(), lac.get());
    ASSERT_TRUE(helper.index.search(keys[0], &v));
    Reader r(*cluster_, refs_, filter_.get(), lac.get());
    EXPECT_EQ(run_batch(r), 3u);  // serial: 1 + 3 x 3 = 10
    const SphinxStats& s = r.index.sphinx_stats();
    EXPECT_EQ(s.lac_hits, 1u);
    EXPECT_EQ(s.batch_fused_rounds, 1u);
    EXPECT_EQ(s.batch_fused_ops, 1u);
    EXPECT_EQ(s.batch_serial_ops, 3u);
    EXPECT_EQ(s.batch_shared_rounds, 2u);
    EXPECT_EQ(s.batch_shared_ops, 3u);
    // The LAC round also carries the three misses' INHT reads.
    EXPECT_EQ(phase_rtts(r, rdma::Phase::kLacFusedRead), 1u);
    EXPECT_EQ(phase_rtts(r, rdma::Phase::kInnerRead), 1u);
    EXPECT_EQ(phase_rtts(r, rdma::Phase::kLeafRead), 1u);
  }
}

TEST_F(SphinxTest, FilterMissFallsBackToParallelRead) {
  // Two keys sharing a prefix, so an inner node exists at depth 7.
  ASSERT_TRUE(index_->insert("somekey123", "v1"));
  ASSERT_TRUE(index_->insert("somekey456", "v2"));
  // A second client with a cold (empty) filter must still find the keys.
  auto cold_filter = filter::CuckooFilter::with_budget(1 << 16);
  rdma::Endpoint ep2(cluster_->fabric(), 1, true);
  mem::RemoteAllocator alloc2(*cluster_, ep2);
  SphinxIndex cold(*cluster_, ep2, alloc2, refs_, cold_filter.get());
  std::string v;
  ASSERT_TRUE(cold.search("somekey123", &v));
  EXPECT_EQ(v, "v1");
  EXPECT_GT(cold.sphinx_stats().parallel_fallbacks, 0u);
  // The first search learned the inner-node prefix: the next search must
  // go straight through the filter, with no parallel fallback.
  const uint64_t fallbacks = cold.sphinx_stats().parallel_fallbacks;
  ASSERT_TRUE(cold.search("somekey123", &v));
  EXPECT_EQ(cold.sphinx_stats().parallel_fallbacks, fallbacks);
  EXPECT_GT(cold.sphinx_stats().filter_hits, 0u);
}

TEST_F(SphinxTest, NoFilterModeWorks) {
  rdma::Endpoint ep2(cluster_->fabric(), 1, true);
  mem::RemoteAllocator alloc2(*cluster_, ep2);
  SphinxIndex nofilter(*cluster_, ep2, alloc2, refs_, nullptr);
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(nofilter.insert("nf" + std::to_string(i), "v"));
  }
  std::string v;
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(nofilter.search("nf" + std::to_string(i), &v));
  }
  EXPECT_GT(nofilter.sphinx_stats().parallel_fallbacks, 0u);
  EXPECT_EQ(nofilter.sphinx_stats().filter_hits, 0u);
}

TEST_F(SphinxTest, InhtTracksCreatedInnerNodes) {
  const auto keys = testing::mixed_keys(500);
  for (const auto& k : keys) {
    ASSERT_TRUE(index_->insert(k, "v"));
  }
  EXPECT_GT(index_->inht().aggregated_stats().inserts, 0u);
  // Another client relying purely on the INHT (filter disabled) can find
  // every key without root traversals once entries exist.
  rdma::Endpoint ep2(cluster_->fabric(), 2, true);
  mem::RemoteAllocator alloc2(*cluster_, ep2);
  SphinxIndex peer(*cluster_, ep2, alloc2, refs_, nullptr);
  std::string v;
  for (const auto& k : keys) {
    ASSERT_TRUE(peer.search(k, &v)) << k;
  }
}

TEST_F(SphinxTest, TypeSwitchKeepsInhtCoherent) {
  // Force type switches under a common prefix, then verify a fresh client
  // can still jump through the INHT to the switched node.
  for (int i = 0; i < 200; ++i) {
    std::string k = "tsw:";
    k.push_back(static_cast<char>(1 + i));
    k += "rest";
    ASSERT_TRUE(index_->insert(k, std::to_string(i)));
  }
  EXPECT_GT(index_->tree_stats().type_switches, 0u);

  rdma::Endpoint ep2(cluster_->fabric(), 1, true);
  mem::RemoteAllocator alloc2(*cluster_, ep2);
  auto filter2 = filter::CuckooFilter::with_budget(1 << 20);
  SphinxIndex peer(*cluster_, ep2, alloc2, refs_, filter2.get());
  std::string v;
  for (int i = 0; i < 200; ++i) {
    std::string k = "tsw:";
    k.push_back(static_cast<char>(1 + i));
    k += "rest";
    ASSERT_TRUE(peer.search(k, &v)) << i;
    EXPECT_EQ(v, std::to_string(i));
  }
}

TEST_F(SphinxTest, ScanMatchesOracle) {
  std::map<std::string, std::string> oracle;
  const auto keys = testing::mixed_keys(400);
  for (const auto& k : keys) {
    index_->insert(k, "v:" + k);
    oracle[k] = "v:" + k;
  }
  std::vector<std::pair<std::string, std::string>> out;
  const size_t n = index_->scan("user:", 30, &out);
  auto it = oracle.lower_bound("user:");
  size_t i = 0;
  for (; it != oracle.end() && i < n; ++it, ++i) {
    EXPECT_EQ(out[i].first, it->first);
  }
  EXPECT_EQ(n, std::min<size_t>(30, i));
}

TEST_F(SphinxTest, DeleteVisibleToOtherClients) {
  ASSERT_TRUE(index_->insert("shared-key", "v"));
  rdma::Endpoint ep2(cluster_->fabric(), 1, true);
  mem::RemoteAllocator alloc2(*cluster_, ep2);
  auto filter2 = filter::CuckooFilter::with_budget(1 << 20);
  SphinxIndex peer(*cluster_, ep2, alloc2, refs_, filter2.get());
  std::string v;
  ASSERT_TRUE(peer.search("shared-key", &v));
  ASSERT_TRUE(index_->remove("shared-key"));
  EXPECT_FALSE(peer.search("shared-key", &v));
}

TEST_F(SphinxTest, FilterSharedAcrossClientsOfOneCn) {
  // Two workers on the same CN share the filter: the second benefits from
  // prefixes the first learned.
  const auto keys = ycsb::generate_email_keys(300, 17);
  for (const auto& k : keys) {
    ASSERT_TRUE(index_->insert(k, "v"));
  }
  std::string v;
  for (const auto& k : keys) {
    ASSERT_TRUE(index_->search(k, &v));
  }
  rdma::Endpoint ep2(cluster_->fabric(), 0, true);
  mem::RemoteAllocator alloc2(*cluster_, ep2);
  SphinxIndex peer(*cluster_, ep2, alloc2, refs_, filter_.get());
  for (const auto& k : keys) {
    ASSERT_TRUE(peer.search(k, &v));
  }
  EXPECT_EQ(peer.sphinx_stats().parallel_fallbacks, 0u);
}

TEST_F(SphinxTest, InhtMemoryOverheadIsSmall) {
  // Paper Sec. III-A / Fig. 6: the INHT adds only a few percent of MN
  // memory on top of the ART itself. At unit-test scale the table's
  // segment granularity dominates, so start it at minimum size; the paper's
  // 3.3-4.9% figure is checked at full scale by bench_ycsb's Fig. 6 table.
  auto cluster = testing::make_test_cluster();
  SphinxRefs refs = create_sphinx(*cluster, /*inht_initial_depth=*/1);
  auto filter = filter::CuckooFilter::with_budget(1 << 20);
  rdma::Endpoint ep(cluster->fabric(), 0, true);
  mem::RemoteAllocator alloc(*cluster, ep);
  SphinxIndex index(*cluster, ep, alloc, refs, filter.get());
  const auto keys = ycsb::generate_u64_keys(20000, 23);
  for (const auto& k : keys) {
    ASSERT_TRUE(index.insert(k, std::string(64, 'v')));
  }
  mem::AllocStats& stats = cluster->alloc_stats();
  const uint64_t tree_bytes =
      stats.requested_bytes(mem::AllocTag::kInnerNode) +
      stats.requested_bytes(mem::AllocTag::kLeaf);
  const uint64_t table_bytes =
      stats.requested_bytes(mem::AllocTag::kHashTable);
  EXPECT_LT(static_cast<double>(table_bytes),
            0.25 * static_cast<double>(tree_bytes));
}


// ---- insert walk locks (DESIGN.md Sec. 16) ----------------------------------
// An insert locks the node its PEC or INHT entry names in the start walk's
// own read: one doorbell carries the new leaf's WRITE, the Idle -> Locked
// CAS on the header the entry predicts, and the node's READ.

class WalkLockTest : public SphinxTest {
 protected:
  void SetUp() override {
    SphinxTest::SetUp();
    pec_ = filter::HintCache::with_budget(1 << 18);
    index_ = std::make_unique<SphinxIndex>(*cluster_, *endpoint_, *allocator_,
                                           refs_, filter_.get(), pec_.get());
    // Lease an allocator chunk on every MN first, so no FAA hides in the
    // costs below.
    for (int i = 0; i < 64; ++i) {
      ASSERT_TRUE(index_->insert("w" + std::to_string(i), "v"));
    }
    warm_ = index_->sphinx_stats();
  }

  // A SphinxStats counter since the warm-up.
  uint64_t since_warmup(uint64_t SphinxStats::*field) const {
    return index_->sphinx_stats().*field - warm_.*field;
  }

  // The round trips one op spends, net of its INHT maintenance (an INHT
  // insert or update after a split or a type switch).
  template <typename Op>
  uint64_t tree_rtts_of(Op&& op) {
    const rdma::EndpointStats before = endpoint_->stats();
    op();
    last_ = endpoint_->stats() - before;
    EXPECT_EQ(last_.rtts_sum_by_phase(), last_.round_trips);
    EXPECT_EQ(rtts(rdma::Phase::kAlloc), 0u);
    return last_.round_trips - rtts(rdma::Phase::kInhtRead) -
           rtts(rdma::Phase::kInhtWrite);
  }
  uint64_t rtts(rdma::Phase p) const {
    return last_.rtts_by_phase[static_cast<size_t>(p)];
  }

  // The PEC payload cached for `prefix` (a lookup also marks it hot).
  uint64_t pec_payload(Slice prefix) {
    uint64_t payload = 0;
    bool hot = false;
    EXPECT_TRUE(pec_->lookup(art::prefix_hash(prefix), &payload, &hot));
    return payload;
  }

  // Raw remote bytes, read without touching any client's counters.
  std::vector<uint8_t> peek(rdma::GlobalAddr addr, size_t len) {
    rdma::Endpoint loader = cluster_->make_loader_endpoint();
    std::vector<uint8_t> bytes(len);
    loader.read(addr, bytes.data(), len);
    return bytes;
  }
  // A fresh Node-4 image for `prefix` written to a new block, outside the
  // tree: a foreign node recycled at an address some PEC entry names.
  rdma::GlobalAddr plant_node(Slice prefix, uint64_t header, uint64_t hash) {
    art::InnerImage img = art::InnerImage::create(art::NodeType::kN4, prefix);
    img.set_header(header);
    img.raw()[1] = hash;
    const uint32_t bytes = art::inner_node_bytes(art::NodeType::kN4);
    const rdma::GlobalAddr addr =
        allocator_->alloc(0, bytes, mem::AllocTag::kInnerNode);
    rdma::Endpoint loader = cluster_->make_loader_endpoint();
    loader.write(addr, img.raw(), bytes);
    return addr;
  }

  std::unique_ptr<filter::HintCache> pec_;
  SphinxStats warm_;
  rdma::EndpointStats last_;
};

TEST_F(WalkLockTest, WarmPecInsertIntoFreeSlotCostsTwoRoundTrips) {
  ASSERT_TRUE(index_->insert("node:a", "va"));
  ASSERT_TRUE(index_->insert("node:b", "vb"));  // N4 "node:" below the root
  std::string v;
  ASSERT_TRUE(index_->search("node:a", &v));  // the PEC entry turns hot

  // Leaf write + lock CAS + node read, then slot CAS + release.
  EXPECT_EQ(tree_rtts_of([&] { EXPECT_TRUE(index_->insert("node:c", "vc")); }),
            2u);
  EXPECT_EQ(rtts(rdma::Phase::kLeafWrite), 1u);
  EXPECT_EQ(rtts(rdma::Phase::kInnerWrite), 1u);
  EXPECT_EQ(rtts(rdma::Phase::kPecValidate), 0u);
  EXPECT_EQ(since_warmup(&SphinxStats::insert_walk_locks), 1u);
  EXPECT_EQ(index_->tree_stats().lock_fail_retries, 0u);
  ASSERT_TRUE(index_->search("node:c", &v));
  EXPECT_EQ(v, "vc");
}

TEST_F(WalkLockTest, InsertAfterPecMissCostsTheInhtReadPlusTwo) {
  ASSERT_TRUE(index_->insert("node:a", "va"));
  ASSERT_TRUE(index_->insert("node:b", "vb"));
  const uint64_t payload = pec_payload("node:");
  pec_->invalidate_if(art::prefix_hash(Slice("node:")),
                      inht_payload_addr(payload).to48());

  // The filter names the prefix, the PEC misses: the INHT read, then the
  // candidate read carrying the leaf write and the lock, then the install.
  EXPECT_EQ(tree_rtts_of([&] { EXPECT_TRUE(index_->insert("node:c", "vc")); }),
            2u);
  EXPECT_GE(rtts(rdma::Phase::kInhtRead), 1u);
  EXPECT_EQ(rtts(rdma::Phase::kInnerRead), 0u);
  EXPECT_EQ(since_warmup(&SphinxStats::insert_walk_locks), 1u);
  std::string v;
  ASSERT_TRUE(index_->search("node:c", &v));
  EXPECT_EQ(v, "vc");
}

TEST_F(WalkLockTest, NoInsertCostsMoreThanWithoutTheWalkLock) {
  // No case below costs more than it would with no walk lock: a node whose
  // slot for the key is taken releases its lock in the doorbell of the
  // descent's next read, and a full node keeps it for its type switch.
  ASSERT_TRUE(index_->insert("node:a", "va"));
  ASSERT_TRUE(index_->insert("node:b", "vb"));
  std::string v;
  ASSERT_TRUE(index_->search("node:a", &v));

  // An existing key: walk read (+ lock), then the leaf read (+ release).
  EXPECT_EQ(tree_rtts_of([&] { EXPECT_FALSE(index_->insert("node:a", "x")); }),
            2u);
  EXPECT_EQ(since_warmup(&SphinxStats::insert_walk_lock_releases), 1u);
  ASSERT_TRUE(index_->search("node:a", &v));
  EXPECT_EQ(v, "va");

  // A split of the leaf in the locked node's slot: walk read, leaf read,
  // new node write + lock + re-read, install.
  const uint64_t splits = index_->tree_stats().splits;
  EXPECT_EQ(tree_rtts_of([&] { EXPECT_TRUE(index_->insert("node:aX", "vx")); }),
            4u);
  EXPECT_EQ(index_->tree_stats().splits, splits + 1);
  EXPECT_EQ(since_warmup(&SphinxStats::insert_walk_lock_releases), 2u);

  // Fill the node, then one more: walk read, the root retry's reads down
  // to the still-locked node, the type switch without a lock doorbell of
  // its own, and the insert into the grown node. One round trip less than
  // the 12 of a switch that must lock the node first.
  ASSERT_TRUE(index_->insert("node:c", "vc"));
  ASSERT_TRUE(index_->insert("node:d", "vd"));
  const uint64_t switches = index_->tree_stats().type_switches;
  const uint64_t locks = since_warmup(&SphinxStats::insert_walk_locks);
  EXPECT_EQ(tree_rtts_of([&] { EXPECT_TRUE(index_->insert("node:e", "ve")); }),
            11u);
  EXPECT_EQ(index_->tree_stats().type_switches, switches + 1);
  EXPECT_EQ(rtts(rdma::Phase::kLock), 0u);
  EXPECT_EQ(since_warmup(&SphinxStats::insert_walk_locks), locks + 1);
  EXPECT_EQ(since_warmup(&SphinxStats::insert_walk_lock_releases), 2u);
  for (const char* k : {"node:a", "node:aX", "node:b", "node:c", "node:d",
                        "node:e"}) {
    EXPECT_TRUE(index_->search(k, &v)) << k;
  }

  // A PEC entry naming a shallower node: another CN split below it, so
  // this CN's filter stops at "sh:". Walk read, child read (+ release),
  // child lock + re-read, install.
  ASSERT_TRUE(index_->insert("sh:x1", "v"));
  ASSERT_TRUE(index_->insert("sh:y1", "v"));
  rdma::Endpoint ep2(cluster_->fabric(), 1, true);
  mem::RemoteAllocator alloc2(*cluster_, ep2);
  SphinxIndex other(*cluster_, ep2, alloc2, refs_, nullptr);
  ASSERT_TRUE(other.insert("sh:x2", "v"));  // N4 "sh:x" under "sh:"
  EXPECT_EQ(tree_rtts_of([&] { EXPECT_TRUE(index_->insert("sh:x3", "v")); }),
            4u);
  EXPECT_EQ(rtts(rdma::Phase::kLock), 0u);
  EXPECT_TRUE(other.search("sh:x3", &v));
  EXPECT_EQ(since_warmup(&SphinxStats::insert_walk_lock_releases), 3u);
  EXPECT_EQ(since_warmup(&SphinxStats::insert_walk_lock_rejects), 0u);
}

TEST_F(WalkLockTest, StaleEntriesNeverLockOrChangeAForeignBlock) {
  for (const char* k : {"ts:a", "ts:b", "ts:c", "ts:d", "rc:a", "rc:b"}) {
    ASSERT_TRUE(index_->insert(k, "v"));
  }
  const uint64_t ts_hash = art::prefix_hash(Slice("ts:"));
  const uint64_t n4 = pec_payload("ts:");
  const rdma::GlobalAddr rc_addr = inht_payload_addr(pec_payload("rc:"));
  const uint32_t n4_bytes = art::inner_node_bytes(art::NodeType::kN4);
  art::InnerImage rc_image;
  std::vector<uint8_t> raw = peek(rc_addr, n4_bytes);
  std::memcpy(rc_image.raw(), raw.data(), raw.size());
  const uint64_t leaf_word = rc_image.slot(
      static_cast<uint32_t>(rc_image.find_pkey(static_cast<uint8_t>('a'))));
  ASSERT_TRUE(art::slot_is_leaf(leaf_word));

  // A PEC-less client grows "ts:" to a Node-16 elsewhere; the old block is
  // now Invalid.
  rdma::Endpoint ep2(cluster_->fabric(), 1, true);
  mem::RemoteAllocator alloc2(*cluster_, ep2);
  SphinxIndex grower(*cluster_, ep2, alloc2, refs_, nullptr);
  ASSERT_TRUE(grower.insert("ts:e", "v"));
  ASSERT_EQ(grower.tree_stats().type_switches, 1u);

  // A block whose idle header equals the prediction for "ts:" but whose
  // full prefix hash differs: 42 hash bits collided.
  const uint64_t predicted = art::pack_inner_header(
      art::NodeStatus::kIdle, art::NodeType::kN4, 3, ts_hash);
  const rdma::GlobalAddr twin =
      plant_node("zz:", predicted, ts_hash ^ (1ull << 63));

  struct Case {
    const char* what;
    rdma::GlobalAddr addr;
    const char* key;
    uint64_t rejects;  // the CAS won: only the hash check rejects the block
  };
  const Case cases[] = {
      {"type-switched node", inht_payload_addr(n4), "ts:f", 0},
      {"block recycled as another inner node", rc_addr, "ts:g", 0},
      {"block recycled as a leaf", art::slot_addr(leaf_word), "ts:h", 0},
      {"idle header collides in 42 bits", twin, "ts:i", 1},
  };
  std::string v;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    pec_->insert(ts_hash, pack_inht_payload(art::NodeType::kN4, c.addr));
    const std::vector<uint8_t> before = peek(c.addr, n4_bytes);
    const SphinxStats s0 = index_->sphinx_stats();
    ASSERT_TRUE(index_->insert(c.key, "v"));
    const SphinxStats& s1 = index_->sphinx_stats();
    EXPECT_EQ(peek(c.addr, n4_bytes), before);  // ends Idle, byte-identical
    EXPECT_EQ(s1.insert_walk_lock_rejects - s0.insert_walk_lock_rejects,
              c.rejects);
    EXPECT_EQ(s1.pec_stale - s0.pec_stale, 1u);
    // The INHT candidate, the grown node, took the lock and the leaf.
    EXPECT_EQ(s1.insert_walk_locks - s0.insert_walk_locks, 1u);
    EXPECT_TRUE(grower.search(c.key, &v));
  }
  EXPECT_EQ(index_->tree_stats().recovery.lock_reclaims, 0u);
  ASSERT_TRUE(index_->search("rc:a", &v));
  EXPECT_EQ(v, "v");

  // Every key landed under the grown node.
  art::InnerImage grown;
  const uint64_t fresh = pec_payload("ts:");
  ASSERT_EQ(inht_payload_type(fresh), art::NodeType::kN16);
  raw = peek(inht_payload_addr(fresh),
             art::inner_node_bytes(art::NodeType::kN16));
  std::memcpy(grown.raw(), raw.data(), raw.size());
  for (const char b : std::string("abcdefghi")) {
    EXPECT_GE(grown.find_pkey(static_cast<uint8_t>(b)), 0) << b;
  }
}

TEST_F(WalkLockTest, LockedForeignNodeAtAStalePecAddressIsNeverReclaimed) {
  ASSERT_TRUE(index_->insert("ts:a", "v"));
  ASSERT_TRUE(index_->insert("ts:b", "v"));
  const uint64_t ts_hash = art::prefix_hash(Slice("ts:"));
  // A foreign node, detached and Locked by a client that died long ago.
  const uint64_t zz_hash = art::prefix_hash(Slice("zz:"));
  const uint64_t orphaned = art::pack_inner_lease(
      art::pack_inner_header(art::NodeStatus::kIdle, art::NodeType::kN4, 3,
                             zz_hash),
      art::NodeStatus::kLocked, /*owner=*/250, /*stamp=*/5);
  const rdma::GlobalAddr foreign = plant_node("zz:", orphaned, zz_hash);
  const uint32_t n4_bytes = art::inner_node_bytes(art::NodeType::kN4);
  const std::vector<uint8_t> before = peek(foreign, n4_bytes);

  // Each insert meets the same busy word at the stale address, a full
  // lease apart in both clocks. Only a validated node may feed the lease
  // watch: reclaiming this one would restore it from our key's path.
  for (const char* k : {"ts:c", "ts:d", "ts:e"}) {
    pec_->insert(ts_hash, pack_inht_payload(art::NodeType::kN4, foreign));
    endpoint_->set_clock_ns(endpoint_->clock_ns() + 2 * rdma::kLeaseVirtualNs);
    std::this_thread::sleep_for(2 * rdma::kLeaseRealFloor);
    ASSERT_TRUE(index_->insert(k, "v"));
  }
  EXPECT_EQ(peek(foreign, n4_bytes), before);
  EXPECT_EQ(index_->tree_stats().recovery.lease_expiries_observed, 0u);
  EXPECT_EQ(index_->tree_stats().recovery.lock_reclaims, 0u);
  // "ts:c" and "ts:d" took the INHT candidate's free slots; "ts:e" found
  // it full and grew it under the same lock.
  EXPECT_EQ(since_warmup(&SphinxStats::insert_walk_locks), 3u);
  EXPECT_EQ(since_warmup(&SphinxStats::insert_walk_lock_releases), 0u);
  EXPECT_EQ(since_warmup(&SphinxStats::pec_stale), 3u);
}

}  // namespace
}  // namespace sphinx::core
