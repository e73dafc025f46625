// Tests for the leaf address cache (LAC), the third CN cache tier: payload
// packing, the one-round-trip warm read, and the deterministic staleness
// oracles -- every way a cached leaf binding can go stale is forced here
// and must be caught by the fused validate, with the fallback descent
// returning the correct value and the cache self-healing on the next
// access. The cache structure itself is tested in test_filter.cpp.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/sphinx_index.h"
#include "filter/hint_cache.h"
#include "rdma/fault_injector.h"
#include "test_util.h"

namespace sphinx::core {
namespace {

TEST(LacPayload, PackUnpack) {
  const uint64_t addr48 = (0x2ull << 40) | 0xdeadb00;
  const uint64_t p = filter::pack_lac_payload(5, addr48);
  EXPECT_EQ(filter::lac_payload_units(p), 5u);
  EXPECT_EQ(filter::lac_payload_addr48(p), addr48);
  // The tag and hot bit stay free above the slot's 54-bit payload field.
  EXPECT_EQ(p & ~filter::HintCache::kPayloadMask, 0u);
}

// Two clients against one Sphinx instance: `reader_` owns the LAC under
// test; `mutator_` (separate endpoint, no LAC) changes the tree behind the
// reader's back to manufacture every staleness scenario deterministically.
class LeafCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_ = testing::make_test_cluster();
    refs_ = create_sphinx(*cluster_);
    filter_ = filter::CuckooFilter::with_budget(1 << 20);
    pec_ = filter::HintCache::with_budget(1 << 16);
    lac_ = filter::HintCache::with_budget(1 << 16);

    reader_ep_ = std::make_unique<rdma::Endpoint>(cluster_->fabric(), 0, true);
    reader_alloc_ =
        std::make_unique<mem::RemoteAllocator>(*cluster_, *reader_ep_);
    reader_ = std::make_unique<SphinxIndex>(*cluster_, *reader_ep_,
                                            *reader_alloc_, refs_,
                                            filter_.get(), pec_.get(),
                                            lac_.get());

    mutator_ep_ = std::make_unique<rdma::Endpoint>(cluster_->fabric(), 1, true);
    mutator_alloc_ =
        std::make_unique<mem::RemoteAllocator>(*cluster_, *mutator_ep_);
    mutator_ = std::make_unique<SphinxIndex>(*cluster_, *mutator_ep_,
                                             *mutator_alloc_, refs_,
                                             filter_.get());
  }

  uint64_t reader_rtts() const { return reader_ep_->stats().round_trips; }

  std::unique_ptr<mem::Cluster> cluster_;
  SphinxRefs refs_;
  std::unique_ptr<filter::CuckooFilter> filter_;
  std::unique_ptr<filter::HintCache> pec_;
  std::unique_ptr<filter::HintCache> lac_;
  std::unique_ptr<rdma::Endpoint> reader_ep_;
  std::unique_ptr<mem::RemoteAllocator> reader_alloc_;
  std::unique_ptr<SphinxIndex> reader_;
  std::unique_ptr<rdma::Endpoint> mutator_ep_;
  std::unique_ptr<mem::RemoteAllocator> mutator_alloc_;
  std::unique_ptr<SphinxIndex> mutator_;
};

TEST_F(LeafCacheTest, WarmHitCostsOneRoundTrip) {
  ASSERT_TRUE(reader_->insert("alpha/key-1", "v1"));
  std::string v;

  // Insert populated the LAC, so even the first search is a warm (cold-
  // confidence) hit; the second is a hot hit reading the leaf alone.
  ASSERT_TRUE(reader_->search("alpha/key-1", &v));
  EXPECT_EQ(v, "v1");
  EXPECT_EQ(reader_->sphinx_stats().lac_hits, 1u);
  EXPECT_EQ(reader_->sphinx_stats().lac_stale, 0u);

  const uint64_t before = reader_rtts();
  ASSERT_TRUE(reader_->search("alpha/key-1", &v));
  EXPECT_EQ(v, "v1");
  EXPECT_EQ(reader_rtts() - before, 1u);  // the whole point of the tier
  EXPECT_EQ(reader_->sphinx_stats().lac_hits, 2u);
  EXPECT_EQ(reader_->sphinx_stats().lac_wrong_value, 0u);

  // The round trip is attributed to the LAC phase, nothing unattributed.
  EXPECT_GE(reader_ep_->stats()
                .rtts_by_phase[static_cast<size_t>(
                    rdma::Phase::kLacFusedRead)],
            1u);
  EXPECT_EQ(reader_ep_->stats().rtts_sum_by_phase(),
            reader_ep_->stats().round_trips);
}

TEST_F(LeafCacheTest, SplitDoesNotDisturbCachedBindings) {
  // Splits relink leaves into new inner nodes without moving the leaf
  // blocks, so a split must NOT stale any LAC binding -- this pins down
  // the invariant the coherence argument rests on.
  ASSERT_TRUE(reader_->insert("split/aaaa", "v-a"));
  std::string v;
  ASSERT_TRUE(reader_->search("split/aaaa", &v));
  const uint64_t hits_before = reader_->sphinx_stats().lac_hits;

  // Force splits and inner-node growth (N4 -> N16 -> N48) around the
  // cached leaf's path from the *other* client.
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(mutator_->insert("split/aa" + std::string(1, 'b' + i % 20) +
                                     std::to_string(i),
                                 "sib" + std::to_string(i)));
  }

  ASSERT_TRUE(reader_->search("split/aaaa", &v));
  EXPECT_EQ(v, "v-a");
  EXPECT_EQ(reader_->sphinx_stats().lac_hits, hits_before + 1);
  EXPECT_EQ(reader_->sphinx_stats().lac_stale, 0u);
  EXPECT_EQ(reader_->sphinx_stats().lac_wrong_value, 0u);
}

TEST_F(LeafCacheTest, RemoveReinsertIsCaughtAndSelfHeals) {
  ASSERT_TRUE(reader_->insert("stale/key", "old"));
  std::string v;
  ASSERT_TRUE(reader_->search("stale/key", &v));
  ASSERT_GE(reader_->sphinx_stats().lac_hits, 1u);

  // The mutator deletes and reinserts: the old leaf is retired (Invalid,
  // never recycled) and the new one lives at a different address. The
  // reader's cached binding now points at a tombstone.
  ASSERT_TRUE(mutator_->remove("stale/key"));
  ASSERT_TRUE(mutator_->insert("stale/key", "new"));

  const uint64_t stale_before = reader_->sphinx_stats().lac_stale;
  ASSERT_TRUE(reader_->search("stale/key", &v));
  EXPECT_EQ(v, "new");  // never the old value: fused validate caught it
  EXPECT_EQ(reader_->sphinx_stats().lac_stale, stale_before + 1);
  EXPECT_EQ(reader_->sphinx_stats().lac_wrong_value, 0u);

  // Self-heal: the fallback repopulated the binding, so the next read is a
  // clean warm hit again.
  ASSERT_TRUE(reader_->search("stale/key", &v));
  EXPECT_EQ(v, "new");
  EXPECT_EQ(reader_->sphinx_stats().lac_stale, stale_before + 1);
}

TEST_F(LeafCacheTest, OutOfPlaceUpdateIsCaughtAndSelfHeals) {
  ASSERT_TRUE(reader_->insert("move/key", "tiny"));
  std::string v;
  ASSERT_TRUE(reader_->search("move/key", &v));

  // A value too large for the old leaf's unit count forces an out-of-place
  // update: the leaf moves to a fresh allocation, the old block is retired.
  const std::string big(900, 'X');
  ASSERT_TRUE(mutator_->update("move/key", big));

  const uint64_t stale_before = reader_->sphinx_stats().lac_stale;
  ASSERT_TRUE(reader_->search("move/key", &v));
  EXPECT_EQ(v, big);
  EXPECT_EQ(reader_->sphinx_stats().lac_stale, stale_before + 1);
  EXPECT_EQ(reader_->sphinx_stats().lac_wrong_value, 0u);

  ASSERT_TRUE(reader_->search("move/key", &v));
  EXPECT_EQ(v, big);
  EXPECT_EQ(reader_->sphinx_stats().lac_stale, stale_before + 1);
}

TEST_F(LeafCacheTest, InPlaceUpdateKeepsBindingFreshAndVisible) {
  // An in-place update (same-size value) keeps the leaf address, so the
  // reader's binding stays valid AND the fused read must observe the new
  // bytes -- the leaf read is the validation, not a cache of the value.
  ASSERT_TRUE(reader_->insert("inplace/key", "aaaa"));
  std::string v;
  ASSERT_TRUE(reader_->search("inplace/key", &v));

  ASSERT_TRUE(mutator_->update("inplace/key", "bbbb"));

  const uint64_t stale_before = reader_->sphinx_stats().lac_stale;
  ASSERT_TRUE(reader_->search("inplace/key", &v));
  EXPECT_EQ(v, "bbbb");
  EXPECT_EQ(reader_->sphinx_stats().lac_stale, stale_before);
  EXPECT_EQ(reader_->sphinx_stats().lac_wrong_value, 0u);
}

TEST_F(LeafCacheTest, StaleFallbackFusesDescentStart) {
  // The reader's inserts leave both leaf bindings cold (never looked up)
  // and create the inner node "fuse/deep/key-7", which seeds the filter and
  // the PEC: a cold LAC hit on either key hedges by fusing that node's read
  // with the speculative leaf read.
  ASSERT_TRUE(reader_->insert("fuse/deep/key-77", "before"));
  ASSERT_TRUE(reader_->insert("fuse/deep/key-78", "other"));

  // Stale key-77's binding behind the reader's back: the old leaf is
  // retired, the new one lives elsewhere; the inner node is untouched.
  auto stale_key_77 = [&] {
    ASSERT_TRUE(mutator_->remove("fuse/deep/key-77"));
    ASSERT_TRUE(mutator_->insert("fuse/deep/key-77", "after"));
  };
  stale_key_77();

  // Single-op entry: the fused round (stale leaf + validated inner node),
  // then the fallback descends from the inner node in hand straight to the
  // new leaf -- two round trips, no root descent.
  SphinxStats before = reader_->sphinx_stats();
  uint64_t rtts_before = reader_rtts();
  std::string v;
  ASSERT_TRUE(reader_->search("fuse/deep/key-77", &v));
  EXPECT_EQ(v, "after");
  EXPECT_EQ(reader_rtts() - rtts_before, 2u);
  EXPECT_EQ(reader_->sphinx_stats().lac_stale, before.lac_stale + 1);
  EXPECT_EQ(reader_->sphinx_stats().lac_fused_losses,
            before.lac_fused_losses + 1);
  EXPECT_EQ(reader_->sphinx_stats().start_successes,
            before.start_successes + 1);
  EXPECT_EQ(reader_->sphinx_stats().batch_ops, 0u);

  // Batched entry: the fallback above re-bound key-77 (cold again); stale
  // it once more and read it together with key-78's cold binding. One
  // shared round carries both leaves and their fused inner reads; key-78
  // completes in it, key-77's rescue descent costs one more round trip.
  stale_key_77();
  before = reader_->sphinx_stats();
  rtts_before = reader_rtts();
  std::string v77, v78;
  BatchOp ops[2];
  ops[0].key = "fuse/deep/key-77";
  ops[0].value_out = &v77;
  ops[1].key = "fuse/deep/key-78";
  ops[1].value_out = &v78;
  reader_->execute_batch(ops, 2);
  ASSERT_TRUE(ops[0].ok && ops[1].ok);
  EXPECT_EQ(v77, "after");
  EXPECT_EQ(v78, "other");
  EXPECT_EQ(reader_rtts() - rtts_before, 2u);
  const SphinxStats& after = reader_->sphinx_stats();
  EXPECT_EQ(after.lac_fused_losses, before.lac_fused_losses + 1);
  EXPECT_EQ(after.lac_fused_wins, before.lac_fused_wins + 1);
  EXPECT_EQ(after.start_successes, before.start_successes + 1);
  EXPECT_EQ(after.batch_fused_rounds, before.batch_fused_rounds + 1);
  EXPECT_EQ(after.batch_fused_ops, before.batch_fused_ops + 1);
  EXPECT_EQ(after.batch_serial_ops, before.batch_serial_ops + 1);
  EXPECT_EQ(after.lac_wrong_value, 0u);
}

TEST_F(LeafCacheTest, MnOfflineBetweenPopulateAndReadRecovers) {
  ASSERT_TRUE(reader_->insert("offline/key", "v"));
  std::string v;
  ASSERT_TRUE(reader_->search("offline/key", &v));

  // Every MN rejects the next few verbs: the fused read's first issue is
  // rejected, the endpoint charges a timeout and retries until the MN
  // recovers. The op must still return the correct value and count the
  // rejects -- an offline MN may not produce a wrong answer or a hang.
  rdma::FaultInjector injector(7);
  for (uint32_t mn = 0; mn < 3; ++mn) injector.arm_mn_offline(mn, 2);
  cluster_->fabric().set_fault_injector(&injector);

  ASSERT_TRUE(reader_->search("offline/key", &v));
  EXPECT_EQ(v, "v");
  EXPECT_EQ(reader_->sphinx_stats().lac_wrong_value, 0u);
  EXPECT_GT(injector.stats().offline_rejects, 0u);

  cluster_->fabric().set_fault_injector(nullptr);
  ASSERT_TRUE(reader_->search("offline/key", &v));
  EXPECT_EQ(v, "v");
}

TEST_F(LeafCacheTest, DisabledLacTakesBaselinePath) {
  rdma::Endpoint ep(cluster_->fabric(), 2, true);
  mem::RemoteAllocator alloc(*cluster_, ep);
  SphinxIndex plain(*cluster_, ep, alloc, refs_, filter_.get(), pec_.get());

  ASSERT_TRUE(plain.insert("nolac/key", "v"));
  std::string v;
  ASSERT_TRUE(plain.search("nolac/key", &v));
  EXPECT_EQ(v, "v");
  EXPECT_EQ(plain.sphinx_stats().lac_hits, 0u);
  EXPECT_EQ(ep.stats()
                .rtts_by_phase[static_cast<size_t>(rdma::Phase::kLacFusedRead)],
            0u);
}

}  // namespace
}  // namespace sphinx::core
