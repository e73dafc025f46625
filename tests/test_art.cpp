// Tests for the shared remote-tree engine, exercised through the ART
// baseline: node layout packing, image helpers, and full index semantics
// against a std::map oracle (inserts, searches, updates, deletes, scans,
// path compression, node type switches).
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <set>

#include "art/art_index.h"
#include "art/node_image.h"
#include "art/node_layout.h"
#include "common/rng.h"
#include "test_util.h"
#include "ycsb/dataset.h"

namespace sphinx::art {
namespace {

// ---- layout packing -----------------------------------------------------------

TEST(NodeLayout, HeaderPackUnpack) {
  const uint64_t h = pack_inner_header(NodeStatus::kLocked, NodeType::kN48,
                                       123, 0x2ffffffffffULL);
  EXPECT_EQ(header_status(h), NodeStatus::kLocked);
  EXPECT_EQ(header_type(h), NodeType::kN48);
  EXPECT_EQ(header_depth(h), 123);
  EXPECT_EQ(header_prefix_hash42(h), 0x2ffffffffffULL);
  const uint64_t idle = with_status(h, NodeStatus::kIdle);
  EXPECT_EQ(header_status(idle), NodeStatus::kIdle);
  EXPECT_EQ(header_type(idle), NodeType::kN48);
}

TEST(NodeLayout, SlotPackUnpack) {
  const rdma::GlobalAddr addr(2, 0x7fffffc0);
  const uint64_t inner = pack_inner_slot(0xab, NodeType::kN16, addr);
  EXPECT_TRUE(slot_valid(inner));
  EXPECT_FALSE(slot_is_leaf(inner));
  EXPECT_EQ(slot_pkey(inner), 0xab);
  EXPECT_EQ(slot_child_type(inner), NodeType::kN16);
  EXPECT_EQ(slot_addr(inner), addr);

  const uint64_t leaf = pack_leaf_slot(0x01, 63, addr);
  EXPECT_TRUE(slot_is_leaf(leaf));
  EXPECT_EQ(slot_leaf_units(leaf), 63u);
  EXPECT_EQ(slot_addr(leaf), addr);
}

TEST(NodeLayout, LeafHeaderPackUnpack) {
  const uint64_t h = pack_leaf_header(NodeStatus::kIdle, 3, 21, 64);
  EXPECT_EQ(leaf_units(h), 3u);
  EXPECT_EQ(leaf_key_len(h), 21u);
  EXPECT_EQ(leaf_val_len(h), 64u);
}

TEST(NodeLayout, NodeSizes) {
  EXPECT_EQ(inner_node_bytes(NodeType::kN4), 24u + 32u);
  EXPECT_EQ(inner_node_bytes(NodeType::kN256), 24u + 2048u);
  EXPECT_EQ(next_node_type(NodeType::kN4), NodeType::kN16);
  EXPECT_EQ(next_node_type(NodeType::kN48), NodeType::kN256);
  EXPECT_EQ(next_node_type(NodeType::kN256), NodeType::kN256);
  EXPECT_EQ(leaf_units_for(9, 64), 2u);   // 8 + 16 + 64 + 8 = 96 -> 2x64
  EXPECT_EQ(leaf_units_for(33, 64), 2u);  // 8 + 40 + 64 + 8 = 120 -> 2x64
}

// ---- images -------------------------------------------------------------------

TEST(InnerImage, CreateAndFindSlots) {
  InnerImage img = InnerImage::create(NodeType::kN4, Slice("abc"));
  EXPECT_EQ(img.depth(), 3u);
  EXPECT_EQ(img.status(), NodeStatus::kIdle);
  EXPECT_EQ(img.prefix_hash_full(), prefix_hash(Slice("abc")));
  EXPECT_EQ(img.find_pkey('x'), -1);
  EXPECT_EQ(img.find_free('x'), 0);
  img.set_slot(0, pack_leaf_slot('x', 1, rdma::GlobalAddr(0, 64)));
  EXPECT_EQ(img.find_pkey('x'), 0);
  EXPECT_EQ(img.find_free('y'), 1);
  EXPECT_EQ(img.valid_slot_count(), 1u);
}

TEST(InnerImage, N256DirectIndex) {
  InnerImage img = InnerImage::create(NodeType::kN256, Slice("q"));
  img.set_slot(200, pack_leaf_slot(200, 1, rdma::GlobalAddr(0, 64)));
  EXPECT_EQ(img.find_pkey(200), 200);
  EXPECT_EQ(img.find_free(200), -1);
  EXPECT_EQ(img.find_free(100), 100);
}

TEST(InnerImage, FragConsistency) {
  // depth 10, fragment stores the last 6 prefix bytes: "efghij".
  const std::string prefix = "abcdefghij";
  InnerImage img = InnerImage::create(NodeType::kN4, Slice(prefix));
  TerminatedKey good(Slice("abcdefghijXYZ"));
  TerminatedKey bad(Slice("abcdefghiZXYZ"));
  TerminatedKey unverifiable(Slice("ZZcdefghijXYZ"));  // differs before frag
  EXPECT_TRUE(img.frag_consistent(good, 3));
  EXPECT_FALSE(img.frag_consistent(bad, 3));
  // The divergence is before the fragment window: optimistically accepted.
  EXPECT_TRUE(img.frag_consistent(unverifiable, 3));
}

TEST(InnerImage, GrownCopyPreservesSlots) {
  InnerImage img = InnerImage::create(NodeType::kN4, Slice("pq"));
  for (uint8_t i = 0; i < 4; ++i) {
    img.set_slot(i, pack_leaf_slot(static_cast<uint8_t>('a' + i), 1,
                                   rdma::GlobalAddr(0, 64 * (i + 1))));
  }
  InnerImage big = img.grown_copy(NodeType::kN16);
  EXPECT_EQ(big.type(), NodeType::kN16);
  EXPECT_EQ(big.depth(), img.depth());
  EXPECT_EQ(big.valid_slot_count(), 4u);
  for (uint8_t i = 0; i < 4; ++i) {
    EXPECT_GE(big.find_pkey(static_cast<uint8_t>('a' + i)), 0);
  }
  InnerImage huge = big.grown_copy(NodeType::kN256);
  EXPECT_EQ(huge.find_pkey('c'), 'c');
}

TEST(LeafImage, BuildVerifyUpdate) {
  LeafImage leaf = LeafImage::build(Slice("hello\0", 6), Slice("world"), 1);
  EXPECT_TRUE(leaf.checksum_ok());
  EXPECT_EQ(leaf.key().size(), 6u);
  EXPECT_EQ(leaf.value().to_string(), "world");
  leaf.replace_value(Slice("mars!"));
  EXPECT_TRUE(leaf.checksum_ok());
  EXPECT_EQ(leaf.value().to_string(), "mars!");
  // Corruption is detected.
  leaf.buf()[10] ^= 0xff;
  EXPECT_FALSE(leaf.checksum_ok());
}

TEST(LeafImage, ChecksumIgnoresStatusBits) {
  LeafImage leaf = LeafImage::build(Slice("k\0", 2), Slice("v"), 1);
  uint64_t h = leaf.header();
  h = with_status(h, NodeStatus::kLocked);
  std::memcpy(leaf.buf().data(), &h, 8);
  EXPECT_TRUE(leaf.checksum_ok());
  EXPECT_EQ(leaf.status(), NodeStatus::kLocked);
}

// ---- full index semantics vs oracle --------------------------------------------

class ArtIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_ = testing::make_test_cluster();
    ref_ = create_tree(*cluster_);
    endpoint_ = std::make_unique<rdma::Endpoint>(cluster_->fabric(), 0, true);
    allocator_ = std::make_unique<mem::RemoteAllocator>(*cluster_, *endpoint_);
    index_ = std::make_unique<ArtIndex>(*cluster_, *endpoint_, *allocator_,
                                        ref_);
  }

  std::unique_ptr<mem::Cluster> cluster_;
  TreeRef ref_;
  std::unique_ptr<rdma::Endpoint> endpoint_;
  std::unique_ptr<mem::RemoteAllocator> allocator_;
  std::unique_ptr<ArtIndex> index_;
};

TEST_F(ArtIndexTest, InsertSearchSingle) {
  EXPECT_TRUE(index_->insert("hello", "world"));
  std::string v;
  EXPECT_TRUE(index_->search("hello", &v));
  EXPECT_EQ(v, "world");
  EXPECT_FALSE(index_->search("hell", &v));
  EXPECT_FALSE(index_->search("helloo", &v));
  EXPECT_FALSE(index_->search("x", &v));
}

TEST_F(ArtIndexTest, DuplicateInsertRejected) {
  EXPECT_TRUE(index_->insert("k", "v1"));
  EXPECT_FALSE(index_->insert("k", "v2"));
  std::string v;
  EXPECT_TRUE(index_->search("k", &v));
  EXPECT_EQ(v, "v1");
}

TEST_F(ArtIndexTest, PrefixKeysCoexist) {
  // Keys that are prefixes of each other exercise the terminator logic.
  const std::vector<std::string> keys = {"a",   "ab",   "abc", "abcd",
                                         "abd", "abde", "b"};
  for (const auto& k : keys) {
    ASSERT_TRUE(index_->insert(k, "v:" + k)) << k;
  }
  std::string v;
  for (const auto& k : keys) {
    ASSERT_TRUE(index_->search(k, &v)) << k;
    EXPECT_EQ(v, "v:" + k);
  }
  EXPECT_FALSE(index_->search("abcde", &v));
}

TEST_F(ArtIndexTest, UpdateChangesValue) {
  ASSERT_TRUE(index_->insert("key", "old"));
  EXPECT_TRUE(index_->update("key", "new"));
  std::string v;
  ASSERT_TRUE(index_->search("key", &v));
  EXPECT_EQ(v, "new");
  EXPECT_FALSE(index_->update("missing", "x"));
}

TEST_F(ArtIndexTest, UpdateGrowingValueGoesOutOfPlace) {
  ASSERT_TRUE(index_->insert("key", "small"));
  const std::string big(300, 'B');  // forces a bigger leaf
  EXPECT_TRUE(index_->update("key", big));
  std::string v;
  ASSERT_TRUE(index_->search("key", &v));
  EXPECT_EQ(v, big);
  // And back down (in-place within the bigger leaf).
  EXPECT_TRUE(index_->update("key", "tiny"));
  ASSERT_TRUE(index_->search("key", &v));
  EXPECT_EQ(v, "tiny");
}

TEST_F(ArtIndexTest, RemoveThenReinsert) {
  ASSERT_TRUE(index_->insert("key", "v1"));
  EXPECT_TRUE(index_->remove("key"));
  std::string v;
  EXPECT_FALSE(index_->search("key", &v));
  EXPECT_FALSE(index_->remove("key"));
  EXPECT_FALSE(index_->update("key", "x"));
  EXPECT_TRUE(index_->insert("key", "v2"));
  ASSERT_TRUE(index_->search("key", &v));
  EXPECT_EQ(v, "v2");
}

TEST_F(ArtIndexTest, TypeSwitchesUnderFanout) {
  // 200 distinct first bytes under a shared prefix force N4->N16->N48->N256.
  for (int i = 0; i < 200; ++i) {
    std::string k = "p";
    k.push_back(static_cast<char>(i + 1));
    k += "suffix";
    ASSERT_TRUE(index_->insert(k, std::to_string(i))) << i;
  }
  EXPECT_GE(index_->tree_stats().type_switches, 3u);
  std::string v;
  for (int i = 0; i < 200; ++i) {
    std::string k = "p";
    k.push_back(static_cast<char>(i + 1));
    k += "suffix";
    ASSERT_TRUE(index_->search(k, &v)) << i;
    EXPECT_EQ(v, std::to_string(i));
  }
}

TEST_F(ArtIndexTest, OracleRandomMixedOps) {
  std::map<std::string, std::string> oracle;
  Rng rng(2024);
  const std::vector<std::string> keys = testing::mixed_keys(800);
  for (int op = 0; op < 8000; ++op) {
    const std::string& k = keys[rng.next_below(keys.size())];
    switch (rng.next_below(4)) {
      case 0: {  // insert
        const std::string v = "v" + std::to_string(op);
        const bool expect = oracle.emplace(k, v).second;
        EXPECT_EQ(index_->insert(k, v), expect) << k;
        break;
      }
      case 1: {  // update
        const std::string v = "u" + std::to_string(op);
        const bool expect = oracle.count(k) > 0;
        EXPECT_EQ(index_->update(k, v), expect) << k;
        if (expect) oracle[k] = v;
        break;
      }
      case 2: {  // remove
        const bool expect = oracle.erase(k) > 0;
        EXPECT_EQ(index_->remove(k), expect) << k;
        break;
      }
      default: {  // search
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
  // Full verification pass.
  std::string v;
  for (const auto& [k, val] : oracle) {
    ASSERT_TRUE(index_->search(k, &v)) << k;
    EXPECT_EQ(v, val);
  }
}

TEST_F(ArtIndexTest, ScanReturnsSortedRange) {
  std::map<std::string, std::string> oracle;
  const std::vector<std::string> keys = testing::mixed_keys(500);
  for (const auto& k : keys) {
    index_->insert(k, "v:" + k);
    oracle[k] = "v:" + k;
  }
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& start : {std::string("order/"), std::string("user:"),
                            std::string("a"), keys[42]}) {
    const size_t n = index_->scan(start, 25, &out);
    auto it = oracle.lower_bound(start);
    size_t expected = 0;
    for (; it != oracle.end() && expected < 25; ++it, ++expected) {
      ASSERT_GT(out.size(), expected);
      EXPECT_EQ(out[expected].first, it->first);
      EXPECT_EQ(out[expected].second, it->second);
    }
    EXPECT_EQ(n, expected);
  }
}

TEST_F(ArtIndexTest, ScanPastEndReturnsShort) {
  index_->insert("aaa", "1");
  index_->insert("zzz", "2");
  std::vector<std::pair<std::string, std::string>> out;
  EXPECT_EQ(index_->scan("zzz", 10, &out), 1u);
  EXPECT_EQ(out[0].first, "zzz");
  EXPECT_EQ(index_->scan("zzzz", 10, &out), 0u);
}

TEST_F(ArtIndexTest, ScanSkipsDeleted) {
  for (char c = 'a'; c <= 'j'; ++c) {
    index_->insert(std::string(1, c), "v");
  }
  index_->remove("c");
  index_->remove("f");
  std::vector<std::pair<std::string, std::string>> out;
  EXPECT_EQ(index_->scan("a", 100, &out), 8u);
  for (const auto& [k, v] : out) {
    EXPECT_NE(k, "c");
    EXPECT_NE(k, "f");
  }
}

TEST_F(ArtIndexTest, U64KeysScanInNumericOrder) {
  std::set<uint64_t> values;
  Rng rng(7);
  while (values.size() < 300) values.insert(rng.next_u64());
  for (uint64_t v : values) {
    ASSERT_TRUE(index_->insert(encode_u64_key(v), std::to_string(v)));
  }
  std::vector<std::pair<std::string, std::string>> out;
  const uint64_t mid = *std::next(values.begin(), 150);
  index_->scan(encode_u64_key(mid), 50, &out);
  ASSERT_EQ(out.size(), 50u);
  auto it = values.find(mid);
  for (const auto& [k, v] : out) {
    EXPECT_EQ(decode_u64_key(Slice(k)), *it);
    ++it;
  }
}

TEST_F(ArtIndexTest, EmailDatasetRoundTrip) {
  const auto keys = ycsb::generate_email_keys(2000, 3);
  for (const auto& k : keys) {
    ASSERT_TRUE(index_->insert(k, "mail")) << k;
  }
  std::string v;
  for (const auto& k : keys) {
    ASSERT_TRUE(index_->search(k, &v)) << k;
  }
  EXPECT_EQ(index_->tree_stats().ops_failed, 0u);
}

TEST_F(ArtIndexTest, SearchCostsOneRttPerLevel) {
  // The ART-on-DM cost model: root read + one read per level + leaf read.
  ASSERT_TRUE(index_->insert("abcdef", "v"));
  const uint64_t before = endpoint_->stats().round_trips;
  std::string v;
  ASSERT_TRUE(index_->search("abcdef", &v));
  // Single key under the root: root + leaf = 2 round trips.
  EXPECT_EQ(endpoint_->stats().round_trips - before, 2u);
}

TEST_F(ArtIndexTest, MutationsCostOneDoorbellPerLock) {
  // Every node lock is one doorbell: the lock CAS and the under-lock
  // re-read ride together, and remove's leaf CAS rides its parent's lock.
  // The target node M sits below the root, whose slot installs take a
  // second doorbell for replica propagation. Warm-up inserts lease an
  // allocator chunk on every MN first, so no FAA hides in the costs.
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(index_->insert("w" + std::to_string(i), "v"));
  }
  ASSERT_TRUE(index_->insert("ab1", "v"));
  ASSERT_TRUE(index_->insert("ab2", "v"));  // splits root slot 'a' into M
  const TreeStats warm = index_->tree_stats();

  // Round trips one op spends, checked against its per-phase split.
  auto rtts_of = [&](auto&& op) -> uint64_t {
    const rdma::EndpointStats before = endpoint_->stats();
    EXPECT_TRUE(op());
    const rdma::EndpointStats delta = endpoint_->stats() - before;
    EXPECT_EQ(delta.rtts_sum_by_phase(), delta.round_trips);
    EXPECT_EQ(
        delta.rtts_by_phase[static_cast<size_t>(rdma::Phase::kAlloc)], 0u);
    return delta.round_trips;
  };
  // Descents: root + M reads reach M's free slot (2 round trips); a leaf
  // under M adds its read (3).
  constexpr uint64_t kToFreeSlot = 2;
  constexpr uint64_t kToLeaf = 3;

  // Leaf write + M lock + M re-read, then slot CAS + release.
  EXPECT_EQ(rtts_of([&] { return index_->insert("ab3", "v"); }) - kToFreeSlot,
            2u);
  // "ab1z" collides with leaf "ab1" under M: leaf + new node writes + M
  // lock + M re-read, then slot CAS + release.
  EXPECT_EQ(rtts_of([&] { return index_->insert("ab1z", "v"); }) - kToLeaf,
            2u);
  EXPECT_EQ(index_->tree_stats().splits - warm.splits, 1u);
  // Leaf Idle -> Invalid + M lock + M re-read, then slot clear + release.
  EXPECT_EQ(rtts_of([&] { return index_->remove("ab2"); }) - kToLeaf, 2u);
  // Growing update: leaf lock, then new leaf + M lock + M re-read, slot
  // CAS + release, and the old leaf's Invalid write.
  const std::string big(300, 'B');
  EXPECT_EQ(rtts_of([&] { return index_->update("ab3", big); }) - kToLeaf,
            4u);
  EXPECT_EQ(index_->tree_stats().op_retries, warm.op_retries);

  std::string v;
  EXPECT_FALSE(index_->search("ab2", &v));
  ASSERT_TRUE(index_->search("ab3", &v));
  EXPECT_EQ(v, big);
  EXPECT_TRUE(index_->search("ab1z", &v));
  EXPECT_TRUE(index_->search("ab1", &v));
}

TEST_F(ArtIndexTest, MemoryAccountingGrowsAndShrinks) {
  mem::AllocStats& stats = cluster_->alloc_stats();
  const uint64_t inner0 = stats.requested_bytes(mem::AllocTag::kInnerNode);
  const uint64_t leaf0 = stats.requested_bytes(mem::AllocTag::kLeaf);
  for (int i = 0; i < 100; ++i) {
    index_->insert("mem" + std::to_string(i), "v");
  }
  EXPECT_GT(stats.requested_bytes(mem::AllocTag::kLeaf), leaf0);
  EXPECT_GT(stats.requested_bytes(mem::AllocTag::kInnerNode), inner0);
  const uint64_t leaf_after = stats.requested_bytes(mem::AllocTag::kLeaf);
  for (int i = 0; i < 100; ++i) {
    index_->remove("mem" + std::to_string(i));
  }
  EXPECT_LT(stats.requested_bytes(mem::AllocTag::kLeaf), leaf_after);
}

// ---- root replication (DESIGN.md Sec. 15) -----------------------------------

TEST_F(ArtIndexTest, RootReplicasCreatedOnEveryMn) {
  ASSERT_EQ(ref_.root_replicas.size(), 3u);
  std::set<uint32_t> mns;
  for (const rdma::GlobalAddr& rep : ref_.root_replicas) mns.insert(rep.mn());
  EXPECT_EQ(mns.size(), 3u);
  // The vector is indexed by MN id; the primary's entry is the primary.
  EXPECT_EQ(ref_.root_replicas[ref_.root.mn()], ref_.root);
  // All copies start byte-identical (the empty Node-256 root).
  rdma::Endpoint loader = cluster_->make_loader_endpoint();
  InnerImage primary = InnerImage::create(NodeType::kN256, Slice());
  loader.read(ref_.root, primary.raw(), inner_node_bytes(NodeType::kN256));
  for (const rdma::GlobalAddr& rep_addr : ref_.root_replicas) {
    if (rep_addr == ref_.root) continue;
    InnerImage rep = InnerImage::create(NodeType::kN256, Slice());
    loader.read(rep_addr, rep.raw(), inner_node_bytes(NodeType::kN256));
    EXPECT_EQ(std::memcmp(rep.raw(), primary.raw(),
                          inner_node_bytes(NodeType::kN256)),
              0);
  }
}

TEST_F(ArtIndexTest, RootSlotInstallsPropagateToReplicas) {
  // Distinct first bytes populate distinct root slots: each install (and
  // each later leaf -> inner replacement) must reach every replica.
  for (int i = 0; i < 40; ++i) {
    const std::string k = std::string(1, static_cast<char>('0' + i)) + "key";
    ASSERT_TRUE(index_->insert(k, "v:" + k)) << k;
    ASSERT_TRUE(index_->insert(k + "2", "w:" + k)) << k;  // forces a split
  }
  EXPECT_GT(index_->tree_stats().root_replica_propagations, 0u);
  rdma::Endpoint loader = cluster_->make_loader_endpoint();
  InnerImage primary = InnerImage::create(NodeType::kN256, Slice());
  loader.read(ref_.root, primary.raw(), inner_node_bytes(NodeType::kN256));
  for (const rdma::GlobalAddr& rep_addr : ref_.root_replicas) {
    if (rep_addr == ref_.root) continue;
    InnerImage rep = InnerImage::create(NodeType::kN256, Slice());
    loader.read(rep_addr, rep.raw(), inner_node_bytes(NodeType::kN256));
    for (uint32_t s = 0; s < 256; ++s) {
      EXPECT_EQ(rep.slot(s), primary.slot(s)) << "slot " << s;
    }
  }
}

TEST_F(ArtIndexTest, ReplicaRoutedSearchesSpreadAndStayCorrect) {
  const auto keys = testing::mixed_keys(300);
  for (const auto& k : keys) ASSERT_TRUE(index_->insert(k, "v:" + k));
  std::string v;
  for (int round = 0; round < 3; ++round) {
    for (const auto& k : keys) {
      ASSERT_TRUE(index_->search(k, &v)) << k;
      EXPECT_EQ(v, "v:" + k);
    }
  }
  EXPECT_FALSE(index_->search("not-a-key-anywhere", &v));
  const TreeStats& st = index_->tree_stats();
  // Round-robin over 3 MNs: roughly 2/3 of root-entry descents go through
  // a replica, the rest through the primary.
  EXPECT_GT(st.root_replica_reads, 0u);
  EXPECT_GT(st.root_primary_reads, 0u);
  // A single client's propagations complete under the root lock before its
  // next descent, so its replicas never lag itself: no rechecks.
  EXPECT_EQ(st.root_replica_rechecks, 0u);
}

TEST_F(ArtIndexTest, StaleReplicaNeverYieldsFalseVerdicts) {
  ASSERT_TRUE(index_->insert("stale-key", "stale-val"));
  // Forge the failure mode replication must absorb: a propagation that
  // never landed (e.g. the installer crashed after its slot CAS). Clear
  // the key's root slot in every replica, leaving only the primary truthful.
  rdma::Endpoint loader = cluster_->make_loader_endpoint();
  const uint64_t zero = 0;
  for (const rdma::GlobalAddr& rep : ref_.root_replicas) {
    if (rep == ref_.root) continue;
    loader.write(rep.plus(kInnerHeaderBytes + uint64_t{'s'} * 8), &zero,
                 sizeof(zero));
  }
  // Round-robin sends most entries through a stale replica; its kNoSlot
  // verdict must be re-verified through the primary, never reported.
  std::string v;
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(index_->search("stale-key", &v)) << "attempt " << i;
    EXPECT_EQ(v, "stale-val");
  }
  EXPECT_GT(index_->tree_stats().root_replica_rechecks, 0u);
  // Mutations route the same way: the update and remove land on the
  // primary regardless of which root image the first attempt read.
  EXPECT_TRUE(index_->update("stale-key", "v2"));
  ASSERT_TRUE(index_->search("stale-key", &v));
  EXPECT_EQ(v, "v2");
  EXPECT_TRUE(index_->remove("stale-key"));
  EXPECT_FALSE(index_->search("stale-key", &v));
}

}  // namespace
}  // namespace sphinx::art
