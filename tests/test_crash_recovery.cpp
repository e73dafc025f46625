// Crash-tolerant locking, deterministically: lease word encodings
// round-trip; a lock orphaned by an injected client crash is reclaimed by
// exactly one of two concurrent waiters; a leaf that a crashed writer left
// Locked is never served from another CN's leaf address cache; and a RACE
// segment lock orphaned mid-split is recovered by rollback (sibling not yet
// visible) or roll-forward (directory already redirected), with no stored
// payload lost either way. The probabilistic end-to-end coverage lives in
// test_stress.cpp; these tests pin each recovery mechanism in isolation.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <thread>
#include <vector>

#include "art/art_index.h"
#include "art/node_layout.h"
#include "common/hash.h"
#include "core/sphinx_index.h"
#include "memnode/remote_allocator.h"
#include "racehash/race_table.h"
#include "rdma/fault_injector.h"
#include "rdma/retry_policy.h"
#include "test_util.h"

namespace sphinx {
namespace {

// ---- lease word encodings --------------------------------------------------

TEST(CrashRecovery, LeaseStampRoundTrip) {
  // Stamps tick in ~1 us of virtual time and wrap in 23 bits; every verb
  // charges >= 2 us, so clocks straddling a verb always stamp differently.
  EXPECT_EQ(rdma::lease_stamp23(0), 0u);
  EXPECT_NE(rdma::lease_stamp23(10'000), rdma::lease_stamp23(12'500));
  EXPECT_LE(rdma::lease_stamp23(~0ull), rdma::kLeaseStamp23Mask);
  // Same tick, same stamp: the stamp is a uniquifier, not a clock.
  EXPECT_EQ(rdma::lease_stamp23(2048), rdma::lease_stamp23(2049));
}

TEST(CrashRecovery, InnerLeaseRoundTrip) {
  const uint64_t header = art::pack_inner_header(
      art::NodeStatus::kIdle, art::NodeType::kN48, /*depth=*/9,
      /*prefix_hash=*/0x2a5'1234'5678ull);
  for (const art::NodeStatus s :
       {art::NodeStatus::kLocked, art::NodeStatus::kReclaiming}) {
    const uint64_t locked = art::pack_inner_lease(header, s, /*owner=*/201,
                                                  /*stamp=*/0x65432);
    EXPECT_EQ(art::header_status(locked), s);
    EXPECT_EQ(art::header_type(locked), art::NodeType::kN48);
    EXPECT_EQ(art::header_depth(locked), 9);
    EXPECT_EQ(art::inner_lease_owner(locked), 201);
    EXPECT_EQ(art::inner_lease_stamp(locked), 0x65432u);
  }
  // Two acquisitions by different owners (or stamps) never produce the
  // same word -- the watch relies on word identity.
  EXPECT_NE(art::pack_inner_lease(header, art::NodeStatus::kLocked, 1, 7),
            art::pack_inner_lease(header, art::NodeStatus::kLocked, 2, 7));
  EXPECT_NE(art::pack_inner_lease(header, art::NodeStatus::kLocked, 1, 7),
            art::pack_inner_lease(header, art::NodeStatus::kLocked, 1, 8));
}

TEST(CrashRecovery, LeafLeaseRoundTrip) {
  const uint64_t header = art::pack_leaf_header(art::NodeStatus::kIdle,
                                                /*units=*/3, /*key_len=*/21,
                                                /*val_len=*/100);
  const uint64_t locked = art::pack_leaf_lease(
      header, art::NodeStatus::kLocked, /*owner=*/77, /*stamp=*/0x101);
  EXPECT_EQ(art::header_status(locked), art::NodeStatus::kLocked);
  EXPECT_EQ(art::leaf_units(locked), 3u);
  EXPECT_EQ(art::leaf_key_len(locked), 21u);
  EXPECT_EQ(art::leaf_val_len(locked), 100u);
  EXPECT_EQ(art::leaf_lease_owner(locked), 77);
  EXPECT_EQ(art::leaf_lease_stamp(locked), 0x101u);
  // The checksum input is lease- and status-neutral: a reader validates an
  // image identically whether it caught the leaf idle, locked or mid-
  // reclamation.
  EXPECT_EQ(art::leaf_crc_neutral(locked), art::leaf_crc_neutral(header));
}

TEST(CrashRecovery, LeafTrailerRoundTrip) {
  const uint64_t w = art::pack_leaf_trailer(0xdeadbeef, 21, 100);
  EXPECT_EQ(art::leaf_trailer_crc(w), 0xdeadbeefu);
  EXPECT_EQ(art::leaf_trailer_key_len(w), 21u);
  EXPECT_EQ(art::leaf_trailer_val_len(w), 100u);
  // Fixed offset in the last unit, independent of the lengths.
  EXPECT_EQ(art::leaf_trailer_offset(1), 56u);
  EXPECT_EQ(art::leaf_trailer_offset(4), 4u * 64 - 8);
}

// ---- orphan-lock reclamation (ART leaf) ------------------------------------

// Arms `injector` to kill `client_id` at its next verb tagged `site`
// (once), leaving whatever locks it held orphaned.
void arm_assassin(rdma::FaultInjector& injector, uint32_t client_id,
                  rdma::FaultSite site) {
  rdma::FaultRule crash;
  crash.kind = rdma::FaultKind::kClientCrash;
  crash.probability = 1.0;
  crash.client_id = static_cast<int32_t>(client_id);
  crash.site = site;
  crash.max_fires = 1;
  injector.add_rule(crash);
}

TEST(CrashRecovery, TwoWaitersExactlyOneReclaims) {
  auto cluster = testing::make_test_cluster();
  const art::TreeRef ref = art::create_tree(*cluster);

  // Victim: insert a key, then die on the release verb of an update --
  // i.e. with the leaf lock held and the new image fully written.
  rdma::Endpoint victim_ep(cluster->fabric(), 0, /*metered=*/true);
  victim_ep.set_fault_client_id(77);
  mem::RemoteAllocator victim_alloc(*cluster, victim_ep);
  art::ArtIndex victim(*cluster, victim_ep, victim_alloc, ref);
  ASSERT_TRUE(victim.insert("key", "v0"));

  rdma::FaultInjector injector(/*seed=*/7);
  arm_assassin(injector, 77, rdma::FaultSite::kLockRelease);
  cluster->fabric().set_fault_injector(&injector);
  EXPECT_THROW(victim.update("key", "victim"), rdma::ClientCrashed);

  // Two concurrent waiters. Both must complete their update; the reclaim
  // CAS (expected value = the watched lease word) admits exactly one.
  uint64_t reclaims[2] = {0, 0};
  std::vector<std::thread> waiters;
  for (int w = 0; w < 2; ++w) {
    waiters.emplace_back([&, w] {
      rdma::Endpoint ep(cluster->fabric(), static_cast<uint32_t>(w), true);
      ep.set_fault_client_id(static_cast<uint32_t>(1 + w));
      mem::RemoteAllocator alloc(*cluster, ep);
      art::ArtIndex waiter(*cluster, ep, alloc, ref);
      EXPECT_TRUE(waiter.update("key", "w" + std::to_string(w)));
      reclaims[w] = waiter.tree_stats().recovery.lock_reclaims;
    });
  }
  for (auto& t : waiters) t.join();
  EXPECT_EQ(reclaims[0] + reclaims[1], 1u);

  // The node is healthy again: the last completed update is readable and
  // further writes need no recovery.
  cluster->fabric().set_fault_injector(nullptr);
  rdma::Endpoint ep(cluster->fabric(), 2, true);
  mem::RemoteAllocator alloc(*cluster, ep);
  art::ArtIndex reader(*cluster, ep, alloc, ref);
  std::string v;
  ASSERT_TRUE(reader.search("key", &v));
  EXPECT_TRUE(v == "w0" || v == "w1") << v;
  EXPECT_EQ(reader.tree_stats().recovery.lock_reclaims, 0u);
}

// ---- the leaf address cache under a crashed writer --------------------------

TEST(CrashRecovery, LacNeverServesALeafLeftLockedByACrashedWriter) {
  auto cluster = testing::make_test_cluster();
  const core::SphinxRefs refs = core::create_sphinx(*cluster);
  auto filter = filter::CuckooFilter::with_budget(1 << 16);
  auto pec = filter::HintCache::with_budget(1 << 16);
  auto lac = filter::HintCache::with_budget(1 << 16);
  struct Client {
    Client(mem::Cluster& cluster, const core::SphinxRefs& refs, uint32_t cn,
           uint32_t id, filter::CuckooFilter* filter = nullptr,
           filter::HintCache* pec = nullptr, filter::HintCache* lac = nullptr)
        : ep(cluster.fabric(), cn, /*metered=*/true),
          alloc(cluster, ep),
          index(cluster, ep, alloc, refs, filter, pec, lac) {
      ep.set_fault_client_id(id);
    }
    rdma::Endpoint ep;
    mem::RemoteAllocator alloc;
    core::SphinxIndex index;
  };

  // CN 0 warms its LAC binding for the key, which sits below an inner node.
  Client reader(*cluster, refs, 0, 1, filter.get(), pec.get(), lac.get());
  ASSERT_TRUE(reader.index.insert("lac/key", "v0"));
  ASSERT_TRUE(reader.index.insert("lac/kez", "v"));
  std::string v;
  ASSERT_TRUE(reader.index.search("lac/key", &v));
  ASSERT_EQ(v, "v0");

  // CN 1 grows the value out of place and dies on the parent release that
  // rides its slot install: the tree leads to the new leaf, and the old one
  // stays Locked and detached.
  rdma::FaultInjector injector(/*seed=*/7);
  arm_assassin(injector, 77, rdma::FaultSite::kLockRelease);
  cluster->fabric().set_fault_injector(&injector);
  const std::string grown(900, 'N');
  {
    Client victim(*cluster, refs, 1, 77);
    EXPECT_THROW(victim.index.update("lac/key", grown), rdma::ClientCrashed);
  }
  cluster->fabric().set_fault_injector(nullptr);

  // CN 2 reads through the tree: the new value.
  Client fresh(*cluster, refs, 2, 2);
  ASSERT_TRUE(fresh.index.search("lac/key", &v));
  EXPECT_EQ(v, grown);
  // CN 0's warm binding still names the old leaf, which must not be served.
  ASSERT_TRUE(reader.index.search("lac/key", &v));
  EXPECT_EQ(v, grown);
  EXPECT_EQ(reader.index.sphinx_stats().lac_stale, 1u);
  EXPECT_EQ(reader.index.sphinx_stats().lac_wrong_value, 0u);
}

// ---- orphaned RACE segment lock --------------------------------------------

struct RaceRig {
  RaceRig(mem::Cluster& cluster, const race::TableRef& table,
          std::map<uint64_t, uint64_t>* payload_to_hash, uint32_t client_id)
      : endpoint(cluster.fabric(), 0, /*metered=*/true),
        allocator(cluster, endpoint),
        client(cluster, endpoint, allocator, table,
               [payload_to_hash](uint64_t payload) {
                 return payload_to_hash->at(payload);
               }) {
    endpoint.set_fault_client_id(client_id);
  }

  rdma::Endpoint endpoint;
  mem::RemoteAllocator allocator;
  race::RaceClient client;
};

// Fills the table through `victim` until its first verb tagged `site`
// kills it (the first split reaches every tagged split step), then has a
// survivor finish the fill and verify every payload is still reachable.
// Returns the survivor's recovery counters.
rdma::RecoveryStats crash_splitter_at(rdma::FaultSite site) {
  auto cluster = testing::make_test_cluster(256 << 20);
  const race::TableRef table = race::create_table(*cluster, 0,
                                                  /*initial_depth=*/1);
  std::map<uint64_t, uint64_t> payload_to_hash;
  rdma::FaultInjector injector(/*seed=*/7);
  arm_assassin(injector, 77, site);
  cluster->fabric().set_fault_injector(&injector);

  RaceRig victim(*cluster, table, &payload_to_hash, /*client_id=*/77);
  const uint64_t kMax = 40000;
  uint64_t crashed_at = kMax;
  for (uint64_t i = 0; i < kMax; ++i) {
    payload_to_hash[i] = splitmix64(i);
    try {
      if (!victim.client.insert(payload_to_hash[i], i)) {
        ADD_FAILURE() << "victim insert failed at " << i;
        break;
      }
    } catch (const rdma::ClientCrashed&) {
      crashed_at = i;
      break;
    }
  }
  // The crash fired during the first split, with the victim holding the
  // directory lock and the overflowing segment's lock.
  EXPECT_LT(crashed_at, kMax);
  EXPECT_EQ(victim.client.stats().splits, 0u);

  // A survivor hitting the orphaned locks must wait out the lease, reclaim
  // and recover; afterwards the fill completes and nothing is lost.
  RaceRig survivor(*cluster, table, &payload_to_hash, /*client_id=*/1);
  const uint64_t n = crashed_at + 2000;
  for (uint64_t i = crashed_at; i < n; ++i) {
    payload_to_hash[i] = splitmix64(i);
    EXPECT_TRUE(survivor.client.insert(payload_to_hash[i], i)) << i;
  }
  std::vector<uint64_t> found;
  uint64_t missing = 0;
  for (uint64_t i = 0; i < n; ++i) {
    if (i == crashed_at) continue;  // redone by the survivor above
    found.clear();
    survivor.client.search(payload_to_hash[i], found);
    if (std::find(found.begin(), found.end(), i) == found.end()) missing++;
  }
  EXPECT_EQ(missing, 0u);
  EXPECT_GE(survivor.client.stats().recovery.lock_reclaims, 1u);
  return survivor.client.stats().recovery;
}

TEST(CrashRecovery, SegmentCrashBeforeSiblingVisibleRollsBack) {
  // Death at the sibling body write: no directory entry points at the
  // sibling yet, so recovery must roll the split back (header-only write;
  // the stored entries were never touched).
  const rdma::RecoveryStats recovery =
      crash_splitter_at(rdma::FaultSite::kSplitSibling);
  EXPECT_EQ(recovery.lock_rollforwards, 0u);
}

TEST(CrashRecovery, SegmentCrashAfterDirRedirectRollsForward) {
  // Death at the cleaned-original publish: the sibling is live and the
  // directory already points at it, so recovery must finish the split
  // (merge any straggler entries, republish both segments).
  const rdma::RecoveryStats recovery =
      crash_splitter_at(rdma::FaultSite::kSplitPublish);
  EXPECT_GE(recovery.lock_rollforwards, 1u);
}

}  // namespace
}  // namespace sphinx
