// Unit tests for the succinct filter cache substrate (cuckoo filter with
// hotness-bit second-chance eviction) and the hint cache, the one class
// behind the two location tiers of the CN cache: the prefix entry cache
// (PEC, INHT payloads) and the leaf address cache (LAC, leaf bindings).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/hash.h"
#include "core/inht.h"
#include "filter/cuckoo_filter.h"
#include "filter/hint_cache.h"

namespace sphinx::filter {
namespace {

TEST(CuckooFilter, InsertedItemsAreFound) {
  CuckooFilter f(1 << 12);
  for (uint64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(f.insert(splitmix64(i)));
  }
  for (uint64_t i = 0; i < 1000; ++i) {
    EXPECT_TRUE(f.contains(splitmix64(i))) << i;
  }
}

TEST(CuckooFilter, FalsePositiveRateBelowOnePercent) {
  // Paper Sec. III-B: a ~12-bit fingerprint keeps the fp rate < 1%.
  CuckooFilter f(1 << 14);  // 64K slots
  const uint64_t n = 50000;  // ~76% load
  for (uint64_t i = 0; i < n; ++i) f.insert(splitmix64(i));
  uint64_t fp = 0;
  const uint64_t probes = 200000;
  for (uint64_t i = 0; i < probes; ++i) {
    if (f.contains_cold(splitmix64(1'000'000'000 + i))) fp++;
  }
  EXPECT_LT(static_cast<double>(fp) / probes, 0.01);
}

TEST(CuckooFilter, EraseRemoves) {
  CuckooFilter f(1 << 10);
  const uint64_t h = splitmix64(1234);
  EXPECT_TRUE(f.insert(h));
  EXPECT_TRUE(f.contains_cold(h));
  EXPECT_TRUE(f.erase(h));
  EXPECT_FALSE(f.contains_cold(h));
  EXPECT_FALSE(f.erase(h));
}

TEST(CuckooFilter, DuplicateInsertIsIdempotent) {
  CuckooFilter f(1 << 10);
  const uint64_t h = splitmix64(99);
  EXPECT_TRUE(f.insert(h));
  EXPECT_TRUE(f.insert(h));
  EXPECT_EQ(f.stats().insert_dupes, 1u);
  EXPECT_TRUE(f.erase(h));
  EXPECT_FALSE(f.contains_cold(h));  // one erase removes the only copy
}

TEST(CuckooFilter, SecondChanceEvictsColdEntriesFirst) {
  // Fill a tiny filter, touch half the entries (making them hot), then
  // insert fresh items under pressure: evictions should hit cold entries,
  // so hot entries survive at a much higher rate.
  CuckooFilter f(64);  // 256 slots
  std::vector<uint64_t> hot, cold;
  for (uint64_t i = 0; hot.size() + cold.size() < 220; ++i) {
    const uint64_t h = splitmix64(i);
    if (!f.insert(h)) continue;
    if (i % 2 == 0) {
      hot.push_back(h);
    } else {
      cold.push_back(h);
    }
  }
  for (uint64_t h : hot) f.contains(h);  // sets hotness bits

  for (uint64_t i = 0; i < 200; ++i) {
    f.insert(splitmix64(0xdead0000 + i));
  }

  auto survivors = [&](const std::vector<uint64_t>& v) {
    uint64_t alive = 0;
    for (uint64_t h : v) {
      if (f.contains_cold(h)) alive++;
    }
    return static_cast<double>(alive) / static_cast<double>(v.size());
  };
  EXPECT_GT(survivors(hot), survivors(cold) + 0.15);
}

TEST(CuckooFilter, HotWorkingSetSurvivesOverCapacityChurn) {
  // Fill far past capacity with a one-shot cold stream while a small hot
  // working set is periodically re-touched. The second-chance policy must
  // keep (almost) all of the hot set resident and displace the cold
  // stream instead, even though the stream is several times the filter.
  CuckooFilter f(64);  // 256 slots
  std::vector<uint64_t> hot;
  for (uint64_t i = 0; hot.size() < 32; ++i) {
    const uint64_t h = splitmix64(0x50f7 + i);
    if (f.insert(h)) hot.push_back(h);
  }

  // 4x capacity of cold one-timers, interleaved with hot re-touches (each
  // contains() re-arms the hotness bit, like repeated index lookups on a
  // hot prefix).
  for (uint64_t i = 0; i < 1024; ++i) {
    f.insert(splitmix64(0xc01d0000 + i));
    if (i % 8 == 0) {
      for (uint64_t h : hot) f.contains(h);
    }
  }

  uint64_t hot_alive = 0;
  for (uint64_t h : hot) {
    if (f.contains_cold(h)) hot_alive++;
  }
  EXPECT_GE(hot_alive, hot.size() - 2) << "hot prefixes were displaced";

  // The cold stream did not accumulate: most one-timers are gone again.
  uint64_t cold_alive = 0;
  for (uint64_t i = 0; i < 1024; ++i) {
    if (f.contains_cold(splitmix64(0xc01d0000 + i))) cold_alive++;
  }
  EXPECT_LT(cold_alive, 256u);
  EXPECT_GT(f.stats().evictions, 0u);
}

TEST(CuckooFilter, RelocationMakesRoomWhenAllHot) {
  CuckooFilter f(32);  // 128 slots
  std::vector<uint64_t> items;
  for (uint64_t i = 0; items.size() < 100; ++i) {
    const uint64_t h = splitmix64(0xabc + i);
    if (f.insert(h)) items.push_back(h);
  }
  for (uint64_t h : items) f.contains(h);  // everything hot
  // New inserts must still succeed (relocation path).
  uint64_t inserted = 0;
  for (uint64_t i = 0; i < 50; ++i) {
    if (f.insert(splitmix64(0xffff0000 + i))) inserted++;
  }
  EXPECT_GT(inserted, 40u);
  EXPECT_GT(f.stats().relocations + f.stats().evictions, 0u);
}

TEST(CuckooFilter, WithBudgetRespectsBytes) {
  auto f = CuckooFilter::with_budget(1 << 20);
  EXPECT_LE(f->memory_bytes(), 1u << 20);
  EXPECT_GE(f->memory_bytes(), 1u << 19);  // at least half the budget
}

TEST(CuckooFilter, SizeCountsLiveEntries) {
  CuckooFilter f(1 << 10);
  EXPECT_EQ(f.size(), 0u);
  for (uint64_t i = 0; i < 100; ++i) f.insert(splitmix64(i));
  EXPECT_EQ(f.size(), 100u);
}

TEST(CuckooFilter, ConcurrentInsertAndLookup) {
  CuckooFilter f(1 << 14);
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        const uint64_t h = splitmix64(t * kPerThread + i);
        f.insert(h);
        f.contains(h);
      }
    });
  }
  for (auto& t : threads) t.join();
  // Low pressure (61% load): nearly everything must be present.
  uint64_t present = 0;
  for (uint64_t i = 0; i < kThreads * kPerThread; ++i) {
    if (f.contains_cold(splitmix64(i))) present++;
  }
  EXPECT_GT(present, kThreads * kPerThread * 98 / 100);
}

TEST(CuckooFilter, StatsReset) {
  CuckooFilter f(64);
  f.insert(splitmix64(1));
  f.insert(splitmix64(1));
  EXPECT_GT(f.stats().inserts, 0u);
  f.reset_stats();
  EXPECT_EQ(f.stats().inserts, 0u);
  EXPECT_EQ(f.stats().insert_dupes, 0u);
}

// ---- hint cache ---------------------------------------------------------
// The PrefixEntryCache cases drive the class with PEC-style payloads, the
// LeafAddrCache cases with LAC payloads; both tiers are one HintCache.

TEST(PrefixEntryCache, InsertLookupRoundTrip) {
  HintCache pec(1 << 8);
  uint64_t payload = 0;
  bool was_hot = true;
  EXPECT_FALSE(pec.lookup(splitmix64(7), &payload, &was_hot));
  pec.insert(splitmix64(7), 0x1234);
  ASSERT_TRUE(pec.lookup(splitmix64(7), &payload, &was_hot));
  EXPECT_EQ(payload, 0x1234u);
  EXPECT_FALSE(was_hot);  // new entries start cold
  // The first lookup marked it hot.
  ASSERT_TRUE(pec.lookup(splitmix64(7), &payload, &was_hot));
  EXPECT_TRUE(was_hot);
  EXPECT_EQ(pec.stats().hits, 2u);
  EXPECT_EQ(pec.stats().misses, 1u);
}

TEST(PrefixEntryCache, HashZeroIsUsable) {
  // Hash 0's tag (its top nine bits) collides with the empty-slot sentinel
  // and must be remapped, not lost (the remap trick shared with the cuckoo
  // filter's fingerprint 0).
  HintCache pec(1 << 4);
  uint64_t payload = 0;
  bool was_hot = false;
  pec.insert(0, 0x77);
  ASSERT_TRUE(pec.lookup(0, &payload, &was_hot));
  EXPECT_EQ(payload, 0x77u);
}

TEST(PrefixEntryCache, InPlaceRefreshKeepsHotness) {
  HintCache pec(1 << 4);
  uint64_t payload = 0;
  bool was_hot = false;
  pec.insert(splitmix64(1), 0xaa);
  ASSERT_TRUE(pec.lookup(splitmix64(1), &payload, &was_hot));  // now hot
  pec.insert(splitmix64(1), 0xbb);  // refresh (e.g. after a type switch)
  ASSERT_TRUE(pec.lookup(splitmix64(1), &payload, &was_hot));
  EXPECT_EQ(payload, 0xbbu);
  EXPECT_TRUE(was_hot);  // refresh must not demote a validated-hot entry
  EXPECT_EQ(pec.size(), 1u);
}

TEST(PrefixEntryCache, InvalidateIfRequiresMatchingAddress) {
  HintCache pec(1 << 4);
  uint64_t payload = 0;
  bool was_hot = false;
  pec.insert(splitmix64(2), 0x500);
  // Wrong address: a concurrent refresh already replaced the entry, the
  // late invalidation must not drop the newer mapping.
  EXPECT_FALSE(pec.invalidate_if(splitmix64(2), 0x999));
  ASSERT_TRUE(pec.lookup(splitmix64(2), &payload, &was_hot));
  // Matching address purges.
  EXPECT_TRUE(pec.invalidate_if(splitmix64(2), 0x500));
  EXPECT_FALSE(pec.lookup(splitmix64(2), &payload, &was_hot));
  EXPECT_EQ(pec.stats().invalidations, 1u);
}

TEST(PrefixEntryCache, InhtPayloadRoundTrip) {
  // The PEC stores 51-bit INHT payloads (type in bits 48-50, addr48 below)
  // in the slot's 54-bit payload field: every type and the widest address
  // survive a cold and a hot lookup, and invalidate_if matches on addr48.
  HintCache pec(1 << 4);
  const rdma::GlobalAddr addr(15, (1ULL << 44) - 64);
  for (art::NodeType type : {art::NodeType::kN4, art::NodeType::kN16,
                             art::NodeType::kN48, art::NodeType::kN256}) {
    const uint64_t h = splitmix64(static_cast<uint64_t>(type) + 100);
    const uint64_t packed = core::pack_inht_payload(type, addr);
    pec.insert(h, packed);
    uint64_t payload = 0;
    bool was_hot = true;
    for (int touch = 0; touch < 2; ++touch) {
      ASSERT_TRUE(pec.lookup(h, &payload, &was_hot));
      EXPECT_EQ(was_hot, touch == 1);
      EXPECT_EQ(payload, packed);
      EXPECT_EQ(core::inht_payload_type(payload), type);
      EXPECT_EQ(core::inht_payload_addr(payload), addr);
    }
    EXPECT_FALSE(pec.invalidate_if(h, addr.plus(8).to48()));
    EXPECT_TRUE(pec.invalidate_if(h, addr.to48()));
    EXPECT_FALSE(pec.lookup(h, &payload, &was_hot));
  }
  // All three type bits, set at once, stay clear of the hot bit.
  const uint64_t widest = (1ULL << 51) - 1;
  pec.insert(splitmix64(99), widest);
  uint64_t payload = 0;
  bool was_hot = false;
  ASSERT_TRUE(pec.lookup(splitmix64(99), &payload, &was_hot));
  ASSERT_TRUE(pec.lookup(splitmix64(99), &payload, &was_hot));
  EXPECT_TRUE(was_hot);
  EXPECT_EQ(payload, widest);
}

// Hashes that all land in the same set of `pec` (mirrors set_index()), each
// with its own tag (top nine bits), so none refreshes another in place.
std::vector<uint64_t> same_set_hashes(const HintCache& pec, size_t n) {
  std::vector<uint64_t> out;
  for (uint64_t i = 1; out.size() < n; ++i) {
    const uint64_t h = splitmix64(i);
    if ((splitmix64(h) & (pec.num_sets() - 1)) != 0) continue;
    bool tag_taken = false;
    for (uint64_t o : out) {
      tag_taken |= (o >> HintCache::kTagShift) == (h >> HintCache::kTagShift);
    }
    if (!tag_taken) out.push_back(h);
  }
  return out;
}

TEST(PrefixEntryCache, SecondChanceEvictsColdEntriesFirst) {
  HintCache pec(2);
  const auto keys = same_set_hashes(pec, HintCache::kWays + 1);
  uint64_t payload = 0;
  bool was_hot = false;
  // Fill one set, then touch all but one entry so exactly one stays cold.
  for (uint64_t i = 0; i < HintCache::kWays; ++i) {
    pec.insert(keys[i], 0x100 + i);
  }
  for (uint64_t i = 1; i < HintCache::kWays; ++i) {
    ASSERT_TRUE(pec.lookup(keys[i], &payload, &was_hot));
  }
  // Overflow insert must displace the cold entry, never a hot one.
  pec.insert(keys[HintCache::kWays], 0x999);
  for (uint64_t i = 1; i < HintCache::kWays; ++i) {
    EXPECT_TRUE(pec.lookup(keys[i], &payload, &was_hot)) << i;
  }
  EXPECT_FALSE(pec.lookup(keys[0], &payload, &was_hot));
  EXPECT_GT(pec.stats().evictions, 0u);
}

TEST(PrefixEntryCache, AllHotSetStillAcceptsInserts) {
  HintCache pec(2);
  const auto keys = same_set_hashes(pec, HintCache::kWays + 1);
  uint64_t payload = 0;
  bool was_hot = false;
  for (uint64_t i = 0; i < HintCache::kWays; ++i) {
    pec.insert(keys[i], i + 1);
    ASSERT_TRUE(pec.lookup(keys[i], &payload, &was_hot));  // all hot
  }
  pec.insert(keys[HintCache::kWays], 0x42);
  ASSERT_TRUE(
      pec.lookup(keys[HintCache::kWays], &payload, &was_hot));
  EXPECT_EQ(payload, 0x42u);
  EXPECT_EQ(pec.size(), HintCache::kWays);
}

TEST(PrefixEntryCache, WithBudgetRespectsBytes) {
  for (uint64_t budget : {4096ull, 64ull << 10, 1ull << 20}) {
    auto pec = HintCache::with_budget(budget);
    EXPECT_LE(pec->memory_bytes(), budget);
    EXPECT_GE(pec->memory_bytes(), budget / 4);
  }
}

TEST(PrefixEntryCache, ConcurrentMixedOpsStayCoherent) {
  // Hammer one small cache from several threads mixing inserts, lookups
  // and invalidations. The assertion is the one-word slot contract: a
  // successful lookup never returns payload 0, never leaks the hot bit,
  // and never returns a value no thread wrote. (The small integer hashes
  // all share one 9-bit tag, so a lookup may return *another* key's
  // payload -- remote validation catches that -- and the check is
  // membership in the written set, not per-key equality.)
  HintCache pec(1 << 4);
  constexpr int kThreads = 4;
  constexpr uint64_t kKeys = 64;
  std::atomic<uint64_t> bogus{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t round = 0; round < 4000; ++round) {
        const uint64_t k = splitmix64(t * 4000 + round) % kKeys;
        const uint64_t payload = 0x1000 + k;  // per-key canonical payload
        switch ((t + round) % 3) {
          case 0:
            pec.insert(k, payload);
            break;
          case 1: {
            uint64_t got = 0;
            bool hot = false;
            if (pec.lookup(k, &got, &hot) &&
                (got < 0x1000 || got >= 0x1000 + kKeys)) {
              bogus.fetch_add(1);
            }
            break;
          }
          default:
            pec.invalidate_if(k, payload & HintCache::kAddrMask);
            break;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(bogus.load(), 0u);
}

TEST(LeafAddrCache, InsertLookupInvalidate) {
  HintCache lac(64);
  const uint64_t h = 0x1234567890abcdefull;
  const uint64_t payload = pack_lac_payload(3, 0xabc000);

  uint64_t got = 0;
  bool hot = true;
  EXPECT_FALSE(lac.lookup(h, &got, &hot));

  lac.insert(h, payload);
  ASSERT_TRUE(lac.lookup(h, &got, &hot));
  EXPECT_EQ(got, payload);
  EXPECT_FALSE(hot);  // first touch: second-chance bit not yet set
  ASSERT_TRUE(lac.lookup(h, &got, &hot));
  EXPECT_TRUE(hot);  // the first lookup promoted it

  // Address-keyed invalidation: the wrong address is a no-op (a concurrent
  // refresh must survive a stale purge), the right one removes the entry.
  lac.invalidate_if(h, 0xdef000);
  EXPECT_TRUE(lac.lookup(h, &got, &hot));
  lac.invalidate_if(h, 0xabc000);
  EXPECT_FALSE(lac.lookup(h, &got, &hot));
  EXPECT_EQ(lac.stats().invalidations, 1u);
}

TEST(LeafAddrCache, BudgetSizingRoundsDown) {
  // 100 slots of budget must not allocate 128: the budget is a cap.
  auto lac = HintCache::with_budget(100 * HintCache::kSlotBytes);
  EXPECT_LE(lac->memory_bytes(), 100 * HintCache::kSlotBytes);
  EXPECT_GE(lac->capacity(), 1u);
}

}  // namespace
}  // namespace sphinx::filter
