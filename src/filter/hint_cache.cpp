#include "filter/hint_cache.h"

#include <bit>

namespace sphinx::filter {

namespace {

uint64_t round_up_pow2(uint64_t v) {
  if (v < 2) return 2;
  return std::bit_ceil(v);
}

}  // namespace

std::unique_ptr<HintCache> HintCache::with_budget(uint64_t budget_bytes) {
  const uint64_t slots = budget_bytes / kSlotBytes;
  uint64_t sets = slots / kWays;
  if (sets < 2) sets = 2;
  // Round *down* to a power of two so the cache never exceeds the budget.
  const uint64_t up = round_up_pow2(sets);
  return std::make_unique<HintCache>(up > sets ? up / 2 : up);
}

// make_unique value-initializes the slots: every word starts 0 (empty).
HintCache::HintCache(uint64_t num_sets)
    : num_sets_(round_up_pow2(num_sets)),
      slots_(std::make_unique<std::atomic<uint64_t>[]>(num_sets_ * kWays)) {}

bool HintCache::lookup(uint64_t hash, uint64_t* payload_out, bool* was_hot) {
  const uint64_t tag = tag_of(hash);
  std::atomic<uint64_t>* set = set_of(set_index(hash));
  for (uint32_t w = 0; w < kWays; ++w) {
    const uint64_t word = set[w].load(std::memory_order_relaxed);
    if (word == 0 || word_tag(word) != tag) continue;
    *payload_out = word & kPayloadMask;
    *was_hot = (word & kHotBit) != 0;
    if (!*was_hot) {
      // Best-effort promotion: if the slot changed underneath (refresh or
      // eviction), the CAS just fails and the entry stays cold.
      uint64_t expected = word;
      set[w].compare_exchange_strong(expected, word | kHotBit,
                                     std::memory_order_relaxed);
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void HintCache::insert(uint64_t hash, uint64_t payload) {
  const uint64_t tag = tag_of(hash);
  std::atomic<uint64_t>* set = set_of(set_index(hash));
  inserts_.fetch_add(1, std::memory_order_relaxed);

  // Refresh in place: a type switch or an out-of-place update moved the
  // target. Hotness carries over -- the *hash* is hot, not the stale
  // address.
  for (uint32_t w = 0; w < kWays; ++w) {
    const uint64_t word = set[w].load(std::memory_order_relaxed);
    if (word == 0 || word_tag(word) != tag) continue;
    set[w].store(tag | (word & kHotBit) | payload, std::memory_order_relaxed);
    return;
  }

  // Claim an empty way; the single-word CAS publishes tag and payload
  // together, so a racing lookup sees either nothing or the whole entry.
  for (uint32_t w = 0; w < kWays; ++w) {
    uint64_t expected = 0;
    if (set[w].load(std::memory_order_relaxed) == 0 &&
        set[w].compare_exchange_strong(expected, tag | payload,
                                       std::memory_order_relaxed)) {
      return;
    }
  }

  // Second chance: replace a random cold victim (paper Sec. III-B, applied
  // to entries instead of fingerprints).
  uint32_t cold[kWays];
  uint32_t n = 0;
  for (uint32_t w = 0; w < kWays; ++w) {
    if ((set[w].load(std::memory_order_relaxed) & kHotBit) == 0) {
      cold[n++] = w;
    }
  }
  uint32_t victim;
  if (n > 0) {
    victim = cold[next_random() % n];
  } else {
    // Every way is hot: clear the set's hotness and evict a rotating way,
    // mirroring the filter's relocation-time hotness reset.
    for (uint32_t w = 0; w < kWays; ++w) {
      set[w].fetch_and(~kHotBit, std::memory_order_relaxed);
    }
    victim = static_cast<uint32_t>(next_random() % kWays);
  }
  set[victim].store(tag | payload, std::memory_order_relaxed);
  evictions_.fetch_add(1, std::memory_order_relaxed);
}

bool HintCache::invalidate_if(uint64_t hash, uint64_t addr48) {
  const uint64_t tag = tag_of(hash);
  std::atomic<uint64_t>* set = set_of(set_index(hash));
  for (uint32_t w = 0; w < kWays; ++w) {
    uint64_t word = set[w].load(std::memory_order_relaxed);
    if (word == 0 || word_tag(word) != tag) continue;
    if ((word & kAddrMask) != addr48) continue;  // already refreshed; keep it
    // CAS on the exact observed word: a concurrent refresh to the new
    // address wins the race and survives the purge.
    if (set[w].compare_exchange_strong(word, 0, std::memory_order_relaxed)) {
      invalidations_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    return false;
  }
  return false;
}

uint64_t HintCache::size() const {
  uint64_t n = 0;
  for (uint64_t i = 0; i < num_sets_ * kWays; ++i) {
    if (slots_[i].load(std::memory_order_relaxed) != 0) ++n;
  }
  return n;
}

uint64_t HintCache::next_random() {
  return splitmix64(rng_state_.fetch_add(1, std::memory_order_relaxed));
}

HintCacheStats HintCache::stats() const {
  HintCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.inserts = inserts_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.invalidations = invalidations_.load(std::memory_order_relaxed);
  return s;
}

void HintCache::reset_stats() {
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  inserts_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
  invalidations_.store(0, std::memory_order_relaxed);
}

}  // namespace sphinx::filter
