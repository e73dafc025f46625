// Deterministic, fast pseudo-random number generation (xoshiro256**).
// Benchmarks and workload generators need reproducible streams that are much
// cheaper than std::mt19937_64.
#pragma once

#include <cstdint>

#include "common/hash.h"

namespace sphinx {

class Rng {
 public:
  static constexpr uint64_t kDefaultSeed = 0x5f3759df9e3779b9ULL;

  explicit Rng(uint64_t seed = kDefaultSeed) { reseed(seed); }

  void reseed(uint64_t seed) {
    // Seed the four lanes through splitmix64 as recommended by the
    // xoshiro authors; guarantees a nonzero state.
    uint64_t x = seed;
    for (auto& lane : s_) {
      x = splitmix64(x);
      lane = x;
    }
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
  }

  uint64_t next_u64() {
    const uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  // Uniform integer in [0, bound). bound must be nonzero.
  uint64_t next_below(uint64_t bound) {
    __uint128_t m = static_cast<__uint128_t>(next_u64()) * bound;
    return static_cast<uint64_t>(m >> 64);
  }

  // Uniform integer in [lo, hi] inclusive.
  uint64_t next_in(uint64_t lo, uint64_t hi) {
    return lo + next_below(hi - lo + 1);
  }

  // Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

 private:
  static constexpr uint64_t rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];
};

}  // namespace sphinx
