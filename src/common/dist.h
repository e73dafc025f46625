// Request-distribution generators matching the YCSB benchmark semantics:
// zipfian (with the YCSB zeta construction and scrambling), uniform, and
// "latest" (skewed toward recently inserted records).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/rng.h"

namespace sphinx {

// Abstract integer-key-index generator over [0, n).
class IndexDistribution {
 public:
  virtual ~IndexDistribution() = default;
  // Draws the next record index using the caller-provided RNG so that each
  // worker thread can keep an independent deterministic stream.
  virtual uint64_t next(Rng& rng) = 0;
};

class UniformDistribution final : public IndexDistribution {
 public:
  explicit UniformDistribution(uint64_t n) : n_(n) {}
  uint64_t next(Rng& rng) override { return rng.next_below(n_); }

 private:
  uint64_t n_;
};

// YCSB-style zipfian generator. Precomputes zeta(n, theta) once; next()
// is O(1). With theta = 0.99 (the paper's default) roughly 50% of draws hit
// the hottest ~1% of items.
class ZipfianDistribution final : public IndexDistribution {
 public:
  explicit ZipfianDistribution(uint64_t n, double theta = 0.99);

  uint64_t next(Rng& rng) override;

  double theta() const { return theta_; }

 private:
  uint64_t n_;
  double theta_;
  double zetan_;
  double alpha_;
  double eta_;
  double zeta2theta_;
};

// Same popularity skew as zipfian but with item ranks scattered across the
// key space via a bijective scramble, so "hot" items are not clustered at
// low indexes (YCSB's ScrambledZipfian).
class ScrambledZipfianDistribution final : public IndexDistribution {
 public:
  explicit ScrambledZipfianDistribution(uint64_t n, double theta = 0.99)
      : inner_(n, theta), n_(n) {}

  uint64_t next(Rng& rng) override {
    return splitmix64(inner_.next(rng)) % n_;
  }

 private:
  ZipfianDistribution inner_;
  uint64_t n_;
};

// YCSB "latest": the most recently inserted records are the hottest. The
// frontier is an acknowledged watermark, as in YCSB's
// AcknowledgedCounterGenerator: inserts claim indexes in order but finish
// out of order (across workers, and a pipelined batch's inserts only after
// the batch), so the frontier moves only over a contiguous run of
// acknowledged claims and the newest rank never names an index whose
// insert has not finished. Shared across worker threads.
class LatestDistribution final : public IndexDistribution {
 public:
  // `first_claim`: the first index inserts will claim; every index below
  // it is drawable from the start.
  explicit LatestDistribution(uint64_t first_claim)
      : frontier_(first_claim), zipf_(first_claim) {}

  // Marks the insert of claimed index `index` finished -- landed, failed
  // or abandoned by a crash. Each claim is acknowledged once.
  void acknowledge(uint64_t index);

  uint64_t next(Rng& rng) override {
    const uint64_t n = frontier_.load(std::memory_order_acquire);
    // Draw a zipfian rank and mirror it so rank 0 maps to the newest item.
    uint64_t rank = zipf_.next(rng);
    if (rank >= n) rank = n - 1;
    return n - 1 - rank;
  }

 private:
  std::atomic<uint64_t> frontier_;
  std::mutex mu_;
  // Acknowledged claims above the frontier, as a min-heap.
  std::vector<uint64_t> acked_;
  ZipfianDistribution zipf_;
};

}  // namespace sphinx
