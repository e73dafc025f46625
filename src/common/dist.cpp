#include "common/dist.h"

#include <algorithm>
#include <cmath>
#include <functional>

namespace sphinx {

namespace {

// zeta(n, theta) = sum_{i=1..n} 1/i^theta. Exact summation is O(n) but runs
// once per generator; for the multi-million-key benches this is a few tens
// of milliseconds.
double zeta(uint64_t n, double theta) {
  double sum = 0.0;
  for (uint64_t i = 1; i <= n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  return sum;
}

}  // namespace

ZipfianDistribution::ZipfianDistribution(uint64_t n, double theta)
    : n_(n), theta_(theta) {
  zeta2theta_ = zeta(2, theta);
  zetan_ = zeta(n, theta);
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
         (1.0 - zeta2theta_ / zetan_);
}

uint64_t ZipfianDistribution::next(Rng& rng) {
  // Gray et al.'s constant-time inverse-CDF approximation, as used by YCSB.
  const double u = rng.next_double();
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
  const double v =
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_);
  uint64_t idx = static_cast<uint64_t>(v);
  return idx >= n_ ? n_ - 1 : idx;
}

void LatestDistribution::acknowledge(uint64_t index) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t frontier = frontier_.load(std::memory_order_relaxed);
  if (index < frontier) return;
  acked_.push_back(index);
  std::push_heap(acked_.begin(), acked_.end(), std::greater<>());
  while (!acked_.empty() && acked_.front() == frontier) {
    std::pop_heap(acked_.begin(), acked_.end(), std::greater<>());
    acked_.pop_back();
    ++frontier;
  }
  frontier_.store(frontier, std::memory_order_release);
}

}  // namespace sphinx
