// Consistent-hash ring used to place ART nodes across memory nodes
// (Sec. III: "The ART Nodes of Sphinx are evenly distributed across MNs by
// consistent hashing"). Virtual nodes smooth the distribution.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/hash.h"

namespace sphinx::mem {

class ConsistentHashRing {
 public:
  explicit ConsistentHashRing(uint32_t num_mns, uint32_t vnodes_per_mn = 128) {
    points_.reserve(static_cast<size_t>(num_mns) * vnodes_per_mn);
    for (uint32_t mn = 0; mn < num_mns; ++mn) {
      for (uint32_t v = 0; v < vnodes_per_mn; ++v) {
        const uint64_t key =
            (static_cast<uint64_t>(mn) << 32) | static_cast<uint64_t>(v);
        points_.push_back(
            {xxhash64(&key, sizeof(key), /*seed=*/0x52494e47ULL), mn});
      }
    }
    std::sort(points_.begin(), points_.end());
  }

  // Maps an item hash to its owning memory node.
  uint32_t mn_for(uint64_t hash) const {
    auto it = std::lower_bound(points_.begin(), points_.end(),
                               Point{hash, 0});
    if (it == points_.end()) it = points_.begin();
    return it->mn;
  }

 private:
  struct Point {
    uint64_t position;
    uint32_t mn;
    bool operator<(const Point& o) const {
      return position < o.position ||
             (position == o.position && mn < o.mn);
    }
  };

  std::vector<Point> points_;
};

}  // namespace sphinx::mem
