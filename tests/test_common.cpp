// Unit tests for src/common: hashing, slices, distributions, histograms,
// table printing, flags.
#include <gtest/gtest.h>

#include <algorithm>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/dist.h"
#include "common/flags.h"
#include "common/hash.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/slice.h"
#include "common/table_printer.h"

namespace sphinx {
namespace {

// ---- xxhash64 ----------------------------------------------------------------

TEST(XxHash, KnownVectors) {
  // Reference values from the canonical XXH64 implementation.
  EXPECT_EQ(xxhash64("", 0, 0), 0xef46db3751d8e999ULL);
  EXPECT_EQ(xxhash64("a", 1, 0), 0xd24ec4f1a98c6e5bULL);
  EXPECT_EQ(xxhash64("abc", 3, 0), 0x44bc2cf5ad770999ULL);
}

TEST(XxHash, SeedChangesValue) {
  const char* data = "hello world";
  EXPECT_NE(xxhash64(data, 11, 0), xxhash64(data, 11, 1));
}

TEST(XxHash, LongInputsStable) {
  std::string data(1024, 'x');
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<char>(i);
  const uint64_t h1 = xxhash64(data.data(), data.size(), 7);
  const uint64_t h2 = xxhash64(data.data(), data.size(), 7);
  EXPECT_EQ(h1, h2);
  // Different lengths must differ (catches tail-handling bugs).
  std::set<uint64_t> hashes;
  for (size_t len = 0; len <= 64; ++len) {
    hashes.insert(xxhash64(data.data(), len, 7));
  }
  EXPECT_EQ(hashes.size(), 65u);
}

// ---- crc32c ------------------------------------------------------------------

TEST(Crc32c, KnownVectors) {
  // RFC 3720 test vector: 32 bytes of zeros.
  std::vector<uint8_t> zeros(32, 0);
  EXPECT_EQ(crc32c(zeros.data(), zeros.size()), 0x8a9136aau);
  // "123456789" -> 0xe3069283 (standard CRC32C check value).
  EXPECT_EQ(crc32c("123456789", 9), 0xe3069283u);
}

TEST(Crc32c, DetectsSingleBitFlips) {
  std::string data = "The quick brown fox jumps over the lazy dog";
  const uint32_t base = crc32c(data.data(), data.size());
  for (size_t byte = 0; byte < data.size(); byte += 5) {
    std::string mutated = data;
    mutated[byte] ^= 0x10;
    EXPECT_NE(crc32c(mutated.data(), mutated.size()), base)
        << "flip at byte " << byte;
  }
}

TEST(Crc32c, SeedChaining) {
  const char* data = "abcdefgh12345678";
  const uint32_t whole = crc32c(data, 16);
  const uint32_t part = crc32c(data + 8, 8, crc32c(data, 8));
  EXPECT_EQ(whole, part);
}

// ---- slices ------------------------------------------------------------------

TEST(Slice, CompareAndPrefix) {
  Slice a("abc"), b("abd"), c("abcde");
  EXPECT_LT(a.compare(b), 0);
  EXPECT_LT(a.compare(c), 0);
  EXPECT_EQ(a.compare(Slice("abc")), 0);
  EXPECT_TRUE(c.starts_with(a));
  EXPECT_FALSE(a.starts_with(c));
  EXPECT_EQ(a.common_prefix_len(b), 2u);
  EXPECT_EQ(a.common_prefix_len(c), 3u);
  EXPECT_EQ(Slice().common_prefix_len(a), 0u);
}

TEST(Slice, U64KeyEncodingPreservesOrder) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t x = rng.next_u64();
    const uint64_t y = rng.next_u64();
    const std::string kx = encode_u64_key(x);
    const std::string ky = encode_u64_key(y);
    EXPECT_EQ(x < y, Slice(kx).compare(Slice(ky)) < 0);
    EXPECT_EQ(decode_u64_key(Slice(kx)), x);
  }
}

// ---- rng ---------------------------------------------------------------------

TEST(Rng, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const uint64_t va = a.next_u64();
    EXPECT_EQ(va, b.next_u64());
  }
  EXPECT_NE(a.next_u64(), c.next_u64());
}

TEST(Rng, NextBelowInRange) {
  Rng rng(1);
  for (uint64_t bound : {1ull, 2ull, 7ull, 100ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(2);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

// ---- distributions -----------------------------------------------------------

TEST(Zipfian, SkewConcentratesOnHotItems) {
  const uint64_t n = 100000;
  ZipfianDistribution dist(n, 0.99);
  Rng rng(5);
  uint64_t hot = 0;
  const int draws = 200000;
  for (int i = 0; i < draws; ++i) {
    if (dist.next(rng) < n / 100) hot++;  // hottest 1%
  }
  // With theta=0.99 the hottest 1% should absorb a large share of draws.
  EXPECT_GT(static_cast<double>(hot) / draws, 0.4);
}

TEST(Zipfian, AllIndexesInRange) {
  const uint64_t n = 1000;
  ZipfianDistribution dist(n, 0.99);
  Rng rng(6);
  for (int i = 0; i < 50000; ++i) {
    ASSERT_LT(dist.next(rng), n);
  }
}

TEST(ScrambledZipfian, SpreadsHotItems) {
  const uint64_t n = 100000;
  ScrambledZipfianDistribution dist(n, 0.99);
  Rng rng(7);
  // The most frequent item should no longer be index 0.
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 50000; ++i) counts[dist.next(rng)]++;
  uint64_t argmax = 0;
  int best = 0;
  for (auto& [idx, c] : counts) {
    if (c > best) {
      best = c;
      argmax = idx;
    }
  }
  EXPECT_NE(argmax, 0u);
  EXPECT_GT(best, 50);  // skew survives scrambling
}

TEST(Latest, PrefersRecentlyInserted) {
  LatestDistribution dist(1000);
  Rng rng(8);
  uint64_t recent = 0;
  for (int i = 0; i < 20000; ++i) {
    if (dist.next(rng) >= 990) recent++;  // newest 1%
  }
  EXPECT_GT(static_cast<double>(recent) / 20000, 0.3);
  // Acknowledging claims makes new indexes reachable.
  for (uint64_t i = 1000; i < 1100; ++i) dist.acknowledge(i);
  bool saw_new = false;
  for (int i = 0; i < 20000 && !saw_new; ++i) {
    saw_new = dist.next(rng) >= 1000;
  }
  EXPECT_TRUE(saw_new);
}

TEST(Latest, WatermarkWaitsForTheOldestOpenClaim) {
  // Claims 1000 and 1001 finish out of order: neither index may be drawn
  // until 1000 is acknowledged, then both are.
  LatestDistribution dist(1000);
  Rng rng(8);
  auto max_draw = [&] {
    uint64_t m = 0;
    for (int i = 0; i < 20000; ++i) m = std::max(m, dist.next(rng));
    return m;
  };
  dist.acknowledge(1001);
  EXPECT_EQ(max_draw(), 999u);
  dist.acknowledge(1000);
  EXPECT_EQ(max_draw(), 1001u);
  // Stale or repeated acknowledgements never move the watermark.
  dist.acknowledge(1000);
  dist.acknowledge(5);
  EXPECT_EQ(max_draw(), 1001u);
}

TEST(Uniform, CoversRange) {
  UniformDistribution dist(100);
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 5000; ++i) seen.insert(dist.next(rng));
  EXPECT_EQ(seen.size(), 100u);
}

// ---- histogram ---------------------------------------------------------------

TEST(Histogram, PercentilesBracketData) {
  LatencyHistogram h;
  for (uint64_t v = 1; v <= 10000; ++v) h.record(v);
  EXPECT_EQ(h.count(), 10000u);
  EXPECT_EQ(h.min_ns(), 1u);
  EXPECT_EQ(h.max_ns(), 10000u);
  // Log-bucket error is <= 12.5%.
  EXPECT_NEAR(static_cast<double>(h.percentile_ns(50)), 5000, 700);
  EXPECT_NEAR(static_cast<double>(h.percentile_ns(99)), 9900, 1300);
  EXPECT_NEAR(h.mean_ns(), 5000.5, 1.0);
}

TEST(Histogram, MergeMatchesCombined) {
  LatencyHistogram a, b, combined;
  Rng rng(10);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.next_below(1 << 20);
    if (i % 2 == 0) {
      a.record(v);
    } else {
      b.record(v);
    }
    combined.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.max_ns(), combined.max_ns());
  EXPECT_EQ(a.percentile_ns(50), combined.percentile_ns(50));
  EXPECT_EQ(a.percentile_ns(99.9), combined.percentile_ns(99.9));
}

TEST(Histogram, EmptyIsSane) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile_ns(50), 0u);
  EXPECT_EQ(h.min_ns(), 0u);
  EXPECT_EQ(h.mean_ns(), 0.0);
}

// ---- table printer -----------------------------------------------------------

TEST(TablePrinter, AlignsColumns) {
  TablePrinter t({"sys", "tput"});
  t.add_row({"Sphinx", "3.41 Mops/s"});
  t.add_row({"ART", "0.9"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| Sphinx "), std::string::npos);
  EXPECT_NE(out.find("| sys "), std::string::npos);
  // Every line has equal length.
  size_t prev = std::string::npos;
  size_t start = 0;
  while (start < out.size()) {
    const size_t end = out.find('\n', start);
    const size_t len = end - start;
    if (prev != std::string::npos) {
      EXPECT_EQ(len, prev);
    }
    prev = len;
    start = end + 1;
  }
}

TEST(TablePrinter, Formatters) {
  EXPECT_EQ(TablePrinter::fmt_mops(3'410'000), "3.41 Mops/s");
  EXPECT_EQ(TablePrinter::fmt_bytes(1ull << 30), "1.00 GiB");
  EXPECT_EQ(TablePrinter::fmt_bytes(512), "512 B");
  EXPECT_EQ(TablePrinter::fmt_us(2130), "2.13 us");
  EXPECT_EQ(TablePrinter::fmt_ratio(2.4), "2.40x");
  EXPECT_EQ(TablePrinter::fmt_percent(0.033), "3.30%");
}

// ---- flags -------------------------------------------------------------------

// Flags over the command line `bench <args...>`.
Flags make_flags(std::vector<std::string> args) {
  args.insert(args.begin(), "bench");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, EveryReadFlagPassesTheUnknownCheck) {
  Flags flags = make_flags({"--keys=2000", "--warmup", "--json=o.json"});
  EXPECT_EQ(flags.get_u64("keys", 1), 2000u);
  EXPECT_TRUE(flags.get_bool("warmup", false));
  EXPECT_EQ(flags.get_string("json", ""), "o.json");
  EXPECT_EQ(flags.get_double("faults", 0.5), 0.5);  // absent: default
  flags.reject_unknown();  // returns: nothing unread
}

TEST(FlagsDeathTest, UnreadFlagExitsTwoNamingIt) {
  Flags flags = make_flags({"--keys=2000", "--pipline-depth=8"});
  EXPECT_EQ(flags.get_u64("keys", 1), 2000u);
  EXPECT_EQ(flags.get_string("pipeline-depth", "1"), "1");
  EXPECT_EXIT(flags.reject_unknown(), ::testing::ExitedWithCode(2),
              "unknown flag --pipline-depth");
}

}  // namespace
}  // namespace sphinx
