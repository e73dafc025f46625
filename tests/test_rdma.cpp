// Unit tests for the simulated RDMA fabric: verb semantics, doorbell
// batching and the virtual-clock cost model.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "rdma/endpoint.h"
#include "rdma/fabric.h"

namespace sphinx::rdma {
namespace {

NetworkConfig small_config() {
  NetworkConfig c;
  c.num_cns = 2;
  c.num_mns = 2;
  return c;
}

TEST(GlobalAddr, PackUnpack) {
  GlobalAddr a(3, 0x123456789a);
  EXPECT_EQ(a.mn(), 3u);
  EXPECT_EQ(a.offset(), 0x123456789aull);
  EXPECT_FALSE(a.is_null());
  EXPECT_TRUE(GlobalAddr().is_null());
  EXPECT_EQ(a.plus(0x10).offset(), 0x12345678aaull);
  // Compact 48-bit round trip.
  const GlobalAddr b = GlobalAddr::from48(a.to48());
  EXPECT_EQ(b, a);
}

TEST(MemoryRegion, FreshRegionReadsZero) {
  // "All zeroes == empty" holds for every structure the index lays out in
  // a region, so a fresh one must read zero everywhere, not just up front.
  const uint64_t size = 48ull << 20;
  MemoryRegion region(size);
  EXPECT_EQ(region.size(), size);
  for (const uint64_t offset : {uint64_t{0}, size / 2, size - 8}) {
    EXPECT_EQ(region.load64(offset), 0u) << offset;
  }
  region.store64(size - 8, 7);
  EXPECT_EQ(region.load64(size - 8), 7u);
}

TEST(MemoryRegion, ReadWriteRoundTrip) {
  MemoryRegion region(4096);
  std::vector<uint8_t> data(100);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<uint8_t>(i);
  region.write_bytes(64, data.data(), data.size());
  std::vector<uint8_t> back(100, 0);
  region.read_bytes(64, back.data(), back.size());
  EXPECT_EQ(data, back);
}

TEST(MemoryRegion, UnalignedLengths) {
  MemoryRegion region(4096);
  for (size_t len : {1, 3, 7, 9, 15, 63, 65}) {
    std::vector<uint8_t> data(len, static_cast<uint8_t>(len));
    region.write_bytes(128, data.data(), len);
    std::vector<uint8_t> back(len, 0);
    region.read_bytes(128, back.data(), len);
    EXPECT_EQ(data, back) << len;
  }
}

TEST(MemoryRegion, CasSemantics) {
  MemoryRegion region(64);
  region.store64(8, 100);
  uint64_t observed = 0;
  EXPECT_FALSE(region.cas64(8, 99, 200, &observed));
  EXPECT_EQ(observed, 100u);
  EXPECT_TRUE(region.cas64(8, 100, 200, &observed));
  EXPECT_EQ(observed, 100u);
  EXPECT_EQ(region.load64(8), 200u);
}

TEST(MemoryRegion, FaaReturnsPrevious) {
  MemoryRegion region(64);
  region.store64(16, 5);
  EXPECT_EQ(region.faa64(16, 10), 5u);
  EXPECT_EQ(region.faa64(16, 10), 15u);
  EXPECT_EQ(region.load64(16), 25u);
}

TEST(Endpoint, VerbsChargeLatency) {
  Fabric fabric(small_config(), 1 << 20);
  Endpoint ep(fabric, 0);
  EXPECT_EQ(ep.clock_ns(), 0u);
  uint64_t v = 42;
  ep.write(GlobalAddr(0, 1024), &v, 8);
  const uint64_t after_one = ep.clock_ns();
  EXPECT_GE(after_one, fabric.config().base_rtt_ns);
  uint64_t r = ep.read64(GlobalAddr(0, 1024));
  EXPECT_EQ(r, 42u);
  EXPECT_GT(ep.clock_ns(), after_one);
  EXPECT_EQ(ep.stats().round_trips, 2u);
  EXPECT_EQ(ep.stats().reads, 1u);
  EXPECT_EQ(ep.stats().writes, 1u);
}

TEST(Endpoint, UnmeteredChargesNothing) {
  Fabric fabric(small_config(), 1 << 20);
  Endpoint ep(fabric, 0, /*metered=*/false);
  uint64_t v = 7;
  ep.write(GlobalAddr(1, 512), &v, 8);
  EXPECT_EQ(ep.read64(GlobalAddr(1, 512)), 7u);
  EXPECT_EQ(ep.clock_ns(), 0u);
  EXPECT_EQ(ep.stats().round_trips, 0u);
}

TEST(Endpoint, LargePayloadCostsMore) {
  Fabric fabric(small_config(), 8 << 20);
  Endpoint small_ep(fabric, 0), large_ep(fabric, 1);
  std::vector<uint8_t> buf(1 << 20);
  small_ep.read(GlobalAddr(0, 0), buf.data(), 64);
  large_ep.read(GlobalAddr(1, 0), buf.data(), 1 << 20);
  EXPECT_GT(large_ep.clock_ns(), small_ep.clock_ns() + 50000);
}

TEST(DoorbellBatch, OneRoundTripForManyVerbs) {
  Fabric fabric(small_config(), 1 << 20);
  Endpoint ep(fabric, 0);
  std::vector<uint64_t> out(16, 0);
  std::vector<uint64_t> in(16);
  for (size_t i = 0; i < in.size(); ++i) in[i] = i * 3;
  {
    DoorbellBatch batch(ep);
    for (size_t i = 0; i < in.size(); ++i) {
      batch.add_write(GlobalAddr(0, 4096 + i * 8), &in[i], 8);
    }
    batch.execute();
  }
  EXPECT_EQ(ep.stats().round_trips, 1u);
  EXPECT_EQ(ep.stats().messages, 16u);
  {
    DoorbellBatch batch(ep);
    for (size_t i = 0; i < out.size(); ++i) {
      batch.add_read(GlobalAddr(0, 4096 + i * 8), &out[i], 8);
    }
    batch.execute();
  }
  EXPECT_EQ(out, in);
  EXPECT_EQ(ep.stats().round_trips, 2u);
}

TEST(DoorbellBatch, CasAndWriteAllExecute) {
  // A failed CAS must not suppress later verbs in the batch (hardware
  // semantics the index protocols rely on).
  Fabric fabric(small_config(), 1 << 20);
  Endpoint ep(fabric, 0);
  ep.write64(GlobalAddr(0, 256), 1);
  DoorbellBatch batch(ep);
  const size_t cas_idx = batch.add_cas(GlobalAddr(0, 256), 999, 2);  // fails
  uint64_t v = 77;
  batch.add_write(GlobalAddr(0, 264), &v, 8);  // still executes
  batch.execute();
  EXPECT_FALSE(batch.cas_ok(cas_idx));
  EXPECT_EQ(batch.old_value(cas_idx), 1u);
  EXPECT_EQ(ep.read64(GlobalAddr(0, 264)), 77u);
}

TEST(DoorbellBatch, PerOpResultsAreIndependent) {
  // Mixed outcomes in one batch: every op reports its own cas_ok /
  // old_value, and memory effects apply in post order.
  Fabric fabric(small_config(), 1 << 20);
  Endpoint ep(fabric, 0);
  ep.write64(GlobalAddr(0, 256), 10);
  ep.write64(GlobalAddr(0, 264), 20);
  ep.write64(GlobalAddr(0, 272), 30);

  DoorbellBatch batch(ep);
  const size_t ok_idx = batch.add_cas(GlobalAddr(0, 256), 10, 11);
  const size_t fail_idx = batch.add_cas(GlobalAddr(0, 264), 999, 21);
  const size_t faa_idx = batch.add_faa(GlobalAddr(0, 272), 5);
  // Post-order: this CAS sees the value installed by ok_idx above.
  const size_t chain_idx = batch.add_cas(GlobalAddr(0, 256), 11, 12);
  batch.execute();
  EXPECT_EQ(ep.stats().round_trips, 4u);  // 3 setup writes + 1 batch

  EXPECT_TRUE(batch.cas_ok(ok_idx));
  EXPECT_EQ(batch.old_value(ok_idx), 10u);
  EXPECT_FALSE(batch.cas_ok(fail_idx));
  EXPECT_EQ(batch.old_value(fail_idx), 20u);
  EXPECT_EQ(batch.old_value(faa_idx), 30u);
  EXPECT_TRUE(batch.cas_ok(chain_idx));
  EXPECT_EQ(batch.old_value(chain_idx), 11u);

  EXPECT_EQ(ep.read64(GlobalAddr(0, 256)), 12u);
  EXPECT_EQ(ep.read64(GlobalAddr(0, 264)), 20u);  // failed CAS: untouched
  EXPECT_EQ(ep.read64(GlobalAddr(0, 272)), 35u);
}

TEST(Endpoint, TimelinesIndependentAndDeterministic) {
  // Unloaded virtual clocks must not couple across endpoints (queueing is
  // applied analytically by the runner), so concurrent clients report
  // exactly the same per-client time as a solo client -- regardless of
  // host thread scheduling.
  Fabric fabric(small_config(), 1 << 20);
  auto run_client = [&](uint32_t cn) {
    Endpoint ep(fabric, cn);
    for (int i = 0; i < 100; ++i) ep.read64(GlobalAddr(0, 128));
    return ep.clock_ns();
  };
  const uint64_t solo = run_client(0);
  uint64_t t1 = 0, t2 = 0;
  std::thread a([&] { t1 = run_client(0); });
  std::thread b([&] { t2 = run_client(1); });
  a.join();
  b.join();
  EXPECT_EQ(t1, solo);
  EXPECT_EQ(t2, solo);
  // The per-MN traffic breakdown feeds the capacity model.
  Endpoint ep(fabric, 0);
  ep.read64(GlobalAddr(1, 64));
  EXPECT_EQ(ep.stats().msgs_per_mn[1], 1u);
  EXPECT_EQ(ep.stats().bytes_per_mn[1], 8u);
}

TEST(EndpointStats, ArithmeticWorks) {
  EndpointStats a;
  a.reads = 10;
  a.bytes_read = 100;
  a.round_trips = 5;
  EndpointStats b = a;
  b.reads = 25;
  b.bytes_read = 300;
  b.round_trips = 9;
  const EndpointStats d = b - a;
  EXPECT_EQ(d.reads, 15u);
  EXPECT_EQ(d.bytes_read, 200u);
  EXPECT_EQ(d.round_trips, 4u);
  EndpointStats sum = a;
  sum += d;
  EXPECT_EQ(sum.reads, b.reads);
}

}  // namespace
}  // namespace sphinx::rdma
