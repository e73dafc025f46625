// Order-event index: fixed-length integer keys with heavy range scans --
// the classic "recent orders" pattern of transaction-processing systems
// the paper's introduction motivates.
//
// Order IDs are 64-bit integers encoded big-endian (encode_u64_key), so
// lexicographic order in the tree equals numeric order and a scan from
// any order ID walks forward in time. The demo ingests a stream of orders,
// updates their status in place (the paper's checksummed single-WRITE
// update), and pages through windows of consecutive orders.
//
// Usage: order_index [--orders=100000] [--pages=2000]
#include <cstdio>
#include <iostream>

#include "common/flags.h"
#include "common/rng.h"
#include "core/sphinx_index.h"
#include "memnode/remote_allocator.h"

using namespace sphinx;

namespace {

std::string make_status(const char* state, uint64_t ts) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "{\"state\":\"%s\",\"ts\":%llu}", state,
                static_cast<unsigned long long>(ts));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const uint64_t num_orders = flags.get_u64("orders", 100000);
  const uint64_t pages = flags.get_u64("pages", 2000);
  flags.reject_unknown();

  rdma::NetworkConfig net;
  mem::Cluster cluster(net, 512ull << 20);
  core::SphinxRefs refs = core::create_sphinx(cluster);
  auto filter = filter::CuckooFilter::with_budget(1ull << 20);

  rdma::Endpoint endpoint = cluster.make_endpoint(0);
  mem::RemoteAllocator allocator(cluster, endpoint);
  core::SphinxIndex index(cluster, endpoint, allocator, refs, filter.get());

  // Ingest: order IDs arrive roughly increasing but interleaved (several
  // frontends allocating from ranges), the worst case for naive
  // append-only structures and a natural one for a radix tree.
  std::cout << "ingesting " << num_orders << " orders...\n";
  Rng rng(11);
  std::vector<uint64_t> ids;
  ids.reserve(num_orders);
  for (uint64_t i = 0; i < num_orders; ++i) {
    const uint64_t id = i * 10 + rng.next_below(10);  // interleaved ranges
    ids.push_back(id);
    index.insert(encode_u64_key(id), make_status("placed", i));
  }

  // Status updates: in-place (value fits), one CAS + one WRITE each.
  const rdma::EndpointStats before_updates = endpoint.stats();
  for (uint64_t i = 0; i < num_orders / 10; ++i) {
    const uint64_t id = ids[rng.next_below(ids.size())];
    index.update(encode_u64_key(id), make_status("shipped", num_orders + i));
  }
  const rdma::EndpointStats update_cost =
      endpoint.stats() - before_updates;
  std::printf("status updates: %.2f round trips each "
              "(search + lock CAS + combined release/value WRITE)\n",
              static_cast<double>(update_cost.round_trips) /
                  static_cast<double>(num_orders / 10));

  // Paging: "50 consecutive orders starting at X".
  const rdma::EndpointStats before_scans = endpoint.stats();
  std::vector<std::pair<std::string, std::string>> window;
  uint64_t rows = 0;
  for (uint64_t p = 0; p < pages; ++p) {
    const uint64_t start = ids[rng.next_below(ids.size())];
    index.scan(encode_u64_key(start), 50, &window);
    rows += window.size();
    // Verify the page is sorted and starts at or after the request.
    uint64_t prev = start;
    for (const auto& [k, v] : window) {
      const uint64_t id = decode_u64_key(Slice(k));
      if (id < prev) {
        std::cerr << "scan order violation!\n";
        return 1;
      }
      prev = id;
    }
  }
  const rdma::EndpointStats scan_cost = endpoint.stats() - before_scans;
  std::printf("paging: %llu pages, %.1f rows/page, %.1f round trips/page "
              "(doorbell-batched leaf runs)\n",
              static_cast<unsigned long long>(pages),
              static_cast<double>(rows) / static_cast<double>(pages),
              static_cast<double>(scan_cost.round_trips) /
                  static_cast<double>(pages));

  std::printf("total simulated time: %.2f ms\n",
              static_cast<double>(endpoint.clock_ns()) / 1e6);
  return 0;
}
