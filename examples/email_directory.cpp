// Email directory on disaggregated memory -- the paper's motivating
// variable-length-key scenario.
//
// Builds a directory mapping email addresses to profile records, serves
// point lookups from several concurrent clients across the cluster's
// compute nodes, and runs alphabetical range scans ("the 20 addresses
// after X"). Prints per-operation network costs, demonstrating the ~3
// round-trip searches the succinct filter cache enables on deep
// variable-length-key trees.
//
// Usage: email_directory [--users=200000] [--lookups=30000] [--clients=6]
#include <cstdio>
#include <iostream>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "core/sphinx_index.h"
#include "memnode/remote_allocator.h"
#include "ycsb/dataset.h"

using namespace sphinx;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const uint64_t users = flags.get_u64("users", 200000);
  const uint64_t lookups = flags.get_u64("lookups", 30000);
  const uint32_t clients = static_cast<uint32_t>(flags.get_u64("clients", 6));
  flags.reject_unknown();

  rdma::NetworkConfig net;
  mem::Cluster cluster(net, 512ull << 20);
  core::SphinxRefs refs = core::create_sphinx(cluster);

  // One filter cache per compute node, shared by that CN's clients.
  std::vector<std::unique_ptr<filter::CuckooFilter>> filters;
  for (uint32_t cn = 0; cn < net.num_cns; ++cn) {
    filters.push_back(filter::CuckooFilter::with_budget(2ull << 20));
  }

  std::cout << "generating " << users << " email addresses...\n";
  const auto emails = ycsb::generate_email_keys(users, 7);
  std::cout << "mean address length: " << ycsb::mean_key_length(emails)
            << " bytes (paper's corpus: 18.93)\n";

  // Bulk load with an unmetered client (loading is setup, not workload).
  {
    rdma::Endpoint loader = cluster.make_loader_endpoint();
    mem::RemoteAllocator alloc(cluster, loader);
    core::SphinxIndex index(cluster, loader, alloc, refs, filters[0].get());
    for (uint64_t i = 0; i < users; ++i) {
      index.insert(emails[i], "profile#" + std::to_string(i));
    }
  }
  std::cout << "loaded.\n";

  // Concurrent point lookups from every compute node.
  std::vector<std::thread> threads;
  std::vector<rdma::EndpointStats> stats(clients);
  std::vector<uint64_t> clocks(clients, 0);
  for (uint32_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const uint32_t cn = c % net.num_cns;
      rdma::Endpoint endpoint = cluster.make_endpoint(cn);
      mem::RemoteAllocator alloc(cluster, endpoint);
      core::SphinxIndex index(cluster, endpoint, alloc, refs,
                              filters[cn].get());
      Rng rng(c + 1);
      std::string value;
      uint64_t found = 0;
      for (uint64_t i = 0; i < lookups; ++i) {
        if (index.search(emails[rng.next_below(users)], &value)) found++;
      }
      if (found != lookups) {
        std::cerr << "client " << c << ": " << (lookups - found)
                  << " lookups missed!\n";
      }
      stats[c] = endpoint.stats();
      clocks[c] = endpoint.clock_ns();
    });
  }
  for (auto& t : threads) t.join();

  rdma::EndpointStats total;
  uint64_t max_clock = 0;
  for (uint32_t c = 0; c < clients; ++c) {
    total += stats[c];
    max_clock = std::max(max_clock, clocks[c]);
  }
  const double ops = static_cast<double>(lookups) * clients;
  std::printf("\n%u clients x %llu lookups:\n", clients,
              static_cast<unsigned long long>(lookups));
  std::printf("  %.2f round trips / lookup (paper: ~3)\n",
              static_cast<double>(total.round_trips) / ops);
  std::printf("  %.0f bytes read / lookup\n",
              static_cast<double>(total.bytes_read) / ops);
  std::printf("  %.2f M lookups/s aggregate (simulated)\n",
              ops / static_cast<double>(max_clock) * 1e3);

  // Alphabetical range scans.
  rdma::Endpoint endpoint = cluster.make_endpoint(0);
  mem::RemoteAllocator alloc(cluster, endpoint);
  core::SphinxIndex index(cluster, endpoint, alloc, refs, filters[0].get());
  std::vector<std::pair<std::string, std::string>> page;
  index.scan("karen", 10, &page);
  std::cout << "\nfirst 10 addresses at or after 'karen':\n";
  for (const auto& [email, profile] : page) {
    std::cout << "  " << email << "  (" << profile << ")\n";
  }
  return 0;
}
