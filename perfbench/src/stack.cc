#include "perfbench/src/stack.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>


namespace perfbench {

namespace fp = flashps;

namespace {

// The cache ring mirrors the daemons' defaults (flashps_served
// --cache-replication, --cache-prefetch, --cache-connections); members are
// sized so that nothing a run touches is evicted.
constexpr int kRingMembers = 3;
constexpr int kReplication = 2;
constexpr int kPrefetchWorkers = 2;
constexpr int kConnectionsPerMember = 2;
constexpr size_t kRingMemberBytes = size_t{256} << 20;

void StartOrDie(fp::net::TcpServer& server, const char* what) {
  if (!server.Start()) {
    std::fprintf(stderr, "perfbench: cannot start %s\n", what);
    std::exit(3);
  }
}

}  // namespace

Stack::Stack(const Config& config, Ledger& ledger) {
  const Clock::time_point start = Clock::now();
  if (config.fleet()) {
    BuildCacheRing();
  }
  for (int i = 0; i < config.nodes(); ++i) {
    BuildNode(config, ledger);
  }
  times_.gateway_construct_s /= static_cast<double>(config.nodes());
  if (config.fleet()) {
    BuildFed(ledger);
  } else {
    front_port_ = nodes_.front().server->port();
  }
  WarmUp(config);
  times_.total_s = SecondsSince(start);
}

Stack::~Stack() {
  if (fed_server_ != nullptr) {
    fed_server_->Stop();
    fed_->StopAccepting();
    fed_->Drain(std::chrono::milliseconds(10000));
    fed_->Stop();
  }
  for (ServedNode& node : nodes_) {
    node.server->Stop();
    node.gateway->Stop();
  }
  for (auto& server : cache_servers_) {
    server->Stop();
  }
}

void Stack::BuildCacheRing() {
  for (int i = 0; i < kRingMembers; ++i) {
    fp::net::CacheNodeOptions options;
    options.max_bytes = kRingMemberBytes;
    cache_nodes_.push_back(std::make_unique<fp::net::CacheNode>(options));
    cache_servers_.push_back(
        std::make_unique<fp::net::TcpServer>(cache_nodes_.back()->Service()));
    StartOrDie(*cache_servers_.back(), "cache ring member");
  }
}

void Stack::BuildNode(const Config& config, Ledger& ledger) {
  ServedNode node;
  std::shared_ptr<fp::cache::ActivationSource> inner;
  if (config.fleet()) {
    fp::cache::ShardedStoreOptions options = RingOptions();
    options.prefetch_workers = kPrefetchWorkers;
    options.connections_per_member = kConnectionsPerMember;
    node.ring = std::make_shared<fp::cache::ShardedRemoteStore>(options);
    inner = node.ring;
  } else {
    node.local = std::make_shared<fp::cache::ActivationStore>();
    inner = node.local;
  }
  node.source = std::make_shared<TracedSource>(inner, ledger);

  fp::gateway::GatewayOptions options;
  options.num_workers = config.workers;
  options.worker.numerics = config.Numerics();
  options.worker.max_batch = config.max_batch;
  options.worker.compute_threads = 1;
  options.worker.activation_source = node.source;
  options.admission_control = false;
  const Clock::time_point t0 = Clock::now();
  node.gateway = std::make_unique<fp::gateway::Gateway>(options);
  times_.gateway_construct_s += SecondsSince(t0);

  node.frontend = std::make_unique<fp::net::GatewayFrontend>(*node.gateway);
  node.traced =
      std::make_unique<TracedFrontend>("node", *node.frontend, ledger);
  node.server = std::make_unique<fp::net::TcpServer>(*node.traced);
  StartOrDie(*node.server, "served node");
  nodes_.push_back(std::move(node));
}

void Stack::BuildFed(Ledger& ledger) {
  fp::fed::FedGatewayOptions options;
  for (const ServedNode& node : nodes_) {
    options.nodes.push_back(fp::fed::FedNode{"127.0.0.1", node.server->port()});
  }
  fed_ = std::make_unique<fp::fed::FedGateway>(options);
  fed_->Start();
  fed_traced_ = std::make_unique<TracedFrontend>("fed", *fed_, ledger);
  fed_server_ = std::make_unique<fp::net::TcpServer>(*fed_traced_);
  StartOrDie(*fed_server_, "fed front");
  front_port_ = fed_server_->port();
}

void Stack::WarmUp(const Config& config) {
  if (config.fleet()) {
    // Pre-publish the hot set to the ring the way a first worker would
    // (miss, register, replicate), then pull its hottest records into every
    // node's LRU front as a node that has been serving would hold them.
    // Both run on parallel threads, like several workers warming at once.
    fp::cache::ShardedRemoteStore publisher(RingOptions());
    const fp::model::DiffusionModel m(config.Numerics());
    const int front = std::min<int>(
        config.warm, static_cast<int>(fp::cache::ShardedStoreOptions{}.lru_capacity));
    std::vector<std::pair<fp::cache::ActivationSource*, int>> stores{
        {&publisher, config.warm}};
    for (ServedNode& node : nodes_) {
      stores.emplace_back(node.ring.get(), front);
    }
    for (const auto& [store, count] : stores) {
      std::atomic<int> next{0};
      auto acquire = [&, store = store, count = count] {
        for (int t = next.fetch_add(1); t < count; t = next.fetch_add(1)) {
          store->Acquire(m, t, /*record_kv=*/false);
        }
      };
      std::vector<std::thread> threads;
      for (unsigned i = 1; i < std::clamp(std::thread::hardware_concurrency(), 1u, 4u); ++i) {
        threads.emplace_back(acquire);
      }
      acquire();
      for (std::thread& t : threads) {
        t.join();
      }
    }
    return;
  }
  // Single gateway: register the template set in the shared store, so
  // every Acquire of the run hits.
  const fp::model::DiffusionModel m(config.Numerics());
  for (int t = 0; t < config.warm; ++t) {
    nodes_.front().local->Acquire(m, t, /*record_kv=*/false);
  }
}

fp::cache::ShardedStoreOptions Stack::RingOptions() const {
  fp::cache::ShardedStoreOptions options;
  for (const auto& server : cache_servers_) {
    options.nodes.push_back(fp::cache::RingMember{"127.0.0.1", server->port()});
  }
  options.replication = kReplication;
  return options;
}

fp::cache::ShardedStoreStats Stack::RingStats() const {
  fp::cache::ShardedStoreStats sum;
  std::vector<double> fetch_p50;
  for (const ServedNode& node : nodes_) {
    if (node.ring == nullptr) {
      continue;
    }
    const fp::cache::ShardedStoreStats s = node.ring->Stats();
    sum.front_hits += s.front_hits;
    sum.remote_hits += s.remote_hits;
    sum.remote_misses += s.remote_misses;
    sum.fallbacks += s.fallbacks;
    sum.local_registrations += s.local_registrations;
    sum.prefetch_coalesced += s.prefetch_coalesced;
    sum.prefetch_issued += s.prefetch_issued;
    sum.remote_wire_bytes_fetched += s.remote_wire_bytes_fetched;
    sum.prefetch_wire_bytes_fetched += s.prefetch_wire_bytes_fetched;
    sum.remote_wire_bytes_put += s.remote_wire_bytes_put;
    // Queue-ahead prefetch usually fetches before Acquire asks; report the
    // path that fetched more records.
    fetch_p50.push_back(s.prefetch_remote_hits > s.remote_hits ? s.prefetch_p50_us
                                                               : s.fetch_p50_us);
  }
  sum.fetch_p50_us = Mean(fetch_p50);
  return sum;
}

double Stack::CacheResidentMb() const {
  double bytes = 0.0;
  for (const ServedNode& node : nodes_) {
    if (node.local != nullptr) {
      bytes += static_cast<double>(node.local->TotalBytes());
    }
  }
  for (const auto& member : cache_nodes_) {
    bytes += static_cast<double>(member->Stats().resident_bytes);
  }
  return bytes / 1e6;
}

}  // namespace perfbench
