// The serving stack under test, built in process over loopback TCP.
//
//   single gateway:  Client -> TcpServer -> [node span] GatewayFrontend
//                    -> Gateway (workers) -> [acquire span] ActivationStore
//   fleet:           Client -> TcpServer -> [fed span] FedGateway
//                    -> per node: TcpServer -> [node span] GatewayFrontend
//                    -> Gateway -> [acquire span] ShardedRemoteStore
//                    -> cache ring (TcpServer + CacheNode per member)
//
// Set-up covers everything a daemon pays before its first request: models,
// gateway profiling, cache daemons, fed join and cache warm-up.
#ifndef FLASHPS_PERFBENCH_SRC_STACK_H_
#define FLASHPS_PERFBENCH_SRC_STACK_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "perfbench/src/bench.h"
#include "perfbench/src/ledger.h"
#include "src/cache/activation_store.h"
#include "src/cache/ring/sharded_store.h"
#include "src/fed/fed_gateway.h"
#include "src/gateway/gateway.h"
#include "src/net/cache_node.h"
#include "src/net/tcp_server.h"

namespace perfbench {

// Timings taken while building one stack.
struct SetupTimes {
  double total_s = 0.0;
  double gateway_construct_s = 0.0;  // Mean over the stack's gateways.
};

struct ServedNode {
  std::shared_ptr<flashps::cache::ActivationStore> local;  // Single gateway.
  std::shared_ptr<flashps::cache::ShardedRemoteStore> ring;  // Fleet.
  std::shared_ptr<TracedSource> source;
  std::unique_ptr<flashps::gateway::Gateway> gateway;
  std::unique_ptr<flashps::net::GatewayFrontend> frontend;
  std::unique_ptr<TracedFrontend> traced;
  std::unique_ptr<flashps::net::TcpServer> server;
};

class Stack {
 public:
  // Builds and warms the whole stack; exits the process on a bind failure.
  Stack(const Config& config, Ledger& ledger);
  ~Stack();

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  uint16_t port() const { return front_port_; }
  const SetupTimes& times() const { return times_; }
  std::vector<ServedNode>& nodes() { return nodes_; }
  flashps::fed::FedGateway* fed() { return fed_.get(); }
  // Sum of the nodes' ring-store counters (fleet only).
  flashps::cache::ShardedStoreStats RingStats() const;
  // Resident bytes of the activation caches (local stores, ring members).
  double CacheResidentMb() const;

 private:
  void BuildCacheRing();
  flashps::cache::ShardedStoreOptions RingOptions() const;
  void BuildNode(const Config& config, Ledger& ledger);
  void BuildFed(Ledger& ledger);
  void WarmUp(const Config& config);

  SetupTimes times_;
  std::vector<std::unique_ptr<flashps::net::CacheNode>> cache_nodes_;
  std::vector<std::unique_ptr<flashps::net::TcpServer>> cache_servers_;
  std::vector<ServedNode> nodes_;
  std::unique_ptr<flashps::fed::FedGateway> fed_;
  std::unique_ptr<TracedFrontend> fed_traced_;
  std::unique_ptr<flashps::net::TcpServer> fed_server_;
  uint16_t front_port_ = 0;
};

}  // namespace perfbench

#endif  // FLASHPS_PERFBENCH_SRC_STACK_H_
