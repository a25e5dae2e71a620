// The load generator: one thread, pipelined net::Client connections.
//
// Open loop: requests are sent at their Poisson due times whether or not
// earlier ones have returned, and each latency is timed from the due time,
// so a stall is charged to every request it delays. Closed loop: a fixed
// number of requests stays outstanding on one connection; the completion
// rate is the stack's capacity.
#ifndef FLASHPS_PERFBENCH_SRC_LOADGEN_H_
#define FLASHPS_PERFBENCH_SRC_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "perfbench/src/bench.h"
#include "src/net/client.h"
#include "src/net/wire.h"

namespace perfbench {

struct Outcome {
  const Input* input = nullptr;
  bool replied = false;  // A reply frame arrived in time.
  flashps::net::WireResponse response;
  int64_t due_ns = 0;   // steady_clock; open loop only.
  int64_t send_ns = 0;
  int64_t recv_ns = 0;

  bool accepted() const { return replied && response.accepted(); }
  double latency_ms() const { return static_cast<double>(recv_ns - due_ns) / 1e6; }
  double rtt_ms() const { return static_cast<double>(recv_ns - send_ns) / 1e6; }
  double send_lag_ms() const {
    return static_cast<double>(send_ns - due_ns) / 1e6;
  }
};

struct PhaseResult {
  std::vector<Outcome> outcomes;  // One per request sent.
  // Closed loop: replies inside the window, and the time from the window's
  // start to the last of them.
  uint64_t completed_in_window = 0;
  double window_s = 0.0;
  double busy_s = 0.0;
};

flashps::net::WireRequest ToWire(const Input& input, int steps);

// Sends every input at its due time, counted from `base_s` (the phase
// starts when due_s = base_s). `tick` runs between sends (used to sample
// worker status); replies still missing `grace_s` after the last due time
// are counted lost.
PhaseResult RunOpenLoop(flashps::net::Client& client,
                        std::span<const Input> inputs, double base_s, int steps,
                        double grace_s, const std::function<void()>& tick);

// Keeps `outstanding` requests in flight for `seconds`, passing through
// `pool` in a new seeded random order each time, then collects the
// stragglers.
PhaseResult RunClosedLoop(flashps::net::Client& client,
                          std::span<const Input> pool, int steps,
                          int outstanding, double seconds, uint64_t seed,
                          const std::function<void()>& tick);

}  // namespace perfbench

#endif  // FLASHPS_PERFBENCH_SRC_LOADGEN_H_
