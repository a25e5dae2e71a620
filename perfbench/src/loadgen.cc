#include "perfbench/src/loadgen.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <thread>
#include <utility>

#include "perfbench/src/ledger.h"
#include "src/common/rng.h"

namespace perfbench {

namespace {

constexpr int64_t kMs = 1'000'000;

// Moves every reply that has arrived into its outcome.
void Harvest(flashps::net::Client& client, std::map<uint64_t, size_t>& pending,
             std::vector<Outcome>& outcomes) {
  const int64_t now = NowNs();
  for (auto it = pending.begin(); it != pending.end();) {
    if (auto response = client.TryTake(it->first)) {
      Outcome& o = outcomes[it->second];
      o.replied = true;
      o.response = *response;
      o.recv_ns = now;
      it = pending.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace

flashps::net::WireRequest ToWire(const Input& input, int steps) {
  flashps::net::WireRequest wire;
  wire.engine_mode = 1;
  wire.denoise_steps = steps;
  wire.request.template_id = input.template_id;
  wire.request.mask = input.mask;
  wire.request.prompt_seed = input.key;
  return wire;
}

PhaseResult RunOpenLoop(flashps::net::Client& client,
                        std::span<const Input> inputs, double base_s, int steps,
                        double grace_s, const std::function<void()>& tick) {
  PhaseResult result;
  result.outcomes.resize(inputs.size());
  std::map<uint64_t, size_t> pending;
  const int64_t start_ns = NowNs() + 20 * kMs;
  auto due_ns = [&](size_t i) {
    return start_ns + static_cast<int64_t>((inputs[i].due_s - base_s) * 1e9);
  };
  const int64_t give_up_ns =
      (inputs.empty() ? start_ns : due_ns(inputs.size() - 1)) +
      static_cast<int64_t>(grace_s * 1e9);
  size_t next = 0;
  while ((next < inputs.size() || !pending.empty()) && client.connected()) {
    int64_t now = NowNs();
    while (next < inputs.size() && due_ns(next) <= now) {
      Outcome& o = result.outcomes[next];
      o.input = &inputs[next];
      o.due_ns = due_ns(next);
      const uint64_t seq = client.Send(ToWire(inputs[next], steps));
      o.send_ns = NowNs();
      if (seq != 0) {
        pending[seq] = next;
      }
      ++next;
      now = NowNs();
    }
    tick();
    if (now > give_up_ns) {
      break;
    }
    const int64_t wait_ns = std::min<int64_t>(
        next < inputs.size() ? due_ns(next) - now : 5 * kMs, 5 * kMs);
    if (wait_ns >= kMs) {
      client.Pump(std::chrono::milliseconds(wait_ns / kMs));
    } else if (wait_ns > 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(wait_ns));
      client.Pump(std::chrono::milliseconds(0));
    }
    Harvest(client, pending, result.outcomes);
  }
  // Requests never sent (connection lost) still count as attempted.
  for (size_t i = next; i < inputs.size(); ++i) {
    result.outcomes[i].input = &inputs[i];
  }
  return result;
}

PhaseResult RunClosedLoop(flashps::net::Client& client,
                          std::span<const Input> pool, int steps,
                          int outstanding, double seconds, uint64_t seed,
                          const std::function<void()>& tick) {
  PhaseResult result;
  flashps::Rng rng(seed);
  std::vector<size_t> order(pool.size());
  std::map<uint64_t, size_t> pending;
  const int64_t start_ns = NowNs();
  const int64_t window_end = start_ns + static_cast<int64_t>(seconds * 1e9);
  const int64_t give_up_ns = window_end + 60'000 * kMs;
  size_t cursor = 0;
  auto send_one = [&] {
    if (cursor % pool.size() == 0) {
      // A fresh pass in a new random order: a fixed cyclic order would make
      // an LRU cache miss on every request once the pool outgrows it.
      for (size_t i = 0; i < order.size(); ++i) {
        order[i] = i;
      }
      for (size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng.NextBelow(i)]);
      }
    }
    Outcome o;
    o.input = &pool[order[cursor % pool.size()]];
    ++cursor;
    o.send_ns = o.due_ns = NowNs();
    const uint64_t seq = client.Send(ToWire(*o.input, steps));
    result.outcomes.push_back(o);
    if (seq != 0) {
      pending[seq] = result.outcomes.size() - 1;
    }
  };
  for (int i = 0; i < outstanding; ++i) {
    send_one();
  }
  while (!pending.empty() && client.connected()) {
    client.Pump(std::chrono::milliseconds(2));
    const size_t before = pending.size();
    Harvest(client, pending, result.outcomes);
    const int64_t now = NowNs();
    for (size_t done = before - pending.size(); done > 0; --done) {
      if (now <= window_end) {
        ++result.completed_in_window;
        result.busy_s = static_cast<double>(now - start_ns) / 1e9;
        send_one();
      }
    }
    tick();
    if (now > give_up_ns) {
      break;
    }
  }
  result.window_s = seconds;
  return result;
}

}  // namespace perfbench
