// Shared types of the serving benchmark: the workload configuration (parsed
// from the command line that run.py assembles from workloads.json), one
// generated request, and small statistics helpers.
#ifndef FLASHPS_PERFBENCH_SRC_BENCH_H_
#define FLASHPS_PERFBENCH_SRC_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/model/diffusion_model.h"
#include "src/trace/workload.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string source_id = "unknown";

  // Model shape: one served grid, dense mask-aware compute, masks drawn
  // from the production trace's ratio distribution, or all of one ratio
  // when mask_ratio > 0.
  int grid_h = 32;
  int grid_w = 32;
  int hidden = 64;
  int steps = 4;
  double mask_ratio = 0.0;

  // Templates: `templates` ids, Zipf-skewed when zipf > 0 (else uniform);
  // the first `warm` ids are registered (single gateway) or published to
  // the cache ring (fleet) during set-up, and a fleet node's LRU front
  // holds the hottest of them.
  int templates = 2;
  double zipf = 0.0;
  int warm = 2;

  // Serving shape: fleet_nodes > 0 puts that many served nodes behind a fed
  // front, on a cache ring; 0 serves from one gateway behind TCP.
  int fleet_nodes = 0;
  int workers = 2;  // Per node.
  int max_batch = 4;  // Co-batched requests per worker (OnlineServer default).

  // Load and limits.
  double rate_rps = 1.0;
  double limit_ms = 1000.0;
  int check_sample = 0;  // Replies checked against a reference; 0 = all.

  bool fleet() const { return fleet_nodes > 0; }
  int nodes() const { return std::max(1, fleet_nodes); }
  int total_workers() const { return nodes() * workers; }
  // Numerics of the served model.
  flashps::model::NumericsConfig Numerics() const {
    flashps::model::NumericsConfig n =
        flashps::model::NumericsConfig::ForTests();
    n.grid_h = grid_h;
    n.grid_w = grid_w;
    n.hidden = hidden;
    n.num_steps = steps;
    return n;
  }
};

// One editing request of a run. `key` (the request's prompt seed) is unique
// within a run and identifies the request's spans in every layer.
struct Input {
  int template_id = 0;
  flashps::trace::Mask mask;
  uint64_t key = 0;
  double due_s = 0.0;  // Open loop: send offset from the phase start.
};

// Nearest-rank percentile, q in [0, 1]. Empty input gives 0.
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t index =
      static_cast<size_t>(std::clamp(rank, 1.0, static_cast<double>(v.size())));
  return v[index - 1];
}

inline double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (double x : v) {
    sum += x;
  }
  return sum / static_cast<double>(v.size());
}

}  // namespace perfbench

#endif  // FLASHPS_PERFBENCH_SRC_BENCH_H_
