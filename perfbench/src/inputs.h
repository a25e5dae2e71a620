// Seeded request generation. The same (config, seed) always yields the same
// requests: arrival offsets, templates, masks and prompt seeds.
#ifndef FLASHPS_PERFBENCH_SRC_INPUTS_H_
#define FLASHPS_PERFBENCH_SRC_INPUTS_H_

#include <vector>

#include "perfbench/src/bench.h"

namespace perfbench {

// The open loop's requests, sorted by due time: rate x window Poisson
// arrivals (the closed loop replays them). Arrival gaps, mask ratios and
// template ranks are stratified draws from their distributions (the
// midpoints of equal-count strata of an 8x larger sample), so every run sees
// the whole distribution shape and runs differ only in which request gets
// which draw. A fixed --mask-ratio replaces the mask-ratio draws; the mask
// shapes stay seeded.
std::vector<Input> MakeInputs(const Config& config, double open_seconds);

}  // namespace perfbench

#endif  // FLASHPS_PERFBENCH_SRC_INPUTS_H_
