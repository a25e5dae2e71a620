// Work done outside the timed phases: reference checksums for the output
// check, and the traced run's single-layer timings of the model and tensor
// layers at the workload's own shapes.
#ifndef FLASHPS_PERFBENCH_SRC_OFFLINE_H_
#define FLASHPS_PERFBENCH_SRC_OFFLINE_H_

#include <cstdint>
#include <map>
#include <vector>

#include "perfbench/src/bench.h"

namespace perfbench {

// Reference latent checksum (net::LatentChecksum of the decoded image) of
// each input, keyed by input key, computed directly through
// model::DiffusionModel: register the template's record, init the edit
// latent, run every mask-aware step, decode. Templates run in parallel on
// up to `threads` threads.
std::map<uint64_t, uint64_t> ReferenceChecksums(
    const Config& config, const std::vector<const Input*>& inputs, int threads);

struct OfflineLayers {
  double model_construct_ms = 0.0;
  double attention_bias_mb = 0.0;  // One worker's model.
  double register_ms = 0.0;
  double step_ms = 0.0;        // RunStepRange, one step.
  double batch_step_ms = 0.0;  // RunStepBatchGathered, max_batch members.
  double scores_ms = 0.0;
  double bias_softmax_ms = 0.0;
  double sv_ms = 0.0;
  double gemm_ms = 0.0;
  double norm_gelu_ms = 0.0;
  double gather_scatter_ms = 0.0;
  double attention_gflop = 0.0;     // Computed from tensor sizes.
  double attention_mb_moved = 0.0;  // Computed from tensor sizes.
};

// `sample` holds requests of the run (the model timings replay their
// masks); kernels run at the workload's grid and the run's median mask
// ratio.
OfflineLayers MeasureOffline(const Config& config,
                             const std::vector<const Input*>& sample,
                             double median_ratio);

}  // namespace perfbench

#endif  // FLASHPS_PERFBENCH_SRC_OFFLINE_H_
