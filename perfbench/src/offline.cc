#include "perfbench/src/offline.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>

#include "src/model/diffusion_model.h"
#include "src/net/wire.h"
#include "src/tensor/matrix.h"

namespace perfbench {

namespace fp = flashps;

namespace {

using fp::Matrix;
using fp::model::DiffusionModel;

DiffusionModel::RunOptions MaskAware(const fp::model::ActivationRecord& record,
                                     const fp::trace::Mask& mask) {
  DiffusionModel::RunOptions opts;
  opts.mode = fp::model::ComputeMode::kMaskAwareY;
  opts.cache = &record;
  opts.mask = &mask;
  return opts;
}

// Median wall time of `reps` calls of `fn`, in milliseconds.
template <typename Fn>
double MedianMs(int reps, Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    fn();
    ms.push_back(MsBetween(t0, Clock::now()));
  }
  return Median(ms);
}

// Repetitions so one kernel is timed for roughly `budget_ms` in total.
int Reps(double one_call_ms, double budget_ms = 60.0) {
  return std::clamp(static_cast<int>(budget_ms / std::max(one_call_ms, 1e-3)),
                    5, 200);
}

}  // namespace

std::map<uint64_t, uint64_t> ReferenceChecksums(
    const Config& config, const std::vector<const Input*>& inputs, int threads) {
  const DiffusionModel m(config.Numerics());
  std::map<int, std::vector<size_t>> groups;  // By template.
  for (size_t i = 0; i < inputs.size(); ++i) {
    groups[inputs[i]->template_id].push_back(i);
  }
  std::vector<const std::pair<const int, std::vector<size_t>>*> work;
  for (const auto& group : groups) {
    work.push_back(&group);
  }
  std::vector<uint64_t> sums(inputs.size(), 0);
  std::atomic<size_t> cursor{0};
  auto worker = [&] {
    for (size_t g = cursor.fetch_add(1); g < work.size(); g = cursor.fetch_add(1)) {
      const auto& [template_id, members] = *work[g];
      const fp::model::ActivationRecord record = m.Register(template_id);
      const Matrix tmpl = m.EncodeTemplate(template_id);
      for (size_t i : members) {
        const Input& in = *inputs[i];
        Matrix latent = m.InitEditLatent(tmpl, in.mask, in.key);
        latent = m.RunStepRange(std::move(latent),
                                MaskAware(record, in.mask), 0, config.steps);
        sums[i] = fp::net::LatentChecksum(m.DecodeLatent(latent));
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) {
    pool.emplace_back(worker);
  }
  worker();
  for (std::thread& t : pool) {
    t.join();
  }
  std::map<uint64_t, uint64_t> out;
  for (size_t i = 0; i < inputs.size(); ++i) {
    out[inputs[i]->key] = sums[i];
  }
  return out;
}

OfflineLayers MeasureOffline(const Config& config,
                             const std::vector<const Input*>& sample,
                             double median_ratio) {
  OfflineLayers out;
  const fp::model::NumericsConfig native = config.Numerics();
  out.model_construct_ms = MedianMs(3, [&] { DiffusionModel built(native); });
  const DiffusionModel m(native);
  out.attention_bias_mb = static_cast<double>(m.attention_bias().bytes()) / 1e6;

  // The record of template 0, as the workload's workers hold it.
  const Clock::time_point r0 = Clock::now();
  const fp::model::ActivationRecord record = m.Register(0);
  out.register_ms = MsBetween(r0, Clock::now());
  const Matrix tmpl = m.EncodeTemplate(0);

  // model.step_ms: one RunStepRange step per request of the sample, as the
  // denoise thread runs a solo member.
  std::vector<double> step_ms;
  for (const Input* in : sample) {
    Matrix latent = m.InitEditLatent(tmpl, in->mask, in->key);
    const Clock::time_point s0 = Clock::now();
    latent = m.RunStepRange(std::move(latent), MaskAware(record, in->mask), 0, 1);
    step_ms.push_back(MsBetween(s0, Clock::now()));
  }
  out.step_ms = Median(step_ms);

  // model.batch_step_ms: one patch-batched gathered step over max_batch
  // requests of the sample. The dense workload serves Y-only records, so a
  // K/V record is registered here for it.
  if (!sample.empty()) {
    const fp::model::ActivationRecord kv_record = m.Register(0, /*record_kv=*/true);
    std::vector<Matrix> latents;
    std::vector<const Input*> members;
    for (size_t i = 0; i < sample.size() &&
                       static_cast<int>(members.size()) < config.max_batch;
         ++i) {
      members.push_back(sample[i]);
      latents.push_back(m.InitEditLatent(tmpl, sample[i]->mask, sample[i]->key));
    }
    std::vector<double> ms;
    for (int rep = 0; rep < 3; ++rep) {
      std::vector<DiffusionModel::StepBatchMember> panel;
      for (size_t i = 0; i < members.size(); ++i) {
        panel.push_back({&m, &latents[i], &members[i]->mask, &kv_record, rep});
      }
      const Clock::time_point s0 = Clock::now();
      DiffusionModel::RunStepBatchGathered(panel);
      ms.push_back(MsBetween(s0, Clock::now()));
    }
    out.batch_step_ms = Median(ms);
  }

  // Kernels of one mask-aware block at the native grid and median mask.
  const fp::model::BlockWeights& w = m.block(0);
  fp::Rng rng(config.seed);
  const fp::trace::Mask mask = fp::trace::GenerateBlobMask(
      native.grid_h, native.grid_w, median_ratio, rng);
  const auto& rows = mask.masked_tokens;
  Matrix x(native.tokens(), native.hidden);
  x.FillNormal(rng, 1.0f);
  const Matrix xn = fp::LayerNorm(x, w.ln1_gamma, w.ln1_beta);
  const Matrix xm = fp::GatherRows(xn, rows);
  const Matrix q = fp::MatMul(xm, w.wq);
  const Matrix k = fp::MatMul(xn, w.wk);
  const Matrix v = fp::MatMul(xn, w.wv);
  const Matrix bias_rows = fp::GatherRows(m.attention_bias(), rows);
  Matrix scores = fp::MatMulTransposed(q, k);
  Matrix probs = scores;
  fp::AddInPlace(probs, bias_rows);
  fp::SoftmaxRows(probs);
  Matrix attn = fp::MatMul(probs, v);
  Matrix hidden4 = fp::MatMul(attn, w.w1);

  Matrix sink;
  const double one = MedianMs(1, [&] { sink = fp::MatMulTransposed(q, k); });
  out.scores_ms = MedianMs(Reps(one), [&] { sink = fp::MatMulTransposed(q, k); });
  {
    std::vector<double> ms;
    for (int i = 0; i < Reps(out.scores_ms); ++i) {
      Matrix s = scores;
      const Clock::time_point t0 = Clock::now();
      fp::AddInPlace(s, bias_rows);
      fp::SoftmaxRows(s);
      ms.push_back(MsBetween(t0, Clock::now()));
    }
    out.bias_softmax_ms = Median(ms);
  }
  out.sv_ms = MedianMs(Reps(out.scores_ms), [&] { sink = fp::MatMul(probs, v); });
  auto gemms = [&] {
    sink = fp::MatMul(xn, w.wk);
    sink = fp::MatMul(xn, w.wv);
    sink = fp::MatMul(xm, w.wq);
    sink = fp::MatMul(attn, w.wo);
    sink = fp::MatMul(fp::MatMul(xm, w.w1), w.w2);
  };
  out.gemm_ms = MedianMs(Reps(MedianMs(1, gemms)), gemms);
  auto norm_gelu = [&] {
    sink = fp::LayerNorm(x, w.ln1_gamma, w.ln1_beta);
    sink = fp::LayerNorm(xm, w.ln2_gamma, w.ln2_beta);
    Matrix h = hidden4;
    fp::GeluInPlace(h);
  };
  out.norm_gelu_ms = MedianMs(Reps(MedianMs(1, norm_gelu)), norm_gelu);
  Matrix y = x;
  auto gather_scatter = [&] {
    sink = fp::GatherRows(x, rows);
    fp::ScatterRows(y, sink, rows);
  };
  out.gather_scatter_ms =
      MedianMs(Reps(MedianMs(1, gather_scatter)), gather_scatter);

  const double l = static_cast<double>(native.tokens());
  const double ml = static_cast<double>(rows.size());
  const double h = static_cast<double>(native.hidden);
  out.attention_gflop = (4.0 * ml * l * h + 5.0 * ml * l) / 1e9;
  out.attention_mb_moved = (2.0 * ml * h + 2.0 * l * h + 7.0 * ml * l) * 4.0 / 1e6;
  return out;
}

}  // namespace perfbench
