#include "perfbench/src/inputs.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "src/common/rng.h"

namespace perfbench {

namespace {

using flashps::Rng;

template <typename T>
void Shuffle(std::vector<T>& v, Rng& rng) {
  for (size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.NextBelow(i)]);
  }
}

// `n` draws of `sample(rng)`, stratified: the midpoints of n equal-count
// strata of an 8x larger sample, in seeded random order.
template <typename T, typename Sample>
std::vector<T> Stratified(size_t n, Rng& rng, Sample&& sample) {
  constexpr size_t kOversample = 8;
  std::vector<T> pool(n * kOversample);
  for (T& v : pool) {
    v = sample(rng);
  }
  std::sort(pool.begin(), pool.end());
  std::vector<T> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = pool[i * kOversample + kOversample / 2];
  }
  Shuffle(out, rng);
  return out;
}

std::vector<Input> MakeRequests(const Config& config, size_t n, Rng& rng) {
  const flashps::trace::MaskRatioDistribution dist(
      flashps::trace::TraceKind::kProduction);
  const std::vector<double> ratios =
      config.mask_ratio > 0.0
          ? std::vector<double>(n, config.mask_ratio)
          : Stratified<double>(n, rng, [&](Rng& r) { return dist.Sample(r); });
  const flashps::trace::TemplateCatalog catalog(
      config.templates, config.zipf > 0.0 ? config.zipf : 1.0);
  const std::vector<int> templates = Stratified<int>(n, rng, [&](Rng& r) {
    return config.zipf > 0.0
               ? catalog.SampleTemplate(r)
               : static_cast<int>(r.NextBelow(static_cast<uint64_t>(config.templates)));
  });
  std::vector<Input> out(n);
  for (size_t i = 0; i < n; ++i) {
    Input& in = out[i];
    in.key = 1 + i;
    in.template_id = templates[i];
    in.mask = flashps::trace::GenerateBlobMask(config.grid_h, config.grid_w,
                                               ratios[i], rng);
  }
  return out;
}

}  // namespace

std::vector<Input> MakeInputs(const Config& config, double open_seconds) {
  Rng rng(config.seed * 0x9E3779B97F4A7C15ull + 0x5bd1e995u);
  // Poisson arrivals with the expected count: rate x window requests whose
  // exponential gaps are stratified like every other draw.
  const size_t count =
      static_cast<size_t>(std::lround(config.rate_rps * open_seconds));
  const std::vector<double> gaps = Stratified<double>(
      count, rng, [&](Rng& r) { return r.Exponential(config.rate_rps); });
  std::vector<Input> inputs = MakeRequests(config, count, rng);
  double t = 0.0;
  for (size_t i = 0; i < count; ++i) {
    t += gaps[i];
    inputs[i].due_s = t;
  }
  return inputs;
}

}  // namespace perfbench
