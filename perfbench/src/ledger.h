// The traced run's span ledger and the decorators that feed it.
//
// Spans are recorded only by the benchmark's own code, around calls into a
// layer's public interface: a WireFrontend decorator times each submit from
// Submit() to the reply's Take() (one per fed front and per served node),
// and an ActivationSource decorator times every Acquire(). Spans of one
// request share its key (the request's unique prompt seed). The ledger
// keeps spans in memory; the benchmark writes them out when the run ends.
#ifndef FLASHPS_PERFBENCH_SRC_LEDGER_H_
#define FLASHPS_PERFBENCH_SRC_LEDGER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "perfbench/src/bench.h"
#include "src/cache/activation_store.h"
#include "src/net/frontend.h"

namespace perfbench {

struct Span {
  std::string layer;   // "client", "fed", "node", "cache.acquire".
  uint64_t key = 0;    // Request key; the template id for cache spans.
  int64_t start_ns = 0;  // steady_clock.
  int64_t end_ns = 0;

  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

class Ledger {
 public:
  // Requests are traced when recording is on and their key is odd; even
  // keys run untraced through the same code, which gives the paired
  // baseline for the tracing overhead.
  void set_recording(bool on) { recording_.store(on); }
  bool Traces(uint64_t key) const {
    return recording_.load(std::memory_order_relaxed) && (key & 1u) != 0;
  }
  bool recording() const { return recording_.load(std::memory_order_relaxed); }

  void Record(Span span);
  std::vector<Span> Snapshot() const;

 private:
  std::atomic<bool> recording_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// Times each submit that passes through `inner` as a `layer` span.
class TracedFrontend : public flashps::net::WireFrontend {
 public:
  TracedFrontend(std::string layer, flashps::net::WireFrontend& inner,
                 Ledger& ledger)
      : layer_(std::move(layer)), inner_(&inner), ledger_(&ledger) {}

  flashps::net::WireSubmission Submit(
      flashps::net::WireRequest request) override;
  std::string MetricsJson() override { return inner_->MetricsJson(); }

 private:
  std::string layer_;
  flashps::net::WireFrontend* inner_;
  Ledger* ledger_;
};

// Forwards Acquire and Prefetch to `inner`, counting Acquires and timing
// each one while the ledger records. Acquire does not see the request key,
// so these spans are recorded for untraced (even-key) requests too, and the
// paired baseline of trace.overhead_pct also pays for them.
class TracedSource : public flashps::cache::ActivationSource {
 public:
  TracedSource(std::shared_ptr<flashps::cache::ActivationSource> inner,
               Ledger& ledger)
      : inner_(std::move(inner)), ledger_(&ledger) {}

  std::shared_ptr<const flashps::model::ActivationRecord> Acquire(
      const flashps::model::DiffusionModel& m, int template_id,
      bool record_kv) override;
  void Prefetch(const flashps::model::DiffusionModel& m, int template_id,
                bool record_kv) override;
  std::string MetricsJson() const override { return inner_->MetricsJson(); }

  uint64_t acquires() const { return acquires_.load(); }

 private:
  std::shared_ptr<flashps::cache::ActivationSource> inner_;
  Ledger* ledger_;
  std::atomic<uint64_t> acquires_{0};
};

}  // namespace perfbench

#endif  // FLASHPS_PERFBENCH_SRC_LEDGER_H_
