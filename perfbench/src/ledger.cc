#include "perfbench/src/ledger.h"

#include <utility>

namespace perfbench {

namespace {

using flashps::net::WireCompletion;
using flashps::net::WireResponse;

class TracedCompletion : public WireCompletion {
 public:
  TracedCompletion(std::unique_ptr<WireCompletion> inner, Span span,
                   Ledger& ledger)
      : inner_(std::move(inner)), span_(std::move(span)), ledger_(&ledger) {}

  bool Ready() override { return inner_->Ready(); }

  WireResponse Take() override {
    WireResponse response = inner_->Take();
    span_.end_ns = NowNs();
    ledger_->Record(std::move(span_));
    return response;
  }

 private:
  std::unique_ptr<WireCompletion> inner_;
  Span span_;
  Ledger* ledger_;
};

}  // namespace

void Ledger::Record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Ledger::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

flashps::net::WireSubmission TracedFrontend::Submit(
    flashps::net::WireRequest request) {
  const uint64_t key = request.request.prompt_seed;
  if (!ledger_->Traces(key)) {
    return inner_->Submit(std::move(request));
  }
  Span span{layer_, key, NowNs(), 0};
  flashps::net::WireSubmission sub = inner_->Submit(std::move(request));
  if (sub.completion != nullptr) {
    sub.completion = std::make_unique<TracedCompletion>(
        std::move(sub.completion), std::move(span), *ledger_);
  }
  return sub;
}

std::shared_ptr<const flashps::model::ActivationRecord> TracedSource::Acquire(
    const flashps::model::DiffusionModel& m, int template_id, bool record_kv) {
  acquires_.fetch_add(1);
  if (!ledger_->recording()) {
    return inner_->Acquire(m, template_id, record_kv);
  }
  const int64_t start = NowNs();
  auto record = inner_->Acquire(m, template_id, record_kv);
  ledger_->Record(Span{"cache.acquire", static_cast<uint64_t>(template_id),
                       start, NowNs()});
  return record;
}

void TracedSource::Prefetch(const flashps::model::DiffusionModel& m,
                            int template_id, bool record_kv) {
  inner_->Prefetch(m, template_id, record_kv);
}

}  // namespace perfbench
