#include "timed.h"

#include <utility>

#include "util/trace.h"

namespace perfbench {

using warper::ce::CardinalityEstimator;

TimedEstimator::TimedEstimator(std::unique_ptr<CardinalityEstimator> inner,
                               std::shared_ptr<EstimatorCounts> counts)
    : inner_(std::move(inner)), counts_(std::move(counts)) {}

void TimedEstimator::Update(const warper::nn::Matrix& x,
                            const std::vector<double>& y) {
  WARPER_SPAN("ce.update");
  counts_->update_rows.fetch_add(x.rows(), std::memory_order_relaxed);
  inner_->Update(x, y);
}

std::vector<double> TimedEstimator::EstimateTargets(
    const warper::nn::Matrix& x) const {
  WARPER_SPAN("ce.estimate");
  counts_->estimate_rows.fetch_add(x.rows(), std::memory_order_relaxed);
  return inner_->EstimateTargets(x);
}

std::unique_ptr<CardinalityEstimator> TimedEstimator::Clone() const {
  WARPER_SPAN("ce.clone");
  std::unique_ptr<CardinalityEstimator> copy = inner_->Clone();
  if (copy == nullptr) return nullptr;
  return std::make_unique<TimedEstimator>(std::move(copy), counts_);
}

warper::Status TimedEstimator::RestoreFrom(const CardinalityEstimator& other) {
  const auto* timed = dynamic_cast<const TimedEstimator*>(&other);
  return inner_->RestoreFrom(timed != nullptr ? *timed->inner_ : other);
}

int64_t TimedDomain::Annotate(const std::vector<double>& features) const {
  int64_t count = 0;
  {
    WARPER_SPAN("storage.annotate_one");
    counts_.predicates.fetch_add(1, std::memory_order_relaxed);
    count = inner_->Annotate(features);
  }
  Keep({features}, {count});
  return count;
}

std::vector<int64_t> TimedDomain::AnnotateBatchSerial(
    const std::vector<std::vector<double>>& features) const {
  WARPER_SPAN("storage.annotate_serial");
  counts_.predicates.fetch_add(features.size(), std::memory_order_relaxed);
  std::vector<int64_t> counts = inner_->AnnotateBatchSerial(features);
  Keep(features, counts);
  return counts;
}

std::vector<int64_t> TimedDomain::AnnotateBatchParallel(
    const std::vector<std::vector<double>>& features,
    const warper::util::ParallelConfig& config) const {
  WARPER_SPAN("storage.annotate_parallel");
  counts_.predicates.fetch_add(features.size(), std::memory_order_relaxed);
  std::vector<int64_t> counts = inner_->AnnotateBatchParallel(features, config);
  Keep(features, counts);
  return counts;
}

void TimedDomain::Keep(const std::vector<std::vector<double>>& features,
                       const std::vector<int64_t>& counts) const {
  if (!audit_enabled_ || features.empty()) return;
  warper::util::MutexLock lock(&audit_mu_);
  audit_.emplace_back(features.front(), counts.front());
  if (features.size() > 1) audit_.emplace_back(features.back(), counts.back());
}

std::vector<std::pair<std::vector<double>, int64_t>> TimedDomain::TakeAudit() {
  warper::util::MutexLock lock(&audit_mu_);
  std::vector<std::pair<std::vector<double>, int64_t>> out;
  out.swap(audit_);
  return out;
}

}  // namespace perfbench
