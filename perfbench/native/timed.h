// Benchmark-side timing decorators for the two black boxes Warper talks to:
// the CE model M (ce::CardinalityEstimator) and the annotation substrate
// (ce::QueryDomain). Each forwarded call opens a util trace span named after
// the layer it enters and bumps a shared counter, so a traced run attributes
// time to `ce` and `storage` without any span inside src/.
#ifndef PERFBENCH_NATIVE_TIMED_H_
#define PERFBENCH_NATIVE_TIMED_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ce/estimator.h"
#include "ce/query_domain.h"
#include "util/mutex.h"

namespace perfbench {

// Work counts of one decorated model and every clone made from it. Clones
// share the block, so estimates served from published snapshots keep
// counting after a hot swap.
struct EstimatorCounts {
  std::atomic<uint64_t> update_rows{0};
  std::atomic<uint64_t> estimate_rows{0};
};

class TimedEstimator final : public warper::ce::CardinalityEstimator {
 public:
  TimedEstimator(std::unique_ptr<warper::ce::CardinalityEstimator> inner,
                 std::shared_ptr<EstimatorCounts> counts);

  std::string Name() const override { return inner_->Name(); }
  warper::ce::UpdateMode update_mode() const override {
    return inner_->update_mode();
  }
  void Train(const warper::nn::Matrix& x,
             const std::vector<double>& y) override {
    inner_->Train(x, y);
  }
  void Update(const warper::nn::Matrix& x,
              const std::vector<double>& y) override;
  std::vector<double> EstimateTargets(
      const warper::nn::Matrix& x) const override;
  bool trained() const override { return inner_->trained(); }
  // The clone is decorated too, sharing this model's counts.
  std::unique_ptr<warper::ce::CardinalityEstimator> Clone() const override;
  // Unwraps a decorated `other` so the inner model sees its own type.
  warper::Status RestoreFrom(
      const warper::ce::CardinalityEstimator& other) override;

 private:
  std::unique_ptr<warper::ce::CardinalityEstimator> inner_;
  std::shared_ptr<EstimatorCounts> counts_;
};

struct DomainCounts {
  std::atomic<uint64_t> predicates{0};
};

// Forwards everything to `inner` (which must outlive it). Installs no
// annotation strategy of its own, so AnnotateBatch keeps the library's
// serial default and lands in AnnotateBatchSerial below.
class TimedDomain final : public warper::ce::QueryDomain {
 public:
  explicit TimedDomain(const warper::ce::QueryDomain* inner) : inner_(inner) {}

  std::string Name() const override { return inner_->Name(); }
  size_t FeatureDim() const override { return inner_->FeatureDim(); }
  size_t LeadingCategoricalFeatures() const override {
    return inner_->LeadingCategoricalFeatures();
  }
  std::vector<double> CanonicalizeFeatures(
      const std::vector<double>& features) const override {
    return inner_->CanonicalizeFeatures(features);
  }
  int64_t Annotate(const std::vector<double>& features) const override;
  std::vector<int64_t> AnnotateBatchSerial(
      const std::vector<std::vector<double>>& features) const override;
  std::vector<int64_t> AnnotateBatchParallel(
      const std::vector<std::vector<double>>& features,
      const warper::util::ParallelConfig& config) const override;
  int64_t MaxCardinality() const override { return inner_->MaxCardinality(); }

  const DomainCounts& counts() const { return counts_; }

  // While enabled, every annotation call keeps (features, count) pairs —
  // the first and last of each batch — for the walk to re-check against a
  // brute-force row loop. TakeAudit returns and clears them.
  void EnableAudit(bool enabled) { audit_enabled_ = enabled; }
  std::vector<std::pair<std::vector<double>, int64_t>> TakeAudit();

 private:
  void Keep(const std::vector<std::vector<double>>& features,
            const std::vector<int64_t>& counts) const;

  const warper::ce::QueryDomain* inner_;
  mutable DomainCounts counts_;
  bool audit_enabled_ = false;
  mutable warper::util::Mutex audit_mu_;
  mutable std::vector<std::pair<std::vector<double>, int64_t>> audit_
      WARPER_GUARDED_BY(audit_mu_);
};

}  // namespace perfbench

#endif  // PERFBENCH_NATIVE_TIMED_H_
