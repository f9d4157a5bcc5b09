// Query domains: the bridge that lets Warper stay agnostic to the CE model
// and to the query class (§3.2).
//
// A domain fixes (1) a canonical fixed-width featurization of queries — the
// "input size m to M" of the paper's Table 3, (2) a repair/decode step that
// turns an arbitrary generated feature vector back into a valid query (used
// on GAN outputs before annotation), and (3) ground-truth annotation.
//
// Two domains cover the paper's experiments: single-table range predicates
// (LM, single-table MSCN) and star-schema join queries (join MSCN).
#ifndef WARPER_CE_QUERY_DOMAIN_H_
#define WARPER_CE_QUERY_DOMAIN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/annotator.h"
#include "storage/join_annotator.h"
#include "storage/predicate.h"
#include "util/thread_pool.h"

namespace warper::ce {

class QueryDomain {
 public:
  virtual ~QueryDomain() = default;

  virtual std::string Name() const = 0;
  // Width of the canonical feature vector.
  virtual size_t FeatureDim() const = 0;

  // Leading categorical features of the canonical layout (StarJoinDomain's
  // join bits); everything after them is {low, high} bound pairs. The
  // predicate-template fingerprinter (core::TemplateFingerprint) reads this
  // to hash structure (which bits/columns are constrained, and how) without
  // hashing constants.
  virtual size_t LeadingCategoricalFeatures() const { return 0; }

  // Repairs an arbitrary real vector into the features of a valid query
  // (clamp into domain, fix inverted bounds, snap join bits). Idempotent on
  // already-valid features.
  virtual std::vector<double> CanonicalizeFeatures(
      const std::vector<double>& features) const = 0;

  // Ground-truth cardinality of the query encoded by `features`.
  virtual int64_t Annotate(const std::vector<double>& features) const = 0;

  // Batch annotation; lands in AnnotateBatchSerial, the substrate's native
  // batch path. A single-table domain runs it on the storage::Annotator it
  // holds, so an annotator built with threads != 1 fans out here.
  std::vector<int64_t> AnnotateBatch(
      const std::vector<std::vector<double>>& features) const {
    return AnnotateBatchSerial(features);
  }
  virtual std::vector<int64_t> AnnotateBatchSerial(
      const std::vector<std::vector<double>>& features) const = 0;
  // Forwards to AnnotateBatchSerial; nothing in the library calls it. It
  // stays virtual only because the benchmark's timing decorator
  // (perfbench/native/timed.h, TimedDomain) overrides it.
  virtual std::vector<int64_t> AnnotateBatchParallel(
      const std::vector<std::vector<double>>& features,
      const util::ParallelConfig& config) const;

  // Total rows in the (center) relation — the upper bound on cardinality.
  virtual int64_t MaxCardinality() const = 0;
};

// Range predicates over one table. Features are the LM featurization
// {low_1..low_d, high_1..high_d}, normalized to [0, 1] per column.
class SingleTableDomain : public QueryDomain {
 public:
  // `annotator` must outlive this object.
  explicit SingleTableDomain(const storage::Annotator* annotator);

  std::string Name() const override;
  size_t FeatureDim() const override;
  std::vector<double> CanonicalizeFeatures(
      const std::vector<double>& features) const override;
  int64_t Annotate(const std::vector<double>& features) const override;
  std::vector<int64_t> AnnotateBatchSerial(
      const std::vector<std::vector<double>>& features) const override;
  int64_t MaxCardinality() const override;

  const storage::Table& table() const { return annotator_->table(); }

  std::vector<double> FeaturizePredicate(
      const storage::RangePredicate& pred) const;
  storage::RangePredicate DecodePredicate(
      const std::vector<double>& features) const;

 private:
  const storage::Annotator* annotator_;
};

// Star-schema join queries. Features are
//   [join_bit_0 .. join_bit_{F-1},
//    center low/high (2·d_c), fact_0 low/high (2·d_0), ..., fact_{F-1} ...].
class StarJoinDomain : public QueryDomain {
 public:
  // `annotator` must outlive this object.
  explicit StarJoinDomain(const storage::JoinAnnotator* annotator);

  std::string Name() const override;
  size_t FeatureDim() const override;
  size_t LeadingCategoricalFeatures() const override { return num_facts(); }
  std::vector<double> CanonicalizeFeatures(
      const std::vector<double>& features) const override;
  int64_t Annotate(const std::vector<double>& features) const override;
  std::vector<int64_t> AnnotateBatchSerial(
      const std::vector<std::vector<double>>& features) const override;
  int64_t MaxCardinality() const override;

  std::vector<double> FeaturizeQuery(const storage::JoinQuery& query) const;
  storage::JoinQuery DecodeQuery(const std::vector<double>& features) const;

  size_t num_facts() const { return annotator_->schema().facts.size(); }

 private:
  const storage::JoinAnnotator* annotator_;
};

}  // namespace warper::ce

#endif  // WARPER_CE_QUERY_DOMAIN_H_
