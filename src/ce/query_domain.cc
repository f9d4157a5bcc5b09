#include "ce/query_domain.h"

#include <algorithm>
#include <cmath>

#include "util/status.h"

namespace warper::ce {

// --- QueryDomain ---

std::vector<int64_t> QueryDomain::AnnotateBatchParallel(
    const std::vector<std::vector<double>>& features,
    const util::ParallelConfig& /*config*/) const {
  return AnnotateBatchSerial(features);
}

// --- SingleTableDomain ---

SingleTableDomain::SingleTableDomain(const storage::Annotator* annotator)
    : annotator_(annotator) {
  WARPER_CHECK(annotator != nullptr);
}

std::string SingleTableDomain::Name() const {
  return "single_table:" + table().name();
}

size_t SingleTableDomain::FeatureDim() const {
  return 2 * table().NumColumns();
}

std::vector<double> SingleTableDomain::FeaturizePredicate(
    const storage::RangePredicate& pred) const {
  return pred.Featurize(table());
}

storage::RangePredicate SingleTableDomain::DecodePredicate(
    const std::vector<double>& features) const {
  return storage::RangePredicate::FromFeatures(table(), features);
}

std::vector<double> SingleTableDomain::CanonicalizeFeatures(
    const std::vector<double>& features) const {
  return FeaturizePredicate(DecodePredicate(features));
}

int64_t SingleTableDomain::Annotate(const std::vector<double>& features) const {
  return annotator_->Count(DecodePredicate(features));
}

std::vector<int64_t> SingleTableDomain::AnnotateBatchSerial(
    const std::vector<std::vector<double>>& features) const {
  std::vector<storage::RangePredicate> preds;
  preds.reserve(features.size());
  for (const auto& f : features) preds.push_back(DecodePredicate(f));
  return annotator_->BatchCount(preds);
}

int64_t SingleTableDomain::MaxCardinality() const {
  return static_cast<int64_t>(table().NumRows());
}

// --- StarJoinDomain ---

StarJoinDomain::StarJoinDomain(const storage::JoinAnnotator* annotator)
    : annotator_(annotator) {
  WARPER_CHECK(annotator != nullptr);
  WARPER_CHECK(annotator->schema().facts.size() <= 31);
}

std::string StarJoinDomain::Name() const {
  return "star_join:" + annotator_->schema().center->name();
}

size_t StarJoinDomain::FeatureDim() const {
  const storage::StarSchema& s = annotator_->schema();
  size_t dim = s.facts.size() + 2 * s.center->NumColumns();
  for (const auto& fact : s.facts) dim += 2 * fact.table->NumColumns();
  return dim;
}

std::vector<double> StarJoinDomain::FeaturizeQuery(
    const storage::JoinQuery& query) const {
  const storage::StarSchema& s = annotator_->schema();
  WARPER_CHECK(query.fact_preds.size() == s.facts.size());
  std::vector<double> out;
  out.reserve(FeatureDim());
  for (size_t f = 0; f < s.facts.size(); ++f) {
    out.push_back(((query.join_mask >> f) & 1) ? 1.0 : 0.0);
  }
  std::vector<double> center = query.center_pred.Featurize(*s.center);
  out.insert(out.end(), center.begin(), center.end());
  for (size_t f = 0; f < s.facts.size(); ++f) {
    std::vector<double> fact = query.fact_preds[f].Featurize(*s.facts[f].table);
    out.insert(out.end(), fact.begin(), fact.end());
  }
  WARPER_CHECK(out.size() == FeatureDim());
  return out;
}

storage::JoinQuery StarJoinDomain::DecodeQuery(
    const std::vector<double>& features) const {
  const storage::StarSchema& s = annotator_->schema();
  WARPER_CHECK(features.size() == FeatureDim());
  storage::JoinQuery q;
  size_t pos = 0;
  // Snap the join bits; force at least one join so the query stays a join
  // query (generated vectors can land below the 0.5 threshold everywhere).
  uint32_t mask = 0;
  double best_bit = -1.0;
  size_t best_f = 0;
  for (size_t f = 0; f < s.facts.size(); ++f) {
    double bit = features[pos++];
    if (bit >= 0.5) mask |= 1u << f;
    if (bit > best_bit) {
      best_bit = bit;
      best_f = f;
    }
  }
  if (mask == 0) mask = 1u << best_f;
  q.join_mask = mask;

  auto take = [&](const storage::Table& table) {
    size_t d = table.NumColumns();
    std::vector<double> slice(features.begin() + static_cast<long>(pos),
                              features.begin() + static_cast<long>(pos + 2 * d));
    pos += 2 * d;
    return storage::RangePredicate::FromFeatures(table, slice);
  };
  q.center_pred = take(*s.center);
  for (const auto& fact : s.facts) q.fact_preds.push_back(take(*fact.table));
  return q;
}

std::vector<double> StarJoinDomain::CanonicalizeFeatures(
    const std::vector<double>& features) const {
  return FeaturizeQuery(DecodeQuery(features));
}

int64_t StarJoinDomain::Annotate(const std::vector<double>& features) const {
  return annotator_->Count(DecodeQuery(features));
}

std::vector<int64_t> StarJoinDomain::AnnotateBatchSerial(
    const std::vector<std::vector<double>>& features) const {
  std::vector<storage::JoinQuery> queries;
  queries.reserve(features.size());
  for (const auto& f : features) queries.push_back(DecodeQuery(f));
  return annotator_->BatchCount(queries);
}

int64_t StarJoinDomain::MaxCardinality() const {
  // Loose upper bound: center rows × product of max per-key fact fan-outs is
  // expensive to maintain; the estimators only need a positive cap, so use
  // the full-join cardinality bound of center × total fact rows.
  const storage::StarSchema& s = annotator_->schema();
  int64_t bound = static_cast<int64_t>(s.center->NumRows());
  for (const auto& fact : s.facts) {
    bound = std::max<int64_t>(bound, static_cast<int64_t>(fact.table->NumRows()));
  }
  return bound * bound;
}

}  // namespace warper::ce
