#include "storage/join_annotator.h"

#include <bit>
#include <unordered_map>

#include "storage/annotate_engine.h"
#include "storage/annotate_kernels.h"
#include "util/metrics.h"
#include "util/status.h"
#include "util/trace.h"

namespace warper::storage {
namespace {

// rows_touched counts the rows every join pass actually visits (each active
// fact table once plus the center relation), the join-domain analogue of
// annotator.rows_scanned.
struct JoinAnnotatorMetrics {
  util::Counter* calls = util::Metrics().GetCounter("join_annotator.calls");
  util::Counter* queries = util::Metrics().GetCounter("join_annotator.queries");
  util::Counter* rows_touched =
      util::Metrics().GetCounter("join_annotator.rows_touched");
};

JoinAnnotatorMetrics& GetJoinAnnotatorMetrics() {
  static JoinAnnotatorMetrics* metrics = new JoinAnnotatorMetrics();
  return *metrics;
}

// Match bitmap of `pred` over every row of `table`, via the fused engine
// (SIMD compare kernels + zone-map pruning). ForEachMatch then walks only
// the set bits, so the per-row hash work below touches exactly the
// predicate-matching rows. Bit-identical to RangePredicate::Matches.
std::vector<uint64_t> MatchBitmap(const Table& table,
                                  const RangePredicate& pred) {
  internal::CompiledBatch batch(table, {pred});
  std::vector<uint64_t> mask((table.NumRows() + 63) / 64, 0);
  if (!mask.empty()) {
    internal::PredicateMask(batch, 0, internal::ActiveAnnotateKernels(),
                            mask.data(), /*stats=*/nullptr);
  }
  return mask;
}

template <typename Fn>
void ForEachMatch(const std::vector<uint64_t>& mask, Fn&& fn) {
  for (size_t w = 0; w < mask.size(); ++w) {
    uint64_t bits = mask[w];
    while (bits != 0) {
      size_t r = w * 64 + static_cast<size_t>(std::countr_zero(bits));
      bits &= bits - 1;
      fn(r);
    }
  }
}

}  // namespace

size_t JoinQuery::NumJoins() const {
  size_t n = 0;
  for (uint32_t m = join_mask; m != 0; m >>= 1) n += m & 1;
  return n;
}

int64_t JoinAnnotator::Count(const JoinQuery& query) const {
  const StarSchema& s = *schema_;
  WARPER_CHECK(s.center != nullptr);
  WARPER_CHECK(query.fact_preds.size() == s.facts.size());

  JoinAnnotatorMetrics& metrics = GetJoinAnnotatorMetrics();
  metrics.calls->Increment();
  metrics.queries->Increment();
  uint64_t rows = s.center->NumRows();
  for (size_t f = 0; f < s.facts.size(); ++f) {
    if ((query.join_mask >> f) & 1) rows += s.facts[f].table->NumRows();
  }
  metrics.rows_touched->Increment(rows);

  // Per participating fact table: key → number of matching rows.
  std::vector<std::unordered_map<int64_t, int64_t>> fact_counts;
  std::vector<size_t> active;
  for (size_t f = 0; f < s.facts.size(); ++f) {
    if ((query.join_mask >> f) & 1) active.push_back(f);
  }
  fact_counts.resize(active.size());
  for (size_t i = 0; i < active.size(); ++i) {
    const StarSchema::Fact& fact = s.facts[active[i]];
    const double* keys = fact.table->column(fact.fk_col).values().data();
    ForEachMatch(MatchBitmap(*fact.table, query.fact_preds[active[i]]),
                 [&](size_t r) {
                   ++fact_counts[i][static_cast<int64_t>(keys[r])];
                 });
  }

  int64_t total = 0;
  const double* center_keys =
      s.center->column(s.center_pk_col).values().data();
  ForEachMatch(MatchBitmap(*s.center, query.center_pred), [&](size_t r) {
    int64_t key = static_cast<int64_t>(center_keys[r]);
    int64_t product = 1;
    for (const auto& counts : fact_counts) {
      auto it = counts.find(key);
      if (it == counts.end()) {
        product = 0;
        break;
      }
      product *= it->second;
    }
    total += product;
  });
  return total;
}

std::vector<int64_t> JoinAnnotator::BatchCount(
    const std::vector<JoinQuery>& queries) const {
  util::ScopedSpan span("join_annotator.batch_count");
  span.Arg("queries", static_cast<double>(queries.size()));
  std::vector<int64_t> counts;
  counts.reserve(queries.size());
  for (const auto& q : queries) counts.push_back(Count(q));
  return counts;
}

}  // namespace warper::storage
