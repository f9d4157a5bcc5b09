#include "storage/data_drift.h"

#include <algorithm>
#include <cmath>

#include "util/status.h"

namespace warper::storage {

void AppendShiftedRows(Table* table, double fraction, double shift,
                       util::Rng* rng) {
  WARPER_CHECK(fraction >= 0.0);
  size_t n = table->NumRows();
  WARPER_CHECK(n > 0);
  size_t to_add = static_cast<size_t>(fraction * static_cast<double>(n));

  // Capture domain spans before mutating.
  std::vector<double> spans(table->NumColumns());
  for (size_t c = 0; c < table->NumColumns(); ++c) {
    spans[c] = table->column(c).Max() - table->column(c).Min();
  }

  for (size_t i = 0; i < to_add; ++i) {
    size_t src = static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(n) - 1));
    std::vector<double> row(table->NumColumns());
    for (size_t c = 0; c < table->NumColumns(); ++c) {
      double v = table->column(c).Value(src);
      if (table->column(c).type() == ColumnType::kNumeric) {
        v += shift * spans[c];
      }
      row[c] = v;
    }
    table->AppendRow(row);
  }
}

void UpdateRandomRows(Table* table, double fraction, util::Rng* rng) {
  WARPER_CHECK(fraction >= 0.0 && fraction <= 1.0);
  size_t n = table->NumRows();
  WARPER_CHECK(n > 0);
  size_t to_update = static_cast<size_t>(fraction * static_cast<double>(n));

  std::vector<double> mins(table->NumColumns()), maxs(table->NumColumns());
  for (size_t c = 0; c < table->NumColumns(); ++c) {
    mins[c] = table->column(c).Min();
    maxs[c] = table->column(c).Max();
  }

  std::vector<size_t> rows = rng->SampleWithoutReplacement(n, to_update);
  for (size_t r : rows) {
    for (size_t c = 0; c < table->NumColumns(); ++c) {
      if (table->column(c).type() != ColumnType::kNumeric) continue;
      table->UpdateCell(r, c, rng->Uniform(mins[c], maxs[c]));
    }
  }
}

void SortTruncateHalf(Table* table, size_t col) {
  WARPER_CHECK(col < table->NumColumns());
  table->SortByColumn(col);
  table->Truncate(table->NumRows() / 2);
}

std::vector<RangePredicate> MakeCanaryPredicates(const Table& table, size_t n,
                                                 util::Rng* rng) {
  std::vector<RangePredicate> canaries;
  canaries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    RangePredicate p = RangePredicate::FullRange(table);
    // Constrain 1–2 random columns to random sub-ranges.
    int64_t num_cols = rng->UniformInt(1, 2);
    for (int64_t k = 0; k < num_cols; ++k) {
      size_t c = static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(table.NumColumns()) - 1));
      double lo = rng->Uniform(p.low[c], p.high[c]);
      double hi = rng->Uniform(lo, p.high[c]);
      p.low[c] = lo;
      p.high[c] = hi;
    }
    canaries.push_back(std::move(p));
  }
  return canaries;
}

double CanaryShift(const Annotator& annotator,
                   const std::vector<RangePredicate>& canaries,
                   const std::vector<int64_t>& baseline) {
  WARPER_CHECK(canaries.size() == baseline.size());
  if (canaries.empty()) return 0.0;
  std::vector<int64_t> current = annotator.BatchCount(canaries);
  double total = 0.0;
  for (size_t i = 0; i < current.size(); ++i) {
    double before = static_cast<double>(baseline[i]);
    double after = static_cast<double>(current[i]);
    double denom = std::max(1.0, std::max(before, after));
    total += std::abs(after - before) / denom;
  }
  return total / static_cast<double>(current.size());
}

}  // namespace warper::storage
