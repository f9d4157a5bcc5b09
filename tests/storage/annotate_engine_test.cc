// Parity suite for the fused annotation engine: SIMD + zone maps + fused
// per-block evaluation must produce counts EXACTLY equal to the seed scalar
// row-at-a-time scan — integer-exact, no tolerance — across adversarial
// predicates and drift-mutated tables, on every kernel path.
#include "storage/annotate_engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "storage/annotate_kernels.h"
#include "storage/annotator.h"
#include "storage/data_drift.h"
#include "storage/datasets.h"
#include "storage/predicate.h"
#include "storage/table.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace warper::storage {
namespace {

// The seed implementation, verbatim: per-row all-predicates over only the
// constrained columns, with the early-exit inner loop. This is the ground
// truth every engine path must reproduce bit for bit.
std::vector<int64_t> SeedBatchCount(const Table& table,
                                    const std::vector<RangePredicate>& preds) {
  struct Compiled {
    std::vector<size_t> cols;
    std::vector<double> low, high;
  };
  std::vector<Compiled> compiled;
  for (const RangePredicate& pred : preds) {
    Compiled cp;
    for (size_t c = 0; c < pred.NumColumns(); ++c) {
      if (pred.Constrains(table, c)) {
        cp.cols.push_back(c);
        cp.low.push_back(pred.low[c]);
        cp.high.push_back(pred.high[c]);
      }
    }
    compiled.push_back(std::move(cp));
  }
  std::vector<int64_t> counts(preds.size(), 0);
  for (size_t r = 0; r < table.NumRows(); ++r) {
    for (size_t p = 0; p < compiled.size(); ++p) {
      const Compiled& cp = compiled[p];
      bool match = true;
      for (size_t i = 0; i < cp.cols.size(); ++i) {
        double v = table.column(cp.cols[i]).Value(r);
        if (v < cp.low[i] || v > cp.high[i]) {
          match = false;
          break;
        }
      }
      counts[p] += match ? 1 : 0;
    }
  }
  return counts;
}

// Runs one compiled batch through a specific kernel table.
std::vector<int64_t> EngineCount(const Table& table,
                                 const std::vector<RangePredicate>& preds,
                                 const internal::AnnotateKernelTable& kernels,
                                 internal::AnnotateStats* stats = nullptr) {
  internal::CompiledBatch batch(table, preds);
  std::vector<int64_t> counts(preds.size(), 0);
  internal::FusedCount(batch, kernels, 0, table.NumRows(), counts.data(),
                       stats);
  return counts;
}

// Every kernel path the binary ships (the AVX2 table aliases scalar when
// not compiled, so listing it is always safe; on AVX2 hardware it is the
// real SIMD path).
std::vector<const internal::AnnotateKernelTable*> AllKernelTables() {
  return {&internal::ScalarAnnotateKernels(), &internal::Avx2AnnotateKernels()};
}

void ExpectParity(const Table& table,
                  const std::vector<RangePredicate>& preds,
                  const char* what) {
  std::vector<int64_t> want = SeedBatchCount(table, preds);
  for (const internal::AnnotateKernelTable* kernels : AllKernelTables()) {
    EXPECT_EQ(EngineCount(table, preds, *kernels), want)
        << what << " via " << kernels->name;
  }
  // The public entry point (active kernels) on the calling thread, at most
  // 4-way and on the whole shared pool.
  for (int threads : {1, 4, 0}) {
    EXPECT_EQ(Annotator(&table, threads).BatchCount(preds), want)
        << what << " via Annotator(threads=" << threads << ")";
  }
}

// Adversarial predicate set for `table`: equality bounds (low == high),
// domain-edge bounds, fully unconstrained, empty ranges between values, and
// a random workload mix.
std::vector<RangePredicate> AdversarialPreds(const Table& table,
                                             util::Rng* rng) {
  std::vector<RangePredicate> preds;
  preds.push_back(RangePredicate::FullRange(table));  // unconstrained
  for (size_t c = 0; c < table.NumColumns(); ++c) {
    double lo = table.column(c).Min();
    double hi = table.column(c).Max();
    // Equality at a value drawn from the table.
    RangePredicate eq = RangePredicate::FullRange(table);
    double v = table.column(c).Value(
        rng->UniformInt(0, static_cast<int>(table.NumRows()) - 1));
    eq.low[c] = eq.high[c] = v;
    preds.push_back(eq);
    // Domain-edge slivers: [min, min] and [max, max].
    RangePredicate lo_edge = RangePredicate::FullRange(table);
    lo_edge.low[c] = lo_edge.high[c] = lo;
    preds.push_back(lo_edge);
    RangePredicate hi_edge = RangePredicate::FullRange(table);
    hi_edge.low[c] = hi_edge.high[c] = hi;
    preds.push_back(hi_edge);
    // An empty range strictly inside the domain.
    RangePredicate empty = RangePredicate::FullRange(table);
    empty.low[c] = lo + 0.37 * (hi - lo);
    empty.high[c] = empty.low[c] - 1e-9 * (hi - lo + 1.0);
    preds.push_back(empty);
  }
  std::vector<RangePredicate> mix = workload::GenerateWorkload(
      table, {workload::GenMethod::kW1, workload::GenMethod::kW3,
              workload::GenMethod::kW5},
      40, rng);
  preds.insert(preds.end(), mix.begin(), mix.end());
  return preds;
}

TEST(AnnotateEngineTest, ParityOnHiggs) {
  // 10'000 rows: two full zone blocks plus a partial tail block.
  Table t = MakeHiggs(10000, 101);
  util::Rng rng(101);
  ExpectParity(t, AdversarialPreds(t, &rng), "higgs");
}

TEST(AnnotateEngineTest, ParityOnCategoricalPoker) {
  Table t = MakePoker(6000, 103);
  util::Rng rng(103);
  ExpectParity(t, AdversarialPreds(t, &rng), "poker");
}

TEST(AnnotateEngineTest, ParityAfterDataDrift) {
  Table t = MakePrsa(9000, 107);
  util::Rng rng(107);
  // Drifted appends dirty only the tail blocks; counts must stay exact.
  AppendShiftedRows(&t, 0.35, 0.25, &rng);
  ExpectParity(t, AdversarialPreds(t, &rng), "prsa+append");
  // In-place updates widen + stale the touched blocks.
  UpdateRandomRows(&t, 0.10, &rng);
  ExpectParity(t, AdversarialPreds(t, &rng), "prsa+update");
  // The paper's c1 drift: sort (SetValue on every row) + truncate to half,
  // leaving a partial tail block and stale entries everywhere.
  SortTruncateHalf(&t, 1);
  ExpectParity(t, AdversarialPreds(t, &rng), "prsa+sort_truncate");
}

TEST(AnnotateEngineTest, ParityOnSubBlockTable) {
  // Smaller than one zone block and not a multiple of 64 (ragged mask tail).
  Table t = MakeHiggs(777, 109);
  util::Rng rng(109);
  ExpectParity(t, AdversarialPreds(t, &rng), "sub-block");
}

TEST(AnnotateEngineTest, NanRowsMatchEveryRange) {
  // NaN satisfies !(v < lo) && !(v > hi), so the seed scan counts it; the
  // zone map must therefore never prune a NaN block.
  Table t("nan");
  t.AddColumn("a", ColumnType::kNumeric);
  t.AddColumn("b", ColumnType::kNumeric);
  util::Rng rng(113);
  for (int i = 0; i < 5000; ++i) {
    double a = rng.Uniform() * 100.0;
    double b = (i % 97 == 0) ? std::numeric_limits<double>::quiet_NaN()
                             : rng.Uniform() * 10.0;
    t.AppendRow({a, b});
  }
  std::vector<RangePredicate> preds;
  RangePredicate p = RangePredicate::FullRange(t);
  p.low[0] = 10.0;
  p.high[0] = 20.0;
  p.low[1] = 2.0;
  p.high[1] = 3.0;
  preds.push_back(p);
  ExpectParity(t, preds, "nan");
}

TEST(AnnotateEngineTest, ZoneMapPrunesClusteredColumn) {
  // Sorted (clustered) column: a narrow range predicate rejects almost
  // every block outright and fully covers the interior of its own range.
  Table t = MakeHiggs(50000, 127);
  t.SortByColumn(0);
  RangePredicate p = RangePredicate::FullRange(t);
  double lo = t.column(0).Min(), hi = t.column(0).Max();
  p.low[0] = lo + 0.40 * (hi - lo);
  p.high[0] = lo + 0.42 * (hi - lo);
  internal::AnnotateStats stats;
  std::vector<int64_t> got =
      EngineCount(t, {p}, internal::ScalarAnnotateKernels(), &stats);
  EXPECT_EQ(got, SeedBatchCount(t, {p}));
  size_t blocks = (t.NumRows() + Column::kZoneBlockRows - 1) /
                  Column::kZoneBlockRows;
  EXPECT_GT(stats.blocks_pruned, 0);
  EXPECT_LT(static_cast<size_t>(stats.rows_scanned),
            t.NumRows());  // most blocks skipped
  EXPECT_LE(stats.blocks_pruned + stats.blocks_shortcircuited,
            static_cast<int64_t>(blocks));
}

TEST(AnnotateEngineTest, FullRangeShortCircuitsWithoutTouchingRows) {
  Table t = MakeHiggs(20000, 131);
  // Constrained on one column but spanning (almost) the whole domain except
  // a hair at the top: interior blocks short-circuit.
  t.SortByColumn(2);
  RangePredicate p = RangePredicate::FullRange(t);
  double lo = t.column(2).Min(), hi = t.column(2).Max();
  p.high[2] = lo + 0.99 * (hi - lo);
  internal::AnnotateStats stats;
  std::vector<int64_t> got =
      EngineCount(t, {p}, internal::ScalarAnnotateKernels(), &stats);
  EXPECT_EQ(got, SeedBatchCount(t, {p}));
  EXPECT_GT(stats.blocks_shortcircuited, 0);
}

TEST(AnnotateEngineTest, CountIsABatchOfOne) {
  // Single-predicate and batched annotation share one code path; spot-check
  // the delegation end to end.
  Table t = MakePrsa(4000, 137);
  util::Rng rng(137);
  Annotator annotator(&t);
  std::vector<RangePredicate> preds = AdversarialPreds(t, &rng);
  std::vector<int64_t> batch = annotator.BatchCount(preds);
  for (size_t i = 0; i < preds.size(); ++i) {
    EXPECT_EQ(annotator.Count(preds[i]), batch[i]) << "predicate " << i;
  }
}

TEST(AnnotateEngineTest, PredicateMaskMatchesRowScan) {
  Table t = MakeHiggs(10000, 139);
  util::Rng rng(139);
  std::vector<RangePredicate> preds = AdversarialPreds(t, &rng);
  internal::CompiledBatch batch(t, preds);
  std::vector<uint64_t> mask((t.NumRows() + 63) / 64);
  for (const internal::AnnotateKernelTable* kernels : AllKernelTables()) {
    for (size_t p = 0; p < preds.size(); ++p) {
      internal::PredicateMask(batch, p, *kernels, mask.data(), nullptr);
      for (size_t r = 0; r < t.NumRows(); ++r) {
        bool want = true;
        for (size_t i = 0; i < batch.preds()[p].cols.size(); ++i) {
          double v = t.column(batch.preds()[p].cols[i]).Value(r);
          if (v < batch.preds()[p].low[i] || v > batch.preds()[p].high[i]) {
            want = false;
            break;
          }
        }
        bool got = (mask[r / 64] >> (r % 64)) & 1;
        ASSERT_EQ(got, want)
            << "pred " << p << " row " << r << " via " << kernels->name;
      }
      // Bits past NumRows stay zero (popcount safety).
      if (t.NumRows() % 64 != 0) {
        EXPECT_EQ(mask.back() >> (t.NumRows() % 64), 0u);
      }
    }
  }
}

TEST(AnnotateEngineTest, ColumnZoneEntriesAreTight) {
  Table t = MakePrsa(9500, 149);
  util::Rng rng(149);
  AppendShiftedRows(&t, 0.2, 0.3, &rng);
  UpdateRandomRows(&t, 0.05, &rng);
  t.Truncate(t.NumRows() - 137);
  for (size_t c = 0; c < t.NumColumns(); ++c) {
    const Column& col = t.column(c);
    col.EnsureZoneMapFresh();
    ASSERT_EQ(col.NumZoneBlocks(),
              (col.size() + Column::kZoneBlockRows - 1) /
                  Column::kZoneBlockRows);
    for (size_t b = 0; b < col.NumZoneBlocks(); ++b) {
      size_t begin = b * Column::kZoneBlockRows;
      size_t end = std::min(col.size(), begin + Column::kZoneBlockRows);
      double lo = col.Value(begin), hi = col.Value(begin);
      for (size_t r = begin; r < end; ++r) {
        lo = std::min(lo, col.Value(r));
        hi = std::max(hi, col.Value(r));
      }
      EXPECT_EQ(col.zone_entries()[b].min, lo) << "col " << c << " block " << b;
      EXPECT_EQ(col.zone_entries()[b].max, hi) << "col " << c << " block " << b;
      EXPECT_FALSE(col.zone_entries()[b].stale);
    }
  }
}

TEST(AnnotateEngineTest, ColumnStatsIncrementalOnAppend) {
  Column col("c", ColumnType::kNumeric);
  col.Append(5.0);
  EXPECT_EQ(col.Min(), 5.0);
  EXPECT_EQ(col.Max(), 5.0);
  // Appends after a Min()/Max() read must not require a rescan to stay
  // correct (running update).
  col.Append(2.0);
  col.Append(9.0);
  EXPECT_EQ(col.Min(), 2.0);
  EXPECT_EQ(col.Max(), 9.0);
  EXPECT_EQ(col.DistinctCount(), 3u);
  // SetValue invalidates; the rescan path must agree.
  col.SetValue(1, 7.0);
  EXPECT_EQ(col.Min(), 5.0);
  EXPECT_EQ(col.Max(), 9.0);
  EXPECT_EQ(col.DistinctCount(), 3u);
  col.Truncate(2);
  EXPECT_EQ(col.Min(), 5.0);
  EXPECT_EQ(col.Max(), 7.0);
  EXPECT_EQ(col.DistinctCount(), 2u);
}

// TSan target: the fused parallel pass — pool workers concurrently reading
// the compiled batch, column values and (pre-freshened) zone maps while
// merging chunk tallies — must be clean under drift-mutated zone state.
TEST(AnnotateEngineTest, ParallelFusedPassAfterDriftIsRaceFree) {
  Table t = MakeHiggs(60000, 151);
  util::Rng rng(151);
  AppendShiftedRows(&t, 0.25, 0.4, &rng);
  std::vector<RangePredicate> preds = workload::GenerateWorkload(
      t, {workload::GenMethod::kW2, workload::GenMethod::kW4}, 64, &rng);
  Annotator parallel(&t, /*threads=*/0);  // whole pool
  std::vector<int64_t> want = SeedBatchCount(t, preds);
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(parallel.BatchCount(preds), want);
  }
}

}  // namespace
}  // namespace warper::storage
