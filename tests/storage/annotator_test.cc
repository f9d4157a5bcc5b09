#include "storage/annotator.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "storage/datasets.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace warper::storage {
namespace {

// Eight full zone blocks plus a 100-row tail: enough blocks that every
// thread count below really splits the pass across the pool.
constexpr size_t kPooledRows = 8 * Column::kZoneBlockRows + 100;

// 1 = the calling thread, 0 = the whole shared pool; 7 exceeds most pools.
constexpr int kThreadCounts[] = {1, 2, 3, 7, 0};

Table MakeGrid() {
  // 100 rows: a = i % 10, b = i / 10.
  Table t("grid");
  t.AddColumn("a", ColumnType::kNumeric);
  t.AddColumn("b", ColumnType::kNumeric);
  for (int i = 0; i < 100; ++i) {
    t.AppendRow({static_cast<double>(i % 10), static_cast<double>(i / 10)});
  }
  return t;
}

TEST(AnnotatorTest, FullRangeCountsAllRows) {
  Table t = MakeGrid();
  Annotator annotator(&t);
  EXPECT_EQ(annotator.Count(RangePredicate::FullRange(t)), 100);
}

TEST(AnnotatorTest, KnownSelectivity) {
  Table t = MakeGrid();
  Annotator annotator(&t);
  RangePredicate p = RangePredicate::FullRange(t);
  p.low[0] = 0.0;
  p.high[0] = 4.0;  // half of a-values
  EXPECT_EQ(annotator.Count(p), 50);
  p.low[1] = 0.0;
  p.high[1] = 1.0;  // 2 of 10 b-values
  EXPECT_EQ(annotator.Count(p), 10);
}

TEST(AnnotatorTest, EmptyRange) {
  Table t = MakeGrid();
  Annotator annotator(&t);
  RangePredicate p = RangePredicate::FullRange(t);
  p.low[0] = 3.5;
  p.high[0] = 3.9;  // between integer values
  EXPECT_EQ(annotator.Count(p), 0);
}

TEST(AnnotatorTest, BatchMatchesIndividualCounts) {
  Table t = MakePrsa(5000, /*seed=*/11);
  Annotator annotator(&t);
  util::Rng rng(13);
  std::vector<RangePredicate> preds = workload::GenerateWorkload(
      t, {workload::GenMethod::kW1, workload::GenMethod::kW3}, 40, &rng);
  std::vector<int64_t> batch = annotator.BatchCount(preds);
  ASSERT_EQ(batch.size(), preds.size());
  for (size_t i = 0; i < preds.size(); ++i) {
    EXPECT_EQ(batch[i], annotator.Count(preds[i])) << "predicate " << i;
  }
}

TEST(AnnotatorTest, CountsAnnotations) {
  Table t = MakeGrid();
  Annotator annotator(&t);
  util::Counter* predicates =
      util::Metrics().GetCounter("annotator.predicates");
  uint64_t before = predicates->Value();
  annotator.Count(RangePredicate::FullRange(t));
  annotator.BatchCount({RangePredicate::FullRange(t),
                        RangePredicate::FullRange(t)});
  EXPECT_EQ(predicates->Value() - before, 3u);
}

// The annotator on the shared pool (threads != 1) against the calling-thread
// pass.
TEST(ParallelAnnotatorTest, MatchesSerialAnnotatorExactly) {
  Table t = MakePrsa(20000, 3);
  Annotator serial(&t);
  Annotator parallel(&t, 4);
  util::Rng rng(3);
  std::vector<RangePredicate> preds = workload::GenerateWorkload(
      t, {workload::GenMethod::kW1, workload::GenMethod::kW3,
          workload::GenMethod::kW5},
      50, &rng);
  EXPECT_EQ(parallel.BatchCount(preds), serial.BatchCount(preds));
}

TEST(ParallelAnnotatorTest, SingleThreadFallback) {
  Table t = MakeHiggs(3000, 5);
  Annotator serial(&t);
  Annotator parallel(&t, 1);
  util::Rng rng(5);
  std::vector<RangePredicate> preds =
      workload::GenerateWorkload(t, {workload::GenMethod::kW2}, 20, &rng);
  EXPECT_EQ(parallel.BatchCount(preds), serial.BatchCount(preds));
}

TEST(ParallelAnnotatorTest, TinyTableUsesOneWorker) {
  // Fewer rows than one zone block: a single chunk whatever the budget.
  Table t = MakePoker(500, 7);
  Annotator serial(&t);
  Annotator parallel(&t, 8);
  util::Rng rng(7);
  std::vector<RangePredicate> preds =
      workload::GenerateWorkload(t, {workload::GenMethod::kW1}, 10, &rng);
  EXPECT_EQ(parallel.BatchCount(preds), serial.BatchCount(preds));
}

TEST(ParallelAnnotatorTest, EmptyBatch) {
  Table t = MakePoker(100, 11);
  Annotator parallel(&t, 2);
  EXPECT_TRUE(parallel.BatchCount({}).empty());
}

// Property: the batch scan agrees with a naive per-row evaluation on every
// generator method, at every thread count. Inputs: a multi-block table with
// a partial last block, a table smaller than one zone block, and the empty
// batch.
class AnnotatorMethodSweep
    : public ::testing::TestWithParam<workload::GenMethod> {};

TEST_P(AnnotatorMethodSweep, MatchesBruteForce) {
  const Table tables[] = {MakeHiggs(kPooledRows, /*seed=*/23),
                          MakePoker(500, /*seed=*/7)};
  for (const Table& t : tables) {
    util::Rng rng(29);
    std::vector<RangePredicate> preds =
        workload::GenerateWorkload(t, {GetParam()}, 10, &rng);
    std::vector<int64_t> brute(preds.size(), 0);
    for (size_t p = 0; p < preds.size(); ++p) {
      for (size_t r = 0; r < t.NumRows(); ++r) {
        brute[p] += preds[p].Matches(t, r) ? 1 : 0;
      }
    }
    for (int threads : kThreadCounts) {
      SCOPED_TRACE(t.name() + " at threads=" + std::to_string(threads));
      Annotator annotator(&t, threads);
      EXPECT_EQ(annotator.BatchCount(preds), brute);
      EXPECT_TRUE(annotator.BatchCount({}).empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Methods, AnnotatorMethodSweep,
    ::testing::Values(workload::GenMethod::kW1, workload::GenMethod::kW2,
                      workload::GenMethod::kW3, workload::GenMethod::kW4,
                      workload::GenMethod::kW5));

std::vector<uint64_t> CounterValues(const std::vector<std::string>& names) {
  std::vector<uint64_t> values;
  for (const std::string& name : names) {
    values.push_back(util::Metrics().GetCounter(name)->Value());
  }
  return values;
}

// One BatchCount plus the delta it made to each named counter.
std::pair<std::vector<int64_t>, std::vector<uint64_t>> CountWithDeltas(
    const Annotator& annotator, const std::vector<RangePredicate>& preds,
    const std::vector<std::string>& names) {
  std::vector<uint64_t> before = CounterValues(names);
  std::vector<int64_t> counts = annotator.BatchCount(preds);
  std::vector<uint64_t> deltas = CounterValues(names);
  for (size_t i = 0; i < deltas.size(); ++i) deltas[i] -= before[i];
  return {counts, deltas};
}

// Counts and every annotator.* counter delta are the same at any thread
// count as on the calling thread, and the calling-thread pass never enters
// the pool. The table is sized so that splitting its rows at
// ceil(rows / chunks) (16434 on a 4-way pool) would cut a zone block in
// two, and both halves would be judged, inflating blocks_pruned.
class ThreadSweep : public ::testing::TestWithParam<int> {};

TEST_P(ThreadSweep, CountsInvariantUnderThreadCount) {
  Table t = MakeHiggs(kPooledRows, 13);
  util::Rng rng(13);
  std::vector<RangePredicate> preds = workload::GenerateWorkload(
      t, {workload::GenMethod::kW2, workload::GenMethod::kW4}, 64, &rng);
  const std::vector<std::string> names = {
      "annotator.calls", "annotator.predicates", "annotator.rows_scanned",
      "annotator.blocks_pruned", "annotator.blocks_shortcircuited",
      "pool.parallel_for.calls"};
  auto [serial_counts, serial_deltas] =
      CountWithDeltas(Annotator(&t), preds, names);
  EXPECT_EQ(serial_deltas.back(), 0u) << "threads=1 must not enter the pool";
  auto [counts, deltas] =
      CountWithDeltas(Annotator(&t, GetParam()), preds, names);
  EXPECT_EQ(counts, serial_counts);
  serial_deltas.pop_back();
  deltas.pop_back();
  EXPECT_EQ(deltas, serial_deltas);
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadSweep,
                         ::testing::ValuesIn(kThreadCounts));

}  // namespace
}  // namespace warper::storage
