#include "drift/schedule.h"

#include <gtest/gtest.h>

#include "storage/data_drift.h"
#include "storage/datasets.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace warper::drift {
namespace {

using storage::Table;

workload::WorkloadSpec PaperWorkload() {
  return workload::WorkloadSpec::Parse("w12/345").ValueOrDie();
}

void ExpectTablesIdentical(const Table& a, const Table& b) {
  ASSERT_EQ(a.NumRows(), b.NumRows());
  ASSERT_EQ(a.NumColumns(), b.NumColumns());
  for (size_t c = 0; c < a.NumColumns(); ++c) {
    for (size_t r = 0; r < a.NumRows(); ++r) {
      ASSERT_EQ(a.column(c).Value(r), b.column(c).Value(r))
          << "cell (" << r << ", " << c << ")";
    }
  }
}

TEST(DriftScheduleTest, SettlingFamiliesRampThenHold) {
  DriftSchedule schedule(DriftSpec::Parse("workload@0.8/4").ValueOrDie(),
                         PaperWorkload(), 6);
  EXPECT_DOUBLE_EQ(schedule.WorkloadWeightAt(0), 0.2);
  EXPECT_DOUBLE_EQ(schedule.WorkloadWeightAt(1), 0.4);
  EXPECT_DOUBLE_EQ(schedule.WorkloadWeightAt(3), 0.8);
  EXPECT_DOUBLE_EQ(schedule.WorkloadWeightAt(5), 0.8);  // holds at intensity
}

TEST(DriftScheduleTest, PresetsFlipOvernight) {
  // c2/c3: full drift from the first step — the paper's all-or-nothing flip.
  DriftSchedule schedule(DriftSpec::C2(), PaperWorkload(), 5);
  for (size_t s = 0; s < 5; ++s) {
    EXPECT_DOUBLE_EQ(schedule.WorkloadWeightAt(s), 1.0);
    EXPECT_EQ(schedule.ArrivalMixAt(s).methods, PaperWorkload().drifted);
  }
  // c1: workload untouched.
  DriftSchedule c1(DriftSpec::C1(), PaperWorkload(), 5);
  for (size_t s = 0; s < 5; ++s) {
    EXPECT_DOUBLE_EQ(c1.WorkloadWeightAt(s), 0.0);
    EXPECT_EQ(c1.ArrivalMixAt(s).methods, PaperWorkload().train);
  }
}

TEST(DriftScheduleTest, OscillationFlipsEveryCadence) {
  DriftSchedule schedule(DriftSpec::Parse("osc@0.6/2").ValueOrDie(),
                         PaperWorkload(), 8);
  // Drifted phase first, half-period 2.
  EXPECT_DOUBLE_EQ(schedule.WorkloadWeightAt(0), 0.6);
  EXPECT_DOUBLE_EQ(schedule.WorkloadWeightAt(1), 0.6);
  EXPECT_DOUBLE_EQ(schedule.WorkloadWeightAt(2), 0.0);
  EXPECT_DOUBLE_EQ(schedule.WorkloadWeightAt(3), 0.0);
  EXPECT_DOUBLE_EQ(schedule.WorkloadWeightAt(4), 0.6);
  EXPECT_FALSE(schedule.HasMidRunDataEvents());
}

TEST(DriftScheduleTest, DataEventsLandInFirstCadenceSteps) {
  DriftSchedule schedule(DriftSpec::Parse("data@1.0/3").ValueOrDie(),
                         PaperWorkload(), 6);
  EXPECT_TRUE(schedule.HasDataEventAt(0));
  EXPECT_TRUE(schedule.HasDataEventAt(1));
  EXPECT_TRUE(schedule.HasDataEventAt(2));
  EXPECT_FALSE(schedule.HasDataEventAt(3));
  EXPECT_TRUE(schedule.HasMidRunDataEvents());

  DriftSchedule overnight(DriftSpec::C1(), PaperWorkload(), 6);
  EXPECT_TRUE(overnight.HasDataEventAt(0));
  EXPECT_FALSE(overnight.HasMidRunDataEvents());
}

TEST(DriftScheduleTest, C1PresetEventEqualsSortTruncateHalf) {
  // The c1 preset's single event must be byte-identical to the paper's
  // sort + truncate half (the retired harness's exact mutation).
  Table drifted = storage::MakePrsa(3001, 5);
  Table legacy = storage::MakePrsa(3001, 5);

  DriftSchedule schedule(DriftSpec::C1(), PaperWorkload(), 5);
  DriftEvent event = schedule.ApplyDataEventAt(&drifted, 0);
  storage::SortTruncateHalf(&legacy, PickDriftSortColumn(legacy));

  ExpectTablesIdentical(drifted, legacy);
  EXPECT_TRUE(event.sorted);
  EXPECT_EQ(event.rows_truncated, 3001u - 3001u / 2);
  EXPECT_DOUBLE_EQ(event.event_intensity, 1.0);
}

TEST(DriftScheduleTest, MutationsAreByteIdenticalAcrossRunsAndThreadCounts) {
  // The per-event RNG is derived from (spec.seed, step) alone, so replaying
  // a schedule gives identical table bytes regardless of what else runs —
  // including annotation passes with different thread-pool widths between
  // the events.
  DriftSpec spec = DriftSpec::Parse("corr@0.7/2~42").ValueOrDie();
  auto replay = [&](int annotate_threads) {
    Table table = storage::MakeHiggs(2000, 9);
    DriftSchedule schedule(spec, PaperWorkload(), 4);
    for (size_t s = 0; s < 4; ++s) {
      if (!schedule.HasDataEventAt(s)) continue;
      schedule.ApplyDataEventAt(&table, s);
      // Unrelated concurrent work must not perturb the mutation stream.
      storage::Annotator annotator(&table, annotate_threads);
      util::Rng canary_rng(5 + annotate_threads);
      std::vector<storage::RangePredicate> canaries =
          storage::MakeCanaryPredicates(table, 8, &canary_rng);
      annotator.BatchCount(canaries);
    }
    return table;
  };
  Table one = replay(1);
  Table four = replay(4);
  ExpectTablesIdentical(one, four);

  // And a third, straight-line replay with no annotation at all.
  Table plain = storage::MakeHiggs(2000, 9);
  DriftSchedule schedule(spec, PaperWorkload(), 4);
  schedule.ApplyDataEventAt(&plain, 0);
  schedule.ApplyDataEventAt(&plain, 1);
  ExpectTablesIdentical(one, plain);
}

TEST(DriftScheduleTest, QueryStreamsAreDeterministicGivenSeed) {
  // Same spec + same generator seed ⇒ identical per-step arrival predicates.
  Table table = storage::MakePrsa(1500, 3);
  DriftSpec spec = DriftSpec::Parse("workload@0.6/3").ValueOrDie();
  auto stream = [&]() {
    DriftSchedule schedule(spec, PaperWorkload(), 4);
    util::Rng rng(77);
    std::vector<std::vector<storage::RangePredicate>> batches;
    for (size_t s = 0; s < 4; ++s) {
      batches.push_back(workload::GenerateWorkload(
          table, schedule.ArrivalMixAt(s), 30, &rng));
    }
    return batches;
  };
  EXPECT_EQ(stream(), stream());
}

TEST(DriftScheduleTest, IntensityScalesTruncation) {
  // data@0.5 keeps 1 − 0.5/2 = 75% of the rows in its single event.
  Table table = storage::MakePrsa(2000, 7);
  DriftSpec spec = DriftSpec::Parse("data@0.5/1").ValueOrDie();
  spec.append_fraction = 0.0;  // isolate the truncation share
  spec.update_fraction = 0.0;
  DriftSchedule schedule(spec, PaperWorkload(), 3);
  DriftEvent event = schedule.ApplyDataEventAt(&table, 0);
  EXPECT_EQ(table.NumRows(), 1500u);
  EXPECT_EQ(event.rows_truncated, 500u);
  // Zero intensity ⇒ no events at all.
  DriftSchedule none(DriftSpec::Parse("data@0.0/1").ValueOrDie(),
                     PaperWorkload(), 3);
  EXPECT_FALSE(none.HasDataEventAt(0));
}

TEST(DriftScheduleTest, PublishesStepTelemetryGauges) {
  DriftSchedule schedule(DriftSpec::Parse("workload@0.8/2").ValueOrDie(),
                         PaperWorkload(), 4);
  schedule.PublishStepTelemetry(1);
  util::MetricsSnapshot snapshot = util::Metrics().Snapshot();
  EXPECT_DOUBLE_EQ(snapshot.gauges.at("drift.step"), 1.0);
  EXPECT_DOUBLE_EQ(snapshot.gauges.at("drift.intensity"), 0.8);
}

}  // namespace
}  // namespace warper::drift
