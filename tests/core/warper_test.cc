// Integration tests for the Warper controller (Alg. 1).
#include "core/warper.h"

#include <cstring>
#include <utility>

#include <gtest/gtest.h>

#include "ce/lm.h"
#include "ce/metrics.h"
#include "storage/annotator.h"
#include "storage/data_drift.h"
#include "storage/datasets.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace warper::core {
namespace {

struct Env {
  storage::Table table;
  storage::Annotator annotator;
  ce::SingleTableDomain domain;
  util::Rng rng;

  explicit Env(uint64_t seed, size_t rows = 20000)
      : table(storage::MakePrsa(rows, seed)),
        annotator(&table),
        domain(&annotator),
        rng(seed) {}

  std::vector<ce::LabeledExample> Examples(workload::GenMethod method,
                                           size_t n, bool with_labels = true) {
    std::vector<storage::RangePredicate> preds =
        workload::GenerateWorkload(table, {method}, n, &rng);
    std::vector<int64_t> counts(n, -1);
    if (with_labels) counts = annotator.BatchCount(preds);
    std::vector<ce::LabeledExample> out(n);
    for (size_t i = 0; i < n; ++i) {
      out[i] = {domain.FeaturizePredicate(preds[i]), counts[i]};
    }
    return out;
  }
};

WarperConfig FastConfig() {
  WarperConfig config;
  config.hidden_units = 64;
  config.hidden_layers = 2;
  config.n_i = 60;
  config.n_p = 200;
  return config;
}

std::unique_ptr<ce::LmMlp> TrainModel(Env& env,
                                      const std::vector<ce::LabeledExample>& train,
                                      uint64_t seed) {
  auto model =
      std::make_unique<ce::LmMlp>(env.domain.FeatureDim(), ce::LmMlpConfig{},
                                  seed);
  nn::Matrix x;
  std::vector<double> y;
  ce::ExamplesToMatrix(train, &x, &y);
  model->Train(x, y);
  return model;
}

// Replay-exact on the default kernel table: one seeded walk (train M,
// Initialize, a labeled c2 and an unlabeled c3 invocation) gives the same
// bytes at 1, 2 and 4 threads.
TEST(WarperTest, SeededWalkIsByteIdenticalAcrossThreadCounts) {
  struct Outcome {
    std::vector<size_t> counts;  // generated, picked, annotated per step
    std::vector<double> values;  // drift signals and GMQs, then estimates
  };
  auto walk = [](int threads) {
    WarperConfig config = FastConfig();
    config.parallel.threads = threads;
    ApplyParallelConfig(config.parallel);  // M trains on this config too
    Env env(13, 8000);
    std::vector<ce::LabeledExample> train =
        env.Examples(workload::GenMethod::kW1, 400);
    auto model = TrainModel(env, train, 13);
    Warper warper(&env.domain, model.get(), config);
    EXPECT_TRUE(warper.Initialize(train).ok());
    Outcome out;
    for (bool labeled : {true, false}) {
      Warper::Invocation invocation;
      invocation.new_queries =
          env.Examples(workload::GenMethod::kW3, 60, labeled);
      invocation.annotation_budget = 20;
      Warper::InvocationResult result = warper.Invoke(invocation).ValueOrDie();
      out.counts.insert(out.counts.end(),
                        {result.generated, result.picked, result.annotated});
      out.values.insert(out.values.end(),
                        {result.delta_m, result.delta_js, result.gmq_before,
                         result.gmq_after});
    }
    nn::Matrix x;
    std::vector<double> y;
    ce::ExamplesToMatrix(env.Examples(workload::GenMethod::kW3, 100), &x, &y);
    std::vector<double> estimates = model->EstimateTargets(x);
    out.values.insert(out.values.end(), estimates.begin(), estimates.end());
    return out;
  };
  Outcome serial = walk(1);
  for (int threads : {2, 4}) {
    Outcome parallel = walk(threads);
    EXPECT_EQ(parallel.counts, serial.counts) << threads << " threads";
    ASSERT_EQ(parallel.values.size(), serial.values.size());
    EXPECT_EQ(std::memcmp(parallel.values.data(), serial.values.data(),
                          serial.values.size() * sizeof(double)),
              0)
        << threads << " threads";
  }
  ApplyParallelConfig(util::ParallelConfig{});
}

TEST(WarperTest, NoDriftMeansNoAdaptationMachinery) {
  Env env(1);
  std::vector<ce::LabeledExample> train =
      env.Examples(workload::GenMethod::kW1, 600);
  auto model = TrainModel(env, train, 1);
  Warper warper(&env.domain, model.get(), FastConfig());
  ASSERT_TRUE(warper.Initialize(train).ok());

  Warper::Invocation invocation;
  invocation.new_queries = env.Examples(workload::GenMethod::kW1, 48);
  Warper::InvocationResult result = warper.Invoke(invocation).ValueOrDie();
  EXPECT_FALSE(result.mode.Any());
  // No generation / picking / annotation — but the model still receives its
  // passive per-period refresh from the arrived labeled queries (§4.3's
  // constant c_Model term).
  EXPECT_EQ(result.generated, 0u);
  EXPECT_EQ(result.annotated, 0u);
  EXPECT_TRUE(result.model_updated);
}

TEST(WarperTest, NoDriftNoLabelsNoUpdate) {
  Env env(12);
  std::vector<ce::LabeledExample> train =
      env.Examples(workload::GenMethod::kW1, 400);
  auto model = TrainModel(env, train, 12);
  Warper warper(&env.domain, model.get(), FastConfig());
  ASSERT_TRUE(warper.Initialize(train).ok());

  // Unlabeled same-distribution arrivals: nothing to refresh from. (With no
  // labels the detector may flag c2/c3 from δ_js alone; only assert that a
  // quiet detector performs no passive update.)
  Warper::Invocation invocation;
  invocation.new_queries =
      env.Examples(workload::GenMethod::kW1, 10, /*with_labels=*/false);
  invocation.annotation_budget = 0;
  Warper::InvocationResult result = warper.Invoke(invocation).ValueOrDie();
  if (!result.mode.Any()) {
    EXPECT_FALSE(result.model_updated);
  }
}

TEST(WarperTest, AdaptsToWorkloadDriftC2) {
  Env env(2);
  std::vector<ce::LabeledExample> train =
      env.Examples(workload::GenMethod::kW1, 600);
  auto model = TrainModel(env, train, 2);
  Warper warper(&env.domain, model.get(), FastConfig());
  ASSERT_TRUE(warper.Initialize(train).ok());

  std::vector<ce::LabeledExample> test =
      env.Examples(workload::GenMethod::kW3, 100);
  double before = ce::ModelGmq(*model, test);

  Warper::Invocation invocation;
  invocation.new_queries = env.Examples(workload::GenMethod::kW3, 60);
  Warper::InvocationResult result = warper.Invoke(invocation).ValueOrDie();

  EXPECT_TRUE(result.mode.c2);
  EXPECT_GT(result.generated, 0u);
  EXPECT_GT(result.annotated, 0u);
  EXPECT_TRUE(result.model_updated);
  double after = ce::ModelGmq(*model, test);
  EXPECT_LT(after, before);
}

TEST(WarperTest, HandlesUnlabeledArrivalsC3) {
  Env env(3);
  std::vector<ce::LabeledExample> train =
      env.Examples(workload::GenMethod::kW1, 600);
  auto model = TrainModel(env, train, 3);
  Warper warper(&env.domain, model.get(), FastConfig());
  ASSERT_TRUE(warper.Initialize(train).ok());

  Warper::Invocation invocation;
  invocation.new_queries =
      env.Examples(workload::GenMethod::kW3, 60, /*with_labels=*/false);
  invocation.annotation_budget = 20;
  Warper::InvocationResult result = warper.Invoke(invocation).ValueOrDie();
  EXPECT_TRUE(result.mode.c3);
  EXPECT_LE(result.annotated, 20u);
  EXPECT_GT(result.annotated, 0u);
}

TEST(WarperTest, DataDriftC1MarksLabelsStaleAndReannotates) {
  Env env(4);
  std::vector<ce::LabeledExample> train =
      env.Examples(workload::GenMethod::kW1, 500);
  auto model = TrainModel(env, train, 4);
  WarperConfig config = FastConfig();
  Warper warper(&env.domain, model.get(), config);
  ASSERT_TRUE(warper.Initialize(train).ok());

  // Drift the data.
  storage::SortTruncateHalf(&env.table,
                            env.table.ColumnIndex("pm25").ValueOrDie());

  Warper::Invocation invocation;
  invocation.new_queries =
      env.Examples(workload::GenMethod::kW1, 40, /*with_labels=*/false);
  invocation.data_changed_fraction = 1.0;
  invocation.canary_shift = 0.5;
  Warper::InvocationResult result = warper.Invoke(invocation).ValueOrDie();
  EXPECT_TRUE(result.mode.c1);
  EXPECT_GT(result.annotated, 0u);

  // Some train-source records must have been re-annotated against the
  // post-drift table (fresh labels again).
  size_t fresh_train = 0;
  const QueryPool& pool = std::as_const(warper).pool();
  for (size_t i : pool.IndicesBySource(Source::kTrain)) {
    fresh_train += pool.record(i).HasFreshLabel() ? 1 : 0;
  }
  EXPECT_GT(fresh_train, 0u);
  EXPECT_LT(fresh_train, 500u);  // budget did not relabel everything
}

TEST(WarperTest, AnnotationBudgetZeroStillUpdatesFromArrivals) {
  Env env(5);
  std::vector<ce::LabeledExample> train =
      env.Examples(workload::GenMethod::kW1, 500);
  auto model = TrainModel(env, train, 5);
  Warper warper(&env.domain, model.get(), FastConfig());
  ASSERT_TRUE(warper.Initialize(train).ok());

  Warper::Invocation invocation;
  invocation.new_queries = env.Examples(workload::GenMethod::kW3, 60);
  invocation.annotation_budget = 0;
  Warper::InvocationResult result = warper.Invoke(invocation).ValueOrDie();
  EXPECT_EQ(result.annotated, 0u);
  EXPECT_TRUE(result.model_updated);
}

TEST(WarperTest, UnlabeledGeneratedArePrunedBetweenInvocations) {
  Env env(6);
  std::vector<ce::LabeledExample> train =
      env.Examples(workload::GenMethod::kW1, 500);
  auto model = TrainModel(env, train, 6);
  WarperConfig config = FastConfig();
  config.gen_fraction = 0.5;  // generate plenty
  config.n_p = 5;             // annotate almost none
  Warper warper(&env.domain, model.get(), config);
  ASSERT_TRUE(warper.Initialize(train).ok());

  Warper::Invocation invocation;
  invocation.new_queries = env.Examples(workload::GenMethod::kW3, 60);
  ASSERT_TRUE(warper.Invoke(invocation).ok());
  const QueryPool& pool = std::as_const(warper).pool();
  for (size_t i : pool.IndicesBySource(Source::kGen)) {
    EXPECT_TRUE(pool.record(i).HasLabel());
  }
}

TEST(WarperTest, CpuAccountingNonZeroAfterAdaptation) {
  Env env(7);
  std::vector<ce::LabeledExample> train =
      env.Examples(workload::GenMethod::kW1, 400);
  auto model = TrainModel(env, train, 7);
  Warper warper(&env.domain, model.get(), FastConfig());
  ASSERT_TRUE(warper.Initialize(train).ok());
  EXPECT_GT(warper.cpu().TotalSeconds(), 0.0);
  // Wall covers the same scopes as cpu, so it can never be smaller by more
  // than clock resolution.
  EXPECT_GE(warper.wall().TotalSeconds(), warper.cpu().TotalSeconds() * 0.5);
}

TEST(WarperTest, InvocationTimingBreaksDownPhases) {
  Env env(11);
  std::vector<ce::LabeledExample> train =
      env.Examples(workload::GenMethod::kW1, 600);
  auto model = TrainModel(env, train, 11);
  Warper warper(&env.domain, model.get(), FastConfig());
  ASSERT_TRUE(warper.Initialize(train).ok());

  Warper::Invocation invocation;
  invocation.new_queries = env.Examples(workload::GenMethod::kW3, 60);
  Warper::InvocationResult result = warper.Invoke(invocation).ValueOrDie();
  ASSERT_TRUE(result.mode.c2);

  const Warper::InvocationTiming& timing = result.timing;
  EXPECT_GT(timing.wall_seconds, 0.0);
  EXPECT_GT(timing.cpu_seconds, 0.0);

  // Every phase of an adapting (c2) invocation must be present, in
  // execution order, with wall >= 0 and cpu >= 0.
  const char* expected[] = {"warper.ingest",   "warper.det_drft",
                            "warper.decide",   "warper.update_modules",
                            "warper.pick",     "warper.annotate",
                            "warper.update_model", "warper.eval"};
  const Warper::PhaseTiming* previous = nullptr;
  for (const char* name : expected) {
    const Warper::PhaseTiming* phase = timing.Find(name);
    ASSERT_NE(phase, nullptr) << name;
    EXPECT_GE(phase->wall_seconds, 0.0) << name;
    EXPECT_GE(phase->cpu_seconds, 0.0) << name;
    // Execution order is preserved in the phases vector.
    if (previous != nullptr) {
      EXPECT_LT(previous, phase) << name;
    }
    previous = phase;
  }
  // mark_stale belongs to c1 and must not appear here.
  EXPECT_EQ(timing.Find("warper.mark_stale"), nullptr);
  EXPECT_EQ(timing.Find("warper.no_such_phase"), nullptr);

  // The per-phase walls sum to no more than the whole invocation took.
  double phase_wall = 0.0;
  for (const Warper::PhaseTiming& p : timing.phases) {
    phase_wall += p.wall_seconds;
  }
  EXPECT_LE(phase_wall, timing.wall_seconds * 1.01 + 1e-6);

  // Module updates dominate a c2 invocation; its phase must carry real
  // time, and cpu cannot exceed wall for single-threaded phases by more
  // than clock skew.
  const Warper::PhaseTiming* update = timing.Find("warper.update_modules");
  EXPECT_GT(update->wall_seconds, 0.0);
  EXPECT_LE(update->cpu_seconds, update->wall_seconds * 1.5 + 1e-3);
}

TEST(WarperTest, InvocationTimingCoversDataDriftPhases) {
  Env env(12);
  std::vector<ce::LabeledExample> train =
      env.Examples(workload::GenMethod::kW1, 400);
  auto model = TrainModel(env, train, 12);
  Warper warper(&env.domain, model.get(), FastConfig());
  ASSERT_TRUE(warper.Initialize(train).ok());

  storage::UpdateRandomRows(&env.table, 0.4, &env.rng);
  Warper::Invocation invocation;
  invocation.new_queries = env.Examples(workload::GenMethod::kW1, 24);
  invocation.data_changed_fraction = 0.4;
  Warper::InvocationResult result = warper.Invoke(invocation).ValueOrDie();
  ASSERT_TRUE(result.mode.c1);
  EXPECT_NE(result.timing.Find("warper.mark_stale"), nullptr);
  EXPECT_NE(result.timing.Find("warper.annotate"), nullptr);
}

TEST(WarperStatusTest, InitializeRequiresTrainedModel) {
  Env env(8);
  ce::LmMlp model(env.domain.FeatureDim(), ce::LmMlpConfig{}, 8);
  Warper warper(&env.domain, &model, FastConfig());
  Status st = warper.Initialize({{std::vector<double>(16, 0.5), 10}});
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(st.message().find("train M first"), std::string::npos);
}

TEST(WarperStatusTest, InvokeBeforeInitializeFails) {
  Env env(9);
  std::vector<ce::LabeledExample> train =
      env.Examples(workload::GenMethod::kW1, 200);
  auto model = TrainModel(env, train, 9);
  Warper warper(&env.domain, model.get(), FastConfig());
  Result<Warper::InvocationResult> r = warper.Invoke({});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(r.status().message().find("Initialize"), std::string::npos);
}

TEST(WarperStatusTest, InitializeRejectsBadConfig) {
  Env env(10);
  std::vector<ce::LabeledExample> train =
      env.Examples(workload::GenMethod::kW1, 200);
  auto model = TrainModel(env, train, 10);
  WarperConfig config = FastConfig();
  config.hidden_units = 0;
  Warper warper(&env.domain, model.get(), config);
  Status st = warper.Initialize(train);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("hidden_units"), std::string::npos);
}

TEST(WarperStatusTest, InitializeRejectsMismatchedFeatureDim) {
  Env env(11);
  std::vector<ce::LabeledExample> train =
      env.Examples(workload::GenMethod::kW1, 200);
  auto model = TrainModel(env, train, 11);
  Warper warper(&env.domain, model.get(), FastConfig());
  std::vector<ce::LabeledExample> bad = train;
  bad.back().features.push_back(0.0);
  Status st = warper.Initialize(bad);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(WarperStatusTest, InvokeRejectsMismatchedFeatureDim) {
  Env env(13);
  std::vector<ce::LabeledExample> train =
      env.Examples(workload::GenMethod::kW1, 200);
  auto model = TrainModel(env, train, 13);
  Warper warper(&env.domain, model.get(), FastConfig());
  ASSERT_TRUE(warper.Initialize(train).ok());

  Warper::Invocation invocation;
  invocation.new_queries = {{std::vector<double>(3, 0.5), 10}};
  Result<Warper::InvocationResult> r = warper.Invoke(invocation);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace warper::core
