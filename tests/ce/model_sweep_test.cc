// Cross-product sweep: every estimator family × every dataset generator.
// Each trained model must clearly beat a constant (mean-target) predictor on
// held-out queries from the training distribution — the minimum bar for a
// usable learned CE model, checked uniformly across the whole model zoo.
#include <gtest/gtest.h>

#include <ostream>

#include "ce/lm.h"
#include "ce/metrics.h"
#include "ce/mscn.h"
#include "ce/query_domain.h"
#include "storage/annotator.h"
#include "storage/datasets.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace warper::ce {
namespace {

struct SweepCase {
  const char* model;
  const char* dataset;
};

// gtest's default printer dumps the two string pointers, which differ from
// build to build and run to run; the printed value is part of the test name
// gtest_discover_tests registers, so print the strings instead.
void PrintTo(const SweepCase& c, std::ostream* os) {
  *os << c.model << "/" << c.dataset;
}

std::string CaseName(const ::testing::TestParamInfo<SweepCase>& info) {
  std::string name = std::string(info.param.model) + "_" + info.param.dataset;
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

storage::Table MakeNamed(const std::string& name, uint64_t seed) {
  if (name == std::string("prsa")) return storage::MakePrsa(6000, seed);
  if (name == std::string("poker")) return storage::MakePoker(6000, seed);
  return storage::MakeHiggs(6000, seed);
}

std::unique_ptr<CardinalityEstimator> MakeModel(const std::string& name,
                                                size_t feature_dim,
                                                uint64_t seed) {
  if (name == "LM-mlp") {
    return std::make_unique<LmMlp>(feature_dim, LmMlpConfig{}, seed);
  }
  if (name == "LM-gbt") {
    return std::make_unique<LmGbt>(feature_dim, LmGbtConfig{}, seed);
  }
  if (name == "LM-ply") return MakeLmPly(feature_dim, seed);
  if (name == "LM-rbf") return MakeLmRbf(feature_dim, seed);
  MscnConfig config = MscnConfig::SingleTable(feature_dim / 2);
  config.train_epochs = 40;
  return std::make_unique<Mscn>(config, seed);
}

class ModelDatasetSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(ModelDatasetSweep, BeatsMeanPredictor) {
  storage::Table table = MakeNamed(GetParam().dataset, 17);
  storage::Annotator annotator(&table);
  SingleTableDomain domain(&annotator);
  util::Rng rng(17);

  auto make = [&](size_t n) {
    std::vector<storage::RangePredicate> preds = workload::GenerateWorkload(
        table, {workload::GenMethod::kW1, workload::GenMethod::kW3}, n, &rng);
    std::vector<int64_t> counts = annotator.BatchCount(preds);
    std::vector<LabeledExample> out(n);
    for (size_t i = 0; i < n; ++i) {
      out[i] = {domain.FeaturizePredicate(preds[i]), counts[i]};
    }
    return out;
  };
  std::vector<LabeledExample> train = make(600);
  std::vector<LabeledExample> test = make(120);

  std::unique_ptr<CardinalityEstimator> model =
      MakeModel(GetParam().model, domain.FeatureDim(), 17);
  nn::Matrix x;
  std::vector<double> y;
  ExamplesToMatrix(train, &x, &y);
  model->Train(x, y);
  ASSERT_TRUE(model->trained());

  // Constant predictor at the mean log-card target.
  double mean_target = 0.0;
  for (double t : y) mean_target += t;
  mean_target /= static_cast<double>(y.size());
  std::vector<double> const_est, actual;
  for (const auto& e : test) {
    const_est.push_back(TargetToCard(mean_target));
    actual.push_back(static_cast<double>(e.cardinality));
  }
  double baseline = Gmq(const_est, actual);
  double gmq = ModelGmq(*model, test);

  EXPECT_LT(gmq, baseline) << "model " << model->Name() << " gmq=" << gmq
                           << " vs constant " << baseline;
  EXPECT_GE(gmq, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, ModelDatasetSweep,
    ::testing::Values(SweepCase{"LM-mlp", "prsa"}, SweepCase{"LM-mlp", "poker"},
                      SweepCase{"LM-mlp", "higgs"}, SweepCase{"LM-gbt", "prsa"},
                      SweepCase{"LM-gbt", "higgs"}, SweepCase{"LM-ply", "prsa"},
                      SweepCase{"LM-rbf", "prsa"}, SweepCase{"MSCN", "prsa"},
                      SweepCase{"MSCN", "higgs"}),
    CaseName);

}  // namespace
}  // namespace warper::ce
