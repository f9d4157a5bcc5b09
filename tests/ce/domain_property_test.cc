// Parameterized property suite over the single-table domains: for every
// dataset generator and workload method, canonicalization is idempotent,
// decoded predicates are valid, and annotations stay within [0, rows].
#include <algorithm>
#include <ostream>

#include <gtest/gtest.h>

#include "ce/query_domain.h"
#include "storage/annotator.h"
#include "storage/datasets.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace warper::ce {
namespace {

struct DomainCase {
  const char* dataset;
  workload::GenMethod method;
};

// gtest's default printer dumps the dataset pointer and the padding bytes,
// which differ from build to build; the printed value is part of the test
// name gtest_discover_tests registers, so print the case by name instead.
void PrintTo(const DomainCase& c, std::ostream* os) {
  *os << c.dataset << "/" << workload::GenMethodName(c.method);
}

std::string CaseName(const ::testing::TestParamInfo<DomainCase>& info) {
  return std::string(info.param.dataset) +
         workload::GenMethodName(info.param.method);
}

storage::Table MakeNamed(const std::string& name, size_t rows, uint64_t seed) {
  if (name == "prsa") return storage::MakePrsa(rows, seed);
  if (name == "poker") return storage::MakePoker(rows, seed);
  return storage::MakeHiggs(rows, seed);
}

class DomainPropertySweep : public ::testing::TestWithParam<DomainCase> {};

TEST_P(DomainPropertySweep, RealPredicatesSurviveRoundTrip) {
  storage::Table table = MakeNamed(GetParam().dataset, 3000, 3);
  storage::Annotator annotator(&table);
  SingleTableDomain domain(&annotator);
  util::Rng rng(3);

  std::vector<storage::RangePredicate> preds =
      workload::GenerateWorkload(table, {GetParam().method}, 25, &rng);
  for (const auto& p : preds) {
    std::vector<double> features = domain.FeaturizePredicate(p);
    // Real predicates are already canonical.
    std::vector<double> canon = domain.CanonicalizeFeatures(features);
    for (size_t i = 0; i < features.size(); ++i) {
      EXPECT_NEAR(canon[i], features[i], 1e-9);
    }
    // Decoding reproduces the predicate's cardinality up to boundary ties:
    // w4/w5 bounds sit exactly on data values, and the normalize/denormalize
    // round trip can move them by one ulp, flipping rows tied at the bound.
    double direct = static_cast<double>(annotator.Count(p));
    double via_features = static_cast<double>(domain.Annotate(features));
    EXPECT_NEAR(via_features, direct, std::max(4.0, 0.02 * direct));
  }
}

TEST_P(DomainPropertySweep, NoisyVectorsDecodeToValidQueries) {
  storage::Table table = MakeNamed(GetParam().dataset, 2000, 5);
  storage::Annotator annotator(&table);
  SingleTableDomain domain(&annotator);
  util::Rng rng(5);

  int64_t rows = static_cast<int64_t>(table.NumRows());
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<double> noisy(domain.FeatureDim());
    for (double& v : noisy) v = rng.Normal(0.5, 0.8);  // frequently out of range
    std::vector<double> canon = domain.CanonicalizeFeatures(noisy);
    // Idempotence.
    std::vector<double> twice = domain.CanonicalizeFeatures(canon);
    for (size_t i = 0; i < canon.size(); ++i) {
      EXPECT_NEAR(twice[i], canon[i], 1e-9);
    }
    // Valid count.
    int64_t count = domain.Annotate(canon);
    EXPECT_GE(count, 0);
    EXPECT_LE(count, rows);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Domains, DomainPropertySweep,
    ::testing::Values(DomainCase{"prsa", workload::GenMethod::kW1},
                      DomainCase{"prsa", workload::GenMethod::kW3},
                      DomainCase{"poker", workload::GenMethod::kW1},
                      DomainCase{"poker", workload::GenMethod::kW5},
                      DomainCase{"higgs", workload::GenMethod::kW2},
                      DomainCase{"higgs", workload::GenMethod::kW4}),
    CaseName);

}  // namespace
}  // namespace warper::ce
