#include <gtest/gtest.h>

#include "util/cpu_features.h"
#include "util/thread_pool.h"

namespace warper::util {
namespace {

TEST(CpuFeaturesTest, DetectionIsCachedAndStable) {
  const CpuFeatures& first = GetCpuFeatures();
  const CpuFeatures& second = GetCpuFeatures();
  EXPECT_EQ(&first, &second);
}

TEST(CpuFeaturesTest, BestLevelConsistentWithFeatureBits) {
  const CpuFeatures& f = GetCpuFeatures();
  if (f.avx2 && f.fma) {
    EXPECT_EQ(BestSupportedSimdLevel(), SimdLevel::kAvx2);
  } else {
    EXPECT_EQ(BestSupportedSimdLevel(), SimdLevel::kScalar);
  }
}

TEST(CpuFeaturesTest, NamesAreStable) {
  EXPECT_STREQ(SimdLevelName(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kAvx2), "avx2");
  EXPECT_STREQ(SimdModeName(SimdMode::kAuto), "auto");
  EXPECT_STREQ(SimdModeName(SimdMode::kScalar), "scalar");
  EXPECT_STREQ(SimdModeName(SimdMode::kAvx2), "avx2");
}

TEST(CpuFeaturesTest, ParallelConfigValidatesSimdAgainstHardware) {
  ParallelConfig config;
  config.simd = SimdMode::kScalar;
  EXPECT_TRUE(config.Validate().ok());
  config.simd = SimdMode::kAvx2;
  if (BestSupportedSimdLevel() == SimdLevel::kAvx2) {
    EXPECT_TRUE(config.Validate().ok());
  } else {
    EXPECT_FALSE(config.Validate().ok());
  }
}

bool Avx2Compiled() { return true; }
bool Avx2Missing() { return false; }

// Pins win over the env and the CPU; a binary without a layer's AVX2
// kernels never resolves to them, whatever is asked.
TEST(CpuFeaturesTest, ResolveSimdLevelHonorsPinsAndTheBinary) {
  EXPECT_EQ(ResolveSimdLevel(SimdMode::kScalar, true), SimdLevel::kScalar);
  EXPECT_EQ(ResolveSimdLevel(SimdMode::kAvx2, true), BestSupportedSimdLevel());
  EXPECT_EQ(ResolveSimdLevel(SimdMode::kAvx2, false), SimdLevel::kScalar);
  EXPECT_EQ(ResolveSimdLevel(SimdMode::kAuto, false), SimdLevel::kScalar);
}

struct FakeTable {
  const char* name;
};
const FakeTable& FakeScalar() {
  static const FakeTable table{"scalar"};
  return table;
}
const FakeTable& FakeAvx2() {
  static const FakeTable table{"avx2"};
  return table;
}

TEST(CpuFeaturesTest, KernelTableSlotInstallsTheAutoTableAtFirstUse) {
  KernelTableSlot<FakeTable> slot(&FakeScalar, &FakeAvx2, &Avx2Compiled);
  const FakeTable& auto_table =
      ResolveSimdLevel(SimdMode::kAuto, true) == SimdLevel::kAvx2
          ? FakeAvx2()
          : FakeScalar();
  EXPECT_EQ(&slot.Get(), &auto_table);
  slot.Install(SimdMode::kScalar);
  EXPECT_EQ(&slot.Get(), &FakeScalar());

  KernelTableSlot<FakeTable> scalar_only(&FakeScalar, &FakeAvx2, &Avx2Missing);
  EXPECT_EQ(&scalar_only.Get(), &FakeScalar());
  scalar_only.Install(SimdMode::kAvx2);
  EXPECT_EQ(&scalar_only.Get(), &FakeScalar());
}

}  // namespace
}  // namespace warper::util
