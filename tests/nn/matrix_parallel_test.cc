// The parallel matrix kernels must be bit-identical to their serial
// counterparts on every kernel table: they split *output rows* across the
// pool while the installed table alone fixes each element's accumulation
// order, so equality is exact, not approximate.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "nn/kernels.h"
#include "nn/matrix.h"
#include "util/cpu_features.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace warper::nn {
namespace {

Matrix RandomMatrix(size_t rows, size_t cols, util::Rng* rng) {
  Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      m.At(r, c) = rng->Uniform() * 2.0 - 1.0;
    }
  }
  return m;
}

// The kernel tables this host can run.
std::vector<util::SimdMode> Tables() {
  std::vector<util::SimdMode> tables = {util::SimdMode::kScalar};
  if (util::BestSupportedSimdLevel() == util::SimdLevel::kAvx2 &&
      internal::Avx2KernelsCompiled()) {
    tables.push_back(util::SimdMode::kAvx2);
  }
  return tables;
}

// Installs a serial / parallel kernel policy for the duration of a test and
// restores the serial default afterwards.
class MatrixParallelTest : public ::testing::Test {
 protected:
  void TearDown() override {
    util::ParallelConfig serial;
    serial.threads = 1;
    SetMatrixParallelism(serial);
  }

  static void UseSerial() {
    util::ParallelConfig config;
    config.threads = 1;
    SetMatrixParallelism(config);
  }

  static void UseParallel(int threads) {
    util::ParallelConfig config;
    config.threads = threads;
    util::ThreadPool::Configure(config);
    SetMatrixParallelism(config);
  }

  static void Use(util::SimdMode simd, int threads, size_t grain) {
    util::ParallelConfig config;
    config.threads = threads;
    config.grain = grain;
    config.simd = simd;
    if (threads > 1) util::ThreadPool::Configure(config);
    SetMatrixParallelism(config);
  }

  // On every table, `product` at grains 96 and 160 (3- and 5-row minimum
  // slices) and 1, 2 and 4 threads gives the serial bytes. The shapes below
  // put slice ends inside the AVX2 4-row tile: 131 output rows split
  // 33/33/33/32 at 4 threads and 66/65 at 2; 19 rows split 5/5/5/4 (grain
  // 96) or 7/7/5 (grain 160) at 4 threads and 10/9 at 2.
  static void ExpectSplitInvariant(const std::function<Matrix()>& product) {
    for (util::SimdMode simd : Tables()) {
      Use(simd, 1, 256);
      Matrix expected = product();
      for (size_t grain : {96, 160}) {
        for (int threads : {1, 2, 4}) {
          Use(simd, threads, grain);
          EXPECT_EQ(product().data(), expected.data())
              << util::SimdModeName(simd) << " grain " << grain << " threads "
              << threads;
        }
      }
    }
  }
};

TEST_F(MatrixParallelTest, PolicyReflectsConfig) {
  UseParallel(4);
  EXPECT_EQ(matrix_parallel_policy().threads, 4);
  UseSerial();
  EXPECT_EQ(matrix_parallel_policy().threads, 1);
}

// Shapes large enough to clear the min_madds threshold so the parallel path
// actually runs (131·96·64 ≈ 805k and 19·128·64 ≈ 156k madds > 2^17).
TEST_F(MatrixParallelTest, MatMulBitIdentical) {
  util::Rng rng(7);
  Matrix a = RandomMatrix(131, 96, &rng);
  Matrix b = RandomMatrix(96, 64, &rng);
  ExpectSplitInvariant([&] { return a.MatMul(b); });
  Matrix short_a = RandomMatrix(19, 128, &rng);
  Matrix short_b = RandomMatrix(128, 64, &rng);
  ExpectSplitInvariant([&] { return short_a.MatMul(short_b); });
}

TEST_F(MatrixParallelTest, TransposeMatMulBitIdentical) {
  util::Rng rng(8);
  Matrix a = RandomMatrix(96, 131, &rng);
  Matrix b = RandomMatrix(96, 64, &rng);
  ExpectSplitInvariant([&] { return a.TransposeMatMul(b); });
  Matrix short_a = RandomMatrix(128, 19, &rng);
  Matrix short_b = RandomMatrix(128, 64, &rng);
  ExpectSplitInvariant([&] { return short_a.TransposeMatMul(short_b); });
}

TEST_F(MatrixParallelTest, MatMulTransposeBitIdentical) {
  util::Rng rng(9);
  Matrix a = RandomMatrix(131, 96, &rng);
  Matrix b = RandomMatrix(64, 96, &rng);
  ExpectSplitInvariant([&] { return a.MatMulTranspose(b); });
  Matrix short_a = RandomMatrix(19, 128, &rng);
  Matrix short_b = RandomMatrix(64, 128, &rng);
  ExpectSplitInvariant([&] { return short_a.MatMulTranspose(short_b); });
}

TEST_F(MatrixParallelTest, RepeatedParallelRunsAreStable) {
  util::Rng rng(10);
  Matrix a = RandomMatrix(128, 96, &rng);
  Matrix b = RandomMatrix(96, 64, &rng);

  UseParallel(4);
  Matrix first = a.MatMul(b);
  for (int run = 0; run < 3; ++run) {
    Matrix again = a.MatMul(b);
    EXPECT_EQ(again.data(), first.data());
  }
}

TEST_F(MatrixParallelTest, SmallProductsStaySerialAndCorrect) {
  util::Rng rng(11);
  // 8·8·8 madds sit far below min_madds: the parallel policy must fall back
  // to the serial kernel and still produce the same result.
  Matrix a = RandomMatrix(8, 8, &rng);
  Matrix b = RandomMatrix(8, 8, &rng);

  UseSerial();
  Matrix expected = a.MatMul(b);
  UseParallel(4);
  Matrix actual = a.MatMul(b);
  EXPECT_EQ(actual.data(), expected.data());
}

}  // namespace
}  // namespace warper::nn
