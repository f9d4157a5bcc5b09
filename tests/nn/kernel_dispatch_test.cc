// Scalar ↔ SIMD kernel equivalence, and the dispatch contract.
//
// The scalar table is the portable reference; the AVX2+FMA table contracts
// with FMA and register-blocked accumulation, so it agrees with scalar only
// to a relative tolerance. Each table on its own is replay-exact: the same
// seed gives the same bytes at any thread count and batch split. The
// documented policy (DESIGN.md "Kernel dispatch & SIMD"): |simd − scalar| ≤
// 1e-12 · max(1, |scalar|) at every element for the shapes this system runs
// (k ≤ a few hundred). Shapes here are chosen to
// be awkward on purpose: empty, single-element, widths that are not a
// multiple of the 4-lane vector width or the 8-wide micro-kernel panel, and
// self-products (aliasing A = B).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "nn/kernels.h"
#include "nn/matrix.h"
#include "nn/mlp.h"
#include "nn/trainer.h"
#include "storage/annotate_kernels.h"
#include "util/cpu_features.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace warper::nn {
namespace {

constexpr double kRelTol = 1e-12;

bool Avx2Available() {
  return util::BestSupportedSimdLevel() == util::SimdLevel::kAvx2 &&
         internal::Avx2KernelsCompiled();
}

// The table kAuto must install here: WARPER_SIMD=scalar pins scalar, and
// otherwise the best table this CPU and binary can run.
const char* ExpectedAutoTable() {
  const char* env = std::getenv("WARPER_SIMD");
  if (env != nullptr && std::string(env) == "scalar") return "scalar";
  return Avx2Available() ? "avx2" : "scalar";
}

// Byte equality: stricter than ==, which equates 0.0 with -0.0.
template <typename Actual, typename Expected>
void ExpectSameBytes(const Actual& actual, const Expected& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  EXPECT_EQ(std::memcmp(actual.data(), expected.data(),
                        actual.size() * sizeof(double)),
            0);
}

Matrix RandomMatrix(size_t rows, size_t cols, util::Rng* rng) {
  Matrix m(rows, cols);
  for (double& v : m.data()) v = rng->Uniform() * 2.0 - 1.0;
  return m;
}

void ExpectClose(const Matrix& simd, const Matrix& scalar) {
  ASSERT_EQ(simd.rows(), scalar.rows());
  ASSERT_EQ(simd.cols(), scalar.cols());
  for (size_t i = 0; i < simd.data().size(); ++i) {
    double tol = kRelTol * std::max(1.0, std::fabs(scalar.data()[i]));
    EXPECT_NEAR(simd.data()[i], scalar.data()[i], tol) << "at flat index " << i;
  }
}

class KernelDispatchTest : public ::testing::Test {
 protected:
  void TearDown() override { UseKernels(util::SimdMode::kScalar, 1); }

  // Installs a kernel table + thread policy.
  static void UseKernels(util::SimdMode mode, int threads) {
    util::ParallelConfig config;
    config.threads = threads;
    config.simd = mode;
    if (threads > 1) util::ThreadPool::Configure(config);
    SetMatrixParallelism(config);
  }
};

struct GemmShape {
  size_t m, k, n;
};

// Widths deliberately off the 4-lane / 8-panel grid, plus degenerate sizes
// and the MLP's real shapes (batch×in trunk, 128×128, 128×|z|).
const GemmShape kShapes[] = {
    {0, 5, 3},   {1, 1, 1},    {3, 7, 5},      {17, 23, 9},
    {5, 4, 1},   {33, 7, 66},  {64, 130, 128}, {128, 128, 128},
    {64, 128, 16},
};

TEST_F(KernelDispatchTest, ForcedModesInstallTheRightTable) {
  UseKernels(util::SimdMode::kScalar, 1);
  EXPECT_STREQ(ActiveKernelName(), "scalar");
  if (Avx2Available()) {
    UseKernels(util::SimdMode::kAvx2, 1);
    EXPECT_STREQ(ActiveKernelName(), "avx2");
  }
}

// kAuto resolves in one place for both kernel layers: to the best table the
// CPU and binary allow, unless WARPER_SIMD pins scalar.
TEST_F(KernelDispatchTest, AutoResolvesToWhatCpuAndEnvAllow) {
  util::ParallelConfig config;  // simd = kAuto
  config.threads = 4;
  SetMatrixParallelism(config);
  EXPECT_STREQ(ActiveKernelName(), ExpectedAutoTable());
  storage::internal::SetAnnotateKernels(config);
  EXPECT_STREQ(storage::internal::ActiveAnnotateKernelName(),
               ExpectedAutoTable());
}

TEST_F(KernelDispatchTest, MatMulMatchesScalarAcrossShapes) {
  if (!Avx2Available()) GTEST_SKIP() << "no AVX2+FMA on this host";
  util::Rng rng(21);
  for (const GemmShape& s : kShapes) {
    Matrix a = RandomMatrix(s.m, s.k, &rng);
    Matrix b = RandomMatrix(s.k, s.n, &rng);
    UseKernels(util::SimdMode::kScalar, 1);
    Matrix expected = a.MatMul(b);
    UseKernels(util::SimdMode::kAvx2, 1);
    Matrix actual = a.MatMul(b);
    ExpectClose(actual, expected);
  }
}

TEST_F(KernelDispatchTest, TransposeMatMulMatchesScalarAcrossShapes) {
  if (!Avx2Available()) GTEST_SKIP() << "no AVX2+FMA on this host";
  util::Rng rng(22);
  for (const GemmShape& s : kShapes) {
    Matrix a = RandomMatrix(s.k, s.m, &rng);  // Aᵀ is m×k
    Matrix b = RandomMatrix(s.k, s.n, &rng);
    UseKernels(util::SimdMode::kScalar, 1);
    Matrix expected = a.TransposeMatMul(b);
    UseKernels(util::SimdMode::kAvx2, 1);
    Matrix actual = a.TransposeMatMul(b);
    ExpectClose(actual, expected);
  }
}

TEST_F(KernelDispatchTest, MatMulTransposeMatchesScalarAcrossShapes) {
  if (!Avx2Available()) GTEST_SKIP() << "no AVX2+FMA on this host";
  util::Rng rng(23);
  for (const GemmShape& s : kShapes) {
    Matrix a = RandomMatrix(s.m, s.k, &rng);
    Matrix b = RandomMatrix(s.n, s.k, &rng);  // Bᵀ is k×n
    UseKernels(util::SimdMode::kScalar, 1);
    Matrix expected = a.MatMulTranspose(b);
    UseKernels(util::SimdMode::kAvx2, 1);
    Matrix actual = a.MatMulTranspose(b);
    ExpectClose(actual, expected);
  }
}

// A·A, Aᵀ·A and A·Aᵀ share one buffer between both operands; the kernels
// must not be confused by the aliasing (output is always a fresh matrix).
TEST_F(KernelDispatchTest, SelfProductsTolerateOperandAliasing) {
  if (!Avx2Available()) GTEST_SKIP() << "no AVX2+FMA on this host";
  util::Rng rng(24);
  Matrix a = RandomMatrix(37, 37, &rng);
  UseKernels(util::SimdMode::kScalar, 1);
  Matrix mm = a.MatMul(a);
  Matrix tm = a.TransposeMatMul(a);
  Matrix mt = a.MatMulTranspose(a);
  UseKernels(util::SimdMode::kAvx2, 1);
  ExpectClose(a.MatMul(a), mm);
  ExpectClose(a.TransposeMatMul(a), tm);
  ExpectClose(a.MatMulTranspose(a), mt);
}

TEST_F(KernelDispatchTest, ElementwiseKernelsMatchScalar) {
  if (!Avx2Available()) GTEST_SKIP() << "no AVX2+FMA on this host";
  util::Rng rng(25);
  for (size_t cols : {1u, 3u, 4u, 7u, 129u}) {
    Matrix m = RandomMatrix(9, cols, &rng);
    std::vector<double> bias(cols);
    for (double& v : bias) v = rng.Uniform() - 0.5;

    UseKernels(util::SimdMode::kScalar, 1);
    Matrix broadcast_ref = m;
    broadcast_ref.AddRowBroadcast(bias);
    std::vector<double> sums_ref = m.ColumnSums();
    Matrix scaled_ref = m;
    scaled_ref.Scale(0.37);
    double norm_ref = m.SquaredNorm();

    UseKernels(util::SimdMode::kAvx2, 1);
    Matrix broadcast = m;
    broadcast.AddRowBroadcast(bias);
    ExpectClose(broadcast, broadcast_ref);
    std::vector<double> sums = m.ColumnSums();
    for (size_t c = 0; c < cols; ++c) {
      EXPECT_NEAR(sums[c], sums_ref[c],
                  kRelTol * std::max(1.0, std::fabs(sums_ref[c])));
    }
    Matrix scaled = m;
    scaled.Scale(0.37);
    ExpectClose(scaled, scaled_ref);
    double norm = m.SquaredNorm();
    EXPECT_NEAR(norm, norm_ref, kRelTol * std::max(1.0, norm_ref));
  }
}

// The fused epilogue on the scalar table must be *bit-identical* to the
// unfused MatMul + AddRowBroadcast + activation sequence: fusion reorders
// passes, never arithmetic.
TEST_F(KernelDispatchTest, ScalarFusedEpilogueIsBitExact) {
  util::Rng rng(26);
  UseKernels(util::SimdMode::kScalar, 1);
  Matrix x = RandomMatrix(13, 10, &rng);
  Matrix w = RandomMatrix(10, 7, &rng);
  std::vector<double> bias(7);
  for (double& v : bias) v = rng.Uniform() - 0.5;
  for (Activation act :
       {Activation::kIdentity, Activation::kRelu, Activation::kLeakyRelu,
        Activation::kSigmoid, Activation::kTanh}) {
    Matrix unfused = x.MatMul(w);
    unfused.AddRowBroadcast(bias);
    for (double& v : unfused.data()) {
      switch (act) {
        case Activation::kIdentity:
          break;
        case Activation::kRelu:
          v = v > 0.0 ? v : 0.0;
          break;
        case Activation::kLeakyRelu:
          v = v > 0.0 ? v : kLeakyReluSlope * v;
          break;
        case Activation::kSigmoid:
          v = 1.0 / (1.0 + std::exp(-v));
          break;
        case Activation::kTanh:
          v = std::tanh(v);
          break;
      }
    }
    Matrix fused = x.MatMulBiasAct(w, bias, act);
    EXPECT_EQ(fused.data(), unfused.data());
  }
}

TEST_F(KernelDispatchTest, FusedEpilogueMatchesScalarOnAvx2) {
  if (!Avx2Available()) GTEST_SKIP() << "no AVX2+FMA on this host";
  util::Rng rng(27);
  Matrix x = RandomMatrix(19, 33, &rng);
  Matrix w = RandomMatrix(33, 13, &rng);
  std::vector<double> bias(13);
  for (double& v : bias) v = rng.Uniform() - 0.5;
  for (Activation act :
       {Activation::kIdentity, Activation::kRelu, Activation::kLeakyRelu,
        Activation::kSigmoid, Activation::kTanh}) {
    UseKernels(util::SimdMode::kScalar, 1);
    Matrix expected = x.MatMulBiasAct(w, bias, act);
    UseKernels(util::SimdMode::kAvx2, 1);
    Matrix actual = x.MatMulBiasAct(w, bias, act);
    ExpectClose(actual, expected);
  }
}

TEST_F(KernelDispatchTest, ActivationGradMatchesScalarOnAvx2) {
  if (!Avx2Available()) GTEST_SKIP() << "no AVX2+FMA on this host";
  util::Rng rng(28);
  Matrix post = RandomMatrix(11, 17, &rng);
  Matrix grad0 = RandomMatrix(11, 17, &rng);
  for (Activation act :
       {Activation::kIdentity, Activation::kRelu, Activation::kLeakyRelu,
        Activation::kSigmoid, Activation::kTanh}) {
    UseKernels(util::SimdMode::kScalar, 1);
    Matrix expected = grad0;
    ActivationGradInPlace(act, post, &expected);
    UseKernels(util::SimdMode::kAvx2, 1);
    Matrix actual = grad0;
    ActivationGradInPlace(act, post, &actual);
    ExpectClose(actual, expected);
  }
}

// Row-range partitioning never changes accumulation order, so the AVX2 path
// is parallel↔serial bit-identical too (only scalar↔SIMD is approximate).
TEST_F(KernelDispatchTest, Avx2ParallelIsBitIdenticalToAvx2Serial) {
  if (!Avx2Available()) GTEST_SKIP() << "no AVX2+FMA on this host";
  util::Rng rng(29);
  Matrix a = RandomMatrix(128, 96, &rng);
  Matrix b = RandomMatrix(96, 64, &rng);
  UseKernels(util::SimdMode::kAvx2, 1);
  Matrix serial = a.MatMul(b);
  UseKernels(util::SimdMode::kAvx2, 4);
  Matrix parallel = a.MatMul(b);
  EXPECT_EQ(parallel.data(), serial.data());
}

// Cross-CPU replay: the kScalar pin at 4 threads, with uneven row slices,
// reproduces the serial scalar bits through the whole fused MLP forward,
// backward and optimizer step, not just a lone GEMM.
TEST_F(KernelDispatchTest, ScalarPinReproducesSerialScalarMlpBits) {
  MlpConfig mlp_config;
  mlp_config.layer_sizes = {10, 128, 128, 3};

  util::Rng rng_a(31);
  util::Rng rng_b(31);
  Mlp serial_mlp(mlp_config, &rng_a);
  Mlp parallel_mlp(mlp_config, &rng_b);

  util::Rng data_rng(32);
  Matrix x = RandomMatrix(50, 10, &data_rng);
  Matrix grad = RandomMatrix(50, 3, &data_rng);

  UseKernels(util::SimdMode::kScalar, 1);
  Matrix y_serial = serial_mlp.Forward(x);
  Matrix gin_serial = serial_mlp.Backward(grad);
  serial_mlp.Step(OptimizerConfig{}, 1e-3);

  util::ParallelConfig pinned;
  pinned.threads = 4;
  pinned.grain = 96;  // 3-row minimum: 50 rows split 13/13/13/11
  pinned.simd = util::SimdMode::kScalar;
  util::ThreadPool::Configure(pinned);
  SetMatrixParallelism(pinned);
  ASSERT_STREQ(ActiveKernelName(), "scalar");
  Matrix y_parallel = parallel_mlp.Forward(x);
  Matrix gin_parallel = parallel_mlp.Backward(grad);
  parallel_mlp.Step(OptimizerConfig{}, 1e-3);

  ExpectSameBytes(y_parallel.data(), y_serial.data());
  ExpectSameBytes(gin_parallel.data(), gin_serial.data());
  ExpectSameBytes(parallel_mlp.GetParameters(), serial_mlp.GetParameters());
}

// Replay on the default table: training an MLP gives the same bytes at 1, 2
// and 4 threads. Batches of 50 (and a last one of 30) split into slices of
// 13, 25 and 10 rows, so slice ends fall inside the AVX2 4-row tile.
TEST_F(KernelDispatchTest, MlpTrainingIsReplayExactAcrossThreadCounts) {
  MlpConfig mlp_config;
  mlp_config.layer_sizes = {26, 128, 128, 16};
  util::Rng data_rng(34);
  Matrix x = RandomMatrix(430, 26, &data_rng);
  Matrix y = RandomMatrix(430, 16, &data_rng);
  TrainConfig train;
  train.epochs = 3;
  train.batch_size = 50;

  std::vector<std::vector<double>> params;
  std::vector<AlignedVector> predictions;
  for (int threads : {1, 2, 4}) {
    UseKernels(util::SimdMode::kAuto, threads);
    ASSERT_STREQ(ActiveKernelName(), ExpectedAutoTable());
    util::Rng rng(35);
    Mlp mlp(mlp_config, &rng);
    TrainRegressor(&mlp, x, y, train, &rng);
    params.push_back(mlp.GetParameters());
    predictions.push_back(mlp.Predict(x).data());
  }
  for (size_t i = 1; i < params.size(); ++i) {
    ExpectSameBytes(params[i], params[0]);
    ExpectSameBytes(predictions[i], predictions[0]);
  }
}

// Replay across batch splits on the default table: a batched inference pass
// gives each row the bytes of a 1-row pass (what lets the serving
// micro-batcher coalesce requests without changing an estimate).
TEST_F(KernelDispatchTest, MlpPredictIsReplayExactAcrossBatchSplits) {
  MlpConfig mlp_config;
  mlp_config.layer_sizes = {26, 128, 128, 1};
  util::Rng rng(36);
  Mlp mlp(mlp_config, &rng);
  Matrix x = RandomMatrix(37, 26, &rng);

  UseKernels(util::SimdMode::kAuto, 4);
  Matrix batched = mlp.Predict(x);
  for (size_t r = 0; r < x.rows(); ++r) {
    Matrix row(1, x.cols());
    row.CopyRowFrom(0, x, r);
    ExpectSameBytes(mlp.Predict(row).data(), batched.Row(r));
  }
}

TEST_F(KernelDispatchTest, CopyRowFromMatchesSetRow) {
  util::Rng rng(33);
  Matrix src = RandomMatrix(6, 11, &rng);
  Matrix via_setrow(3, 11);
  Matrix via_copy(3, 11);
  for (size_t i = 0; i < 3; ++i) {
    via_setrow.SetRow(i, src.Row(2 * i));
    via_copy.CopyRowFrom(i, src, 2 * i);
  }
  EXPECT_EQ(via_copy.data(), via_setrow.data());
}

}  // namespace
}  // namespace warper::nn
