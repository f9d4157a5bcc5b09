// Scalar reference kernels — the portable dispatch path.
//
// The GEMM-family loops are carried over verbatim from the pre-dispatch
// Matrix implementation (i-k-j order, k blocked at 256, zero-skip on A), and
// the epilogue kernels replicate the exact per-element expressions the MLP
// used before fusion, so this table reproduces the historical results bit
// for bit. Do not "optimize" these loops: they are the portability and
// reproducibility baseline the SIMD tables are tested against.
#include <algorithm>
#include <cmath>

#include "nn/kernels.h"
#include "util/annotations.h"

namespace warper::nn::internal {
namespace {

// B-row block height: one block of B rows stays L2-resident while every
// output row of the slice streams over it.
constexpr size_t kKBlock = 256;

WARPER_DETERMINISTIC void MatMulRangeScalar(const double* a, size_t a_cols, const double* b,
                       size_t b_cols, double* out, size_t r0, size_t r1) {
  for (size_t kb = 0; kb < a_cols; kb += kKBlock) {
    size_t kend = std::min(a_cols, kb + kKBlock);
    for (size_t i = r0; i < r1; ++i) {
      double* orow = &out[i * b_cols];
      for (size_t k = kb; k < kend; ++k) {
        double av = a[i * a_cols + k];
        if (av == 0.0) continue;
        const double* brow = &b[k * b_cols];
        for (size_t j = 0; j < b_cols; ++j) orow[j] += av * brow[j];
      }
    }
  }
}

WARPER_DETERMINISTIC void TransposeMatMulRangeScalar(const double* a, size_t a_rows, size_t a_cols,
                                const double* b, size_t b_cols, double* out,
                                size_t i0, size_t i1) {
  for (size_t kb = 0; kb < a_rows; kb += kKBlock) {
    size_t kend = std::min(a_rows, kb + kKBlock);
    for (size_t k = kb; k < kend; ++k) {
      const double* arow = &a[k * a_cols];
      const double* brow = &b[k * b_cols];
      for (size_t i = i0; i < i1; ++i) {
        double av = arow[i];
        if (av == 0.0) continue;
        double* orow = &out[i * b_cols];
        for (size_t j = 0; j < b_cols; ++j) orow[j] += av * brow[j];
      }
    }
  }
}

WARPER_DETERMINISTIC void MatMulTransposeRangeScalar(const double* a, size_t a_cols,
                                const double* b, size_t b_rows, double* out,
                                size_t r0, size_t r1) {
  for (size_t i = r0; i < r1; ++i) {
    const double* arow = &a[i * a_cols];
    for (size_t j = 0; j < b_rows; ++j) {
      const double* brow = &b[j * a_cols];
      double acc = 0.0;
      for (size_t k = 0; k < a_cols; ++k) acc += arow[k] * brow[k];
      out[i * b_rows + j] = acc;
    }
  }
}

WARPER_DETERMINISTIC void BiasActRangeScalar(double* out, size_t cols, const double* bias,
                        Activation act, size_t r0, size_t r1) {
  for (size_t r = r0; r < r1; ++r) {
    double* row = &out[r * cols];
    for (size_t c = 0; c < cols; ++c) {
      double v = row[c] + bias[c];
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
      row[c] = v;
    }
  }
}

WARPER_DETERMINISTIC void ActGradScalar(Activation act, const double* post, double* grad,
                   size_t n) {
  switch (act) {
    case Activation::kIdentity:
      return;
    case Activation::kRelu:
      for (size_t i = 0; i < n; ++i) grad[i] *= post[i] > 0.0 ? 1.0 : 0.0;
      return;
    case Activation::kLeakyRelu:
      for (size_t i = 0; i < n; ++i) {
        grad[i] *= post[i] > 0.0 ? 1.0 : kLeakyReluSlope;
      }
      return;
    case Activation::kSigmoid:
      for (size_t i = 0; i < n; ++i) grad[i] *= post[i] * (1.0 - post[i]);
      return;
    case Activation::kTanh:
      for (size_t i = 0; i < n; ++i) grad[i] *= 1.0 - post[i] * post[i];
      return;
  }
}

WARPER_DETERMINISTIC void AddRowBroadcastScalar(double* data, size_t rows, size_t cols,
                           const double* bias) {
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) data[r * cols + c] += bias[c];
  }
}

WARPER_DETERMINISTIC void ColumnSumsScalar(const double* data, size_t rows, size_t cols,
                      double* sums) {
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) sums[c] += data[r * cols + c];
  }
}

WARPER_DETERMINISTIC void ScaleScalar(double* data, size_t n, double s) {
  for (size_t i = 0; i < n; ++i) data[i] *= s;
}

WARPER_DETERMINISTIC double SquaredNormScalar(const double* data, size_t n) {
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) acc += data[i] * data[i];
  return acc;
}

}  // namespace

const KernelTable& ScalarKernels() {
  static const KernelTable table = {
      "scalar",
      MatMulRangeScalar,
      TransposeMatMulRangeScalar,
      MatMulTransposeRangeScalar,
      BiasActRangeScalar,
      ActGradScalar,
      AddRowBroadcastScalar,
      ColumnSumsScalar,
      ScaleScalar,
      SquaredNormScalar,
  };
  return table;
}

}  // namespace warper::nn::internal
