// AVX2+FMA kernels — the fast dispatch path.
//
// This translation unit is the only one compiled with -mavx2 -mfma (see
// src/nn/CMakeLists.txt); everything else in the binary stays baseline
// x86-64, and util::GetCpuFeatures() gates execution at runtime, so the
// binary is portable. When the compiler can't target AVX2 (non-x86 cross
// build) the file degrades to an alias of the scalar table.
//
// GEMM design (C += A×B, row-major, one task owns rows [r0, r1)):
//   - k is blocked at kKc = 256 rows of B; each block of B is packed once
//     per task into a 64-byte-aligned thread_local buffer, laid out as
//     panels of kNr = 8 columns so the micro-kernel streams it with aligned
//     contiguous loads. Ragged right edges are zero-padded in the pack (the
//     extra lanes multiply into accumulators that are never stored).
//   - The micro-kernel computes an MR×8 tile (MR ≤ 4) in registers:
//     2 ymm accumulators per row, one broadcast of A per row per k, FMA
//     contraction — 8 accumulators + 2 B vectors + 1 broadcast = 11 of the
//     16 ymm registers.
//   - Accumulation order is fixed by the blocking alone, never by the
//     thread count, so parallel runs are bit-identical to serial runs on
//     this path too. FMA and register accumulation do round differently
//     from the scalar loops — that is the documented scalar↔SIMD tolerance.
//
// TransposeMatMul reuses the same blocked GEMM by first transposing its
// slice of A into a thread_local buffer (O(m·k) copy vs O(m·k·n) math).
// MatMulTranspose is a row-dot kernel with 4-way split accumulators.
#include "nn/kernels.h"

#if (defined(__x86_64__) || defined(__i386__)) && defined(WARPER_BUILD_AVX2)
#define WARPER_AVX2_IMPL 1
#endif

#ifdef WARPER_AVX2_IMPL

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/aligned.h"
#include "util/annotations.h"

namespace warper::nn::internal {
namespace {

using Buffer = std::vector<double, util::AlignedAllocator<double, 64>>;

constexpr size_t kKc = 256;  // B-panel rows per k block
constexpr size_t kMr = 4;    // micro-kernel rows
constexpr size_t kNr = 8;    // micro-kernel cols (2 ymm of doubles)

// Per-worker scratch: reused across calls, so steady-state GEMMs allocate
// nothing. thread_local gives every pool worker its own panel.
thread_local Buffer t_pack_b;
thread_local Buffer t_pack_at;

// Packs B[kb..kend) × [0..n) into kNr-column panels: panel p holds columns
// [p·kNr, p·kNr + kNr) contiguously per k, zero-padded past n.
void PackB(const double* b, size_t ldb, size_t kb, size_t kend, size_t n,
           double* packed) {
  size_t kc = kend - kb;
  size_t panel = 0;
  for (size_t j0 = 0; j0 < n; j0 += kNr, ++panel) {
    size_t w = std::min(kNr, n - j0);
    double* dst = packed + panel * kc * kNr;
    for (size_t k = 0; k < kc; ++k) {
      const double* src = b + (kb + k) * ldb + j0;
      size_t j = 0;
      for (; j < w; ++j) dst[k * kNr + j] = src[j];
      for (; j < kNr; ++j) dst[k * kNr + j] = 0.0;
    }
  }
}

// C[0..MR)×[0..w) += A-tile × packed-B-panel over kc contraction steps.
// `a` points at A[row0][kb]; `bp` at the panel; `c` at C[row0][j0].
template <int MR>
void MicroKernel(size_t kc, const double* a, size_t lda, const double* bp,
                 double* c, size_t ldc, size_t w) {
  __m256d acc0[MR], acc1[MR];
  for (int r = 0; r < MR; ++r) {
    acc0[r] = _mm256_setzero_pd();
    acc1[r] = _mm256_setzero_pd();
  }
  for (size_t k = 0; k < kc; ++k) {
    __m256d b0 = _mm256_load_pd(bp + k * kNr);
    __m256d b1 = _mm256_load_pd(bp + k * kNr + 4);
    for (int r = 0; r < MR; ++r) {
      __m256d av = _mm256_broadcast_sd(a + static_cast<size_t>(r) * lda + k);
      acc0[r] = _mm256_fmadd_pd(av, b0, acc0[r]);
      acc1[r] = _mm256_fmadd_pd(av, b1, acc1[r]);
    }
  }
  for (int r = 0; r < MR; ++r) {
    double* crow = c + static_cast<size_t>(r) * ldc;
    if (w == kNr) {
      _mm256_storeu_pd(crow,
                       _mm256_add_pd(_mm256_loadu_pd(crow), acc0[r]));
      _mm256_storeu_pd(crow + 4,
                       _mm256_add_pd(_mm256_loadu_pd(crow + 4), acc1[r]));
    } else {
      alignas(32) double tmp[kNr];
      _mm256_store_pd(tmp, acc0[r]);
      _mm256_store_pd(tmp + 4, acc1[r]);
      for (size_t j = 0; j < w; ++j) crow[j] += tmp[j];
    }
  }
}

// C[0..m) += A[0..m) × B with B packed per k block. Strides: A is m×k with
// leading dimension lda, B is k×n with leading dimension ldb, C is m×n with
// leading dimension ldc.
void GemmBlocked(const double* a, size_t lda, size_t m, size_t k,
                 const double* b, size_t ldb, size_t n, double* c,
                 size_t ldc) {
  if (m == 0 || n == 0 || k == 0) return;
  size_t npanels = (n + kNr - 1) / kNr;
  for (size_t kb = 0; kb < k; kb += kKc) {
    size_t kend = std::min(k, kb + kKc);
    size_t kc = kend - kb;
    t_pack_b.resize(npanels * kc * kNr);
    PackB(b, ldb, kb, kend, n, t_pack_b.data());
    for (size_t i0 = 0; i0 < m; i0 += kMr) {
      size_t mr = std::min(kMr, m - i0);
      const double* atile = a + i0 * lda + kb;
      for (size_t panel = 0; panel < npanels; ++panel) {
        size_t j0 = panel * kNr;
        size_t w = std::min(kNr, n - j0);
        const double* bp = t_pack_b.data() + panel * kc * kNr;
        double* ctile = c + i0 * ldc + j0;
        switch (mr) {
          case 4:
            MicroKernel<4>(kc, atile, lda, bp, ctile, ldc, w);
            break;
          case 3:
            MicroKernel<3>(kc, atile, lda, bp, ctile, ldc, w);
            break;
          case 2:
            MicroKernel<2>(kc, atile, lda, bp, ctile, ldc, w);
            break;
          default:
            MicroKernel<1>(kc, atile, lda, bp, ctile, ldc, w);
            break;
        }
      }
    }
  }
}

WARPER_DETERMINISTIC void MatMulRangeAvx2(const double* a, size_t a_cols,
                                          const double* b, size_t b_cols,
                                          double* out, size_t r0, size_t r1) {
  GemmBlocked(a + r0 * a_cols, a_cols, r1 - r0, a_cols, b, b_cols, b_cols,
              out + r0 * b_cols, b_cols);
}

WARPER_DETERMINISTIC void TransposeMatMulRangeAvx2(
    const double* a, size_t a_rows, size_t a_cols, const double* b,
    size_t b_cols, double* out, size_t i0, size_t i1) {
  // out[i0..i1) = (Aᵀ)[i0..i1) × B. Transpose the slice of A once so the
  // blocked GEMM sees contiguous contraction rows.
  size_t m = i1 - i0;
  if (m == 0 || a_rows == 0) return;
  t_pack_at.resize(m * a_rows);
  for (size_t k = 0; k < a_rows; ++k) {
    const double* arow = a + k * a_cols;
    for (size_t i = 0; i < m; ++i) t_pack_at[i * a_rows + k] = arow[i0 + i];
  }
  // t_pack_at aliases neither b nor out; GemmBlocked repacks B per k block
  // into the *other* thread_local buffer, so reusing it here is safe.
  GemmBlocked(t_pack_at.data(), a_rows, m, a_rows, b, b_cols, b_cols,
              out + i0 * b_cols, b_cols);
}

WARPER_DETERMINISTIC void MatMulTransposeRangeAvx2(
    const double* a, size_t a_cols, const double* b, size_t b_rows,
    double* out, size_t r0, size_t r1) {
  for (size_t i = r0; i < r1; ++i) {
    const double* arow = a + i * a_cols;
    for (size_t j = 0; j < b_rows; ++j) {
      const double* brow = b + j * a_cols;
      __m256d acc0 = _mm256_setzero_pd();
      __m256d acc1 = _mm256_setzero_pd();
      __m256d acc2 = _mm256_setzero_pd();
      __m256d acc3 = _mm256_setzero_pd();
      size_t k = 0;
      for (; k + 16 <= a_cols; k += 16) {
        acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(arow + k),
                               _mm256_loadu_pd(brow + k), acc0);
        acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(arow + k + 4),
                               _mm256_loadu_pd(brow + k + 4), acc1);
        acc2 = _mm256_fmadd_pd(_mm256_loadu_pd(arow + k + 8),
                               _mm256_loadu_pd(brow + k + 8), acc2);
        acc3 = _mm256_fmadd_pd(_mm256_loadu_pd(arow + k + 12),
                               _mm256_loadu_pd(brow + k + 12), acc3);
      }
      for (; k + 4 <= a_cols; k += 4) {
        acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(arow + k),
                               _mm256_loadu_pd(brow + k), acc0);
      }
      __m256d sum =
          _mm256_add_pd(_mm256_add_pd(acc0, acc1), _mm256_add_pd(acc2, acc3));
      alignas(32) double lanes[4];
      _mm256_store_pd(lanes, sum);
      double acc = lanes[0] + lanes[1] + lanes[2] + lanes[3];
      for (; k < a_cols; ++k) acc += arow[k] * brow[k];
      out[i * b_rows + j] = acc;
    }
  }
}

WARPER_DETERMINISTIC void BiasActRangeAvx2(double* out, size_t cols,
                                           const double* bias, Activation act,
                                           size_t r0, size_t r1) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d slope = _mm256_set1_pd(kLeakyReluSlope);
  for (size_t r = r0; r < r1; ++r) {
    double* row = &out[r * cols];
    switch (act) {
      case Activation::kIdentity:
      case Activation::kRelu:
      case Activation::kLeakyRelu: {
        size_t c = 0;
        for (; c + 4 <= cols; c += 4) {
          __m256d v = _mm256_add_pd(_mm256_loadu_pd(row + c),
                                    _mm256_loadu_pd(bias + c));
          if (act == Activation::kRelu) {
            v = _mm256_max_pd(v, zero);
          } else if (act == Activation::kLeakyRelu) {
            __m256d mask = _mm256_cmp_pd(v, zero, _CMP_GT_OQ);
            v = _mm256_blendv_pd(_mm256_mul_pd(v, slope), v, mask);
          }
          _mm256_storeu_pd(row + c, v);
        }
        for (; c < cols; ++c) {
          double v = row[c] + bias[c];
          if (act == Activation::kRelu) {
            v = v > 0.0 ? v : 0.0;
          } else if (act == Activation::kLeakyRelu) {
            v = v > 0.0 ? v : kLeakyReluSlope * v;
          }
          row[c] = v;
        }
        break;
      }
      case Activation::kSigmoid:
        for (size_t c = 0; c < cols; ++c) {
          row[c] = 1.0 / (1.0 + std::exp(-(row[c] + bias[c])));
        }
        break;
      case Activation::kTanh:
        for (size_t c = 0; c < cols; ++c) row[c] = std::tanh(row[c] + bias[c]);
        break;
    }
  }
}

WARPER_DETERMINISTIC void ActGradAvx2(Activation act, const double* post,
                                      double* grad, size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d slope = _mm256_set1_pd(kLeakyReluSlope);
  size_t i = 0;
  switch (act) {
    case Activation::kIdentity:
      return;
    case Activation::kRelu:
      for (; i + 4 <= n; i += 4) {
        __m256d p = _mm256_loadu_pd(post + i);
        __m256d g = _mm256_loadu_pd(grad + i);
        __m256d mask = _mm256_cmp_pd(p, zero, _CMP_GT_OQ);
        _mm256_storeu_pd(grad + i, _mm256_and_pd(g, mask));
      }
      for (; i < n; ++i) grad[i] *= post[i] > 0.0 ? 1.0 : 0.0;
      return;
    case Activation::kLeakyRelu:
      for (; i + 4 <= n; i += 4) {
        __m256d p = _mm256_loadu_pd(post + i);
        __m256d g = _mm256_loadu_pd(grad + i);
        __m256d mask = _mm256_cmp_pd(p, zero, _CMP_GT_OQ);
        _mm256_storeu_pd(grad + i,
                         _mm256_blendv_pd(_mm256_mul_pd(g, slope), g, mask));
      }
      for (; i < n; ++i) grad[i] *= post[i] > 0.0 ? 1.0 : kLeakyReluSlope;
      return;
    case Activation::kSigmoid:
      for (; i + 4 <= n; i += 4) {
        __m256d p = _mm256_loadu_pd(post + i);
        __m256d g = _mm256_loadu_pd(grad + i);
        __m256d d = _mm256_mul_pd(p, _mm256_sub_pd(one, p));
        _mm256_storeu_pd(grad + i, _mm256_mul_pd(g, d));
      }
      for (; i < n; ++i) grad[i] *= post[i] * (1.0 - post[i]);
      return;
    case Activation::kTanh:
      for (; i + 4 <= n; i += 4) {
        __m256d p = _mm256_loadu_pd(post + i);
        __m256d g = _mm256_loadu_pd(grad + i);
        __m256d d = _mm256_sub_pd(one, _mm256_mul_pd(p, p));
        _mm256_storeu_pd(grad + i, _mm256_mul_pd(g, d));
      }
      for (; i < n; ++i) grad[i] *= 1.0 - post[i] * post[i];
      return;
  }
}

WARPER_DETERMINISTIC void AddRowBroadcastAvx2(double* data, size_t rows,
                                              size_t cols, const double* bias) {
  for (size_t r = 0; r < rows; ++r) {
    double* row = data + r * cols;
    size_t c = 0;
    for (; c + 4 <= cols; c += 4) {
      _mm256_storeu_pd(row + c, _mm256_add_pd(_mm256_loadu_pd(row + c),
                                              _mm256_loadu_pd(bias + c)));
    }
    for (; c < cols; ++c) row[c] += bias[c];
  }
}

// Vectorizing over columns keeps each column's accumulation order identical
// to the scalar kernel (rows ascending), so ColumnSums stays bit-exact.
WARPER_DETERMINISTIC void ColumnSumsAvx2(const double* data, size_t rows,
                                         size_t cols, double* sums) {
  for (size_t r = 0; r < rows; ++r) {
    const double* row = data + r * cols;
    size_t c = 0;
    for (; c + 4 <= cols; c += 4) {
      _mm256_storeu_pd(sums + c, _mm256_add_pd(_mm256_loadu_pd(sums + c),
                                               _mm256_loadu_pd(row + c)));
    }
    for (; c < cols; ++c) sums[c] += row[c];
  }
}

WARPER_DETERMINISTIC void ScaleAvx2(double* data, size_t n, double s) {
  const __m256d sv = _mm256_set1_pd(s);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(data + i, _mm256_mul_pd(_mm256_loadu_pd(data + i), sv));
  }
  for (; i < n; ++i) data[i] *= s;
}

WARPER_DETERMINISTIC double SquaredNormAvx2(const double* data, size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256d v0 = _mm256_loadu_pd(data + i);
    __m256d v1 = _mm256_loadu_pd(data + i + 4);
    acc0 = _mm256_fmadd_pd(v0, v0, acc0);
    acc1 = _mm256_fmadd_pd(v1, v1, acc1);
  }
  __m256d sum = _mm256_add_pd(acc0, acc1);
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, sum);
  double acc = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; i < n; ++i) acc += data[i] * data[i];
  return acc;
}

}  // namespace

const KernelTable& Avx2Kernels() {
  static const KernelTable table = {
      "avx2",
      MatMulRangeAvx2,
      TransposeMatMulRangeAvx2,
      MatMulTransposeRangeAvx2,
      BiasActRangeAvx2,
      ActGradAvx2,
      AddRowBroadcastAvx2,
      ColumnSumsAvx2,
      ScaleAvx2,
      SquaredNormAvx2,
  };
  return table;
}

bool Avx2KernelsCompiled() { return true; }

}  // namespace warper::nn::internal

#else  // !WARPER_AVX2_IMPL

namespace warper::nn::internal {

// Built without AVX2 support: the dispatcher sees this via
// Avx2KernelsCompiled() and never selects the alias.
const KernelTable& Avx2Kernels() { return ScalarKernels(); }
bool Avx2KernelsCompiled() { return false; }

}  // namespace warper::nn::internal

#endif  // WARPER_AVX2_IMPL
