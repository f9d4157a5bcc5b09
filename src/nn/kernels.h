// Internal dense-kernel table for nn::Matrix.
//
// Every numeric inner loop behind the Matrix API lives in one of these
// tables; Matrix methods only handle shape checks and row-range dispatch
// onto the shared thread pool, then call through the installed table. Two
// implementations ship in the binary:
//
//   ScalarKernels() — the reference loops, arithmetic-identical to the
//     pre-SIMD tree: the same bits on every machine and the historical
//     results. Pin it (ParallelConfig::simd = kScalar) for cross-CPU replay.
//   Avx2Kernels()   — AVX2+FMA micro-kernels with a cache-blocked packed
//     B panel for the main GEMM, the default where the CPU supports them.
//     FMA contraction and register-blocked accumulation round differently
//     from the scalar loops, so this path agrees with scalar only to a
//     relative tolerance (~1e-12 at the MLP's shapes; see DESIGN.md
//     "Kernel dispatch & SIMD").
//
// Both tables are replay-exact. Each output element is accumulated in an
// order fixed by the table alone (one accumulator per element, k walked in
// fixed blocks), never by which rows share a task or a register tile, and
// the *range* kernels own a contiguous slice of output rows. So any row
// partition (serial or ParallelFor, one batch or many) produces the same
// bits for a given table; only scalar-vs-SIMD equality is approximate.
//
// Callers outside src/nn should use the Matrix API, not this header.
#ifndef WARPER_NN_KERNELS_H_
#define WARPER_NN_KERNELS_H_

#include <cstddef>

#include "nn/matrix.h"

namespace warper::nn::internal {

struct KernelTable {
  // Dispatch-table name as reported by ActiveKernelName().
  const char* name;

  // out[r0..r1) += A[r0..r1) × B; out is rows(A)×b_cols, zeroed by caller.
  void (*matmul_range)(const double* a, size_t a_cols, const double* b,
                       size_t b_cols, double* out, size_t r0, size_t r1);

  // out[i0..i1) += Aᵀ[i0..i1) × B, where i indexes columns of A (rows of
  // the a_cols×b_cols output). A is a_rows×a_cols, B is a_rows×b_cols.
  void (*transpose_matmul_range)(const double* a, size_t a_rows,
                                 size_t a_cols, const double* b, size_t b_cols,
                                 double* out, size_t i0, size_t i1);

  // out[r0..r1) = A[r0..r1) × Bᵀ; B is b_rows×a_cols.
  void (*matmul_transpose_range)(const double* a, size_t a_cols,
                                 const double* b, size_t b_rows, double* out,
                                 size_t r0, size_t r1);

  // Fused MLP epilogue over rows [r0, r1): out[r][c] = act(out[r][c] +
  // bias[c]). Runs inside the same row-range task as matmul_range so each
  // output slice gets bias+activation applied while still cache-hot.
  void (*bias_act_range)(double* out, size_t cols, const double* bias,
                         Activation act, size_t r0, size_t r1);

  // grad[i] *= act'(post[i]) over n elements, with the derivative expressed
  // through the post-activation value (all supported activations admit it).
  void (*act_grad)(Activation act, const double* post, double* grad, size_t n);

  // data[r][c] += bias[c] for every row.
  void (*add_row_broadcast)(double* data, size_t rows, size_t cols,
                            const double* bias);

  // sums[c] = Σ_r data[r][c]; sums is zeroed by the caller.
  void (*column_sums)(const double* data, size_t rows, size_t cols,
                      double* sums);

  // data[i] *= s.
  void (*scale)(double* data, size_t n, double s);

  // Σ data[i]².
  double (*squared_norm)(const double* data, size_t n);
};

const KernelTable& ScalarKernels();

// The AVX2+FMA table. When the binary was built without AVX2 support (non-
// x86 target or a compiler lacking -mavx2/-mfma) this aliases the scalar
// table; Avx2KernelsCompiled() tells the dispatcher which case it got.
const KernelTable& Avx2Kernels();
bool Avx2KernelsCompiled();

}  // namespace warper::nn::internal

#endif  // WARPER_NN_KERNELS_H_
