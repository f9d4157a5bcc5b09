// Dense row-major matrix of doubles — the numeric workhorse of the NN and
// classic-ML substrates. Deliberately minimal: just the operations the
// training loops need, with bounds checks in debug builds.
//
// Every numeric inner loop dispatches through a process-wide kernel table
// (scalar reference or AVX2+FMA; see nn/kernels.h) selected by
// SetMatrixParallelism from util::ParallelConfig::simd: kAuto takes the best
// instruction set the CPU supports, kScalar pins the portable reference
// kernels. Results are replay-exact on either table.
#ifndef WARPER_NN_MATRIX_H_
#define WARPER_NN_MATRIX_H_

#include <cstddef>
#include <vector>

#include "util/aligned.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace warper::nn {

// Matrix backing store: 64-byte (cache-line) aligned so SIMD kernels and
// packed panels start on a vector boundary. Interchangeable with
// std::vector<double> except for the allocator template argument.
using AlignedVector = std::vector<double, util::AlignedAllocator<double, 64>>;

// Activations the fused GEMM epilogue supports. Defined here (not mlp.h) so
// the kernel layer can fuse bias + activation into the GEMM output pass;
// mlp.h re-exports it unchanged for all existing call sites.
enum class Activation {
  kIdentity,
  kRelu,
  kLeakyRelu,  // slope 0.01, as in the paper's Table 3
  kSigmoid,
  kTanh,
};

inline constexpr double kLeakyReluSlope = 0.01;

// Process-wide policy for the parallel matrix kernels. MatMul and friends
// split their *output rows* across the shared util::ThreadPool when the
// product is large enough; per-element accumulation order is fixed by the
// installed kernel table alone (never by the partition), so parallel results
// are bit-identical to serial results on both the scalar and SIMD paths.
struct MatrixParallelPolicy {
  // Kernel-level switch derived from util::ParallelConfig (1 = serial).
  int threads = 1;
  // Serial fallback below this many multiply-adds; dispatch overhead beats
  // the win on small products (a 64×130·130×128 trunk batch is ~1M madds).
  size_t min_madds = 1 << 17;
  // Minimum output rows per task.
  size_t grain_rows = 8;
};

// Installs the kernel policy *and* the dispatch table (typically from
// WarperConfig::parallel via core::ApplyParallelConfig). Not thread-safe
// against concurrent MatMul. Before the first call, the first kernel use
// installs the default config's table (kAuto: the best supported set).
void SetMatrixParallelism(const util::ParallelConfig& config);
const MatrixParallelPolicy& matrix_parallel_policy();

// Name of the installed kernel table: "scalar" or "avx2".
const char* ActiveKernelName();

class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static Matrix FromRows(const std::vector<std::vector<double>>& rows);
  // Xavier/Glorot-uniform initialization for a (fan_in × fan_out) weight.
  static Matrix Xavier(size_t rows, size_t cols, util::Rng* rng);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& At(size_t r, size_t c);
  double At(size_t r, size_t c) const;

  const AlignedVector& data() const { return data_; }
  AlignedVector& data() { return data_; }

  // Returns row r as a vector (copy).
  std::vector<double> Row(size_t r) const;
  void SetRow(size_t r, const std::vector<double>& values);
  // Copies src's row src_row into this matrix's row dst_row without the
  // temporary vector Row()+SetRow() would materialize. Widths must match.
  void CopyRowFrom(size_t dst_row, const Matrix& src, size_t src_row);

  // C = this × other. Requires cols() == other.rows().
  Matrix MatMul(const Matrix& other) const;
  // C = act(this × w + bias), the bias/activation epilogue fused into the
  // GEMM output pass (one cache-hot sweep instead of three). Arithmetic per
  // element is identical to MatMul + AddRowBroadcast + activation.
  Matrix MatMulBiasAct(const Matrix& w, const std::vector<double>& bias,
                       Activation act) const;
  // C = thisᵀ × other.
  Matrix TransposeMatMul(const Matrix& other) const;
  // C = this × otherᵀ.
  Matrix MatMulTranspose(const Matrix& other) const;

  Matrix Transposed() const;

  // Elementwise in-place operations (shapes must match).
  void Add(const Matrix& other);
  void Sub(const Matrix& other);
  void MulElem(const Matrix& other);
  void Scale(double s);

  // Adds a row vector to every row (broadcast), e.g. a bias.
  void AddRowBroadcast(const std::vector<double>& bias);

  // Sum over rows → vector of length cols().
  std::vector<double> ColumnSums() const;

  // Frobenius-norm squared.
  double SquaredNorm() const;

 private:
  size_t rows_, cols_;
  AlignedVector data_;
};

// grad ⊙= act'(post) given the *post*-activation values (every supported
// activation admits this form). The backward mate of the fused epilogue.
void ActivationGradInPlace(Activation act, const Matrix& post, Matrix* grad);

}  // namespace warper::nn

#endif  // WARPER_NN_MATRIX_H_
