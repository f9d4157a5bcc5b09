#include "nn/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "nn/kernels.h"
#include "util/cpu_features.h"
#include "util/logging.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace warper::nn {
namespace {

MatrixParallelPolicy g_policy;

// The installed dispatch table.
constinit util::KernelTableSlot<internal::KernelTable> g_kernels(
    &internal::ScalarKernels, &internal::Avx2Kernels,
    &internal::Avx2KernelsCompiled);

// True when an (m × n × k) product is worth dispatching to the pool.
bool UseParallel(size_t out_rows, size_t madds) {
  return g_policy.threads != 1 && madds >= g_policy.min_madds &&
         out_rows >= 2 * g_policy.grain_rows && !util::OnPoolWorkerThread();
}

// Row-range dispatch: each task owns a contiguous slice of output rows, so
// no two tasks write the same element and per-element accumulation order
// matches the serial kernel exactly (bit-identical results).
void ForOutputRows(size_t rows, const std::function<void(size_t, size_t)>& fn) {
  util::ThreadPool::Global().ParallelFor(0, rows, g_policy.grain_rows, fn);
}

}  // namespace

void SetMatrixParallelism(const util::ParallelConfig& config) {
  g_policy.threads = config.ResolvedThreads();
  g_policy.grain_rows = std::max<size_t>(1, config.grain / 32);
  g_kernels.Install(config.simd);
}

const MatrixParallelPolicy& matrix_parallel_policy() { return g_policy; }

const char* ActiveKernelName() { return g_kernels.Get().name; }

Matrix Matrix::FromRows(const std::vector<std::vector<double>>& rows) {
  WARPER_CHECK(!rows.empty());
  Matrix m(rows.size(), rows[0].size());
  for (size_t r = 0; r < rows.size(); ++r) {
    WARPER_CHECK(rows[r].size() == m.cols_);
    for (size_t c = 0; c < m.cols_; ++c) m.data_[r * m.cols_ + c] = rows[r][c];
  }
  return m;
}

Matrix Matrix::Xavier(size_t rows, size_t cols, util::Rng* rng) {
  Matrix m(rows, cols);
  double limit = std::sqrt(6.0 / static_cast<double>(rows + cols));
  for (double& v : m.data_) v = rng->Uniform(-limit, limit);
  return m;
}

double& Matrix::At(size_t r, size_t c) {
  WARPER_CHECK(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

double Matrix::At(size_t r, size_t c) const {
  WARPER_CHECK(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

std::vector<double> Matrix::Row(size_t r) const {
  WARPER_CHECK(r < rows_);
  return std::vector<double>(data_.begin() + static_cast<long>(r * cols_),
                             data_.begin() + static_cast<long>((r + 1) * cols_));
}

void Matrix::SetRow(size_t r, const std::vector<double>& values) {
  WARPER_CHECK(r < rows_ && values.size() == cols_);
  for (size_t c = 0; c < cols_; ++c) data_[r * cols_ + c] = values[c];
}

void Matrix::CopyRowFrom(size_t dst_row, const Matrix& src, size_t src_row) {
  WARPER_CHECK(dst_row < rows_ && src_row < src.rows_ && cols_ == src.cols_);
  if (cols_ == 0) return;
  std::memcpy(&data_[dst_row * cols_], &src.data_[src_row * cols_],
              cols_ * sizeof(double));
}

Matrix Matrix::MatMul(const Matrix& other) const {
  WARPER_CHECK_MSG(cols_ == other.rows_, "MatMul shape mismatch: (" << rows_
                       << "x" << cols_ << ") x (" << other.rows_ << "x"
                       << other.cols_ << ")");
  Matrix out(rows_, other.cols_);
  const internal::KernelTable& kernels = g_kernels.Get();
  auto kernel = [&](size_t r0, size_t r1) {
    kernels.matmul_range(data_.data(), cols_, other.data_.data(), other.cols_,
                         out.data_.data(), r0, r1);
  };
  if (UseParallel(rows_, rows_ * cols_ * other.cols_)) {
    ForOutputRows(rows_, kernel);
  } else {
    kernel(0, rows_);
  }
  return out;
}

Matrix Matrix::MatMulBiasAct(const Matrix& w, const std::vector<double>& bias,
                             Activation act) const {
  WARPER_CHECK_MSG(cols_ == w.rows_, "MatMulBiasAct shape mismatch: ("
                       << rows_ << "x" << cols_ << ") x (" << w.rows_ << "x"
                       << w.cols_ << ")");
  WARPER_CHECK(bias.size() == w.cols_);
  Matrix out(rows_, w.cols_);
  const internal::KernelTable& kernels = g_kernels.Get();
  auto kernel = [&](size_t r0, size_t r1) {
    kernels.matmul_range(data_.data(), cols_, w.data_.data(), w.cols_,
                         out.data_.data(), r0, r1);
    kernels.bias_act_range(out.data_.data(), w.cols_, bias.data(), act, r0,
                           r1);
  };
  if (UseParallel(rows_, rows_ * cols_ * w.cols_)) {
    ForOutputRows(rows_, kernel);
  } else {
    kernel(0, rows_);
  }
  return out;
}

Matrix Matrix::TransposeMatMul(const Matrix& other) const {
  WARPER_CHECK(rows_ == other.rows_);
  Matrix out(cols_, other.cols_);
  const internal::KernelTable& kernels = g_kernels.Get();
  auto kernel = [&](size_t i0, size_t i1) {
    kernels.transpose_matmul_range(data_.data(), rows_, cols_,
                                   other.data_.data(), other.cols_,
                                   out.data_.data(), i0, i1);
  };
  if (UseParallel(cols_, rows_ * cols_ * other.cols_)) {
    ForOutputRows(cols_, kernel);
  } else {
    kernel(0, cols_);
  }
  return out;
}

Matrix Matrix::MatMulTranspose(const Matrix& other) const {
  WARPER_CHECK(cols_ == other.cols_);
  Matrix out(rows_, other.rows_);
  const internal::KernelTable& kernels = g_kernels.Get();
  auto kernel = [&](size_t r0, size_t r1) {
    kernels.matmul_transpose_range(data_.data(), cols_, other.data_.data(),
                                   other.rows_, out.data_.data(), r0, r1);
  };
  if (UseParallel(rows_, rows_ * cols_ * other.rows_)) {
    ForOutputRows(rows_, kernel);
  } else {
    kernel(0, rows_);
  }
  return out;
}

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < cols_; ++c) {
      out.data_[c * rows_ + r] = data_[r * cols_ + c];
    }
  }
  return out;
}

void Matrix::Add(const Matrix& other) {
  WARPER_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Matrix::Sub(const Matrix& other) {
  WARPER_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
}

void Matrix::MulElem(const Matrix& other) {
  WARPER_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] *= other.data_[i];
}

void Matrix::Scale(double s) {
  g_kernels.Get().scale(data_.data(), data_.size(), s);
}

void Matrix::AddRowBroadcast(const std::vector<double>& bias) {
  WARPER_CHECK(bias.size() == cols_);
  g_kernels.Get().add_row_broadcast(data_.data(), rows_, cols_, bias.data());
}

std::vector<double> Matrix::ColumnSums() const {
  std::vector<double> sums(cols_, 0.0);
  g_kernels.Get().column_sums(data_.data(), rows_, cols_, sums.data());
  return sums;
}

double Matrix::SquaredNorm() const {
  return g_kernels.Get().squared_norm(data_.data(), data_.size());
}

void ActivationGradInPlace(Activation act, const Matrix& post, Matrix* grad) {
  WARPER_CHECK(post.rows() == grad->rows() && post.cols() == grad->cols());
  g_kernels.Get().act_grad(act, post.data().data(), grad->data().data(),
                           grad->data().size());
}

}  // namespace warper::nn
