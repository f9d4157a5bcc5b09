// Scalar reference kernels + the dispatch half of the annotate-kernel layer.
// The AVX2 twins live in annotate_kernels_avx2.cc (the only storage TU built
// with -mavx2).
#include "storage/annotate_kernels.h"

#include "util/annotations.h"
#include "util/cpu_features.h"

namespace warper::storage::internal {
namespace {

// The scan predicate, spelled so NaN matches — the exact semantics of
// RangePredicate::Matches and of the seed row-at-a-time scan.
inline bool MatchScalar(double v, double lo, double hi) {
  return !(v < lo) && !(v > hi);
}

WARPER_DETERMINISTIC int64_t ScalarCountRange(const double* v, size_t n, double lo, double hi) {
  int64_t count = 0;
  for (size_t i = 0; i < n; ++i) count += MatchScalar(v[i], lo, hi) ? 1 : 0;
  return count;
}

WARPER_DETERMINISTIC void ScalarMaskRange(const double* v, size_t n, double lo, double hi,
                     uint64_t* mask) {
  size_t words = (n + 63) / 64;
  for (size_t w = 0; w < words; ++w) {
    uint64_t bits = 0;
    size_t begin = w * 64;
    size_t end = begin + 64 < n ? begin + 64 : n;
    for (size_t r = begin; r < end; ++r) {
      bits |= static_cast<uint64_t>(MatchScalar(v[r], lo, hi)) << (r - begin);
    }
    mask[w] = bits;
  }
}

WARPER_DETERMINISTIC void ScalarMaskRangeAnd(const double* v, size_t n, double lo, double hi,
                        uint64_t* mask) {
  size_t words = (n + 63) / 64;
  for (size_t w = 0; w < words; ++w) {
    uint64_t bits = 0;
    size_t begin = w * 64;
    size_t end = begin + 64 < n ? begin + 64 : n;
    for (size_t r = begin; r < end; ++r) {
      bits |= static_cast<uint64_t>(MatchScalar(v[r], lo, hi)) << (r - begin);
    }
    mask[w] &= bits;
  }
}

const AnnotateKernelTable kScalarTable = {
    "scalar",
    &ScalarCountRange,
    &ScalarMaskRange,
    &ScalarMaskRangeAnd,
};

// The installed table, read on every annotation pass (possibly from pool
// workers while a config change lands elsewhere).
constinit util::KernelTableSlot<AnnotateKernelTable> g_kernels(
    &ScalarAnnotateKernels, &Avx2AnnotateKernels, &Avx2AnnotateKernelsCompiled);

}  // namespace

const AnnotateKernelTable& ScalarAnnotateKernels() { return kScalarTable; }

void SetAnnotateKernels(const util::ParallelConfig& config) {
  g_kernels.Install(config.simd);
}

const AnnotateKernelTable& ActiveAnnotateKernels() { return g_kernels.Get(); }

const char* ActiveAnnotateKernelName() { return ActiveAnnotateKernels().name; }

}  // namespace warper::storage::internal
