// Scalar reference kernels + the dispatch half of the annotate-kernel layer.
// The AVX2 twins live in annotate_kernels_avx2.cc (the only storage TU built
// with -mavx2).
#include "storage/annotate_kernels.h"

#include <atomic>
#include <cstdlib>
#include <string>

#include "util/annotations.h"
#include "util/cpu_features.h"
#include "util/logging.h"

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
// workers while a config change lands elsewhere) — hence atomic. nullptr
// means "not yet resolved": first use resolves the default config.
std::atomic<const AnnotateKernelTable*> g_kernels{nullptr};

}  // namespace

const AnnotateKernelTable& ScalarAnnotateKernels() { return kScalarTable; }

namespace {

const AnnotateKernelTable& ResolveAnnotateKernels(
    const util::ParallelConfig& config) {
  util::SimdMode mode = config.simd;
  if (mode == util::SimdMode::kAuto) {
    if (const char* env = std::getenv("WARPER_SIMD")) {
      std::string value(env);
      if (value == "scalar") {
        mode = util::SimdMode::kScalar;
      } else if (value == "avx2") {
        mode = util::SimdMode::kAvx2;
      }
      // Unknown values are warned about by the nn dispatcher; stay quiet
      // here to avoid double logging.
    }
  }
  switch (mode) {
    case util::SimdMode::kScalar:
      return ScalarAnnotateKernels();
    case util::SimdMode::kAvx2:
      if (util::BestSupportedSimdLevel() != util::SimdLevel::kAvx2 ||
          !Avx2AnnotateKernelsCompiled()) {
        WARPER_LOG(Warn) << "simd=avx2 requested but unavailable ("
                         << (Avx2AnnotateKernelsCompiled()
                                 ? "CPU lacks AVX2+FMA"
                                 : "binary built without AVX2 kernels")
                         << "); using scalar annotate kernels";
        return ScalarAnnotateKernels();
      }
      return Avx2AnnotateKernels();
    case util::SimdMode::kAuto:
      break;
  }
  // kAuto: counts are integer-exact on every path, so — unlike the nn GEMM
  // dispatcher — deterministic configs still take the best supported level.
  if (util::BestSupportedSimdLevel() == util::SimdLevel::kAvx2 &&
      Avx2AnnotateKernelsCompiled()) {
    return Avx2AnnotateKernels();
  }
  return ScalarAnnotateKernels();
}

}  // namespace

void SetAnnotateKernels(const util::ParallelConfig& config) {
  g_kernels.store(&ResolveAnnotateKernels(config), std::memory_order_release);
}

const AnnotateKernelTable& ActiveAnnotateKernels() {
  const AnnotateKernelTable* table = g_kernels.load(std::memory_order_acquire);
  if (table == nullptr) {
    table = &ResolveAnnotateKernels(util::ParallelConfig{});
    g_kernels.store(table, std::memory_order_release);
  }
  return *table;
}

const char* ActiveAnnotateKernelName() { return ActiveAnnotateKernels().name; }

}  // namespace warper::storage::internal
