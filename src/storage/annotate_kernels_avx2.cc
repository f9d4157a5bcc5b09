// AVX2 range-scan kernels — the fast annotate dispatch path.
//
// This is the only storage TU compiled with -mavx2 (see
// src/storage/CMakeLists.txt); util::GetCpuFeatures() gates execution at
// runtime so the binary stays portable. When the compiler can't target AVX2
// the file degrades to an alias of the scalar table.
//
// Match semantics are the scan's !(v < lo) && !(v > hi): the unordered
// compare predicates _CMP_NLT_UQ / _CMP_NGT_UQ are true for NaN, so NaN
// matches — exactly like the scalar reference. A true lane is all-ones
// (-1 as int64), so the count kernel accumulates matches by *subtracting*
// the compare mask from four packed int64 counters: no movemask or popcount
// in the hot loop. The mask kernels assemble 64-row bitset words from
// sixteen 4-bit movemask groups.
#include "storage/annotate_kernels.h"

#if (defined(__x86_64__) || defined(__i386__)) && defined(WARPER_BUILD_AVX2)
#define WARPER_ANNOTATE_AVX2_IMPL 1
#endif

#ifdef WARPER_ANNOTATE_AVX2_IMPL

#include <immintrin.h>

#include "util/annotations.h"

namespace warper::storage::internal {
namespace {

inline bool MatchScalar(double v, double lo, double hi) {
  return !(v < lo) && !(v > hi);
}

// All-ones lanes where !(v < lo) && !(v > hi).
inline __m256d MatchMask(__m256d v, __m256d lo, __m256d hi) {
  return _mm256_and_pd(_mm256_cmp_pd(v, lo, _CMP_NLT_UQ),
                       _mm256_cmp_pd(v, hi, _CMP_NGT_UQ));
}

WARPER_DETERMINISTIC int64_t Avx2CountRange(const double* v, size_t n,
                                             double lo, double hi) {
  __m256d vlo = _mm256_set1_pd(lo);
  __m256d vhi = _mm256_set1_pd(hi);
  __m256i acc0 = _mm256_setzero_si256();
  __m256i acc1 = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256d m0 = MatchMask(_mm256_loadu_pd(v + i), vlo, vhi);
    __m256d m1 = MatchMask(_mm256_loadu_pd(v + i + 4), vlo, vhi);
    acc0 = _mm256_sub_epi64(acc0, _mm256_castpd_si256(m0));
    acc1 = _mm256_sub_epi64(acc1, _mm256_castpd_si256(m1));
  }
  if (i + 4 <= n) {
    __m256d m0 = MatchMask(_mm256_loadu_pd(v + i), vlo, vhi);
    acc0 = _mm256_sub_epi64(acc0, _mm256_castpd_si256(m0));
    i += 4;
  }
  alignas(32) int64_t lanes[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc0);
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes + 4), acc1);
  int64_t count = lanes[0] + lanes[1] + lanes[2] + lanes[3] + lanes[4] +
                  lanes[5] + lanes[6] + lanes[7];
  for (; i < n; ++i) count += MatchScalar(v[i], lo, hi) ? 1 : 0;
  return count;
}

// One 64-row bitset word starting at v (v + 64 must be in range).
inline uint64_t MaskWord(const double* v, __m256d lo, __m256d hi) {
  uint64_t bits = 0;
  for (int g = 0; g < 16; ++g) {
    __m256d m = MatchMask(_mm256_loadu_pd(v + 4 * g), lo, hi);
    bits |= static_cast<uint64_t>(_mm256_movemask_pd(m))
            << (4 * g);
  }
  return bits;
}

inline uint64_t TailWord(const double* v, size_t n, double lo, double hi) {
  uint64_t bits = 0;
  for (size_t r = 0; r < n; ++r) {
    bits |= static_cast<uint64_t>(MatchScalar(v[r], lo, hi)) << r;
  }
  return bits;
}

WARPER_DETERMINISTIC void Avx2MaskRange(const double* v, size_t n, double lo,
                                        double hi, uint64_t* mask) {
  __m256d vlo = _mm256_set1_pd(lo);
  __m256d vhi = _mm256_set1_pd(hi);
  size_t full = n / 64;
  for (size_t w = 0; w < full; ++w) mask[w] = MaskWord(v + 64 * w, vlo, vhi);
  if (n % 64 != 0) mask[full] = TailWord(v + 64 * full, n % 64, lo, hi);
}

WARPER_DETERMINISTIC void Avx2MaskRangeAnd(const double* v, size_t n,
                                           double lo, double hi,
                                           uint64_t* mask) {
  __m256d vlo = _mm256_set1_pd(lo);
  __m256d vhi = _mm256_set1_pd(hi);
  size_t full = n / 64;
  for (size_t w = 0; w < full; ++w) mask[w] &= MaskWord(v + 64 * w, vlo, vhi);
  if (n % 64 != 0) mask[full] &= TailWord(v + 64 * full, n % 64, lo, hi);
}

const AnnotateKernelTable kAvx2Table = {
    "avx2",
    &Avx2CountRange,
    &Avx2MaskRange,
    &Avx2MaskRangeAnd,
};

}  // namespace

const AnnotateKernelTable& Avx2AnnotateKernels() { return kAvx2Table; }
bool Avx2AnnotateKernelsCompiled() { return true; }

}  // namespace warper::storage::internal

#else  // !WARPER_ANNOTATE_AVX2_IMPL

namespace warper::storage::internal {

const AnnotateKernelTable& Avx2AnnotateKernels() {
  return ScalarAnnotateKernels();
}
bool Avx2AnnotateKernelsCompiled() { return false; }

}  // namespace warper::storage::internal

#endif  // WARPER_ANNOTATE_AVX2_IMPL
