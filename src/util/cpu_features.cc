#include "util/cpu_features.h"

#include <cstdlib>
#include <cstring>

#include "util/logging.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#define WARPER_X86 1
#endif

namespace warper::util {
namespace {

#ifdef WARPER_X86

// XCR0 bits: SSE (1), AVX ymm (2), AVX-512 opmask/zmm (5..7). AVX is only
// usable when the OS context-switches ymm state; same for zmm.
constexpr unsigned long long kXcr0Ymm = 0x6;        // bits 1|2
constexpr unsigned long long kXcr0Zmm = 0xe6;       // bits 1|2|5|6|7

CpuFeatures Detect() {
  CpuFeatures f;
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return f;

  bool osxsave = (ecx & (1u << 27)) != 0;
  bool cpu_avx = (ecx & (1u << 28)) != 0;
  bool cpu_fma = (ecx & (1u << 12)) != 0;

  // XGETBV via inline asm: the <immintrin.h> _xgetbv wrapper needs -mxsave,
  // which we don't want to require for the whole util library.
  unsigned long long xcr0 = 0;
  if (osxsave) {
    unsigned lo = 0, hi = 0;
    __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
    xcr0 = (static_cast<unsigned long long>(hi) << 32) | lo;
  }
  bool ymm_ok = osxsave && (xcr0 & kXcr0Ymm) == kXcr0Ymm;
  bool zmm_ok = osxsave && (xcr0 & kXcr0Zmm) == kXcr0Zmm;

  f.avx = cpu_avx && ymm_ok;
  f.fma = cpu_fma && ymm_ok;

  unsigned max_leaf = __get_cpuid_max(0, nullptr);
  if (max_leaf >= 7) {
    __cpuid_count(7, 0, eax, ebx, ecx, edx);
    f.avx2 = ymm_ok && (ebx & (1u << 5)) != 0;
    f.avx512f = zmm_ok && (ebx & (1u << 16)) != 0;
  }
  return f;
}

#else

CpuFeatures Detect() { return CpuFeatures{}; }

#endif  // WARPER_X86

// The WARPER_SIMD refinement of kAuto, parsed on the first call.
SimdMode EnvSimdMode() {
  static const SimdMode mode = [] {
    const char* env = std::getenv("WARPER_SIMD");
    if (env == nullptr || *env == '\0' || std::strcmp(env, "auto") == 0) {
      return SimdMode::kAuto;
    }
    if (std::strcmp(env, "scalar") == 0) return SimdMode::kScalar;
    if (std::strcmp(env, "avx2") == 0) return SimdMode::kAvx2;
    WARPER_LOG(Warn) << "ignoring unknown WARPER_SIMD value '" << env
                     << "' (want scalar|avx2|auto)";
    return SimdMode::kAuto;
  }();
  return mode;
}

}  // namespace

const CpuFeatures& GetCpuFeatures() {
  static const CpuFeatures features = Detect();
  return features;
}

SimdLevel BestSupportedSimdLevel() {
  const CpuFeatures& f = GetCpuFeatures();
  if (f.avx2 && f.fma) return SimdLevel::kAvx2;
  return SimdLevel::kScalar;
}

SimdLevel ResolveSimdLevel(SimdMode mode, bool avx2_compiled) {
  if (mode == SimdMode::kAuto) mode = EnvSimdMode();
  if (mode == SimdMode::kScalar) return SimdLevel::kScalar;
  bool cpu_avx2 = BestSupportedSimdLevel() == SimdLevel::kAvx2;
  if (cpu_avx2 && avx2_compiled) return SimdLevel::kAvx2;
  if (mode == SimdMode::kAvx2) {
    WARPER_LOG(Warn) << "simd=avx2 requested but unavailable ("
                     << (cpu_avx2 ? "binary built without AVX2 kernels"
                                  : "CPU lacks AVX2+FMA")
                     << "); using scalar kernels";
  }
  return SimdLevel::kScalar;
}

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

const char* SimdModeName(SimdMode mode) {
  switch (mode) {
    case SimdMode::kAuto:
      return "auto";
    case SimdMode::kScalar:
      return "scalar";
    case SimdMode::kAvx2:
      return "avx2";
  }
  return "unknown";
}

}  // namespace warper::util
