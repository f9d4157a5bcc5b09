// Runtime CPU feature detection for the SIMD kernel dispatcher.
//
// The nn kernel layer ships several implementations of the same dense
// kernels (scalar, AVX2+FMA) in one binary; at first use the dispatcher
// picks the fastest set the *running* CPU supports, so a binary built on an
// AVX2 box still runs (on the scalar path) anywhere. Detection happens once
// and is cached; the config override (`ParallelConfig::simd`) pins a
// specific path.
#ifndef WARPER_UTIL_CPU_FEATURES_H_
#define WARPER_UTIL_CPU_FEATURES_H_

#include <atomic>

namespace warper::util {

// Raw feature bits as reported by CPUID (x86) — all false elsewhere.
// `avx2` / `avx512f` are only set when the OS also saves the corresponding
// register state (XGETBV), i.e. when the instructions are actually usable.
struct CpuFeatures {
  bool avx = false;
  bool fma = false;
  bool avx2 = false;
  bool avx512f = false;
};

// Queries CPUID once and caches the result. Thread-safe.
const CpuFeatures& GetCpuFeatures();

// The kernel instruction sets this tree implements, best-last.
enum class SimdLevel {
  kScalar,
  kAvx2,  // AVX2 + FMA
};

// Best level the running CPU can execute (kAvx2 needs both AVX2 and FMA).
// Whether the *binary* contains a layer's AVX2 kernels is a separate question
// (the `avx2_compiled` argument of ResolveSimdLevel).
SimdLevel BestSupportedSimdLevel();

const char* SimdLevelName(SimdLevel level);

// Per-config dispatch mode, threaded through ParallelConfig::simd. Every
// table is replay-exact: a seeded run gives the same bytes at any thread
// count and batch split on the table it ran on. Only the bits differ between
// tables (FMA rounds differently), so the mode is what a run pins to replay
// on another CPU.
//  kAuto   — the best level the CPU supports and the binary contains. The
//            WARPER_SIMD env var (scalar|avx2|auto) refines it without a
//            recompile.
//  kScalar — the portable scalar reference kernels: the same bits on every
//            CPU, and the historical results.
//  kAvx2   — AVX2+FMA kernels; ParallelConfig::Validate rejects it on CPUs
//            without AVX2+FMA.
enum class SimdMode {
  kAuto,
  kScalar,
  kAvx2,
};

// The one resolver of a dispatch mode, shared by every kernel layer. kAuto
// first takes the WARPER_SIMD mode (read once per process; an unknown value
// is warned about once and ignored), then the best available level.
// `avx2_compiled` says whether the calling layer's AVX2 kernels are in the
// binary. kAvx2 where AVX2 is unavailable falls back to kScalar with a
// warning.
SimdLevel ResolveSimdLevel(SimdMode mode, bool avx2_compiled);

const char* SimdModeName(SimdMode mode);

// One layer's process-wide kernel table (nn::Matrix, the annotation engine).
// Install() resolves a mode and swaps the table in; Get() returns it, and
// installs the kAuto default on first use when nothing was installed yet.
// Safe to read from any thread. Constant-initialized, so usable from static
// initializers.
template <typename Table>
class KernelTableSlot {
 public:
  constexpr KernelTableSlot(const Table& (*scalar)(), const Table& (*avx2)(),
                            bool (*avx2_compiled)())
      : scalar_(scalar), avx2_(avx2), avx2_compiled_(avx2_compiled) {}

  void Install(SimdMode mode) {
    table_.store(&Resolve(mode), std::memory_order_release);
  }

  const Table& Get() {
    const Table* table = table_.load(std::memory_order_acquire);
    if (table != nullptr) return *table;
    const Table* resolved = &Resolve(SimdMode::kAuto);
    // A concurrent Install wins over the default.
    table_.compare_exchange_strong(table, resolved, std::memory_order_acq_rel);
    return table != nullptr ? *table : *resolved;
  }

 private:
  const Table& Resolve(SimdMode mode) const {
    return ResolveSimdLevel(mode, avx2_compiled_()) == SimdLevel::kAvx2
               ? avx2_()
               : scalar_();
  }

  const Table& (*scalar_)();
  const Table& (*avx2_)();
  bool (*avx2_compiled_)();
  std::atomic<const Table*> table_{nullptr};
};

}  // namespace warper::util

#endif  // WARPER_UTIL_CPU_FEATURES_H_
