// Internal range-scan kernel table for the annotation engine.
//
// Every inner loop of ground-truth annotation — "does row r satisfy
// low <= v <= high" over a contiguous slice of Column::values() — lives in
// one of these tables. Two implementations ship in the binary, mirroring
// the nn kernel layer (src/nn/kernels.h):
//
//   ScalarAnnotateKernels() — portable reference loops.
//   Avx2AnnotateKernels()   — AVX2 compare+mask kernels: 4 doubles per
//     vector, matches accumulated by subtracting all-ones compare lanes
//     (count) or assembled into 64-row bitset words via movemask (mask).
//
// Annotation kernels count integers: SIMD and scalar agree EXACTLY, bit for
// bit, on every input — including NaN, which matches every range under the
// scan's !(v < lo) && !(v > hi) semantics (the unordered-compare predicates
// NLT/NGT reproduce this in AVX2). So annotation counts are the same on every
// table and CPU. ParallelConfig::simd picks the table exactly as in the nn
// dispatcher (util::KernelTableSlot, util::ResolveSimdLevel).
//
// Callers outside src/storage should use Annotator, not this header.
#ifndef WARPER_STORAGE_ANNOTATE_KERNELS_H_
#define WARPER_STORAGE_ANNOTATE_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "util/thread_pool.h"

namespace warper::storage::internal {

// All kernels define "match" as !(v < low) && !(v > high) — identical to
// RangePredicate::Matches, NaN included.
struct AnnotateKernelTable {
  // Dispatch-table name as reported by ActiveAnnotateKernelName().
  const char* name;

  // Number of rows r in [0, n) matching [low, high].
  int64_t (*count_range)(const double* v, size_t n, double low, double high);

  // mask[w] bit b ← match(v[64·w + b]) for 64·w + b < n; the trailing bits
  // of the last word are zeroed. mask holds (n + 63) / 64 words.
  void (*mask_range)(const double* v, size_t n, double low, double high,
                     uint64_t* mask);

  // mask[w] &= match bits, same layout. Trailing bits stay zero because the
  // computed tail bits are themselves zero past n.
  void (*mask_range_and)(const double* v, size_t n, double low, double high,
                         uint64_t* mask);
};

const AnnotateKernelTable& ScalarAnnotateKernels();

// The AVX2 table; aliases the scalar table when the binary was built without
// AVX2 codegen (non-x86 target or compiler lacking -mavx2).
const AnnotateKernelTable& Avx2AnnotateKernels();
bool Avx2AnnotateKernelsCompiled();

// Installs the process-wide table every annotator uses (mirrors
// nn::SetMatrixParallelism; called from core::ApplyParallelConfig) from
// `config.simd`, resolved by util::ResolveSimdLevel.
void SetAnnotateKernels(const util::ParallelConfig& config);

// The installed table. Before any SetAnnotateKernels call the first use
// installs the kAuto default (the best supported level).
const AnnotateKernelTable& ActiveAnnotateKernels();
const char* ActiveAnnotateKernelName();

}  // namespace warper::storage::internal

#endif  // WARPER_STORAGE_ANNOTATE_KERNELS_H_
