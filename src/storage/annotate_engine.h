// The shared annotation engine: compiled predicate batches, zone-map
// pruning, and the fused per-block multi-predicate scan.
//
// The seed annotators walked the table row-at-a-time, re-testing every
// predicate against every row. The engine restructures the pass to
// per-block-all-predicates: each kZoneBlockRows-row column block is loaded
// once and every predicate's bounds are evaluated against the resident
// data, so the n_p predicates of one adaptation pass cost one pass over the
// table (§2's "single evaluation tree", now also single in the cache).
// Before any block is touched, its zone-map entry decides the cheap cases:
//
//   reject      zone [min, max] disjoint from a predicate's bounds on any
//               constrained column → the block contributes 0 rows, skip it.
//   all-match   every constrained column's zone range lies inside the
//               bounds → credit the whole block without touching rows.
//   partial     evaluate — but only the columns whose zone range is not
//               fully inside the bounds (the others are redundant on this
//               block).
//
// Counts are integer sums, so every path (scalar/AVX2 kernels, pruned or
// not, serial or any row partition) is bit-identical to the seed scan.
//
// Used by Annotator and JoinAnnotator; callers outside src/storage should
// use those classes.
#ifndef WARPER_STORAGE_ANNOTATE_ENGINE_H_
#define WARPER_STORAGE_ANNOTATE_ENGINE_H_

#include <cstdint>
#include <vector>

#include "storage/annotate_kernels.h"
#include "storage/column.h"
#include "storage/predicate.h"
#include "storage/table.h"
#include "util/annotations.h"

namespace warper::storage::internal {

// Widest predicate a CompiledBatch accepts (checked at compile time of the
// batch, i.e. the cold path). The per-block active-column scratch in the
// evaluation loops is a fixed stack array of this size so the hot path
// never allocates; every dataset in the tree is far below it.
inline constexpr size_t kMaxConstrainedCols = 64;

// Work accounting for one engine pass, merged into the annotator.* metrics
// by the caller. rows_scanned counts rows actually evaluated against a
// predicate (summed over predicates); pruned and short-circuited blocks
// contribute nothing to it.
struct AnnotateStats {
  int64_t rows_scanned = 0;
  int64_t blocks_pruned = 0;
  int64_t blocks_shortcircuited = 0;
};

// A batch of predicates compiled against one table: per-predicate bounds on
// only the constrained columns, plus raw value/zone-map pointers per
// referenced column. Construction freshens every referenced column's zone
// map, so evaluation afterwards — including from pool workers — is
// read-only on the table.
//
// The table must outlive the batch and must not be mutated while the batch
// is in use.
class CompiledBatch {
 public:
  CompiledBatch(const Table& table, const std::vector<RangePredicate>& preds);

  size_t num_rows() const { return rows_; }
  size_t num_preds() const { return preds_.size(); }

  struct Pred {
    std::vector<uint32_t> cols;  // constrained column ids
    std::vector<double> low;
    std::vector<double> high;
  };
  struct Col {
    const double* values = nullptr;
    const Column::ZoneEntry* zones = nullptr;
  };

  const std::vector<Pred>& preds() const { return preds_; }
  const Col& col(uint32_t c) const { return cols_[c]; }

 private:
  std::vector<Pred> preds_;
  std::vector<Col> cols_;  // indexed by column id; unreferenced stay null
  size_t rows_ = 0;
};

// Adds each predicate's match count over rows [row_begin, row_end) into
// counts[0..num_preds). Any contiguous partition of [0, rows) sums to the
// full-table counts exactly, so parallel callers merge chunk-local tallies.
// `stats` may be null.
WARPER_HOT_PATH void FusedCount(const CompiledBatch& batch,
                                const AnnotateKernelTable& kernels,
                                size_t row_begin, size_t row_end,
                                int64_t* counts, AnnotateStats* stats);

// Match bitmap of predicate `pred` over the whole table: bit r of
// mask[r / 64] ← row r matches. mask holds (num_rows + 63) / 64 words;
// trailing bits are zeroed. Zone-pruned like FusedCount (rejected blocks
// write zero words, all-match blocks write all-ones without touching rows).
WARPER_HOT_PATH void PredicateMask(const CompiledBatch& batch, size_t pred,
                                   const AnnotateKernelTable& kernels,
                                   uint64_t* mask, AnnotateStats* stats);

}  // namespace warper::storage::internal

#endif  // WARPER_STORAGE_ANNOTATE_ENGINE_H_
