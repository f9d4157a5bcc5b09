// The annotator A: computes ground-truth cardinalities by scanning the
// table. The paper notes that annotation "typically requires querying the
// DBMS ... batching predicates into a single evaluation tree and executing
// many predicates in one query still scans the underlying table at least
// once" (§2); BatchCount implements that single-scan batching through the
// fused per-block engine (storage/annotate_engine.h): SIMD range kernels,
// zone-map pruning, and all predicates evaluated per cache-resident block.
// Count is a batch of one on the same path, so single-predicate and batched
// annotation can never diverge.
//
// The pass runs on the calling thread by default. With `threads` = 0 (the
// whole shared pool) or n > 1 (at most n-way) it splits whole zone blocks
// over util::ThreadPool::Global() — the paper's "many calls can be
// parallelized" — and sums the chunk tallies. Counts are integers and no
// block is ever judged twice, so counts and every annotator.* counter are
// identical at every thread count and on every kernel path.
#ifndef WARPER_STORAGE_ANNOTATOR_H_
#define WARPER_STORAGE_ANNOTATOR_H_

#include <cstdint>
#include <vector>

#include "storage/predicate.h"
#include "storage/table.h"

namespace warper::storage {

class Annotator {
 public:
  // `table` must outlive the annotator. `threads`: 1 = the calling thread,
  // 0 = the whole shared pool, n > 1 = at most n-way on the shared pool.
  explicit Annotator(const Table* table, int threads = 1);

  // Ground-truth cardinality of one predicate.
  int64_t Count(const RangePredicate& pred) const;

  // Ground-truth cardinalities for a batch in one pass over the table.
  std::vector<int64_t> BatchCount(const std::vector<RangePredicate>& preds) const;

  const Table& table() const { return *table_; }

 private:
  const Table* table_;
  int threads_;
};

}  // namespace warper::storage

#endif  // WARPER_STORAGE_ANNOTATOR_H_
