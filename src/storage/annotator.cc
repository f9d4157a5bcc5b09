#include "storage/annotator.h"

#include <algorithm>

#include "storage/annotate_engine.h"
#include "storage/annotate_kernels.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace warper::storage {
namespace {

constexpr size_t kZ = Column::kZoneBlockRows;

// Annotation is the dominant adaptation cost (Table 6): count every call,
// every predicate labeled and every row touched so cost attribution survives
// into metric snapshots. Under zone-map pruning rows_scanned counts rows
// *actually* evaluated against a predicate (summed over predicates) — not
// table passes: blocks the zone map rejects outright (blocks_pruned) or
// credits wholesale (blocks_shortcircuited) contribute nothing to it.
struct AnnotatorMetrics {
  util::Counter* calls = util::Metrics().GetCounter("annotator.calls");
  util::Counter* predicates = util::Metrics().GetCounter("annotator.predicates");
  util::Counter* rows_scanned =
      util::Metrics().GetCounter("annotator.rows_scanned");
  util::Counter* blocks_pruned =
      util::Metrics().GetCounter("annotator.blocks_pruned");
  util::Counter* blocks_shortcircuited =
      util::Metrics().GetCounter("annotator.blocks_shortcircuited");
};

AnnotatorMetrics& GetAnnotatorMetrics() {
  static AnnotatorMetrics* metrics = new AnnotatorMetrics();
  return *metrics;
}

// The fused pass over whole zone blocks split across the shared pool.
// ParallelFor runs over block indices, so every chunk edge is a block edge
// and no block is judged by two chunks. Chunk-local tallies merge under a
// lock; integer sums are exact in any order.
void PooledFusedCount(const internal::CompiledBatch& batch,
                      const internal::AnnotateKernelTable& kernels,
                      int threads, int64_t* counts,
                      internal::AnnotateStats* stats) {
  util::ThreadPool& pool = util::ThreadPool::Global();
  size_t rows = batch.num_rows();
  size_t blocks = (rows + kZ - 1) / kZ;
  size_t ways = static_cast<size_t>(pool.size()) + 1;
  if (threads > 0) ways = std::min(ways, static_cast<size_t>(threads));
  // ParallelFor makes blocks / grain chunks (at most pool size + 1); this is
  // the smallest grain that keeps that at or below `ways`.
  size_t grain = blocks / (ways + 1) + 1;
  util::Mutex merge_mutex;
  pool.ParallelFor(0, blocks, grain, [&](size_t b0, size_t b1) {
    std::vector<int64_t> local(batch.num_preds(), 0);
    internal::AnnotateStats local_stats;
    internal::FusedCount(batch, kernels, b0 * kZ, std::min(rows, b1 * kZ),
                         local.data(), &local_stats);
    util::MutexLock lock(&merge_mutex);
    for (size_t p = 0; p < local.size(); ++p) counts[p] += local[p];
    stats->rows_scanned += local_stats.rows_scanned;
    stats->blocks_pruned += local_stats.blocks_pruned;
    stats->blocks_shortcircuited += local_stats.blocks_shortcircuited;
  });
}

}  // namespace

Annotator::Annotator(const Table* table, int threads)
    : table_(table), threads_(threads) {
  WARPER_CHECK(table != nullptr);
  WARPER_CHECK_MSG(threads >= 0, "Annotator: threads must be >= 0");
}

int64_t Annotator::Count(const RangePredicate& pred) const {
  // A batch of one: single-predicate and batched annotation share the
  // compiled-kernel path, so the two can never diverge.
  return BatchCount({pred})[0];
}

std::vector<int64_t> Annotator::BatchCount(
    const std::vector<RangePredicate>& preds) const {
  util::ScopedSpan span("annotator.batch_count");
  span.Arg("predicates", static_cast<double>(preds.size()));
  span.Arg("rows", static_cast<double>(table_->NumRows()));
  AnnotatorMetrics& metrics = GetAnnotatorMetrics();
  metrics.calls->Increment();
  metrics.predicates->Increment(preds.size());

  // Compiling freshens the referenced zone maps on this thread, so pool
  // workers only read the table.
  internal::CompiledBatch batch(*table_, preds);
  const internal::AnnotateKernelTable& kernels =
      internal::ActiveAnnotateKernels();
  std::vector<int64_t> counts(preds.size(), 0);
  internal::AnnotateStats stats;
  if (threads_ == 1) {
    internal::FusedCount(batch, kernels, 0, table_->NumRows(), counts.data(),
                         &stats);
  } else {
    PooledFusedCount(batch, kernels, threads_, counts.data(), &stats);
  }
  metrics.rows_scanned->Increment(static_cast<uint64_t>(stats.rows_scanned));
  metrics.blocks_pruned->Increment(static_cast<uint64_t>(stats.blocks_pruned));
  metrics.blocks_shortcircuited->Increment(
      static_cast<uint64_t>(stats.blocks_shortcircuited));
  return counts;
}

}  // namespace warper::storage
