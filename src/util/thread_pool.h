// A shared fixed-size thread pool.
//
// The paper's tech report notes that "many calls [of Alg. 1] can be
// parallelized"; this pool is the single substrate behind every parallel
// kernel in the tree — blocked MatMul in nn::Matrix, pooled batch
// annotation in storage::Annotator, and the serving fleet's batch dispatch
// — so the process never oversubscribes cores no matter how many layers go
// parallel at once.
//
// Determinism: ParallelFor partitions [begin, end) into fixed contiguous
// chunks that depend only on the range, the grain and the worker count —
// never on scheduling — so any caller that keeps per-chunk state separate
// and combines it in chunk order gets bit-identical results to a serial run.
#ifndef WARPER_UTIL_THREAD_POOL_H_
#define WARPER_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <functional>
#include <future>
#include <queue>
#include <thread>
#include <vector>

#include "util/annotations.h"
#include "util/cpu_features.h"
#include "util/mutex.h"
#include "util/status.h"

namespace warper::util {

// Process-wide parallelism knobs, threaded through WarperConfig so a single
// struct controls every parallel layer.
struct ParallelConfig {
  // Worker threads; 0 = hardware concurrency, 1 = fully serial execution.
  int threads = 0;
  // Minimum items per ParallelFor task. Small ranges stay serial.
  size_t grain = 256;
  // Which kernel instruction set nn::Matrix and the annotation engine
  // dispatch to: kAuto (the best set the CPU supports) or a pinned path.
  // Every table is replay-exact — a seeded run gives the same bytes at any
  // thread count and batch split — so `simd` only decides *which* bytes:
  // pin kScalar to reproduce a run across CPUs. See util::SimdMode.
  SimdMode simd = SimdMode::kAuto;

  // Threads resolved against the hardware (never 0).
  int ResolvedThreads() const;

  // InvalidArgument when threads < 0 or grain == 0.
  Status Validate() const;
};

class ThreadPool {
 public:
  // `num_threads` ≤ 0 uses the hardware concurrency.
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  // Enqueues a task; the future rethrows any exception the task raised.
  WARPER_BLOCKING std::future<void> Submit(std::function<void()> fn);

  // Runs fn(chunk_begin, chunk_end) over a fixed partition of [begin, end)
  // with at least `grain` items per chunk, blocking until every chunk
  // finished. The calling thread works too, so a pool of N workers yields
  // N+1-way parallelism. Ranges smaller than 2·grain — and any call made
  // from inside a pool worker (nested parallelism) — run serially inline.
  // The first exception any chunk throws is rethrown here.
  void ParallelFor(size_t begin, size_t end, size_t grain,
                   const std::function<void(size_t, size_t)>& fn);

  // The process-wide shared pool. Starts with hardware concurrency; resized
  // by Configure(). Thread-safe.
  static ThreadPool& Global();

  // Resizes the global pool to `config.ResolvedThreads()` workers (no-op
  // when the size already matches). Existing tasks finish first.
  static void Configure(const ParallelConfig& config);

 private:
  void WorkerLoop();

  // Immutable after the constructor returns; WorkerLoop and ParallelFor read
  // it without the lock.
  std::vector<std::thread> workers_;
  Mutex mutex_;
  std::queue<std::packaged_task<void()>> tasks_ WARPER_GUARDED_BY(mutex_);
  CondVar cv_;
  bool stop_ WARPER_GUARDED_BY(mutex_) = false;
};

// True on threads owned by any ThreadPool; used to keep nested ParallelFor
// calls serial instead of deadlocking on the shared queue.
bool OnPoolWorkerThread();

}  // namespace warper::util

#endif  // WARPER_UTIL_THREAD_POOL_H_
