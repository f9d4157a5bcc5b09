// The micro-batcher: concurrent Estimate() callers enqueue featurized
// predicates into a bounded MPSC queue; a dispatcher coalesces up to
// `batch_max` of them into ONE EstimateTargets matrix pass over the current
// snapshot — turning the SIMD GEMM into real serving throughput instead of
// per-query GEMV.
//
// The dispatcher runs in one of two modes:
//   - Start(): a dedicated dispatcher thread per batcher (the single-tenant
//     model). After the first request of a batch it waits up to
//     `batch_timeout_us` for stragglers before running a partial batch.
//   - StartOnPool(pool): no owned thread — ready batches are drained by
//     tasks on the shared util::ThreadPool. This is how a ServingFleet runs
//     32+ tenants without 32+ dispatcher threads. Pool mode is
//     work-conserving: it never waits for stragglers (coalescing happens
//     naturally under load), and a drain task hands the worker back after a
//     few batches so sibling tenants get their turn.
//
// Determinism: a batched pass computes each row with exactly the per-row
// operations of a 1-row pass, so on every kernel table batched and unbatched
// estimates are bit-identical.
#ifndef WARPER_SERVE_BATCHER_H_
#define WARPER_SERVE_BATCHER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <future>
#include <thread>
#include <vector>

#include "core/config.h"
#include "serve/admission.h"
#include "serve/request.h"
#include "serve/snapshot.h"
#include "util/annotations.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace warper::serve {

class MicroBatcher {
 public:
  // `store` must outlive the batcher and have a snapshot published before
  // requests are served. `feature_dim` is the domain's featurization width;
  // requests of any other width, or with a non-finite feature, are refused
  // InvalidArgument before they can poison a batch.
  MicroBatcher(const core::ServeConfig& config, const SnapshotStore* store,
               size_t feature_dim);
  ~MicroBatcher();

  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  // Starts the dedicated dispatcher thread. Requests enqueued beforehand
  // (EstimateAsync) are served as soon as it runs. FailedPrecondition on a
  // double Start or after Stop().
  Status Start();
  // Pool mode: dispatch runs as drain tasks on `pool` (which must outlive
  // the batcher) instead of an owned thread. Same preconditions as Start().
  Status StartOnPool(util::ThreadPool* pool);
  // Stops dispatch; in thread mode the dispatcher drains the queue first,
  // in pool mode still-queued requests are answered Unavailable. Idempotent.
  void Stop();
  bool running() const;

  // Blocking: the estimate for one featurized predicate.
  //
  // With batch_max == 1 this is the lock-free fast path: the estimate is
  // computed inline on the caller's thread against the current snapshot —
  // no queue, no dispatcher, no lock shared with Publish(). With
  // batch_max > 1 the request rides the queue (admission control and
  // deadlines apply) and resolves when its batch completes.
  Result<EstimateResponse> Estimate(const EstimateRequest& request);

  // Pipelining variant: enqueues and returns immediately; the future
  // resolves when the request's batch completes (or it is shed / expires).
  // Always takes the queue path so callers can keep many requests in
  // flight; requires a running dispatcher to make progress.
  std::future<Result<EstimateResponse>> EstimateAsync(EstimateRequest request);

  // The unbatched reference path: one snapshot load + one 1-row matrix pass
  // on the calling thread. Lock-free with respect to Publish(); safe from
  // any thread at any time after the first snapshot is published.
  WARPER_HOT_PATH Result<EstimateResponse> EstimateDirect(
      const EstimateRequest& request) const;

  // Requests answered with an estimate since construction (all paths).
  // The serving fleet reads this as the executor's traffic signal.
  uint64_t served_total() const {
    return served_total_.load(std::memory_order_relaxed);
  }

  // Instantaneous queued depth — the fleet's per-tenant shed budget checks
  // it before enqueueing. Advisory: the depth can change before the caller
  // acts on it.
  size_t ApproxQueueDepth() const;

 private:
  struct Pending {
    EstimateRequest request;
    AdmissionController::Clock::time_point deadline;
    AdmissionController::Clock::time_point enqueued;
    std::promise<Result<EstimateResponse>> promise;
  };

  // Admission + enqueue; returns the future, or a terminal status when the
  // request was shed / expired / refused. `block_until_admitted` is false
  // for EstimateAsync (a pipelining caller must not be parked by kBlock —
  // it is told Unavailable instead).
  WARPER_BLOCKING Result<std::future<Result<EstimateResponse>>> Enqueue(
      EstimateRequest request, bool block_until_admitted);

  void DispatchLoop();
  // Pool mode: drain up to kDrainRoundsPerTask batches, then either clear
  // the scheduled flag (queue empty / stopping) or resubmit itself.
  void DrainOnPool();
  // Pops up to batch_max requests into *batch; returns whether any were
  // popped. Updates the queue-depth gauge.
  bool PopBatch(std::vector<Pending>* batch) WARPER_REQUIRES(mu_);
  // Answers every request of `batch`: expired ones with DeadlineExceeded,
  // the rest from one EstimateTargets pass.
  void ServeBatch(std::vector<Pending>* batch);

  core::ServeConfig config_;
  const SnapshotStore* store_;
  size_t feature_dim_;
  AdmissionController admission_;
  util::ThreadPool* pool_ = nullptr;  // set by StartOnPool, else null

  mutable util::Mutex mu_;
  util::CondVar not_empty_;
  util::CondVar not_full_;
  // Pool mode: signaled when a drain task clears drain_scheduled_, so
  // Stop() can wait out an in-flight task before orphaning the queue.
  util::CondVar drain_idle_;
  std::deque<Pending> queue_ WARPER_GUARDED_BY(mu_);
  std::thread dispatcher_;
  bool started_ WARPER_GUARDED_BY(mu_) = false;
  bool stop_ WARPER_GUARDED_BY(mu_) = false;
  // Pool mode: true while a drain task is queued or running, so at most one
  // exists per batcher at any time.
  bool drain_scheduled_ WARPER_GUARDED_BY(mu_) = false;

  // mutable: EstimateDirect is logically const (reads the snapshot) but
  // still counts as served traffic.
  mutable std::atomic<uint64_t> served_total_{0};

  // qps gauge upkeep (dispatch path only; pool mode guards it with mu_-free
  // single-drainer discipline: one drain task exists at a time).
  uint64_t window_served_ = 0;
  AdmissionController::Clock::time_point window_start_{};
};

}  // namespace warper::serve

#endif  // WARPER_SERVE_BATCHER_H_
