#include "serve/batcher.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "nn/matrix.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/trace.h"

namespace warper::serve {
namespace {

// Pool mode: batches one drain task serves before handing its worker back
// (and resubmitting itself if the queue is still non-empty) — keeps a hot
// tenant from pinning a shared worker while siblings wait for a slot.
constexpr int kDrainRoundsPerTask = 4;

struct BatcherMetrics {
  util::Counter* requests = util::Metrics().GetCounter("serve.requests");
  util::Counter* batches = util::Metrics().GetCounter("serve.batches");
  util::Gauge* qps = util::Metrics().GetGauge("serve.qps");
  util::Histogram* batch_size = util::Metrics().GetHistogram(
      "serve.batch_size", {1, 2, 4, 8, 16, 32, 64, 128, 256});
  util::Histogram* latency_us = util::Metrics().GetHistogram(
      "serve.latency_us",
      {10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 50000, 200000});
};

BatcherMetrics& GetBatcherMetrics() {
  WARPER_ANALYZER_SUPPRESS("hot-path-purity",
                           "function-static handle cache: the allocation and "
                           "registry locks run once, on the first call #10");
  static BatcherMetrics* metrics = new BatcherMetrics();
  return *metrics;
}

}  // namespace

MicroBatcher::MicroBatcher(const core::ServeConfig& config,
                           const SnapshotStore* store, size_t feature_dim)
    : config_(config),
      store_(store),
      feature_dim_(feature_dim),
      admission_(config) {
  WARPER_CHECK(store != nullptr && feature_dim > 0);
}

MicroBatcher::~MicroBatcher() { Stop(); }

Status MicroBatcher::Start() {
  util::MutexLock lk(&mu_);
  if (started_ || stop_) {
    return Status::FailedPrecondition(
        "MicroBatcher::Start: already started or stopped");
  }
  started_ = true;
  window_start_ = AdmissionController::Clock::now();
  dispatcher_ = std::thread([this] { DispatchLoop(); });
  return Status::OK();
}

Status MicroBatcher::StartOnPool(util::ThreadPool* pool) {
  WARPER_CHECK(pool != nullptr);
  bool schedule_drain = false;
  {
    util::MutexLock lk(&mu_);
    if (started_ || stop_) {
      return Status::FailedPrecondition(
          "MicroBatcher::StartOnPool: already started or stopped");
    }
    started_ = true;
    pool_ = pool;
    window_start_ = AdmissionController::Clock::now();
    // Anything enqueued before the start (EstimateAsync) needs a drain task.
    if (!queue_.empty() && !drain_scheduled_) {
      drain_scheduled_ = true;
      schedule_drain = true;
    }
  }
  // Submit outside mu_: a workerless pool (ThreadPool(1)) runs the task
  // inline on this thread, and DrainOnPool re-acquires mu_.
  if (schedule_drain) pool_->Submit([this] { DrainOnPool(); });
  return Status::OK();
}

void MicroBatcher::Stop() {
  {
    util::MutexLock lk(&mu_);
    if (stop_) return;
    stop_ = true;
    // Pool mode: wait out the in-flight drain task (it exits on stop_ and
    // signals) so no task touches this object after Stop returns.
    while (drain_scheduled_) drain_idle_.Wait(&mu_);
  }
  not_empty_.NotifyAll();
  not_full_.NotifyAll();
  if (dispatcher_.joinable()) dispatcher_.join();
  // No dispatcher will ever run again: answer anything still queued (a
  // Stop() before Start(), or pool mode's undrained tail).
  std::deque<Pending> orphans;
  {
    util::MutexLock lk(&mu_);
    orphans.swap(queue_);
  }
  for (Pending& p : orphans) {
    p.promise.set_value(
        Status::Unavailable("serving stopped before the request ran"));
  }
}

bool MicroBatcher::running() const {
  util::MutexLock lk(&mu_);
  return started_ && !stop_;
}

size_t MicroBatcher::ApproxQueueDepth() const {
  util::MutexLock lk(&mu_);
  return queue_.size();
}

Result<EstimateResponse> MicroBatcher::EstimateDirect(
    const EstimateRequest& request) const {
  WARPER_RETURN_NOT_OK(CheckFeatures(request.features, feature_dim_));
  std::shared_ptr<const ModelSnapshot> snap = store_->Current();
  if (snap == nullptr) {
    return Status::FailedPrecondition("no model snapshot published yet");
  }
  GetBatcherMetrics().requests->Increment();
  served_total_.fetch_add(1, std::memory_order_relaxed);
  nn::Matrix x(1, request.features.size());
  x.SetRow(0, request.features);
  std::vector<double> targets = snap->model().EstimateTargets(x);
  EstimateResponse response;
  response.estimate = ce::TargetToCard(targets[0]);
  response.version = snap->version();
  response.tenant_id = request.tenant_id;
  return response;
}

Result<EstimateResponse> MicroBatcher::Estimate(
    const EstimateRequest& request) {
  if (config_.batch_max == 1) return EstimateDirect(request);
  Result<std::future<Result<EstimateResponse>>> enqueued =
      Enqueue(request, /*block_until_admitted=*/true);
  if (!enqueued.ok()) return enqueued.status();
  return enqueued.ValueOrDie().get();
}

std::future<Result<EstimateResponse>> MicroBatcher::EstimateAsync(
    EstimateRequest request) {
  Result<std::future<Result<EstimateResponse>>> enqueued =
      Enqueue(std::move(request), /*block_until_admitted=*/false);
  if (enqueued.ok()) return enqueued.MoveValueOrDie();
  std::promise<Result<EstimateResponse>> failed;
  failed.set_value(enqueued.status());
  return failed.get_future();
}

Result<std::future<Result<EstimateResponse>>> MicroBatcher::Enqueue(
    EstimateRequest request, bool block_until_admitted) {
  WARPER_RETURN_NOT_OK(CheckFeatures(request.features, feature_dim_));
  AdmissionController::Clock::time_point deadline =
      admission_.DeadlineFor(request.deadline_us);
  std::future<Result<EstimateResponse>> future;
  size_t depth = 0;
  bool schedule_drain = false;
  {
    util::MutexLock lk(&mu_);
    while (true) {
      if (stop_) {
        return Status::FailedPrecondition("MicroBatcher is stopped");
      }
      AdmissionController::Decision decision = admission_.Admit(queue_.size());
      if (decision == AdmissionController::Decision::kAdmit) break;
      if (decision == AdmissionController::Decision::kShed ||
          !block_until_admitted) {
        return admission_.Shed();
      }
      // kBlock: wait for the dispatcher to drain, bounded by the deadline.
      if (deadline == AdmissionController::Clock::time_point::max()) {
        not_full_.Wait(&mu_);
      } else if (not_full_.WaitUntil(&mu_, deadline) ==
                 std::cv_status::timeout) {
        return admission_.Expire();
      }
    }
    Pending pending;
    pending.request = std::move(request);
    pending.deadline = deadline;
    pending.enqueued = AdmissionController::Clock::now();
    future = pending.promise.get_future();
    queue_.push_back(std::move(pending));
    depth = queue_.size();
    admission_.RecordDepth(depth);
    if (pool_ != nullptr && started_ && !drain_scheduled_) {
      drain_scheduled_ = true;
      schedule_drain = true;
    }
  }
  if (schedule_drain) {
    pool_->Submit([this] { DrainOnPool(); });
  } else if (pool_ == nullptr &&
             (depth == 1 || depth % config_.batch_max == 0)) {
    // Thread mode. The dispatcher only has something new to act on when the
    // queue went non-empty or a full batch just completed; signaling every
    // enqueue would pay a wakeup syscall per request at exactly the
    // throughput-bound depths.
    not_empty_.NotifyOne();
  }
  return future;
}

bool MicroBatcher::PopBatch(std::vector<Pending>* batch) {
  size_t n = std::min<size_t>(queue_.size(), config_.batch_max);
  if (n == 0) return false;
  batch->clear();
  batch->reserve(n);
  for (size_t i = 0; i < n; ++i) {
    batch->push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  admission_.RecordDepth(queue_.size());
  return true;
}

void MicroBatcher::DispatchLoop() {
  std::vector<Pending> batch;
  while (true) {
    {
      util::MutexLock lk(&mu_);
      while (!stop_ && queue_.empty()) not_empty_.Wait(&mu_);
      if (queue_.empty()) break;  // stop_ with a drained queue
      // Coalesce: after the first request, give stragglers a short window
      // to fill the batch (skipped once it is already full or stopping).
      if (queue_.size() < config_.batch_max && config_.batch_timeout_us > 0 &&
          !stop_) {
        AdmissionController::Clock::time_point straggler_deadline =
            AdmissionController::Clock::now() +
            std::chrono::microseconds(config_.batch_timeout_us);
        while (!stop_ && queue_.size() < config_.batch_max &&
               not_empty_.WaitUntil(&mu_, straggler_deadline) !=
                   std::cv_status::timeout) {
        }
      }
      PopBatch(&batch);
    }
    not_full_.NotifyAll();
    ServeBatch(&batch);
  }
}

void MicroBatcher::DrainOnPool() {
  // Single-drainer discipline: exactly one drain task exists per batcher
  // (drain_scheduled_), and the task always re-acquires mu_ after its last
  // ServeBatch — the unlock/lock pair is what orders this task's unlocked
  // state (window_* counters) before the next task's.
  std::vector<Pending> batch;
  for (int round = 0; round < kDrainRoundsPerTask; ++round) {
    {
      util::MutexLock lk(&mu_);
      if (stop_ || !PopBatch(&batch)) {
        drain_scheduled_ = false;
        drain_idle_.NotifyAll();
        return;
      }
    }
    not_full_.NotifyAll();
    ServeBatch(&batch);
  }
  // Still work queued after our rounds: hand the worker back and requeue.
  bool resubmit;
  {
    util::MutexLock lk(&mu_);
    resubmit = !stop_ && !queue_.empty();
    if (!resubmit) {
      drain_scheduled_ = false;
      drain_idle_.NotifyAll();
    }
  }
  if (resubmit) pool_->Submit([this] { DrainOnPool(); });
}

void MicroBatcher::ServeBatch(std::vector<Pending>* batch) {
  WARPER_SPAN("serve.batch");
  BatcherMetrics& m = GetBatcherMetrics();
  AdmissionController::Clock::time_point now =
      AdmissionController::Clock::now();
  std::vector<size_t> live;
  live.reserve(batch->size());
  for (size_t i = 0; i < batch->size(); ++i) {
    if (AdmissionController::Expired((*batch)[i].deadline, now)) {
      (*batch)[i].promise.set_value(admission_.Expire());
    } else {
      live.push_back(i);
    }
  }
  if (!live.empty()) {
    std::shared_ptr<const ModelSnapshot> snap = store_->Current();
    if (snap == nullptr) {
      for (size_t i : live) {
        (*batch)[i].promise.set_value(
            Status::FailedPrecondition("no model snapshot published yet"));
      }
      return;
    }
    nn::Matrix x(live.size(), feature_dim_);
    for (size_t k = 0; k < live.size(); ++k) {
      x.SetRow(k, (*batch)[live[k]].request.features);
    }
    std::vector<double> targets = snap->model().EstimateTargets(x);
    AdmissionController::Clock::time_point done =
        AdmissionController::Clock::now();
    for (size_t k = 0; k < live.size(); ++k) {
      Pending& p = (*batch)[live[k]];
      m.latency_us->Observe(
          std::chrono::duration<double, std::micro>(done - p.enqueued)
              .count());
      EstimateResponse response;
      response.estimate = ce::TargetToCard(targets[k]);
      response.version = snap->version();
      response.tenant_id = p.request.tenant_id;
      p.promise.set_value(response);
    }
    m.requests->Increment(live.size());
    served_total_.fetch_add(live.size(), std::memory_order_relaxed);
    m.batch_size->Observe(static_cast<double>(live.size()));
  }
  m.batches->Increment();

  // serve.qps: served requests over a sliding ~half-second window.
  window_served_ += live.size();
  double elapsed = std::chrono::duration<double>(
                       AdmissionController::Clock::now() - window_start_)
                       .count();
  if (elapsed >= 0.5) {
    m.qps->Set(static_cast<double>(window_served_) / elapsed);
    window_served_ = 0;
    window_start_ = AdmissionController::Clock::now();
  }
}

}  // namespace warper::serve
