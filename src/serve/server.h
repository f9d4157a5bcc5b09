// The estimation server: the concurrent front of one Warper controller —
// one tenant of a ServingFleet, or a standalone single-tenant deployment.
//
// It composes the serving pieces — SnapshotStore (versioned immutable model
// bundles), MicroBatcher (coalesced inference) and AdmissionController
// (bounded queue, deadlines). Optimizer traffic calls Estimate() /
// EstimateAsync() with an EstimateRequest and only ever touches published
// snapshots; SubmitInvocation() hands new workload to the background
// adaptation executor, which runs Warper::Invoke, evaluates the adapted
// model against a publish gate, and either publishes the next version or
// rolls M and the learned modules back to the last good one (§3.4).
//
// Threading: standalone (the one-arg constructor) the server owns a private
// single-worker AdaptationExecutor and a dedicated batcher dispatcher
// thread — the pre-fleet behavior. Under a ServingFleet both are injected
// (ServerOptions): adaptation multiplexes onto the fleet's shared
// prioritized executor and batch dispatch onto the shared util::ThreadPool,
// so a 32-tenant fleet runs on O(cores) threads, not O(tenants).
#ifndef WARPER_SERVE_SERVER_H_
#define WARPER_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <vector>

#include "core/warper.h"
#include "serve/adapt_executor.h"
#include "serve/batcher.h"
#include "serve/request.h"
#include "serve/snapshot.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace warper::serve {

// How a server plugs into shared fleet infrastructure. Everything optional:
// the defaults reproduce a standalone single-tenant server.
struct ServerOptions {
  // Serving knobs; when null the server uses `warper->config().serve`.
  // The fleet passes a per-tenant derivation of its own config.
  const core::ServeConfig* config = nullptr;
  // Shared adaptation executor. When set, the server owns no adaptation
  // thread — SubmitInvocation routes through this executor, prioritized by
  // drift severity × traffic. The executor must be stopped BEFORE the
  // server (the fleet enforces this ordering).
  AdaptationExecutor* executor = nullptr;
  // When set, the batcher dispatches on this shared pool instead of a
  // dedicated thread (MicroBatcher::StartOnPool).
  util::ThreadPool* dispatch_pool = nullptr;
  // Fleet-wide snapshot epoch: bumped on every publish by any tenant, so
  // cross-tenant observers can detect "some tenant swapped" with one atomic
  // load — no tenant's readers ever stall on another's swap.
  std::atomic<uint64_t>* fleet_epoch = nullptr;
  // Identity within the fleet; echoed into EstimateResponse::tenant_id for
  // requests served by this tenant and used to name per-tenant metrics.
  uint64_t tenant_id = 0;
  // Register per-tenant serve.tenant.* metric instances (rollbacks,
  // publishes). Off for standalone servers to keep the registry small.
  bool tenant_metrics = false;
};

class EstimationServer {
 public:
  // Standalone single-tenant server: owns its adaptation worker and batcher
  // dispatcher thread. `warper` must outlive the server and be
  // Initialize()d before Start(). Serving knobs come from
  // `warper->config().serve`.
  explicit EstimationServer(core::Warper* warper);
  // Fleet form: shared infrastructure injected via `options`.
  EstimationServer(core::Warper* warper, const ServerOptions& options);
  ~EstimationServer();

  EstimationServer(const EstimationServer&) = delete;
  EstimationServer& operator=(const EstimationServer&) = delete;

  // Optional fixed benchmark for the publish gate. With an eval set the
  // gate compares ModelGmq on these examples before/after each adaptation;
  // without one it falls back to the invocation's own recent-window GMQ.
  // Must be called before Start().
  Status SetEvalSet(std::vector<ce::LabeledExample> eval_set);

  // Validates the serving config, publishes version 1 (a clone of the
  // current model + captured modules) and starts the batcher plus — when no
  // shared executor was injected — the private adaptation worker.
  // InvalidArgument for a bad ServeConfig; FailedPrecondition when the
  // warper is uninitialized or its model does not support Clone().
  Status Start();
  // Stops adaptation and the batcher; pending invocations are answered
  // with Unavailable. Under a fleet, stop via the fleet (it stops the
  // shared executor first). Idempotent.
  void Stop();
  bool running() const;

  // Estimate against the current snapshot — see MicroBatcher for the
  // batched/inline/async semantics. Valid only between Start() and Stop().
  Result<EstimateResponse> Estimate(const EstimateRequest& request);
  std::future<Result<EstimateResponse>> EstimateAsync(EstimateRequest request);

  // Hands an invocation to the background adaptation executor (shared or
  // private). The future resolves once the pass (including the
  // publish-or-rollback decision) completes. FailedPrecondition when the
  // server is not running.
  std::future<Result<AdaptationOutcome>> SubmitInvocation(
      core::Warper::Invocation invocation);

  const SnapshotStore& store() const { return store_; }
  uint64_t CurrentVersion() const { return store_.CurrentVersion(); }
  MicroBatcher* batcher() { return batcher_.get(); }
  uint64_t tenant_id() const { return options_.tenant_id; }
  const core::ServeConfig& serve_config() const { return config_; }

  // --- Priority signals for the shared executor (wait-free reads). ---
  // Last drift severity observed by an adaptation pass of this tenant
  // (InvocationResult::drift_severity); 0 until the first pass.
  double drift_severity() const {
    return drift_severity_.load(std::memory_order_relaxed);
  }
  // Requests this tenant served since its last adaptation pass finished.
  double traffic_since_adapt() const;
  // Unhealthy traffic share of this tenant's template tracker, refreshed on
  // every adaptation pass and every ReportObservation (∈ [0, 1]).
  double offender_pressure() const {
    return offender_pressure_.load(std::memory_order_relaxed);
  }

  // --- Per-template error feedback (the serving-path labeled estimates). ---
  // Feeds one executed query's true cardinality back to the tenant's
  // template tracker: the error recorded is against the CURRENT serving
  // snapshot's estimate, i.e. what the optimizer actually saw. Thread-safe;
  // callable from any thread while the server runs. FailedPrecondition when
  // the server is not running; InvalidArgument on a feature-dim mismatch, a
  // non-finite feature, or an `actual` that is negative or non-finite (one
  // such value would stick in the template's error EWMA for good).
  Status ReportObservation(const std::vector<double>& features, double actual);
  // The tenant's k worst templates (TemplateTracker::TopOffenders).
  std::vector<core::TemplateTracker::Offender> TopOffenders(size_t k) const {
    return warper_->tracker().TopOffenders(k);
  }

 private:
  friend class ServingFleet;

  // One pass: Invoke, gate, publish or roll back. Runs on an executor
  // worker (shared or private).
  Result<AdaptationOutcome> Adapt(const core::Warper::Invocation& invocation);
  // Clone M + capture modules at the current warper state and publish it as
  // the next version with gate score `gmq`. Bumps the fleet epoch.
  Status PublishCurrent(double gmq);

  core::Warper* warper_;
  ServerOptions options_;
  core::ServeConfig config_;  // resolved: options_.config or warper's
  // Written by SetEvalSet strictly before Start() (enforced with a Status);
  // immutable while adaptation passes run, so Adapt reads it unlocked.
  std::vector<ce::LabeledExample> eval_set_;
  SnapshotStore store_;
  std::unique_ptr<MicroBatcher> batcher_;
  // Standalone mode only: the private single-worker executor.
  std::unique_ptr<AdaptationExecutor> owned_executor_;
  AdaptationExecutor* executor_ = nullptr;  // shared or owned_executor_
  // Touched by Start() (before any executor worker can run a pass for this
  // server) and then only under the single in-flight pass per server —
  // never concurrently.
  uint64_t next_version_ = 1;

  std::atomic<double> drift_severity_{0.0};
  std::atomic<double> offender_pressure_{0.0};
  std::atomic<uint64_t> served_at_last_adapt_{0};
  // Per-tenant metric handles (null unless options_.tenant_metrics).
  util::Counter* tenant_rollbacks_ = nullptr;
  util::Counter* tenant_publishes_ = nullptr;
  // Per-tenant drift severity gauge (warper.drift_severity.<id>): keeps the
  // executor's priority probe and the offender view telling one story —
  // the global warper.drift_severity gauge only shows the LAST tenant that
  // adapted.
  util::Gauge* tenant_drift_severity_ = nullptr;

  mutable util::Mutex mu_;
  bool started_ WARPER_GUARDED_BY(mu_) = false;
  bool stop_ WARPER_GUARDED_BY(mu_) = false;
};

}  // namespace warper::serve

#endif  // WARPER_SERVE_SERVER_H_
