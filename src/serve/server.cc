#include "serve/server.h"

#include <cmath>
#include <utility>

#include "ce/metrics.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/trace.h"

namespace warper::serve {
namespace {

struct ServerMetrics {
  util::Counter* publishes = util::Metrics().GetCounter("serve.publishes");
  util::Counter* rollbacks = util::Metrics().GetCounter("serve.rollbacks");
  util::Gauge* fleet_epoch = util::Metrics().GetGauge("serve.fleet.epoch");
};

ServerMetrics& GetServerMetrics() {
  static ServerMetrics* metrics = new ServerMetrics();
  return *metrics;
}

}  // namespace

EstimationServer::EstimationServer(core::Warper* warper)
    : EstimationServer(warper, ServerOptions{}) {}

EstimationServer::EstimationServer(core::Warper* warper,
                                   const ServerOptions& options)
    : warper_(warper),
      options_(options),
      config_(options.config != nullptr ? *options.config
                                        : warper->config().serve) {
  WARPER_CHECK(warper != nullptr);
  if (options_.tenant_metrics) {
    tenant_rollbacks_ = util::Metrics().GetCounter(
        TenantMetricName("serve.tenant.rollbacks", options_.tenant_id));
    tenant_publishes_ = util::Metrics().GetCounter(
        TenantMetricName("serve.tenant.publishes", options_.tenant_id));
    // The global warper.drift_severity gauge only remembers the LAST tenant
    // that adapted; under a fleet each tenant needs its own so the executor
    // priority probes and the offender views agree.
    tenant_drift_severity_ = util::Metrics().GetGauge(
        TenantMetricName("warper.drift_severity", options_.tenant_id));
  }
}

EstimationServer::~EstimationServer() { Stop(); }

Status EstimationServer::SetEvalSet(std::vector<ce::LabeledExample> eval_set) {
  util::MutexLock lk(&mu_);
  if (started_) {
    return Status::FailedPrecondition(
        "SetEvalSet must be called before Start()");
  }
  const size_t dim = warper_->domain()->FeatureDim();
  for (const ce::LabeledExample& ex : eval_set) {
    if (ex.features.size() != dim) {
      return Status::InvalidArgument(
          "eval example feature dim does not match the domain");
    }
  }
  eval_set_ = std::move(eval_set);
  return Status::OK();
}

Status EstimationServer::Start() {
  util::MutexLock lk(&mu_);
  if (started_ || stop_) {
    return Status::FailedPrecondition(
        "EstimationServer::Start: already started or stopped");
  }
  // Every serving knob checked once, up front (ServeConfig::Validate is the
  // single source of truth — no ad-hoc re-checks downstream).
  WARPER_RETURN_NOT_OK(config_.Validate());
  // The gate baseline for version 1 and the proof the warper is usable:
  // CaptureModuleState fails before a successful Initialize().
  WARPER_RETURN_NOT_OK(PublishCurrent(
      eval_set_.empty() ? 0.0 : ce::ModelGmq(*warper_->model(), eval_set_)));
  batcher_ = std::make_unique<MicroBatcher>(config_, &store_,
                                            warper_->domain()->FeatureDim());
  if (options_.dispatch_pool != nullptr) {
    WARPER_RETURN_NOT_OK(batcher_->StartOnPool(options_.dispatch_pool));
  } else {
    WARPER_RETURN_NOT_OK(batcher_->Start());
  }
  if (options_.executor != nullptr) {
    executor_ = options_.executor;
  } else {
    // Standalone: a private single-worker executor reproduces the old
    // one-adaptation-thread-per-server behavior.
    owned_executor_ = std::make_unique<AdaptationExecutor>(config_);
    WARPER_RETURN_NOT_OK(owned_executor_->Start());
    executor_ = owned_executor_.get();
  }
  started_ = true;
  return Status::OK();
}

void EstimationServer::Stop() {
  {
    util::MutexLock lk(&mu_);
    if (stop_) return;
    stop_ = true;
  }
  // Order matters: the private executor's workers call Adapt on this
  // object, so they must be joined before anything is torn down. A shared
  // executor is the fleet's to stop (before it stops this server).
  if (owned_executor_ != nullptr) owned_executor_->Stop();
  if (batcher_ != nullptr) batcher_->Stop();
}

bool EstimationServer::running() const {
  util::MutexLock lk(&mu_);
  return started_ && !stop_;
}

Result<EstimateResponse> EstimationServer::Estimate(
    const EstimateRequest& request) {
  if (batcher_ == nullptr) {
    return Status::FailedPrecondition("EstimationServer is not running");
  }
  return batcher_->Estimate(request);
}

std::future<Result<EstimateResponse>> EstimationServer::EstimateAsync(
    EstimateRequest request) {
  if (batcher_ == nullptr) {
    std::promise<Result<EstimateResponse>> failed;
    failed.set_value(
        Status::FailedPrecondition("EstimationServer is not running"));
    return failed.get_future();
  }
  return batcher_->EstimateAsync(std::move(request));
}

std::future<Result<AdaptationOutcome>> EstimationServer::SubmitInvocation(
    core::Warper::Invocation invocation) {
  {
    util::MutexLock lk(&mu_);
    if (!started_ || stop_) {
      std::promise<Result<AdaptationOutcome>> failed;
      failed.set_value(
          Status::FailedPrecondition("EstimationServer is not running"));
      return failed.get_future();
    }
  }
  return executor_->Submit(
      options_.tenant_id,
      [this] {
        return PrioritySignals{drift_severity(), traffic_since_adapt(),
                               offender_pressure()};
      },
      [this, inv = std::move(invocation)] { return Adapt(inv); });
}

double EstimationServer::traffic_since_adapt() const {
  if (batcher_ == nullptr) return 0.0;
  uint64_t served = batcher_->served_total();
  uint64_t at_last = served_at_last_adapt_.load(std::memory_order_relaxed);
  return served > at_last ? static_cast<double>(served - at_last) : 0.0;
}

Status EstimationServer::ReportObservation(const std::vector<double>& features,
                                           double actual) {
  {
    util::MutexLock lk(&mu_);
    if (!started_ || stop_) {
      return Status::FailedPrecondition("EstimationServer is not running");
    }
  }
  WARPER_RETURN_NOT_OK(
      CheckFeatures(features, warper_->domain()->FeatureDim()));
  if (!std::isfinite(actual) || actual < 0.0) {
    return Status::InvalidArgument(
        "ReportObservation: actual cardinality must be finite and >= 0");
  }
  // The error is measured against the snapshot serving right now — the
  // estimate the optimizer actually planned with — not against the warper's
  // in-adaptation model.
  std::shared_ptr<const ModelSnapshot> snapshot = store_.Current();
  if (snapshot == nullptr) {
    return Status::FailedPrecondition("no published snapshot");
  }
  double estimated = snapshot->model().EstimateCardinality(features);
  warper_->tracker().Observe(features, estimated, actual);
  offender_pressure_.store(warper_->tracker().UnhealthyShare(),
                           std::memory_order_relaxed);
  return Status::OK();
}

Result<AdaptationOutcome> EstimationServer::Adapt(
    const core::Warper::Invocation& invocation) {
  WARPER_SPAN("serve.adapt");
  std::shared_ptr<const ModelSnapshot> last_good = store_.Current();
  Result<core::Warper::InvocationResult> invoked = warper_->Invoke(invocation);
  if (!invoked.ok()) return invoked.status();

  AdaptationOutcome outcome;
  outcome.result = invoked.MoveValueOrDie();
  outcome.version = store_.CurrentVersion();
  drift_severity_.store(outcome.result.drift_severity,
                        std::memory_order_relaxed);
  if (tenant_drift_severity_ != nullptr) {
    tenant_drift_severity_->Set(outcome.result.drift_severity);
  }
  offender_pressure_.store(warper_->tracker().UnhealthyShare(),
                           std::memory_order_relaxed);
  if (batcher_ != nullptr) {
    served_at_last_adapt_.store(batcher_->served_total(),
                                std::memory_order_relaxed);
  }
  if (!eval_set_.empty()) {
    // Stable benchmark: compare against the score the serving version was
    // published with, on the same examples.
    outcome.gate_before = last_good->gmq();
    outcome.gate_after = ce::ModelGmq(*warper_->model(), eval_set_);
  } else {
    // Fall back to the invocation's own recent labeled window; both stay
    // zero when it had no labels, and the gate passes vacuously.
    outcome.gate_before = outcome.result.gmq_before;
    outcome.gate_after = outcome.result.gmq_after;
  }

  const double tolerance = config_.regression_tolerance;
  const bool regressed = outcome.gate_before > 0.0 &&
                         outcome.gate_after > tolerance * outcome.gate_before;
  if (regressed) {
    // §3.4 rollback: put M and E/G/D back to the last published version so
    // the next episode does not refine on top of the regressed weights.
    // outcome.version deliberately keeps the pre-pass serving version — the
    // rejected model never had one (see AdaptationOutcome::version).
    WARPER_RETURN_NOT_OK(warper_->model()->RestoreFrom(last_good->model()));
    WARPER_RETURN_NOT_OK(warper_->RestoreModuleState(last_good->modules()));
    GetServerMetrics().rollbacks->Increment();
    if (tenant_rollbacks_ != nullptr) tenant_rollbacks_->Increment();
    outcome.rolled_back = true;
    return outcome;
  }
  if (outcome.result.model_updated) {
    WARPER_RETURN_NOT_OK(PublishCurrent(outcome.gate_after));
    outcome.published = true;
    outcome.version = store_.CurrentVersion();
  }
  return outcome;
}

Status EstimationServer::PublishCurrent(double gmq) {
  std::shared_ptr<const ce::CardinalityEstimator> clone =
      warper_->model()->Clone();
  if (clone == nullptr) {
    return Status::FailedPrecondition(
        warper_->model()->Name() + " does not support Clone(); cannot serve");
  }
  Result<core::Warper::ModuleState> modules = warper_->CaptureModuleState();
  WARPER_RETURN_NOT_OK(modules.status());
  store_.Publish(std::make_shared<const ModelSnapshot>(
      next_version_++, std::move(clone), modules.MoveValueOrDie(), gmq));
  GetServerMetrics().publishes->Increment();
  if (tenant_publishes_ != nullptr) tenant_publishes_->Increment();
  if (options_.fleet_epoch != nullptr) {
    uint64_t epoch =
        options_.fleet_epoch->fetch_add(1, std::memory_order_acq_rel) + 1;
    GetServerMetrics().fleet_epoch->Set(static_cast<double>(epoch));
  }
  return Status::OK();
}

}  // namespace warper::serve
