#include "core/config.h"

#include <cmath>
#include <string>

#include "nn/matrix.h"
#include "storage/annotate_kernels.h"
#include "util/cpu_features.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace warper::core {
namespace {

Status BadKnob(const std::string& what) {
  return Status::InvalidArgument("WarperConfig: " + what);
}

}  // namespace

Status ServeConfig::Validate() const {
  if (batch_max == 0) return BadKnob("serve.batch_max must be > 0");
  if (batch_timeout_us < 0) {
    return BadKnob("serve.batch_timeout_us must be >= 0");
  }
  if (queue_capacity == 0) return BadKnob("serve.queue_capacity must be > 0");
  if (batch_max > queue_capacity) {
    return BadKnob("serve.batch_max must be <= serve.queue_capacity");
  }
  if (default_deadline_us < 0) {
    return BadKnob("serve.default_deadline_us must be >= 0");
  }
  if (!(regression_tolerance > 0.0) || !std::isfinite(regression_tolerance)) {
    return BadKnob("serve.regression_tolerance must be positive and finite");
  }
  if (adapt_threads == 0) return BadKnob("serve.adapt_threads must be > 0");
  if (tenant_queue_depth == 0) {
    return BadKnob("serve.tenant_queue_depth must be > 0");
  }
  if (tenant_shed_budget > tenant_queue_depth) {
    return BadKnob(
        "serve.tenant_shed_budget must be <= serve.tenant_queue_depth "
        "(0 disables it)");
  }
  if (adapt_priority_drift_weight < 0.0 ||
      !std::isfinite(adapt_priority_drift_weight)) {
    return BadKnob("serve.adapt_priority_drift_weight must be >= 0 and finite");
  }
  if (adapt_priority_traffic_weight < 0.0 ||
      !std::isfinite(adapt_priority_traffic_weight)) {
    return BadKnob(
        "serve.adapt_priority_traffic_weight must be >= 0 and finite");
  }
  if (!(adapt_priority_floor > 0.0) || !std::isfinite(adapt_priority_floor)) {
    return BadKnob("serve.adapt_priority_floor must be positive and finite");
  }
  if (adapt_aging_rate < 0.0 || !std::isfinite(adapt_aging_rate)) {
    return BadKnob("serve.adapt_aging_rate must be >= 0 and finite");
  }
  return Status::OK();
}

Status TrackerConfig::Validate() const {
  if (!(ewma_alpha > 0.0) || ewma_alpha > 1.0) {
    return BadKnob("tracker.ewma_alpha must be in (0, 1]");
  }
  if (!(unhealthy_threshold > 0.0) || !std::isfinite(unhealthy_threshold)) {
    return BadKnob("tracker.unhealthy_threshold must be positive and finite");
  }
  if (min_count == 0) return BadKnob("tracker.min_count must be > 0");
  if (hash_bits == 0 || hash_bits > 64) {
    return BadKnob("tracker.hash_bits must be in [1, 64]");
  }
  if (!(min_targeted_fraction > 0.0) || min_targeted_fraction > 1.0) {
    return BadKnob("tracker.min_targeted_fraction must be in (0, 1]");
  }
  if (targeted && !enabled) {
    return BadKnob("tracker.targeted requires tracker.enabled");
  }
  return Status::OK();
}

Status WarperConfig::Validate() const {
  if (hidden_units == 0) return BadKnob("hidden_units must be > 0");
  if (hidden_layers == 0) return BadKnob("hidden_layers must be > 0");
  if (embedding_dim == 0) return BadKnob("embedding_dim must be > 0");
  if (!(learning_rate > 0.0) || !std::isfinite(learning_rate)) {
    return BadKnob("learning_rate must be positive and finite");
  }
  if (batch_size == 0) return BadKnob("batch_size must be > 0");
  if (n_i <= 0) return BadKnob("n_i must be > 0");
  if (loss_rel_tol < 0.0) return BadKnob("loss_rel_tol must be >= 0");
  if (loss_patience <= 0) return BadKnob("loss_patience must be > 0");
  if (gen_fraction < 0.0 || !std::isfinite(gen_fraction)) {
    return BadKnob("gen_fraction must be >= 0 and finite");
  }
  if (n_p == 0) return BadKnob("n_p must be > 0");
  if (picker_strata == 0) return BadKnob("picker_strata must be > 0");
  if (picker_knn == 0) return BadKnob("picker_knn must be > 0");
  if (gamma == 0) return BadKnob("gamma must be > 0");
  if (!(pi_initial > 0.0)) return BadKnob("pi_initial must be > 0");
  if (early_stop_gain < 0.0) return BadKnob("early_stop_gain must be >= 0");
  if (pi_growth < 1.0) return BadKnob("pi_growth must be >= 1");
  if (pi_max < pi_initial) return BadKnob("pi_max must be >= pi_initial");
  if (gamma_growth < 1.0) return BadKnob("gamma_growth must be >= 1");
  if (data_changed_threshold < 0.0) {
    return BadKnob("data_changed_threshold must be >= 0");
  }
  if (canary_shift_threshold < 0.0) {
    return BadKnob("canary_shift_threshold must be >= 0");
  }
  if (js_pca_dims == 0) return BadKnob("js_pca_dims must be > 0");
  if (js_bins < 2) return BadKnob("js_bins must be >= 2");
  if (js_threshold < 0.0) return BadKnob("js_threshold must be >= 0");
  if (ablation_noise_stddev < 0.0) {
    return BadKnob("ablation_noise_stddev must be >= 0");
  }
  Status parallel_status = parallel.Validate();
  if (!parallel_status.ok()) {
    return Status::InvalidArgument("WarperConfig: " +
                                   parallel_status.message());
  }
  WARPER_RETURN_NOT_OK(serve.Validate());
  WARPER_RETURN_NOT_OK(tracker.Validate());
  return Status::OK();
}

void ApplyParallelConfig(const util::ParallelConfig& config) {
  util::ThreadPool::Configure(config);
  nn::SetMatrixParallelism(config);
  storage::internal::SetAnnotateKernels(config);
  WARPER_LOG(Info) << "parallel config applied: threads="
                   << config.ResolvedThreads()
                   << " simd=" << util::SimdModeName(config.simd)
                   << " -> nn kernels: " << nn::ActiveKernelName()
                   << ", annotate kernels: "
                   << storage::internal::ActiveAnnotateKernelName();
}

}  // namespace warper::core
