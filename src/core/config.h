// All Warper knobs in one place, with the paper's defaults.
#ifndef WARPER_CORE_CONFIG_H_
#define WARPER_CORE_CONFIG_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/status.h"
#include "util/thread_pool.h"

namespace warper::core {

// Ablation variants (§4.3, Table 10): replace the learned picker with
// uniform-random or entropy-based (uncertainty) sampling, or replace the GAN
// generator with AUG-style Gaussian noise on the arrived queries.
enum class PickerVariant { kWarper, kRandom, kEntropy };
enum class GeneratorVariant { kGan, kNoiseAug };

// Knobs for the serving layer (src/serve): the micro-batcher in front of
// the estimator, the admission controller on its queue, and the eval gate
// the background adaptation thread applies before publishing a snapshot.
struct ServeConfig {
  // Micro-batcher: requests coalesced into one Mlp::Predict matrix pass.
  // batch_max = 1 disables coalescing — Estimate() computes inline on the
  // caller's thread against the current snapshot (the lock-free fast path).
  size_t batch_max = 32;
  // After the first request of a batch arrives, how long the dispatcher
  // waits for more before running a partial batch. Thread-mode batchers
  // (MicroBatcher::Start) only: pool-mode batchers never wait for
  // stragglers, and every ServingFleet tenant runs in pool mode.
  int64_t batch_timeout_us = 200;

  // Admission control: bounded request queue, and what an arrival does when
  // the queue is full — wait for space (kBlock) or fail fast with
  // Unavailable (kShed).
  enum class Overflow { kBlock, kShed };
  size_t queue_capacity = 1024;
  Overflow overflow = Overflow::kBlock;
  // Deadline applied to requests that do not carry their own (µs; 0 = no
  // deadline). A request still queued when its deadline passes is answered
  // with DeadlineExceeded instead of occupying a batch slot.
  int64_t default_deadline_us = 0;

  // Eval gate (§3.4): an adapted model is published only when its eval GMQ
  // is at most `regression_tolerance` × the last published version's;
  // otherwise M and the modules roll back to the last-good snapshot.
  double regression_tolerance = 1.10;

  // --- Fleet knobs (serve::ServingFleet) ---
  // Worker threads of the shared background-adaptation executor that
  // multiplexes every tenant (replaces one adaptation thread per server).
  size_t adapt_threads = 1;
  // Per-tenant serving queue depth: the fleet gives each tenant's
  // micro-batcher a queue of this capacity, so one saturated tenant cannot
  // consume the whole fleet's queueing headroom.
  size_t tenant_queue_depth = 256;
  // Per-tenant shed budget: when > 0, the fleet refuses (Unavailable) a
  // tenant's request while that tenant already has this many requests
  // queued — regardless of the overflow policy — so a saturated tenant is
  // shed instead of parking caller threads that siblings need. Requests
  // with EstimateRequest::priority > 0 bypass the budget (they still obey
  // the tenant's queue capacity). 0 disables the budget.
  size_t tenant_shed_budget = 0;
  // Shared-executor scheduling: a pending adaptation's base priority is
  //   (floor + drift_weight · severity) · (1 + traffic_weight · traffic)
  // — the ROADMAP's "drift severity × traffic" with a floor so tenants
  // that never drifted still get service — and its effective priority adds
  // aging_rate · seconds_waiting, which makes the schedule starvation-free:
  // any bounded base priority is eventually overtaken by a waiting tenant.
  double adapt_priority_drift_weight = 1.0;
  double adapt_priority_traffic_weight = 1.0;
  double adapt_priority_floor = 0.01;
  double adapt_aging_rate = 0.1;

  // Every knob above, checked once: serve entry points
  // (EstimationServer::Start, ServingFleet::Start) call this instead of
  // re-checking ad hoc, mirroring WarperConfig::Validate.
  Status Validate() const;
};

// Knobs for the per-template error tracker (core::TemplateTracker): the
// pg_track_optimizer-style running stats keyed by predicate-template
// fingerprint, and the targeted-adaptation feedback loop they drive.
struct TrackerConfig {
  // Master switch; off costs nothing but also disables targeting.
  bool enabled = true;
  // EWMA factor of the per-template time-decayed error.
  double ewma_alpha = 0.2;
  // A template is unhealthy once its EWMA |ln q-error| exceeds this with at
  // least `min_count` observations. ln 2 ≈ 0.693: the model is off by more
  // than 2× on that template's recent queries.
  double unhealthy_threshold = 0.6931471805599453;
  size_t min_count = 8;
  // Fingerprint width in bits (1..64). Narrow widths force distinct
  // templates to share stats buckets — a memory/e resolution trade tested
  // explicitly; 64 in production.
  size_t hash_bits = 64;
  // The feedback loop: per-template drift scores replace the single global
  // trigger. Picks are filtered to unhealthy templates, n_p scales with the
  // unhealthy traffic share, and an all-healthy tracker vetoes a purely
  // workload-driven δ_m trigger (data-telemetry c1 triggers are never
  // vetoed). Off by default — global Warper behavior is the baseline.
  bool targeted = false;
  // Floor on the targeted n_p scale factor, so a tiny unhealthy share
  // still gets a usable pick budget.
  double min_targeted_fraction = 0.05;
  // Publish per-template metric instances (warper.template.<fp>.*). Off by
  // default to keep the registry small; benches and the quickstart opt in.
  bool template_metrics = false;
  // Name under which the tracker's ErrorLog registers for the
  // WARPER_ERRLOG export ("" = not exported).
  std::string export_name = "warper";

  Status Validate() const;
};

struct WarperConfig {
  // --- Learned module shapes (Table 3) ---
  // Encoder/generator trunk: `hidden_layers` fully-connected layers of
  // `hidden_units` with LeakyReLU; discriminator is one FC-3 layer on z.
  size_t hidden_units = 128;
  size_t hidden_layers = 3;
  // Embedding width |z|.
  size_t embedding_dim = 16;

  // --- Training (§3.5) ---
  double learning_rate = 1e-3;  // halved every 10 epochs by the scheduler
  size_t batch_size = 64;
  // n_i: iterations for update_AutoEncoder / update_MultiTask per invocation.
  int n_i = 100;
  // Loss-convergence early stop inside the n_i loop.
  double loss_rel_tol = 1e-3;
  int loss_patience = 10;

  // --- Generation & picking (§4.1) ---
  // n_g = gen_fraction · n_t synthetic queries per adaptation step; the
  // generator is disabled when n_g < 1.
  double gen_fraction = 0.1;
  // n_p: queries sub-selected by the picker per invocation.
  size_t n_p = 1000;
  // Error strata (k-means buckets) for the c1/c3 picker.
  size_t picker_strata = 5;
  // kNN neighbours when assigning unlabeled queries to strata.
  size_t picker_knn = 5;

  // --- Drift detection (§3.1) ---
  // γ: annotated queries needed for a robust model; estimated offline and
  // tuned online.
  size_t gamma = 400;
  // π: the det_drft threshold on δ_m (GMQ gap vs. training-time error).
  double pi_initial = 0.2;
  // Early-stop: when an adaptation improves GMQ by less than this, π grows.
  double early_stop_gain = 0.01;
  double pi_growth = 1.5;
  double pi_max = 64.0;
  // γ online-tuning growth when c4 adapts too slowly (§3.4).
  double gamma_growth = 1.5;
  // Data-drift triggers: changed-row fraction / canary cardinality shift.
  double data_changed_threshold = 0.05;
  double canary_shift_threshold = 0.10;
  // JS-divergence projection: reading the paper's "[0, k^m)" with k=10,
  // m=3 as 10³ = 1000 histogram cells — 3 PCA dims × 10 bins. (The m^k
  // reading gives 59049 cells, where every small sample looks disjoint.)
  size_t js_pca_dims = 3;
  size_t js_bins = 10;
  // Minimum δ_js to treat an accuracy gap as a *workload* drift.
  double js_threshold = 0.05;
  // A δ_js this large triggers adaptation even without a δ_m accuracy gap.
  // Disabled by default (> 1): at realistic per-period sample sizes the
  // sparse-histogram JSD carries a noise floor comparable to real drift
  // signals, so the no-gap case is covered by the passive per-period model
  // refresh instead (c_Model is "a constant overhead no matter if Warper
  // kicks in", §4.3).
  double js_strong_threshold = 1.01;

  // PCA refresh cadence: recompute the embedding-space PCA every invocation
  // is wasteful; reuse across invocations of one adaptation episode.
  // (kept simple: recomputed on demand)

  // --- Ablations (Table 10) ---
  PickerVariant picker_variant = PickerVariant::kWarper;
  GeneratorVariant generator_variant = GeneratorVariant::kGan;
  // Noise σ (normalized feature space) for the G→AUG ablation.
  double ablation_noise_stddev = 0.1;

  // --- Parallel execution (tech report: "many calls can be parallelized") —
  // one struct sizes the shared thread pool and picks the nn::Matrix and
  // annotation kernels. The default (threads = 0) uses every core; set
  // threads = 1 for fully serial runs. Warper annotates through whatever
  // storage::Annotator its domain holds: one built with threads = 1 (the
  // default) scans on the calling thread, one built with threads != 1 fans
  // out on the pool sized here. `parallel.simd` picks the dense-
  // kernel instruction set: the default kAuto runs the AVX2+FMA kernels
  // where the CPU has them. Runs are replay-exact on either table (same
  // seed, same bytes, any thread count); pin kScalar for bits that match
  // across machines (the tables agree to ~1e-12 relative — see DESIGN.md).
  util::ParallelConfig parallel;

  // --- Serving (src/serve) — see ServeConfig above.
  ServeConfig serve;

  // --- Per-template error tracking & targeted adaptation — see
  // TrackerConfig above.
  TrackerConfig tracker;

  uint64_t seed = 42;

  // Checks every knob for a usable value (positive sizes, n_i > 0,
  // non-negative thresholds, valid thread counts). Entry points call this
  // once instead of re-checking ad hoc; Warper::Initialize returns the same
  // Status instead of aborting.
  Status Validate() const;
};

// Applies `config` process-wide: resizes the shared util::ThreadPool and
// installs the nn::Matrix kernel policy. Warper::Initialize calls this with
// WarperConfig::parallel; benches and examples may call it directly. Last
// writer wins — intended for startup, not concurrent reconfiguration.
void ApplyParallelConfig(const util::ParallelConfig& config);

}  // namespace warper::core

#endif  // WARPER_CORE_CONFIG_H_
