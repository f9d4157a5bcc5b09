// wdrift and ddrift: closed loops of back-to-back Warper::Invoke calls.
//
// Each run sets the workload up three times (setup_s is their median) and
// walks once from each setup with the same seed. The walks must agree on
// annotations, final GMQ and mode sequence (the replay check); the timing
// metrics take, step by step, the median over the walks, so a host stall in
// one walk's step does not move them. In a traced run the last walk is
// traced and the others are not, so their difference is the tracing
// overhead.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "ce/lm.h"
#include "ce/metrics.h"
#include "ce/query_domain.h"
#include "common.h"
#include "core/warper.h"
#include "drift/schedule.h"
#include "drift/spec.h"
#include "storage/annotator.h"
#include "storage/data_drift.h"
#include "storage/datasets.h"
#include "timed.h"
#include "util/rng.h"
#include "util/trace.h"
#include "workload/generator.h"
#include "workloads.h"

namespace perfbench {
namespace {

using warper::ce::LabeledExample;
using warper::storage::RangePredicate;
using warper::workload::GenMethod;

// The fixed shape of one adaptation workload (see BENCHMARK.json and
// perfbench/workloads.json for why each number was chosen).
struct Shape {
  bool data_drift = false;
  size_t table_rows = 0;
  size_t train_queries = 0;      // I_train: seeds the QueryPool
  size_t model_train_queries = 0;  // prefix of I_train M is trained on
  size_t arrivals_per_step = 0;  // labeled arrivals per Invoke
  size_t eval_queries = 0;       // held-out post-drift set (per mix)
  double nominal_step_s = 0.0;   // sizes the walk: steps = seconds / kWalks / this
};

Shape ShapeOf(const std::string& workload) {
  Shape s;
  if (workload == "wdrift") {
    s.table_rows = 20000;
    s.train_queries = 8000;
    s.model_train_queries = 2000;
    s.arrivals_per_step = 200;
    s.eval_queries = 1000;
    s.nominal_step_s = 0.65;
  } else {
    s.data_drift = true;
    s.table_rows = 1000000;
    s.train_queries = 2000;
    s.model_train_queries = 2000;
    s.arrivals_per_step = 200;
    s.eval_queries = 300;
    s.nominal_step_s = 3.2;
  }
  return s;
}

// wdrift's training mixture and the mixes its arrivals walk through, a new
// one at every invocation (cycled).
const std::vector<GenMethod> kTrainMix = {GenMethod::kW1, GenMethod::kW2};
const std::vector<std::vector<GenMethod>> kArrivalMixes = {
    {GenMethod::kW3}, {GenMethod::kW5}, {GenMethod::kW4}};
// ddrift keeps the all-methods mixture (the paper's c1 workload).
const std::vector<GenMethod> kAllMethods = {GenMethod::kW1, GenMethod::kW2,
                                            GenMethod::kW3, GenMethod::kW4,
                                            GenMethod::kW5};
constexpr size_t kCanaries = 16;
// Per-event drift intensity of ddrift's data-family DriftSpec.
constexpr double kEventIntensity = 0.1;
// Annotations re-counted by brute force after every ddrift step.
constexpr size_t kAuditPerStep = 6;
// Same-seed walks per run, one per setup.
constexpr size_t kWalks = 3;

size_t StepsFor(const Shape& shape, double seconds) {
  return std::max<size_t>(
      2, static_cast<size_t>(std::lround(
             seconds / static_cast<double>(kWalks) / shape.nominal_step_s)));
}

// The arrival mix of a step, as an index into kArrivalMixes (wdrift) or 0.
size_t MixAt(const Shape& shape, size_t step) {
  return shape.data_drift ? 0 : step % kArrivalMixes.size();
}

// How many mixes a walk of `steps` reaches; each gets a held-out set.
size_t MixesWalked(const Shape& shape, size_t steps) {
  return shape.data_drift ? 1 : std::min(kArrivalMixes.size(), steps);
}

// Brute-force ground truth: a plain row loop, independent of the library's
// fused annotate engine. Rows with NaN cells match (the engine's rule).
int64_t BruteForceCount(const warper::storage::Table& table,
                        const RangePredicate& pred) {
  int64_t count = 0;
  for (size_t r = 0; r < table.NumRows(); ++r) {
    bool match = true;
    for (size_t c = 0; c < table.NumColumns() && match; ++c) {
      double v = table.column(c).Value(r);
      match = !(v < pred.low[c]) && !(v > pred.high[c]);
    }
    count += match ? 1 : 0;
  }
  return count;
}

// Everything one replica builds before its walk.
struct Setup {
  std::unique_ptr<warper::storage::Table> table;
  std::unique_ptr<warper::storage::Annotator> annotator;
  std::unique_ptr<warper::ce::SingleTableDomain> domain;
  std::unique_ptr<TimedDomain> timed_domain;
  std::shared_ptr<EstimatorCounts> model_counts;
  std::unique_ptr<TimedEstimator> model;
  std::unique_ptr<warper::core::Warper> warper;
  std::unique_ptr<warper::drift::DriftSchedule> schedule;

  std::vector<std::vector<RangePredicate>> arrivals;  // per step
  std::vector<std::vector<LabeledExample>> labeled_arrivals;  // wdrift
  std::vector<std::vector<RangePredicate>> eval_preds;  // per mix walked
  std::vector<std::vector<LabeledExample>> eval_sets;   // per mix walked
  std::vector<RangePredicate> canaries;

  double data_s = 0.0, train_s = 0.0, initialize_s = 0.0;
  double total_s() const { return data_s + train_s + initialize_s; }
};

std::vector<LabeledExample> Label(const warper::ce::SingleTableDomain& domain,
                                  const warper::storage::Annotator& annotator,
                                  const std::vector<RangePredicate>& preds) {
  std::vector<int64_t> counts = annotator.BatchCount(preds);
  std::vector<LabeledExample> out(preds.size());
  for (size_t i = 0; i < preds.size(); ++i) {
    out[i].features = domain.FeaturizePredicate(preds[i]);
    out[i].cardinality = counts[i];
  }
  return out;
}

std::unique_ptr<Setup> BuildSetup(const Shape& shape, const Args& args,
                                  size_t steps) {
  auto s = std::make_unique<Setup>();
  double t0 = WallSeconds();
  warper::util::Rng fixed_rng(kDatasetSeed);
  warper::util::Rng rng(args.seed * 0x9E3779B97F4A7C15ULL + 17);
  s->table = std::make_unique<warper::storage::Table>(
      shape.data_drift ? warper::storage::MakeHiggs(shape.table_rows, kDatasetSeed)
                       : warper::storage::MakePrsa(shape.table_rows, kDatasetSeed));
  s->annotator = std::make_unique<warper::storage::Annotator>(s->table.get());
  s->domain = std::make_unique<warper::ce::SingleTableDomain>(s->annotator.get());
  s->timed_domain = std::make_unique<TimedDomain>(s->domain.get());

  const std::vector<GenMethod>& train_mix =
      shape.data_drift ? kAllMethods : kTrainMix;
  std::vector<LabeledExample> corpus = Label(
      *s->domain, *s->annotator,
      warper::workload::GenerateWorkload(*s->table, train_mix,
                                         shape.train_queries, &fixed_rng));
  // wdrift's GAN training early-stops at a point that is chaotic in the
  // arrival stream (±30% work between arrival seeds), so wdrift replays one
  // fixed arrival stream and the seed draws its held-out yardstick; ddrift's
  // work is stable, so its arrivals and mutations follow the seed.
  warper::util::Rng& arrival_rng = shape.data_drift ? rng : fixed_rng;
  warper::util::Rng& eval_rng = shape.data_drift ? fixed_rng : rng;
  for (size_t step = 0; step < steps; ++step) {
    const std::vector<GenMethod>& mix =
        shape.data_drift ? kAllMethods : kArrivalMixes[MixAt(shape, step)];
    s->arrivals.push_back(warper::workload::GenerateWorkload(
        *s->table, mix, shape.arrivals_per_step, &arrival_rng));
    // wdrift's table never changes, so its arrival labels are inputs; ddrift
    // labels each batch against the table as mutated at its step.
    if (!shape.data_drift) {
      s->labeled_arrivals.push_back(
          Label(*s->domain, *s->annotator, s->arrivals.back()));
    }
  }
  for (size_t m = 0; m < MixesWalked(shape, steps); ++m) {
    const std::vector<GenMethod>& mix =
        shape.data_drift ? kAllMethods : kArrivalMixes[m];
    s->eval_preds.push_back(warper::workload::GenerateWorkload(
        *s->table, mix, shape.eval_queries, &eval_rng));
    s->eval_sets.push_back(Label(*s->domain, *s->annotator, s->eval_preds[m]));
  }
  if (shape.data_drift) {
    s->canaries =
        warper::storage::MakeCanaryPredicates(*s->table, kCanaries, &rng);
    warper::drift::DriftSpec spec;
    spec.family = warper::drift::DriftFamily::kData;
    spec.cadence = steps;  // one mutation event at every step
    spec.intensity = std::min(1.0, kEventIntensity * static_cast<double>(steps));
    spec.append_fraction = 0.5;
    spec.update_fraction = 0.25;
    spec.sort_truncate = true;
    spec.seed = args.seed ^ 0xD21F7ABULL;
    s->schedule = std::make_unique<warper::drift::DriftSchedule>(
        spec, warper::workload::WorkloadSpec{kAllMethods, kAllMethods, 1.0},
        steps);
  }
  double t1 = WallSeconds();
  s->data_s = t1 - t0;

  // M: LM-mlp with its library defaults, trained on I_train.
  s->model_counts = std::make_shared<EstimatorCounts>();
  s->model = std::make_unique<TimedEstimator>(
      std::make_unique<warper::ce::LmMlp>(s->domain->FeatureDim(),
                                          warper::ce::LmMlpConfig{}, kDatasetSeed),
      s->model_counts);
  {
    warper::nn::Matrix x;
    std::vector<double> y;
    warper::ce::ExamplesToMatrix(
        std::vector<LabeledExample>(
            corpus.begin(),
            corpus.begin() + std::min(corpus.size(), shape.model_train_queries)),
        &x, &y);
    s->model->Train(x, y);
  }
  double t2 = WallSeconds();
  s->train_s = t2 - t1;

  warper::core::WarperConfig config;
  config.parallel.threads = kPoolThreads;
  s->warper = std::make_unique<warper::core::Warper>(s->timed_domain.get(),
                                                     s->model.get(), config);
  warper::Status status = s->warper->Initialize(corpus);
  WARPER_CHECK_MSG(status.ok(), status.ToString());
  s->initialize_s = WallSeconds() - t2;
  return s;
}

struct WalkResult {
  // Per step: the timed segment (mutation, canaries, arrival labels,
  // Invoke), its process CPU, and the Invoke call alone.
  std::vector<double> step_s, step_cpu_s, invoke_s;
  std::vector<double> gmq_after;  // held-out GMQ after each Invoke
  double gmq_final = 0.0;
  uint64_t annotations = 0;
  uint64_t attempted = 0, failed = 0;
  std::string modes;

  // Per-layer inputs (filled for every walk, reported from the traced one).
  CounterDeltas counters;
  double update_modules_cpu_s = 0.0, update_model_cpu_s = 0.0;
  uint64_t mode_c1 = 0, mode_c2 = 0, mode_c3 = 0, mode_c4 = 0, mode_none = 0;
  uint64_t generated = 0, picked = 0, gan_iterations = 0;
  double pool_records = 0.0;
  double rows_mutated = 0.0;
  uint64_t update_rows = 0, estimate_rows = 0, annotate_preds = 0;
  TraceSummary trace;
};

// Meters the timed segment of one step: wall, CPU and counter deltas.
class SegmentMeter {
 public:
  SegmentMeter(const Setup* setup, bool traced) : setup_(setup), traced_(traced) {}

  void Begin() {
    before_ = warper::util::Metrics().Snapshot();
    update_rows_ = setup_->model_counts->update_rows.load();
    estimate_rows_ = setup_->model_counts->estimate_rows.load();
    preds_ = setup_->timed_domain->counts().predicates.load();
    if (traced_) warper::util::StartTracing();
    wall0_ = WallSeconds();
    cpu0_ = ProcessCpuSeconds();
  }

  void End(WalkResult* r) {
    r->step_s.push_back(WallSeconds() - wall0_);
    r->step_cpu_s.push_back(ProcessCpuSeconds() - cpu0_);
    if (traced_) warper::util::StopTracing();
    AccumulateCounters(RegistryDelta(before_, warper::util::Metrics().Snapshot()),
                       &r->counters);
    r->update_rows += setup_->model_counts->update_rows.load() - update_rows_;
    r->estimate_rows +=
        setup_->model_counts->estimate_rows.load() - estimate_rows_;
    r->annotate_preds +=
        setup_->timed_domain->counts().predicates.load() - preds_;
  }

 private:
  const Setup* setup_;
  bool traced_;
  warper::util::MetricsSnapshot before_;
  uint64_t update_rows_ = 0, estimate_rows_ = 0, preds_ = 0;
  double wall0_ = 0.0, cpu0_ = 0.0;
};

WalkResult Walk(const Shape& shape, Setup* s, size_t steps, bool traced,
                Report* report) {
  WalkResult r;
  warper::util::ClearTrace();
  SegmentMeter meter(s, traced);
  warper::storage::Table& table = *s->table;
  const warper::ce::SingleTableDomain& domain = *s->domain;

  for (size_t step = 0; step < steps; ++step) {
    warper::core::Warper::Invocation invocation;

    // --- Timed: mutate + canaries + arrival labels + Invoke. ---
    meter.Begin();
    if (shape.data_drift) {
      std::vector<int64_t> baseline;
      {
        WARPER_SPAN("storage.canary");
        baseline = s->annotator->BatchCount(s->canaries);
      }
      uint64_t snapshot = table.ChangeCounter();
      warper::drift::DriftEvent event;
      {
        WARPER_SPAN("storage.mutate");
        event = s->schedule->ApplyDataEventAt(&table, step);
      }
      r.rows_mutated += static_cast<double>(
          event.rows_appended + event.rows_updated + event.rows_truncated);
      invocation.data_changed_fraction = table.ChangedFractionSince(snapshot);
      {
        WARPER_SPAN("storage.canary");
        invocation.canary_shift =
            warper::storage::CanaryShift(*s->annotator, s->canaries, baseline);
      }
      {
        WARPER_SPAN("storage.label_arrivals");
        invocation.new_queries = Label(domain, *s->annotator, s->arrivals[step]);
      }
    } else {
      invocation.new_queries = s->labeled_arrivals[step];
    }
    double invoke0 = WallSeconds();
    auto result = s->warper->Invoke(invocation);
    r.invoke_s.push_back(WallSeconds() - invoke0);
    meter.End(&r);

    ++r.attempted;
    if (!result.ok()) {
      ++r.failed;
      report->Fail("Invoke failed at step " + std::to_string(step) + ": " +
                   result.status().ToString());
      continue;
    }
    const warper::core::Warper::InvocationResult& inv = result.ValueOrDie();
    r.annotations += inv.annotated;
    r.generated += inv.generated;
    r.picked += inv.picked;
    r.gan_iterations += static_cast<uint64_t>(inv.gan_stats.iterations);
    std::string mode = inv.mode.Any() ? inv.mode.ToString() : "none";
    r.modes += (step ? "," : "") + mode;
    r.mode_c1 += inv.mode.c1;
    r.mode_c2 += inv.mode.c2;
    r.mode_c3 += inv.mode.c3;
    r.mode_c4 += inv.mode.c4;
    r.mode_none += !inv.mode.Any();
    for (const auto& phase : inv.timing.phases) {
      std::string name = phase.name;
      if (name == "warper.update_modules") r.update_modules_cpu_s += phase.cpu_seconds;
      if (name == "warper.update_model") r.update_model_cpu_s += phase.cpu_seconds;
    }
    r.pool_records = static_cast<double>(s->warper->pool().Size());

    // --- Untimed: refresh held-out truth, score M, audit annotations. ---
    const size_t mix = MixAt(shape, step);
    std::vector<LabeledExample>& eval = s->eval_sets[mix];
    if (shape.data_drift) {
      std::vector<int64_t> counts = s->annotator->BatchCount(s->eval_preds[mix]);
      for (size_t i = 0; i < eval.size(); ++i) eval[i].cardinality = counts[i];
      std::vector<std::pair<std::vector<double>, int64_t>> audit =
          s->timed_domain->TakeAudit();
      for (size_t i = 0; i < audit.size() && i < kAuditPerStep; ++i) {
        size_t pick = i * audit.size() / std::min(audit.size(), kAuditPerStep);
        int64_t truth =
            BruteForceCount(table, domain.DecodePredicate(audit[pick].first));
        report->Check(truth == audit[pick].second,
                      "annotated count differs from a row loop at step " +
                          std::to_string(step));
      }
    }
    r.gmq_after.push_back(warper::ce::ModelGmq(*s->model, eval));
  }
  if (!r.gmq_after.empty()) r.gmq_final = r.gmq_after.back();
  if (traced) r.trace = SummarizeTrace(warper::util::TraceToJson());
  warper::util::ClearTrace();
  return r;
}

// Step by step, the median over `walks` of one per-step series: a stall
// that hits one walk's step leaves it unmoved.
std::vector<double> StepMedians(const std::vector<const WalkResult*>& walks,
                                std::vector<double> WalkResult::*series) {
  std::vector<double> out;
  for (size_t step = 0; step < (walks[0]->*series).size(); ++step) {
    std::vector<double> at;
    for (const WalkResult* w : walks) at.push_back((w->*series)[step]);
    out.push_back(Median(at));
  }
  return out;
}

double Sum(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum;
}

// End-to-end metrics: step-wise medians over the walks, and the median of
// the setups. The GMQ figures are the same in every walk (replay check).
MetricValues EndToEnd(const std::vector<const WalkResult*>& walks,
                      const std::vector<double>& setup_s,
                      const Report& report) {
  const WalkResult& a = *walks[0];
  MetricValues m;
  m["setup_s"] = Median(setup_s);
  m["wall_s"] = Sum(StepMedians(walks, &WalkResult::step_s));
  m["cpu_s"] = Sum(StepMedians(walks, &WalkResult::step_cpu_s));
  m["invoke_s_p50"] = Median(StepMedians(walks, &WalkResult::invoke_s));
  m["gmq_mean"] = Mean(a.gmq_after);
  m["gmq_final"] = a.gmq_final;
  m["annotations"] = static_cast<double>(a.annotations);
  m["ok_share"] = 1.0 - static_cast<double>(report.failed) /
                            static_cast<double>(std::max<uint64_t>(1, report.attempted));
  m["peak_rss_mb"] = PeakRssMb();
  // The walks have no serving path: an adaptation pass is one timed step,
  // and the estimates served after it are the held-out ones. The held-out
  // sets are equal in size, so the GMQ over all of them is the geometric
  // mean of the per-step GMQs.
  m["adapt_pass_s_p50"] = Median(StepMedians(walks, &WalkResult::step_s));
  double log_sum = 0.0;
  for (double g : a.gmq_after) log_sum += std::log(g);
  m["served_gmq"] = std::exp(log_sum / static_cast<double>(a.gmq_after.size()));
  return m;
}

// Per-layer metrics of the traced walk `b`; `untraced` are its untraced
// twins.
MetricValues PerLayer(const std::vector<const WalkResult*>& untraced,
                      const WalkResult& b) {
  MetricValues m;
  AddTraceMetrics(b.trace, &m);
  AddCounterMetrics(b.counters, &m);
  m["core.invocations"] = static_cast<double>(b.invoke_s.size());
  m["core.update_modules_cpu_s"] = b.update_modules_cpu_s;
  m["core.update_model_cpu_s"] = b.update_model_cpu_s;
  m["core.pool_records"] = b.pool_records;
  m["core.mode.c1"] = static_cast<double>(b.mode_c1);
  m["core.mode.c2"] = static_cast<double>(b.mode_c2);
  m["core.mode.c3"] = static_cast<double>(b.mode_c3);
  m["core.mode.c4"] = static_cast<double>(b.mode_c4);
  m["core.mode.none"] = static_cast<double>(b.mode_none);
  m["core.generated"] = static_cast<double>(b.generated);
  m["core.picked"] = static_cast<double>(b.picked);
  m["core.annotated"] = static_cast<double>(b.annotations);
  m["core.gan_iterations"] = static_cast<double>(b.gan_iterations);
  m["ce.update_rows"] = static_cast<double>(b.update_rows);
  m["ce.estimate_rows"] = static_cast<double>(b.estimate_rows);
  m["storage.annotate_preds"] = static_cast<double>(b.annotate_preds);
  m["storage.rows_mutated"] = b.rows_mutated;
  double untraced_wall_s = Sum(StepMedians(untraced, &WalkResult::step_s));
  m["trace.untraced_wall_s"] = untraced_wall_s;
  m["trace.traced_wall_s"] = Sum(b.step_s);
  m["trace.overhead_s"] = Sum(b.step_s) - untraced_wall_s;
  return m;
}

}  // namespace

void RunAdaptWorkload(const Args& args, Report* report) {
  const Shape shape = ShapeOf(args.workload);
  const size_t steps = StepsFor(shape, args.seconds);
  warper::util::StopTracing();

  // One setup per walk; a traced run traces only its last walk.
  std::vector<double> setup_s, data_s, train_s, init_s;
  std::vector<WalkResult> walks;
  for (size_t w = 0; w < kWalks; ++w) {
    std::unique_ptr<Setup> setup = BuildSetup(shape, args, steps);
    setup->timed_domain->EnableAudit(shape.data_drift);
    setup_s.push_back(setup->total_s());
    data_s.push_back(setup->data_s);
    train_s.push_back(setup->train_s);
    init_s.push_back(setup->initialize_s);
    bool traced = args.trace && w + 1 == kWalks;
    walks.push_back(Walk(shape, setup.get(), steps, traced, report));
  }
  const WalkResult& a = walks[0];
  std::vector<const WalkResult*> untraced;
  std::string walk_wall_s;
  for (const WalkResult& w : walks) {
    // Replay check: same seed ⇒ same decisions and same outcome.
    report->Check(w.annotations == a.annotations,
                  "replay: annotations differ between walks of one seed");
    report->Check(w.gmq_final == a.gmq_final,
                  "replay: gmq_final differs between walks of one seed");
    report->Check(w.modes == a.modes,
                  "replay: mode sequence differs between walks of one seed");
    for (double g : w.gmq_after) {
      report->Check(std::isfinite(g) && g >= 1.0, "held-out GMQ is not >= 1");
    }
    report->attempted += w.attempted;
    report->failed += w.failed;
    if (!args.trace || &w != &walks.back()) untraced.push_back(&w);
    walk_wall_s += (walk_wall_s.empty() ? "" : ",") + std::to_string(Sum(w.step_s));
  }
  report->Detail("steps_per_walk", static_cast<double>(steps));
  report->Detail("modes", a.modes);
  report->Detail("annotations", static_cast<double>(a.annotations));
  report->Detail("gmq_final", a.gmq_final);
  report->Detail("walk_wall_s", walk_wall_s);
  std::string invoke_by_step;
  for (double t : StepMedians(untraced, &WalkResult::invoke_s)) {
    invoke_by_step += (invoke_by_step.empty() ? "" : ",") + std::to_string(t);
  }
  report->Detail("invoke_s_by_step", invoke_by_step);
  report->Detail("gan_iterations", static_cast<double>(a.gan_iterations));
  report->Detail("setup.data_s", Median(data_s));
  report->Detail("setup.train_s", Median(train_s));
  report->Detail("setup.initialize_s", Median(init_s));

  if (!args.trace) {
    EmitEndToEnd(EndToEnd(untraced, setup_s, *report), report);
    return;
  }
  MetricValues layers = PerLayer(untraced, walks.back());
  layers["setup.data_s"] = Median(data_s);
  layers["setup.train_s"] = Median(train_s);
  layers["setup.initialize_s"] = Median(init_s);
  EmitPerLayer(layers, report);
}

}  // namespace perfbench
