// serve: estimates under live adaptation.
//
// A 2-tenant ServingFleet on PRSA takes open-loop optimizer plans — each
// plan is kEstimatesPerPlan EstimateAsync calls to one tenant — on a fixed
// schedule at a light and then a heavy rate, from two sender threads. A
// submitter thread hands the drifting tenant a drifted adaptation pass and
// the steady tenant a passive one every kPassPeriodS, so snapshots hot-swap
// while the senders read. Each plan is timed from its due time to its last
// estimate, so a stall also charges the plans it delays.
//
// Each run sets the fleet up three times (setup_s is the median). An
// untraced run serves one session from the last setup; a traced run serves
// an untraced session from the second and a traced one from the third, so
// the CPU difference of the two is the tracing overhead.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ce/lm.h"
#include "ce/metrics.h"
#include "ce/query_domain.h"
#include "common.h"
#include "core/warper.h"
#include "serve/fleet.h"
#include "storage/annotator.h"
#include "storage/datasets.h"
#include "timed.h"
#include "util/rng.h"
#include "util/trace.h"
#include "workload/generator.h"
#include "workloads.h"

namespace perfbench {
namespace {

using warper::ce::LabeledExample;
using warper::workload::GenMethod;
using Clock = std::chrono::steady_clock;

constexpr size_t kRows = 20000;          // PRSA rows
constexpr size_t kTrainQueries = 1000;   // I_train of each tenant
constexpr size_t kPlanQueries = 512;     // per tenant, true counts known
constexpr size_t kPassArrivals = 200;    // labeled arrivals per pass
constexpr size_t kEstimatesPerPlan = 4;  // "a few" estimates per optimizer call
constexpr double kPassPeriodS = 1.25;
// Open-loop rates in plans per second. kHeavyRate is the highest rung of
// the ladder {1000, 2000, 4000, 8000, 16000} whose plan p99 met
// kHeavyP99LimitUs at seed 1 on a 4-core Xeon VM, on this Poisson schedule
// (1856, 2116, 1647, 1663 and 13189 µs; at 16000 the senders fell 75 ms
// behind at p99, a growing backlog); both stay fixed so runs compare.
constexpr double kLightRate = 500.0;
constexpr double kHeavyRate = 8000.0;
constexpr double kHeavyP99LimitUs = 4000.0;
// Tail latencies are taken per window of this many plans (10 beyond the
// p99) and reported as the median over the phase's windows, so one
// preempted window cannot move them.
constexpr double kWindowPlans = 1000.0;
constexpr int kSenders = 2;
constexpr std::chrono::microseconds kSpin{200};
constexpr uint64_t kSteady = 0;
constexpr uint64_t kDrifting = 1;

const std::vector<GenMethod> kTrainMix = {GenMethod::kW1, GenMethod::kW2};
const std::vector<GenMethod> kDriftMix = {GenMethod::kW3, GenMethod::kW5};

struct Tenant {
  std::shared_ptr<EstimatorCounts> counts;
  std::unique_ptr<TimedEstimator> model;
  std::unique_ptr<warper::core::Warper> warper;
  std::vector<std::vector<double>> plan_features;
  std::vector<double> plan_truth;
  size_t plan_offset = 0;  // seeded start of the plan query rotation
  // Drifting tenant only: one arrival batch per pass, and the held-out set
  // gmq_final scores.
  std::vector<std::vector<LabeledExample>> passes;
  std::vector<LabeledExample> heldout;
};

struct Setup {
  std::unique_ptr<warper::storage::Table> table;
  std::unique_ptr<warper::storage::Annotator> annotator;
  std::unique_ptr<warper::ce::SingleTableDomain> domain;
  std::unique_ptr<TimedDomain> timed_domain;
  Tenant tenants[2];
  std::unique_ptr<warper::serve::ServingFleet> fleet;
  double data_s = 0.0, train_s = 0.0, initialize_s = 0.0;
  double total_s() const { return data_s + train_s + initialize_s; }
};

std::vector<LabeledExample> Label(const Setup& s,
                                  const std::vector<GenMethod>& mix, size_t n,
                                  warper::util::Rng* rng) {
  std::vector<warper::storage::RangePredicate> preds =
      warper::workload::GenerateWorkload(*s.table, mix, n, rng);
  std::vector<int64_t> counts = s.annotator->BatchCount(preds);
  std::vector<LabeledExample> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i].features = s.domain->FeaturizePredicate(preds[i]);
    out[i].cardinality = counts[i];
  }
  return out;
}

std::unique_ptr<Setup> BuildSetup(const Args& args, size_t passes) {
  auto s = std::make_unique<Setup>();
  double t0 = WallSeconds();
  warper::util::Rng fixed_rng(kDatasetSeed);
  warper::util::Rng rng(args.seed * 0x9E3779B97F4A7C15ULL + 29);
  s->table = std::make_unique<warper::storage::Table>(
      warper::storage::MakePrsa(kRows, kDatasetSeed));
  s->annotator = std::make_unique<warper::storage::Annotator>(s->table.get());
  s->domain = std::make_unique<warper::ce::SingleTableDomain>(s->annotator.get());
  s->timed_domain = std::make_unique<TimedDomain>(s->domain.get());
  std::vector<LabeledExample> corpus =
      Label(*s, kTrainMix, kTrainQueries, &fixed_rng);
  for (uint64_t id : {kSteady, kDrifting}) {
    Tenant& t = s->tenants[id];
    const std::vector<GenMethod>& mix = id == kDrifting ? kDriftMix : kTrainMix;
    for (const LabeledExample& q : Label(*s, mix, kPlanQueries, &fixed_rng)) {
      t.plan_features.push_back(q.features);
      t.plan_truth.push_back(static_cast<double>(q.cardinality));
    }
    t.plan_offset = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(kPlanQueries) - 1));
    // Like wdrift, the drifting tenant replays fixed arrival batches: its
    // GAN training work is chaotic in their content. The seed draws the
    // plan rotation.
    if (id == kDrifting) {
      for (size_t p = 0; p < passes; ++p) {
        t.passes.push_back(Label(*s, mix, kPassArrivals, &fixed_rng));
      }
      t.heldout = Label(*s, mix, kPlanQueries, &fixed_rng);
    }
  }
  double t1 = WallSeconds();
  s->data_s = t1 - t0;

  // One M trained on I_train; each tenant serves its own copy.
  auto base = std::make_unique<warper::ce::LmMlp>(
      s->domain->FeatureDim(), warper::ce::LmMlpConfig{}, kDatasetSeed);
  {
    warper::nn::Matrix x;
    std::vector<double> y;
    warper::ce::ExamplesToMatrix(corpus, &x, &y);
    base->Train(x, y);
  }
  for (uint64_t id : {kSteady, kDrifting}) {
    Tenant& t = s->tenants[id];
    t.counts = std::make_shared<EstimatorCounts>();
    t.model = std::make_unique<TimedEstimator>(base->Clone(), t.counts);
  }
  double t2 = WallSeconds();
  s->train_s = t2 - t1;

  warper::core::WarperConfig config;
  config.parallel.threads = kPoolThreads;
  s->fleet = std::make_unique<warper::serve::ServingFleet>(config.serve);
  for (uint64_t id : {kSteady, kDrifting}) {
    Tenant& t = s->tenants[id];
    config.seed = kDatasetSeed + id;
    t.warper = std::make_unique<warper::core::Warper>(s->timed_domain.get(),
                                                      t.model.get(), config);
    warper::Status status = t.warper->Initialize(corpus);
    WARPER_CHECK_MSG(status.ok(), status.ToString());
    status = s->fleet->AddTenant(id, t.warper.get());
    WARPER_CHECK_MSG(status.ok(), status.ToString());
  }
  warper::Status status = s->fleet->Start();
  WARPER_CHECK_MSG(status.ok(), status.ToString());
  s->initialize_s = WallSeconds() - t2;
  return s;
}

// Index into a tenant's plan queries of estimate `e` of schedule slot `i`.
size_t PlanQuery(const Tenant& t, size_t i, size_t e) {
  return (t.plan_offset + i * kEstimatesPerPlan + e) % kPlanQueries;
}

struct Phase {
  const char* name;
  double rate;     // plans per second
  double start_s;  // offset from the session start
  double length_s;
};

struct PlanRecord {
  size_t phase = 0;
  uint64_t tenant = 0;
  double due_s = 0.0;  // offset from the session start
  double latency_us = 0.0;
  double lag_us = 0.0;
  bool ok = false;
  std::vector<double> estimates;
};

struct PassRecord {
  uint64_t tenant = 0;
  double seconds = 0.0;  // SubmitInvocation → outcome
  bool ok = false;
  warper::serve::AdaptationOutcome outcome;
};

struct SessionResult {
  std::vector<PlanRecord> plans;
  std::vector<PassRecord> passes;
  double wall_s = 0.0;
  double cpu_s = 0.0;       // process CPU less the senders' wait for due times
  double wait_cpu_s = 0.0;  // CPU the senders spent waiting for due times
  std::vector<warper::util::MetricsSnapshot> marks;  // phase boundaries
  CounterDeltas counters;
  uint64_t update_rows = 0, estimate_rows = 0, annotate_preds = 0;
  TraceSummary trace;
  double gmq_final = 0.0;
};

uint64_t Sum(const Setup& s, std::atomic<uint64_t> EstimatorCounts::*field) {
  return (*s.tenants[kSteady].counts.*field).load() +
         (*s.tenants[kDrifting].counts.*field).load();
}

SessionResult Serve(Setup* s, const std::vector<Phase>& phases,
                    uint64_t seed, bool traced, Report* report) {
  SessionResult r;
  // Every plan's schedule slot, in due order; sender k sends slots k, k+2, ….
  // Independent callers: rate·length due times drawn uniformly over the
  // phase (a Poisson schedule given its count), so plans sometimes arrive
  // close enough together to share a micro-batch.
  warper::util::Rng schedule_rng(seed * 0x9E3779B97F4A7C15ULL + 31);
  for (size_t p = 0; p < phases.size(); ++p) {
    size_t n = static_cast<size_t>(phases[p].rate * phases[p].length_s);
    std::vector<double> due(n);
    for (double& t : due) t = phases[p].start_s + schedule_rng.Uniform(0.0, phases[p].length_s);
    std::sort(due.begin(), due.end());
    for (double t : due) {
      PlanRecord plan;
      plan.phase = p;
      plan.due_s = t;
      plan.tenant = (r.plans.size() / kSenders) % 2;
      r.plans.push_back(std::move(plan));
    }
  }
  const double end_s = phases.back().start_s + phases.back().length_s;
  warper::serve::ServingFleet& fleet = *s->fleet;

  warper::util::ClearTrace();
  if (traced) warper::util::StartTracing();
  uint64_t update_rows0 = Sum(*s, &EstimatorCounts::update_rows);
  uint64_t estimate_rows0 = Sum(*s, &EstimatorCounts::estimate_rows);
  uint64_t preds0 = s->timed_domain->counts().predicates.load();
  r.marks.push_back(warper::util::Metrics().Snapshot());
  double cpu0 = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  auto at = [&](double offset_s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(offset_s));
  };
  auto since_start_s = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };

  std::vector<double> wait_cpu_s(kSenders, 0.0);
  auto sender = [&](size_t first) {
    uint64_t last_version[2] = {0, 0};
    double wait_cpu = 0.0;
    for (size_t i = first; i < r.plans.size(); i += kSenders) {
      PlanRecord& plan = r.plans[i];
      // Sleep to just before the due time, then spin: a timed wake-up can
      // overshoot by milliseconds on a busy VM, which would be the load
      // generator's lateness, not the server's. The spin is the load
      // generator's CPU, so it is taken out of cpu_s.
      double wait0 = ThreadCpuSeconds();
      std::this_thread::sleep_until(at(plan.due_s) - kSpin);
      while (Clock::now() < at(plan.due_s)) std::this_thread::yield();
      wait_cpu += ThreadCpuSeconds() - wait0;
      plan.lag_us = (since_start_s() - plan.due_s) * 1e6;
      const Tenant& tenant = s->tenants[plan.tenant];
      std::vector<std::future<warper::Result<warper::serve::EstimateResponse>>> futures;
      for (size_t e = 0; e < kEstimatesPerPlan; ++e) {
        warper::serve::EstimateRequest request;
        request.tenant_id = plan.tenant;
        request.features = tenant.plan_features[PlanQuery(tenant, i, e)];
        futures.push_back(fleet.EstimateAsync(std::move(request)));
      }
      plan.ok = true;
      for (auto& future : futures) {
        warper::Result<warper::serve::EstimateResponse> response = future.get();
        if (!response.ok()) {
          plan.ok = false;
          continue;
        }
        const warper::serve::EstimateResponse& value = response.ValueOrDie();
        plan.estimates.push_back(value.estimate);
        plan.ok = plan.ok && std::isfinite(value.estimate) &&
                  value.estimate >= 0.0 && value.tenant_id == plan.tenant &&
                  value.version >= last_version[plan.tenant];
        last_version[plan.tenant] =
            std::max(last_version[plan.tenant], value.version);
      }
      plan.latency_us = (since_start_s() - plan.due_s) * 1e6;
    }
    wait_cpu_s[first] = wait_cpu;
  };

  // Adaptation runs in the heavy phase only: light isolates per-request
  // overhead, heavy adds the interference of training on the shared pool.
  auto submitter = [&] {
    size_t batch = 0;
    for (double due = phases.back().start_s; due < end_s; due += kPassPeriodS) {
      std::this_thread::sleep_until(at(due));
      double t0 = since_start_s();
      std::future<warper::Result<warper::serve::AdaptationOutcome>> futures[2];
      for (uint64_t id : {kDrifting, kSteady}) {
        // The steady tenant's pass is passive: no arrivals, so its Invoke
        // detects nothing and the pass exercises only the executor, the
        // publish gate and the swap.
        warper::core::Warper::Invocation invocation;
        if (id == kDrifting) {
          invocation.new_queries = s->tenants[id].passes[batch % s->tenants[id].passes.size()];
        }
        WARPER_SPAN("serve.bench_submit");
        futures[id] = fleet.SubmitInvocation(id, std::move(invocation));
      }
      for (uint64_t id : {kDrifting, kSteady}) {
        warper::Result<warper::serve::AdaptationOutcome> outcome = futures[id].get();
        PassRecord pass;
        pass.tenant = id;
        pass.seconds = since_start_s() - t0;
        pass.ok = outcome.ok();
        if (outcome.ok()) pass.outcome = outcome.ValueOrDie();
        r.passes.push_back(std::move(pass));
      }
      ++batch;
    }
  };

  std::vector<std::thread> threads;
  for (int k = 0; k < kSenders; ++k) threads.emplace_back(sender, k);
  threads.emplace_back(submitter);
  for (size_t p = 1; p < phases.size(); ++p) {
    std::this_thread::sleep_until(at(phases[p].start_s));
    r.marks.push_back(warper::util::Metrics().Snapshot());
  }
  for (std::thread& t : threads) t.join();
  r.wall_s = since_start_s();
  for (double w : wait_cpu_s) r.wait_cpu_s += w;
  r.cpu_s = ProcessCpuSeconds() - cpu0 - r.wait_cpu_s;
  r.marks.push_back(warper::util::Metrics().Snapshot());
  if (traced) warper::util::StopTracing();
  AccumulateCounters(RegistryDelta(r.marks.front(), r.marks.back()), &r.counters);
  r.update_rows = Sum(*s, &EstimatorCounts::update_rows) - update_rows0;
  r.estimate_rows = Sum(*s, &EstimatorCounts::estimate_rows) - estimate_rows0;
  r.annotate_preds = s->timed_domain->counts().predicates.load() - preds0;
  if (traced) r.trace = SummarizeTrace(warper::util::TraceToJson());
  warper::util::ClearTrace();

  fleet.Stop();
  const Tenant& drifting = s->tenants[kDrifting];
  r.gmq_final = warper::ce::ModelGmq(*drifting.model, drifting.heldout);

  // Output checks: estimates finite and ≥ 0, versions monotone per sender
  // (folded into PlanRecord::ok), pass versions monotone per tenant.
  uint64_t last_pass_version[2] = {0, 0};
  for (const PassRecord& pass : r.passes) {
    if (!pass.ok) continue;
    report->Check(pass.outcome.version >= last_pass_version[pass.tenant],
                  "adaptation outcome versions went backwards");
    last_pass_version[pass.tenant] = pass.outcome.version;
  }
  report->Check(std::isfinite(r.gmq_final) && r.gmq_final >= 1.0,
                "held-out GMQ of the drifting tenant is not >= 1");
  return r;
}

std::vector<double> Latencies(const SessionResult& r, size_t phase,
                              int tenant = -1, double from_s = 0.0,
                              double to_s = INFINITY) {
  std::vector<double> out;
  for (const PlanRecord& plan : r.plans) {
    if (plan.phase == phase && plan.due_s >= from_s && plan.due_s < to_s &&
        (tenant < 0 || plan.tenant == static_cast<uint64_t>(tenant))) {
      // A failed plan counts as missing any latency limit.
      out.push_back(plan.ok ? plan.latency_us : INFINITY);
    }
  }
  return out;
}

double WindowedQuantile(const SessionResult& r, const Phase& phase,
                        size_t index, double q) {
  const double window_s = kWindowPlans / phase.rate;
  std::vector<double> tails;
  for (double from = phase.start_s;
       from + window_s <= phase.start_s + phase.length_s + 1e-9; from += window_s) {
    tails.push_back(Quantile(Latencies(r, index, -1, from, from + window_s), q));
  }
  return Median(tails);
}

double ServedGmq(const Setup& s, const SessionResult& r, double from_s,
                 double to_s) {
  std::vector<double> est, truth;
  const Tenant& t = s.tenants[kDrifting];
  for (size_t i = 0; i < r.plans.size(); ++i) {
    const PlanRecord& plan = r.plans[i];
    if (plan.tenant != kDrifting || !plan.ok || plan.due_s < from_s ||
        plan.due_s >= to_s) {
      continue;
    }
    for (size_t e = 0; e < plan.estimates.size(); ++e) {
      est.push_back(plan.estimates[e]);
      truth.push_back(t.plan_truth[PlanQuery(t, i, e)]);
    }
  }
  return est.empty() ? 0.0 : warper::ce::Gmq(est, truth);
}

}  // namespace

void RunServeWorkload(const Args& args, Report* report) {
  // A traced run serves two sessions (untraced, then traced) of half the
  // length, so both kinds of run take about the same time.
  const double session_s = args.trace ? args.seconds / 2 : args.seconds;
  const std::vector<Phase> phases = {
      {"light", kLightRate, 0.0, session_s / 2},
      {"heavy", kHeavyRate, session_s / 2, session_s / 2}};
  // Passes run in the heavy phase only, one pair per period.
  const size_t passes =
      static_cast<size_t>(std::ceil(phases.back().length_s / kPassPeriodS));
  warper::util::StopTracing();

  std::vector<double> setup_s, data_s, train_s, init_s;
  std::vector<SessionResult> sessions;
  std::unique_ptr<Setup> last;
  for (int k = 0; k < 3; ++k) {
    std::unique_ptr<Setup> s = BuildSetup(args, passes);
    setup_s.push_back(s->total_s());
    data_s.push_back(s->data_s);
    train_s.push_back(s->train_s);
    init_s.push_back(s->initialize_s);
    if (k == 2 || (args.trace && k == 1)) {
      sessions.push_back(Serve(s.get(), phases, args.seed, args.trace && k == 2, report));
    }
    if (k == 2) last = std::move(s);
  }
  const SessionResult& r = sessions.back();

  // Accounting: plans sent / ok / failed per phase, passes, sender lag.
  std::vector<double> lag;
  uint64_t sent[2] = {0, 0}, ok[2] = {0, 0};
  for (const PlanRecord& plan : r.plans) {
    ++sent[plan.phase];
    ok[plan.phase] += plan.ok;
    lag.push_back(plan.lag_us);
  }
  uint64_t passes_ok = 0;
  for (const PassRecord& pass : r.passes) passes_ok += pass.ok;
  report->attempted = sent[0] + sent[1] + r.passes.size();
  report->failed = report->attempted - ok[0] - ok[1] - passes_ok;
  for (size_t p = 0; p < phases.size(); ++p) {
    std::string prefix = std::string("serve.") + phases[p].name;
    report->Detail(prefix + ".rate", phases[p].rate);
    report->Detail(prefix + ".plans_sent", static_cast<double>(sent[p]));
    report->Detail(prefix + ".plans_ok", static_cast<double>(ok[p]));
    report->Detail(prefix + ".plans_failed", static_cast<double>(sent[p] - ok[p]));
  }
  // The plan latencies of the end-to-end list. They ride in the detail
  // line, not the gated metrics, because a noisy host moves them past any
  // allowed bound (see README). The limit chose the heavy rate; runs report
  // against it, they do not fail on it.
  const double light_p50_us = Quantile(Latencies(sessions[0], 0), 0.5);
  const double light_p99_us = WindowedQuantile(sessions[0], phases[0], 0, 0.99);
  const double heavy_p50_us = Quantile(Latencies(sessions[0], 1), 0.5);
  const double heavy_p99_us = WindowedQuantile(sessions[0], phases[1], 1, 0.99);
  report->Detail("light.plan_us_p50", light_p50_us);
  report->Detail("light.plan_us_p99", light_p99_us);
  report->Detail("heavy.plan_us_p50", heavy_p50_us);
  report->Detail("heavy.plan_us_p99", heavy_p99_us);
  report->Detail("serve.heavy.p99_limit_us", kHeavyP99LimitUs);
  report->Detail("serve.heavy.p99_within_limit",
                 heavy_p99_us <= kHeavyP99LimitUs ? "yes" : "no");
  report->Detail("serve.sender_wait_cpu_s", r.wait_cpu_s);
  report->Detail("serve.passes", static_cast<double>(r.passes.size()));
  std::string mode_seq[2];
  for (const PassRecord& pass : r.passes) {
    const auto& mode = pass.outcome.result.mode;
    mode_seq[pass.tenant] += (mode_seq[pass.tenant].empty() ? "" : ",") +
                             (mode.Any() ? mode.ToString() : std::string("none"));
  }
  report->Detail("serve.steady.modes", mode_seq[kSteady]);
  report->Detail("serve.drifting.modes", mode_seq[kDrifting]);
  report->Detail("serve.sender_lag_us_p99", Quantile(lag, 0.99));
  report->Detail("serve.sender_lag_us_max", Quantile(lag, 1.0));
  report->Check(report->failed == 0, "a plan or adaptation pass failed");

  std::vector<double> invoke_s, drifting_invoke_s, drifting_pass_s, overhead_s;
  uint64_t annotations = 0;
  for (const PassRecord& pass : r.passes) {
    if (!pass.ok) continue;
    double invoke = pass.outcome.result.timing.wall_seconds;
    invoke_s.push_back(invoke);
    overhead_s.push_back(pass.seconds - invoke);
    annotations += pass.outcome.result.annotated;
    if (pass.tenant == kDrifting) {
      drifting_invoke_s.push_back(invoke);
      drifting_pass_s.push_back(pass.seconds);
    }
  }
  if (!args.trace) {
    std::vector<double> period_gmq;
    for (double from = phases.back().start_s; from < session_s; from += kPassPeriodS) {
      double gmq = ServedGmq(*last, r, from, from + kPassPeriodS);
      if (gmq > 0.0) period_gmq.push_back(gmq);
    }
    MetricValues m;
    m["setup_s"] = Median(setup_s);
    m["wall_s"] = r.wall_s;
    m["cpu_s"] = r.cpu_s;
    m["invoke_s_p50"] = Median(drifting_invoke_s);
    m["gmq_mean"] = Mean(period_gmq);
    m["gmq_final"] = r.gmq_final;
    m["annotations"] = static_cast<double>(annotations);
    m["ok_share"] = 1.0 - static_cast<double>(report->failed) /
                              static_cast<double>(report->attempted);
    m["peak_rss_mb"] = PeakRssMb();
    m["adapt_pass_s_p50"] = Median(drifting_pass_s);
    m["served_gmq"] = ServedGmq(*last, r, 0.0, session_s);
    EmitEndToEnd(m, report);
    return;
  }

  MetricValues m;
  AddTraceMetrics(r.trace, &m);
  AddCounterMetrics(r.counters, &m);
  RegistryDelta whole(r.marks.front(), r.marks.back());
  m["serve.batch_size_mean"] = whole.HistogramMean("serve.batch_size");
  m["serve.light.batch_size_mean"] =
      RegistryDelta(r.marks[0], r.marks[1]).HistogramMean("serve.batch_size");
  m["serve.heavy.batch_size_mean"] =
      RegistryDelta(r.marks[1], r.marks[2]).HistogramMean("serve.batch_size");
  m["serve.server_latency_us_p50"] = whole.HistogramQuantile("serve.latency_us", 0.5);
  m["serve.server_latency_us_p99"] = whole.HistogramQuantile("serve.latency_us", 0.99);
  m["serve.adapt_wait_s_p50"] =
      whole.HistogramQuantile("serve.adapt.wait_us", 0.5) * 1e-6;
  m["serve.pass_overhead_s_p50"] = Median(overhead_s);
  // Plan tails from the untraced session; spans would inflate µs-scale calls.
  m["light.plan_us_p50"] = light_p50_us;
  m["heavy.plan_us_p50"] = heavy_p50_us;
  m["light.plan_us_p90"] = WindowedQuantile(sessions[0], phases[0], 0, 0.90);
  m["light.plan_us_p99"] = light_p99_us;
  m["heavy.plan_us_p90"] = WindowedQuantile(sessions[0], phases[1], 1, 0.90);
  m["heavy.plan_us_p99"] = heavy_p99_us;
  m["serve.steady_plan_us_p99"] = Quantile(Latencies(r, 1, kSteady), 0.99);
  m["serve.drifting_plan_us_p99"] = Quantile(Latencies(r, 1, kDrifting), 0.99);
  m["serve.sender_lag_us_p99"] = Quantile(lag, 0.99);
  m["serve.sender_lag_us_max"] = Quantile(lag, 1.0);
  for (size_t p = 0; p < phases.size(); ++p) {
    std::string prefix = std::string("serve.") + phases[p].name;
    m[prefix + ".plans_sent"] = static_cast<double>(sent[p]);
    m[prefix + ".plans_ok"] = static_cast<double>(ok[p]);
    m[prefix + ".plans_failed"] = static_cast<double>(sent[p] - ok[p]);
  }
  double update_modules_cpu = 0.0, update_model_cpu = 0.0;
  uint64_t modes[5] = {0, 0, 0, 0, 0};
  uint64_t generated = 0, picked = 0, gan_iterations = 0;
  for (const PassRecord& pass : r.passes) {
    if (!pass.ok) continue;
    const auto& inv = pass.outcome.result;
    modes[0] += inv.mode.c1;
    modes[1] += inv.mode.c2;
    modes[2] += inv.mode.c3;
    modes[3] += inv.mode.c4;
    modes[4] += !inv.mode.Any();
    generated += inv.generated;
    picked += inv.picked;
    gan_iterations += static_cast<uint64_t>(inv.gan_stats.iterations);
    for (const auto& phase : inv.timing.phases) {
      std::string name = phase.name;
      if (name == "warper.update_modules") update_modules_cpu += phase.cpu_seconds;
      if (name == "warper.update_model") update_model_cpu += phase.cpu_seconds;
    }
  }
  m["core.invocations"] = static_cast<double>(invoke_s.size());
  m["core.update_modules_cpu_s"] = update_modules_cpu;
  m["core.update_model_cpu_s"] = update_model_cpu;
  m["core.pool_records"] = static_cast<double>(
      last->tenants[kDrifting].warper->pool().Size());
  m["core.mode.c1"] = static_cast<double>(modes[0]);
  m["core.mode.c2"] = static_cast<double>(modes[1]);
  m["core.mode.c3"] = static_cast<double>(modes[2]);
  m["core.mode.c4"] = static_cast<double>(modes[3]);
  m["core.mode.none"] = static_cast<double>(modes[4]);
  m["core.generated"] = static_cast<double>(generated);
  m["core.picked"] = static_cast<double>(picked);
  m["core.annotated"] = static_cast<double>(annotations);
  m["core.gan_iterations"] = static_cast<double>(gan_iterations);
  m["ce.update_rows"] = static_cast<double>(r.update_rows);
  m["ce.estimate_rows"] = static_cast<double>(r.estimate_rows);
  m["storage.annotate_preds"] = static_cast<double>(r.annotate_preds);
  m["setup.data_s"] = Median(data_s);
  m["setup.train_s"] = Median(train_s);
  m["setup.initialize_s"] = Median(init_s);
  // The session length is fixed by its schedule, so tracing shows up as CPU.
  m["trace.untraced_wall_s"] = sessions[0].wall_s;
  m["trace.traced_wall_s"] = r.wall_s;
  m["trace.overhead_s"] = r.cpu_s - sessions[0].cpu_s;
  EmitPerLayer(m, report);
}

}  // namespace perfbench
