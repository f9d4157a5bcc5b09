// Multi-tenant fleet serving: aggregate qps and per-tenant tail latency as
// the tenant count grows with the thread budget held fixed. Emits
// BENCH_fleet.json.
//
// The headline series is the qps-vs-tenant-count saturation curve at
// N ∈ {1, 2, 4, 8, 16, 32}: every point serves through one ServingFleet
// (shared dispatch pool + ONE shared adaptation executor), so the thread
// count stays O(cores) while the tenant count grows 32×. The curve should
// track N × single-tenant qps (within ~15%) until the cores are exhausted,
// then go flat — tenants add isolation, not threads. A final section runs
// an adaptation pass for every tenant UNDER the serving load and reports
// the serving tail during the resulting snapshot swaps.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "ce/lm.h"
#include "core/warper.h"
#include "nn/matrix.h"
#include "serve/fleet.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "workload/generator.h"

namespace warper::bench {
namespace {

// Modest trunk: the bench pushes ≥1M predicates through the inline GEMV
// path in full mode, so the per-query cost must stay in the tens of
// microseconds. The fleet mechanics under test (routing, admission, shared
// executor, epoch) are model-size independent.
constexpr size_t kHiddenUnits = 64;
constexpr size_t kMaxTenants = 32;

struct CurvePoint {
  size_t tenants = 0;
  double qps = 0.0;
  double per_tenant_qps = 0.0;
  double worst_tenant_p99_us = 0.0;
  double median_tenant_p99_us = 0.0;
};

serve::EstimateRequest Req(uint64_t tenant_id,
                           const std::vector<double>& features) {
  serve::EstimateRequest request;
  request.tenant_id = tenant_id;
  request.features = features;
  return request;
}

core::ServeConfig FleetConfig() {
  core::ServeConfig config;
  config.batch_max = 1;  // inline fast path: the per-tenant GEMV baseline
  config.tenant_queue_depth = 256;
  config.adapt_threads = 2;
  return config;
}

// One curve point: `producers` closed-loop threads round-robin their share
// of the first `tenants` fleet tenants, then per-tenant latency probes.
CurvePoint RunPoint(serve::ServingFleet* fleet, size_t tenants,
                    size_t producers, size_t requests, size_t latency_probes,
                    const std::vector<std::vector<double>>& features) {
  CurvePoint point;
  point.tenants = tenants;

  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(producers);
  const size_t per_producer = requests / producers;
  for (size_t p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      while (!go.load()) std::this_thread::yield();
      for (size_t i = 0; i < per_producer; ++i) {
        uint64_t t = static_cast<uint64_t>((p + i) % tenants);
        fleet->Estimate(Req(t, features[i % features.size()])).ValueOrDie();
      }
    });
  }
  util::WallTimer timer;
  go.store(true);
  for (std::thread& t : threads) t.join();
  point.qps =
      static_cast<double>(per_producer * producers) / timer.Seconds();
  point.per_tenant_qps = point.qps / static_cast<double>(tenants);

  // Closed-loop per-tenant tails, measured one request at a time so every
  // tenant's p99 reflects what ITS callers see, not an aggregate average.
  std::vector<double> tenant_p99s(tenants);
  for (size_t t = 0; t < tenants; ++t) {
    std::vector<double> latencies_us;
    latencies_us.reserve(latency_probes);
    for (size_t i = 0; i < latency_probes; ++i) {
      util::WallTimer one;
      fleet->Estimate(Req(t, features[i % features.size()])).ValueOrDie();
      latencies_us.push_back(one.Seconds() * 1e6);
    }
    tenant_p99s[t] = LatencyQuantile(latencies_us, 0.99);
  }
  point.worst_tenant_p99_us =
      *std::max_element(tenant_p99s.begin(), tenant_p99s.end());
  point.median_tenant_p99_us = LatencyQuantile(tenant_p99s, 0.5);
  return point;
}

}  // namespace
}  // namespace warper::bench

int main() {
  using namespace warper;
  using namespace warper::bench;
  BenchInit();

  util::ParallelConfig parallel;
  parallel.threads = 1;
  nn::SetMatrixParallelism(parallel);

  const bool fast = FastMode();
  const size_t table_rows = fast ? 6000 : 20000;
  const size_t train_size = fast ? 200 : 600;
  // Per curve point; 6 points × 175k ≥ 1M predicates in full mode.
  const size_t requests_per_point = fast ? 2000 : 175000;
  const size_t latency_probes = fast ? 50 : 400;
  const size_t producers =
      std::min<size_t>(4, std::max(1u, std::thread::hardware_concurrency()));

  storage::Table table = storage::MakePrsa(table_rows, /*seed=*/23);
  storage::Annotator annotator(&table);
  ce::SingleTableDomain domain(&annotator);
  util::Rng rng(23);

  // Train the served model ONCE; every tenant serves its own clone (the
  // forward-pass shape is what matters, per-tenant weights are incidental).
  std::vector<storage::RangePredicate> train_preds = workload::GenerateWorkload(
      table, {workload::GenMethod::kW1}, train_size, &rng);
  std::vector<int64_t> train_counts = annotator.BatchCount(train_preds);
  std::vector<ce::LabeledExample> train(train_size);
  nn::Matrix x(train_size, domain.FeatureDim());
  std::vector<double> y(train_size);
  for (size_t i = 0; i < train_size; ++i) {
    train[i] = {domain.FeaturizePredicate(train_preds[i]), train_counts[i]};
    x.SetRow(i, train[i].features);
    y[i] = ce::CardToTarget(train_counts[i]);
  }
  ce::LmMlpConfig model_config;
  model_config.hidden = {kHiddenUnits, kHiddenUnits};
  model_config.train_epochs = fast ? 3 : 8;
  ce::LmMlp model(domain.FeatureDim(), model_config, /*seed=*/23);
  model.Train(x, y);

  // 32 tenants = 32 model clones + 32 Warper controllers with a tiny module
  // config (module training is not what this bench measures).
  core::WarperConfig warper_config;
  warper_config.hidden_units = 8;
  warper_config.hidden_layers = 1;
  warper_config.embedding_dim = 4;
  warper_config.n_i = 2;
  warper_config.n_p = 20;
  std::vector<std::unique_ptr<ce::CardinalityEstimator>> models;
  std::vector<std::unique_ptr<core::Warper>> warpers;
  for (size_t t = 0; t < kMaxTenants; ++t) {
    models.push_back(model.Clone());
    warpers.push_back(std::make_unique<core::Warper>(
        &domain, models.back().get(), warper_config));
    WARPER_CHECK(warpers.back()->Initialize(train).ok());
  }

  std::vector<std::vector<double>> features;
  for (const storage::RangePredicate& pred : workload::GenerateWorkload(
           table, {workload::GenMethod::kW1}, 1024, &rng)) {
    features.push_back(domain.FeaturizePredicate(pred));
  }

  // The saturation curve: one fleet per point over the first N tenants.
  util::ThreadPool dispatch_pool(static_cast<int>(producers));
  std::vector<CurvePoint> curve;
  size_t total_requests = 0;
  for (size_t n : {size_t{1}, size_t{2}, size_t{4}, size_t{8}, size_t{16},
                   size_t{32}}) {
    serve::ServingFleet fleet(FleetConfig(), &dispatch_pool);
    for (size_t t = 0; t < n; ++t) {
      WARPER_CHECK(
          fleet.AddTenant(static_cast<uint64_t>(t), warpers[t].get()).ok());
    }
    WARPER_CHECK(fleet.Start().ok());
    curve.push_back(RunPoint(&fleet, n, producers, requests_per_point,
                             latency_probes, features));
    total_requests += requests_per_point + n * latency_probes;
    fleet.Stop();
    std::cerr << "tenants=" << curve.back().tenants
              << " qps=" << static_cast<uint64_t>(curve.back().qps)
              << " per_tenant_qps="
              << static_cast<uint64_t>(curve.back().per_tenant_qps)
              << " worst_p99=" << curve.back().worst_tenant_p99_us << "us\n";
  }

  // Saturation check: while N tenants fit in the core budget, aggregate qps
  // should stay within 15% of N × the single-tenant line (the fleet adds
  // routing + admission, not serialization). Past the core count the curve
  // is expected to flatten, so those points are exempt.
  const size_t cores = std::max(1u, std::thread::hardware_concurrency());
  const double single_qps = curve.front().qps;
  bool saturation_ok = true;
  for (const CurvePoint& p : curve) {
    if (p.tenants > cores) continue;
    double expected = single_qps * static_cast<double>(p.tenants);
    if (p.qps < 0.85 * std::min(expected,
                                single_qps * static_cast<double>(cores))) {
      saturation_ok = false;
    }
  }

  // Adaptation under load: every tenant's pass lands on the SHARED executor
  // while serving continues; the epoch counts the publishes that hot-swap
  // under the producers.
  serve::ServingFleet fleet(FleetConfig(), &dispatch_pool);
  for (size_t t = 0; t < kMaxTenants; ++t) {
    WARPER_CHECK(
        fleet.AddTenant(static_cast<uint64_t>(t), warpers[t].get()).ok());
  }
  WARPER_CHECK(fleet.Start().ok());
  const uint64_t epoch_before = fleet.Epoch();
  std::vector<ce::LabeledExample> drifted;
  {
    std::vector<storage::RangePredicate> preds = workload::GenerateWorkload(
        table, {workload::GenMethod::kW3}, fast ? 20 : 60, &rng);
    std::vector<int64_t> counts = annotator.BatchCount(preds);
    for (size_t i = 0; i < preds.size(); ++i) {
      drifted.push_back({domain.FeaturizePredicate(preds[i]), counts[i]});
    }
  }
  std::atomic<bool> stop_traffic{false};
  std::vector<double> under_swap_us;
  std::thread prober([&] {
    size_t i = 0;
    while (!stop_traffic.load()) {
      util::WallTimer one;
      fleet.Estimate(Req(i % kMaxTenants, features[i % features.size()]))
          .ValueOrDie();
      under_swap_us.push_back(one.Seconds() * 1e6);
      ++i;
    }
  });
  std::vector<std::future<Result<serve::AdaptationOutcome>>> passes;
  for (size_t t = 0; t < kMaxTenants; ++t) {
    core::Warper::Invocation invocation;
    invocation.new_queries = drifted;
    passes.push_back(
        fleet.SubmitInvocation(static_cast<uint64_t>(t), std::move(invocation)));
  }
  size_t passes_ok = 0;
  for (auto& f : passes) {
    if (f.get().ok()) ++passes_ok;
  }
  stop_traffic.store(true);
  prober.join();
  const uint64_t publishes = fleet.Epoch() - epoch_before;
  const double under_swap_p99 = LatencyQuantile(under_swap_us, 0.99);
  fleet.Stop();

  JsonWriter w;
  w.BeginObject();
  w.Key("bench").Value("fleet");
  w.Key("fast").Value(fast);
  w.Key("kernel").Value(nn::ActiveKernelName());
  w.Key("model").Value("LM-mlp");
  w.Key("hidden_units").Value(static_cast<uint64_t>(kHiddenUnits));
  w.Key("tenants_max").Value(static_cast<uint64_t>(kMaxTenants));
  w.Key("producers").Value(static_cast<uint64_t>(producers));
  w.Key("cores").Value(static_cast<uint64_t>(cores));
  w.Key("requests_total").Value(static_cast<uint64_t>(total_requests));
  w.Key("curve").BeginArray();
  for (const CurvePoint& p : curve) {
    w.BeginObject();
    w.Key("tenants").Value(static_cast<uint64_t>(p.tenants));
    w.Key("qps").Value(p.qps, 1);
    w.Key("per_tenant_qps").Value(p.per_tenant_qps, 1);
    w.Key("worst_tenant_p99_us").Value(p.worst_tenant_p99_us, 1);
    w.Key("median_tenant_p99_us").Value(p.median_tenant_p99_us, 1);
    w.EndObject();
  }
  w.EndArray();
  w.Key("saturation_within_15pct_until_cores").Value(saturation_ok);
  w.Key("adapt_under_load").BeginObject();
  w.Key("passes_submitted").Value(static_cast<uint64_t>(kMaxTenants));
  w.Key("passes_ok").Value(static_cast<uint64_t>(passes_ok));
  w.Key("publishes").Value(publishes);
  w.Key("estimate_p99_us_during_swaps").Value(under_swap_p99, 1);
  w.EndObject();
  AttachMetricsSnapshot(&w);
  w.EndObject();
  EmitJson(w, "BENCH_fleet.json");
  return 0;
}
