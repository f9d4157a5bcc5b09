// Serving-layer throughput and latency: micro-batched inference vs the
// unbatched fast path on the LM-mlp estimator, plus the cost of hot-swapping
// model snapshots under load. Emits BENCH_serving.json.
//
// The headline series is single-producer qps at batch_max ∈ {1, 8, 32}:
// batch_max = 1 is the inline per-query GEMV path, larger settings pipeline
// requests through the micro-batcher so the MLP forward pass runs as one
// GEMM over the whole batch (weights stream from memory once per batch
// instead of once per query). SIMD kernels are enabled, as a serving
// deployment would run them.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "ce/lm.h"
#include "nn/matrix.h"
#include "serve/batcher.h"
#include "serve/snapshot.h"
#include "util/rng.h"
#include "util/timer.h"
#include "workload/generator.h"

namespace warper::bench {
namespace {

// Wide trunk on purpose: serving-scale models are weight-traffic bound on
// the per-query path (each 512×512 layer streams 2 MB of weights per
// query), which is exactly what batching amortizes.
constexpr size_t kHiddenUnits = 512;

struct SeriesPoint {
  size_t batch_max = 0;
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

struct SwapStats {
  size_t publishes = 0;
  double max_publish_us = 0.0;
  double p99_estimate_us = 0.0;
  double max_estimate_us = 0.0;
};

std::vector<std::vector<double>> BenchFeatures(const storage::Table& table,
                                               const ce::SingleTableDomain& domain,
                                               size_t n, util::Rng* rng) {
  std::vector<storage::RangePredicate> preds = workload::GenerateWorkload(
      table, {workload::GenMethod::kW1}, n, rng);
  std::vector<std::vector<double>> features(n);
  for (size_t i = 0; i < n; ++i) {
    features[i] = domain.FeaturizePredicate(preds[i]);
  }
  return features;
}

serve::EstimateRequest Req(const std::vector<double>& features) {
  serve::EstimateRequest request;
  request.features = features;
  return request;
}

core::ServeConfig ServeConfigFor(size_t batch_max) {
  core::ServeConfig config;
  config.batch_max = batch_max;
  config.batch_timeout_us = 100;
  config.queue_capacity = 4096;
  return config;
}

// Single-producer throughput at one batch_max setting. batch_max == 1 runs
// the synchronous inline path; larger settings keep a pipeline of async
// requests in flight so the dispatcher always has a full batch to coalesce.
SeriesPoint RunSeries(const serve::SnapshotStore& store, size_t batch_max,
                      const std::vector<std::vector<double>>& features,
                      size_t requests) {
  serve::MicroBatcher batcher(ServeConfigFor(batch_max), &store,
                              features[0].size());
  if (batch_max > 1) WARPER_CHECK(batcher.Start().ok());

  // Warmup.
  for (size_t i = 0; i < 512; ++i) {
    batcher.Estimate(Req(features[i % features.size()])).ValueOrDie();
  }

  SeriesPoint point;
  point.batch_max = batch_max;

  // Throughput: pipelined (async) for the batched settings, synchronous for
  // the inline path (its pipeline depth is inherently 1).
  util::WallTimer timer;
  if (batch_max == 1) {
    for (size_t i = 0; i < requests; ++i) {
      batcher.Estimate(Req(features[i % features.size()])).ValueOrDie();
    }
  } else {
    const size_t window = 4 * batch_max;
    std::vector<std::future<Result<serve::EstimateResponse>>> inflight;
    inflight.reserve(window);
    for (size_t i = 0; i < requests; ++i) {
      inflight.push_back(
          batcher.EstimateAsync(Req(features[i % features.size()])));
      if (inflight.size() == window) {
        for (auto& f : inflight) f.get().ValueOrDie();
        inflight.clear();
      }
    }
    for (auto& f : inflight) f.get().ValueOrDie();
  }
  point.qps = static_cast<double>(requests) / timer.Seconds();

  // Closed-loop latency: one synchronous request at a time, so the batched
  // settings pay their coalescing wait honestly.
  const size_t latency_probes = std::min<size_t>(requests / 4, 2000);
  std::vector<double> latencies_us;
  latencies_us.reserve(latency_probes);
  for (size_t i = 0; i < latency_probes; ++i) {
    util::WallTimer one;
    batcher.Estimate(Req(features[i % features.size()])).ValueOrDie();
    latencies_us.push_back(one.Seconds() * 1e6);
  }
  point.p50_us = LatencyQuantile(latencies_us, 0.50);
  point.p99_us = LatencyQuantile(latencies_us, 0.99);
  batcher.Stop();
  return point;
}

// Estimate latency while a writer hot-swaps snapshots as fast as it can:
// the reader's tail shows what a swap costs in-band (the design goal is
// "nothing": readers never take a lock the publisher holds).
SwapStats RunSwapStorm(serve::SnapshotStore* store,
                       const ce::CardinalityEstimator& model,
                       const std::vector<std::vector<double>>& features,
                       size_t swaps) {
  serve::MicroBatcher batcher(ServeConfigFor(1), store, features[0].size());
  SwapStats stats;
  stats.publishes = swaps;
  std::vector<double> estimate_us;
  std::vector<double> publish_us(swaps);

  std::atomic<bool> go{false};
  std::thread writer([&] {
    while (!go.load()) std::this_thread::yield();
    uint64_t version = store->CurrentVersion();
    for (size_t k = 0; k < swaps; ++k) {
      std::shared_ptr<const ce::CardinalityEstimator> clone = model.Clone();
      util::WallTimer t;
      store->Publish(std::make_shared<const serve::ModelSnapshot>(
          ++version, std::move(clone), store->Current()->modules(), 1.0));
      publish_us[k] = t.Seconds() * 1e6;
      std::this_thread::yield();
    }
  });
  go.store(true);
  size_t i = 0;
  while (writer.joinable() && store->CurrentVersion() < swaps) {
    util::WallTimer one;
    batcher.Estimate(Req(features[i++ % features.size()])).ValueOrDie();
    estimate_us.push_back(one.Seconds() * 1e6);
  }
  writer.join();

  stats.max_publish_us =
      *std::max_element(publish_us.begin(), publish_us.end());
  stats.max_estimate_us =
      estimate_us.empty()
          ? 0.0
          : *std::max_element(estimate_us.begin(), estimate_us.end());
  stats.p99_estimate_us = LatencyQuantile(estimate_us, 0.99);
  return stats;
}

}  // namespace
}  // namespace warper::bench

int main() {
  using namespace warper;
  using namespace warper::bench;
  BenchInit();

  // Serial kernels on the default (best supported) table.
  util::ParallelConfig parallel;
  parallel.threads = 1;
  nn::SetMatrixParallelism(parallel);

  const bool fast = FastMode();
  const size_t table_rows = fast ? 8000 : 20000;
  const size_t train_size = fast ? 300 : 600;
  const size_t requests = fast ? 4000 : 20000;
  const size_t swaps = fast ? 100 : 400;

  storage::Table table = storage::MakePrsa(table_rows, /*seed=*/17);
  storage::Annotator annotator(&table);
  ce::SingleTableDomain domain(&annotator);
  util::Rng rng(17);

  // Train the served model (accuracy is incidental here; the forward-pass
  // shape is what the bench exercises).
  std::vector<storage::RangePredicate> train_preds =
      workload::GenerateWorkload(table, {workload::GenMethod::kW1},
                                 train_size, &rng);
  std::vector<int64_t> train_counts = annotator.BatchCount(train_preds);
  nn::Matrix x(train_size, domain.FeatureDim());
  std::vector<double> y(train_size);
  for (size_t i = 0; i < train_size; ++i) {
    x.SetRow(i, domain.FeaturizePredicate(train_preds[i]));
    y[i] = ce::CardToTarget(train_counts[i]);
  }
  ce::LmMlpConfig model_config;
  model_config.hidden = {kHiddenUnits, kHiddenUnits};
  model_config.train_epochs = fast ? 4 : 10;
  ce::LmMlp model(domain.FeatureDim(), model_config, /*seed=*/17);
  model.Train(x, y);

  serve::SnapshotStore store;
  {
    util::Rng mlp_rng(7);
    nn::MlpConfig tiny;
    tiny.layer_sizes = {2, 2};
    nn::Mlp placeholder(tiny, &mlp_rng);
    store.Publish(std::make_shared<const serve::ModelSnapshot>(
        1, model.Clone(),
        core::Warper::ModuleState{ce::MlpSnapshot(placeholder),
                                  ce::MlpSnapshot(placeholder),
                                  ce::MlpSnapshot(placeholder)},
        1.0));
  }

  std::vector<std::vector<double>> features =
      BenchFeatures(table, domain, 1024, &rng);

  std::vector<SeriesPoint> series;
  for (size_t batch_max : {size_t{1}, size_t{8}, size_t{32}}) {
    series.push_back(RunSeries(store, batch_max, features, requests));
    std::cerr << "batch_max=" << series.back().batch_max
              << " qps=" << static_cast<uint64_t>(series.back().qps)
              << " p50=" << series.back().p50_us << "us"
              << " p99=" << series.back().p99_us << "us\n";
  }
  double speedup = series.back().qps / series.front().qps;

  SwapStats swap = RunSwapStorm(&store, model, features, swaps);

  JsonWriter w;
  w.BeginObject();
  w.Key("bench").Value("serving");
  w.Key("fast").Value(fast);
  w.Key("kernel").Value(nn::ActiveKernelName());
  w.Key("model").Value("LM-mlp");
  w.Key("hidden_units").Value(static_cast<uint64_t>(kHiddenUnits));
  w.Key("requests_per_series").Value(static_cast<uint64_t>(requests));
  w.Key("series").BeginArray();
  for (const SeriesPoint& p : series) {
    w.BeginObject();
    w.Key("batch_max").Value(static_cast<uint64_t>(p.batch_max));
    w.Key("qps").Value(p.qps, 1);
    w.Key("p50_us").Value(p.p50_us, 1);
    w.Key("p99_us").Value(p.p99_us, 1);
    w.EndObject();
  }
  w.EndArray();
  w.Key("speedup_qps_batch32_vs_1").Value(speedup, 2);
  w.Key("swap").BeginObject();
  w.Key("publishes").Value(static_cast<uint64_t>(swap.publishes));
  w.Key("max_publish_us").Value(swap.max_publish_us, 1);
  w.Key("estimate_p99_us_during_swaps").Value(swap.p99_estimate_us, 1);
  w.Key("estimate_max_us_during_swaps").Value(swap.max_estimate_us, 1);
  w.EndObject();
  AttachMetricsSnapshot(&w);
  w.EndObject();
  EmitJson(w, "BENCH_serving.json");
  return 0;
}
