// ServingFleet: routing, the shared prioritized adaptation executor,
// per-tenant isolation (queue depth + shed budget), the fleet epoch, the
// request-struct serve API and its admission of non-finite input, and the
// AdaptationOutcome::version contract.
#include "serve/fleet.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "ce/lm.h"
#include "ce/metrics.h"
#include "serve/adapt_executor.h"
#include "serve/router.h"
#include "serve_test_util.h"
#include "storage/annotator.h"
#include "storage/datasets.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace warper::serve {
namespace {

// ---------------------------------------------------------------------------
// ShardRouter

TEST(ShardRouterTest, BuildFreezeLookup) {
  ShardRouter router;
  ASSERT_TRUE(router.AddTenant(7, 0).ok());
  ASSERT_TRUE(router.AddTenant(9, 1).ok());
  EXPECT_FALSE(router.AddTenant(7, 2).ok());  // duplicate tenant

  // No lookups before the table is published.
  EXPECT_EQ(router.ShardFor(7).status().code(),
            StatusCode::kFailedPrecondition);
  router.Freeze();
  EXPECT_TRUE(router.frozen());
  EXPECT_FALSE(router.AddTenant(11, 2).ok());  // immutable after freeze

  EXPECT_EQ(router.ShardFor(7).ValueOrDie(), 0u);
  EXPECT_EQ(router.ShardFor(9).ValueOrDie(), 1u);
  EXPECT_EQ(router.ShardFor(8).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(router.NumTenants(), 2u);
  EXPECT_EQ(router.NumShards(), 2u);
}

TEST(ShardRouterTest, PredicateHashRoutingIsDeterministicAndInRange) {
  ShardRouter router;
  for (uint64_t t = 0; t < 4; ++t) {
    ASSERT_TRUE(router.AddTenant(t, t).ok());
  }
  router.Freeze();

  util::Rng rng(5);
  bool spread = false;
  size_t first = 0;
  for (size_t i = 0; i < 64; ++i) {
    std::vector<double> features = {rng.Uniform(), rng.Uniform(),
                                    rng.Uniform()};
    size_t shard = router.ShardForFeatures(features).ValueOrDie();
    EXPECT_LT(shard, 4u);
    // Same predicate, same shard — routing is a pure function.
    EXPECT_EQ(router.ShardForFeatures(features).ValueOrDie(), shard);
    if (i == 0) first = shard;
    if (shard != first) spread = true;
  }
  EXPECT_TRUE(spread);  // 64 random predicates must not all collapse
}

// ---------------------------------------------------------------------------
// ServeConfig fleet knobs (satellite: Validate() coverage)

TEST(ServeConfigFleetKnobsTest, ValidateRejectsBadKnobs) {
  core::ServeConfig good;
  EXPECT_TRUE(good.Validate().ok());

  core::ServeConfig c = good;
  c.adapt_threads = 0;
  EXPECT_EQ(c.Validate().code(), StatusCode::kInvalidArgument);

  c = good;
  c.tenant_queue_depth = 0;
  EXPECT_FALSE(c.Validate().ok());

  c = good;
  c.tenant_queue_depth = 8;
  c.tenant_shed_budget = 9;  // budget cannot exceed the queue it polices
  EXPECT_FALSE(c.Validate().ok());

  c = good;
  c.adapt_priority_drift_weight = -1.0;
  EXPECT_FALSE(c.Validate().ok());

  c = good;
  c.adapt_priority_traffic_weight = -0.5;
  EXPECT_FALSE(c.Validate().ok());

  c = good;
  c.adapt_priority_floor = 0.0;  // zero floor would starve no-drift tenants
  EXPECT_FALSE(c.Validate().ok());

  c = good;
  c.adapt_aging_rate = -0.1;
  EXPECT_FALSE(c.Validate().ok());
}

TEST(ServeConfigFleetKnobsTest, ServerStartValidatesInjectedConfig) {
  // A bad injected config must be refused at Start, not discovered later.
  StubEstimator stub;
  storage::Table table = storage::MakePrsa(1500, /*seed=*/41);
  storage::Annotator annotator(&table);
  ce::SingleTableDomain domain(&annotator);
  core::WarperConfig tiny;
  tiny.hidden_units = 8;
  tiny.hidden_layers = 1;
  tiny.embedding_dim = 4;
  tiny.n_i = 2;
  tiny.n_p = 20;
  core::Warper warper(&domain, &stub, tiny);

  core::ServeConfig bad;
  bad.adapt_threads = 0;
  ServerOptions options;
  options.config = &bad;
  EstimationServer server(&warper, options);
  Status status = server.Start();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// AdaptationExecutor scheduling

AdaptationExecutor::Task OkTask() {
  return [] { return Result<AdaptationOutcome>(AdaptationOutcome{}); };
}

TEST(AdaptationExecutorTest, PriorityFormula) {
  core::ServeConfig config;
  config.adapt_priority_floor = 0.5;
  config.adapt_priority_drift_weight = 2.0;
  config.adapt_priority_traffic_weight = 3.0;
  config.adapt_aging_rate = 10.0;

  PrioritySignals signals;
  signals.drift_severity = 1.5;
  signals.traffic = 2.0;
  // (0.5 + 2·1.5) · (1 + 3·2) = 3.5 · 7 = 24.5
  EXPECT_DOUBLE_EQ(AdaptationExecutor::BasePriority(signals, config), 24.5);
  EXPECT_DOUBLE_EQ(AdaptationExecutor::EffectivePriority(24.5, 0.3, config),
                   24.5 + 3.0);
  // Negative signals clamp to zero instead of inverting the schedule.
  PrioritySignals negative;
  negative.drift_severity = -1.0;
  negative.traffic = -1.0;
  EXPECT_DOUBLE_EQ(AdaptationExecutor::BasePriority(negative, config), 0.5);

  // Localized template failure: offender_pressure substitutes for a quiet
  // global severity (the drift term is max of the two)...
  PrioritySignals localized;
  localized.drift_severity = 0.0;
  localized.offender_pressure = 1.5;
  localized.traffic = 2.0;
  EXPECT_DOUBLE_EQ(AdaptationExecutor::BasePriority(localized, config), 24.5);
  // ...but never boosts a tenant whose severity already dominates.
  signals.offender_pressure = 0.25;
  EXPECT_DOUBLE_EQ(AdaptationExecutor::BasePriority(signals, config), 24.5);
}

TEST(AdaptationExecutorTest, DriftSeverityOrdersTheQueue) {
  core::ServeConfig config;
  config.adapt_threads = 1;
  config.adapt_aging_rate = 0.0;  // pure base-priority order
  AdaptationExecutor executor(config);
  ASSERT_TRUE(executor.Start().ok());

  // Occupy the single worker so the next two submissions queue up.
  std::promise<void> gate;
  std::shared_future<void> gate_future = gate.get_future().share();
  std::atomic<bool> blocked{false};
  auto blocker = executor.Submit(
      /*tenant_id=*/100, nullptr, [&] {
        blocked.store(true);
        gate_future.wait();
        return Result<AdaptationOutcome>(AdaptationOutcome{});
      });
  while (!blocked.load()) std::this_thread::yield();

  util::Mutex order_mu;
  std::vector<uint64_t> order;
  auto record = [&](uint64_t id) {
    util::MutexLock lk(&order_mu);
    order.push_back(id);
  };
  auto low = executor.Submit(
      1, [] { return PrioritySignals{0.1, 0.0}; },
      [&] {
        record(1);
        return Result<AdaptationOutcome>(AdaptationOutcome{});
      });
  auto high = executor.Submit(
      2, [] { return PrioritySignals{10.0, 0.0}; },
      [&] {
        record(2);
        return Result<AdaptationOutcome>(AdaptationOutcome{});
      });
  EXPECT_EQ(executor.PendingCount(), 2u);

  gate.set_value();
  ASSERT_TRUE(blocker.get().ok());
  ASSERT_TRUE(low.get().ok());
  ASSERT_TRUE(high.get().ok());
  executor.Stop();

  // The drifted tenant ran first even though it was submitted second.
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 2u);
  EXPECT_EQ(order[1], 1u);
}

TEST(AdaptationExecutorTest, AgingPreventsStarvation) {
  core::ServeConfig config;
  config.adapt_threads = 1;
  // Aging dominates: ~0.1 s of waiting outweighs the noisy tenant's base of
  // ~(1 + 1e3)·(1 + 1e3) ≈ 1e6, so the old quiet tenant beats it.
  config.adapt_aging_rate = 1e9;
  AdaptationExecutor executor(config);
  ASSERT_TRUE(executor.Start().ok());

  std::promise<void> gate;
  std::shared_future<void> gate_future = gate.get_future().share();
  std::atomic<bool> blocked{false};
  auto blocker = executor.Submit(
      /*tenant_id=*/100, nullptr, [&] {
        blocked.store(true);
        gate_future.wait();
        return Result<AdaptationOutcome>(AdaptationOutcome{});
      });
  while (!blocked.load()) std::this_thread::yield();

  util::Mutex order_mu;
  std::vector<uint64_t> order;
  auto record = [&](uint64_t id) {
    util::MutexLock lk(&order_mu);
    order.push_back(id);
  };
  // The starving tenant: no drift, no traffic — base priority is the floor.
  auto starving = executor.Submit(
      1, [] { return PrioritySignals{0.0, 0.0}; },
      [&] {
        record(1);
        return Result<AdaptationOutcome>(AdaptationOutcome{});
      });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // A much higher-base tenant arrives later; without aging it would always
  // win and tenant 1 would starve under sustained load.
  auto noisy = executor.Submit(
      2, [] { return PrioritySignals{1e3, 1e3}; },
      [&] {
        record(2);
        return Result<AdaptationOutcome>(AdaptationOutcome{});
      });

  gate.set_value();
  ASSERT_TRUE(blocker.get().ok());
  ASSERT_TRUE(starving.get().ok());
  ASSERT_TRUE(noisy.get().ok());
  executor.Stop();

  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1u);  // waited long enough to overtake
  EXPECT_EQ(order[1], 2u);
}

TEST(AdaptationExecutorTest, AtMostOnePassPerTenant) {
  core::ServeConfig config;
  config.adapt_threads = 4;
  AdaptationExecutor executor(config);
  ASSERT_TRUE(executor.Start().ok());

  // Many passes for ONE tenant on four workers: the executor must serialize
  // them (the server publish path is single-writer per tenant).
  std::atomic<int> in_flight{0};
  std::atomic<bool> overlapped{false};
  std::vector<std::future<Result<AdaptationOutcome>>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(executor.Submit(
        /*tenant_id=*/5, nullptr, [&] {
          if (in_flight.fetch_add(1) != 0) overlapped.store(true);
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          in_flight.fetch_sub(1);
          return Result<AdaptationOutcome>(AdaptationOutcome{});
        }));
  }
  for (auto& f : futures) ASSERT_TRUE(f.get().ok());
  EXPECT_FALSE(overlapped.load());
  executor.Stop();
}

TEST(AdaptationExecutorTest, StopAnswersQueuedPassesUnavailable) {
  core::ServeConfig config;
  config.adapt_threads = 1;
  AdaptationExecutor executor(config);

  // Not started yet: refused outright.
  Result<AdaptationOutcome> refused =
      executor.Submit(1, nullptr, OkTask()).get();
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);

  ASSERT_TRUE(executor.Start().ok());
  std::promise<void> gate;
  std::shared_future<void> gate_future = gate.get_future().share();
  std::atomic<bool> blocked{false};
  auto blocker = executor.Submit(1, nullptr, [&] {
    blocked.store(true);
    gate_future.wait();
    return Result<AdaptationOutcome>(AdaptationOutcome{});
  });
  while (!blocked.load()) std::this_thread::yield();
  auto orphan = executor.Submit(2, nullptr, OkTask());
  // Initiate Stop while the orphan is still queued behind the blocker; only
  // release the blocker once the stop flag is visibly set, so the worker
  // exits instead of picking the orphan up.
  std::thread stopper([&] { executor.Stop(); });
  while (executor.running()) std::this_thread::yield();
  gate.set_value();
  stopper.join();
  EXPECT_TRUE(blocker.get().ok());
  EXPECT_EQ(orphan.get().status().code(), StatusCode::kUnavailable);
  EXPECT_FALSE(executor.running());
}

// ---------------------------------------------------------------------------
// ServingFleet integration (stub-estimator tenants: cheap, deterministic)

core::WarperConfig TinyWarperConfig() {
  core::WarperConfig config;
  config.hidden_units = 8;
  config.hidden_layers = 1;
  config.embedding_dim = 4;
  config.n_i = 2;
  config.n_p = 20;
  return config;
}

// A shared table/domain plus per-tenant StubEstimator-backed Warpers. The
// stub needs no training, so standing up 32 tenants stays cheap.
struct StubFleetEnv {
  storage::Table table;
  storage::Annotator annotator;
  ce::SingleTableDomain domain;
  util::Rng rng;
  std::vector<std::unique_ptr<StubEstimator>> models;
  std::vector<std::unique_ptr<core::Warper>> warpers;

  explicit StubFleetEnv(uint64_t seed, size_t rows = 3000)
      : table(storage::MakePrsa(rows, seed)),
        annotator(&table),
        domain(&annotator),
        rng(seed) {}

  std::vector<ce::LabeledExample> Examples(workload::GenMethod method,
                                           size_t n) {
    std::vector<storage::RangePredicate> preds =
        workload::GenerateWorkload(table, {method}, n, &rng);
    std::vector<int64_t> counts = annotator.BatchCount(preds);
    std::vector<ce::LabeledExample> out(n);
    for (size_t i = 0; i < n; ++i) {
      out[i] = {domain.FeaturizePredicate(preds[i]), counts[i]};
    }
    return out;
  }

  // Builds and Initialize()s one stub tenant; returns its warper.
  core::Warper* MakeTenant(const std::vector<ce::LabeledExample>& train) {
    models.push_back(std::make_unique<StubEstimator>(
        /*scale=*/1.0 + static_cast<double>(models.size())));
    warpers.push_back(std::make_unique<core::Warper>(
        &domain, models.back().get(), TinyWarperConfig()));
    WARPER_CHECK(warpers.back()->Initialize(train).ok());
    return warpers.back().get();
  }
};

EstimateRequest TenantRequest(uint64_t tenant_id,
                              std::vector<double> features) {
  EstimateRequest request;
  request.tenant_id = tenant_id;
  request.features = std::move(features);
  return request;
}

TEST(ServingFleetTest, ReportObservationFeedsTenantOffenderViews) {
  StubFleetEnv env(58);
  std::vector<ce::LabeledExample> train =
      env.Examples(workload::GenMethod::kW1, 40);
  core::ServeConfig config;
  config.batch_max = 1;
  ServingFleet fleet(config);
  ASSERT_TRUE(fleet.AddTenant(7, env.MakeTenant(train)).ok());
  ASSERT_TRUE(fleet.Start().ok());

  const std::vector<double>& probe = train[0].features;
  // Unknown tenants are NotFound on both feedback surfaces.
  EXPECT_EQ(fleet.ReportObservation(8, probe, 100.0).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(fleet.TenantTopOffenders(8, 3).status().code(),
            StatusCode::kNotFound);

  EXPECT_TRUE(fleet.TenantTopOffenders(7, 3).ValueOrDie().empty());
  // Feedback far off the stub's estimate, past the default min_count: the
  // one reported template becomes this tenant's top offender.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(fleet.ReportObservation(7, probe, 1e9).ok());
  }
  std::vector<core::TemplateTracker::Offender> top =
      fleet.TenantTopOffenders(7, 3).ValueOrDie();
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].stats.count, 8u);
  EXPECT_GT(top[0].drift_score, 1.0);
  fleet.Stop();
}

TEST(ServingFleetTest, RoutesByTenantAndReportsVersions) {
  StubFleetEnv env(50);
  std::vector<ce::LabeledExample> train =
      env.Examples(workload::GenMethod::kW1, 40);

  core::ServeConfig config;
  config.batch_max = 1;  // inline fast path: no pool dependency
  ServingFleet fleet(config);
  ASSERT_TRUE(fleet.AddTenant(7, env.MakeTenant(train)).ok());
  ASSERT_TRUE(fleet.AddTenant(9, env.MakeTenant(train)).ok());
  EXPECT_FALSE(fleet.AddTenant(7, env.warpers[0].get()).ok());  // duplicate
  EXPECT_FALSE(fleet.Estimate(TenantRequest(7, train[0].features)).ok())
      << "estimates before Start must be refused";
  ASSERT_TRUE(fleet.Start().ok());
  EXPECT_TRUE(fleet.running());
  EXPECT_FALSE(fleet.Start().ok());  // double Start
  // Start published version 1 for each tenant: the epoch counts both.
  EXPECT_EQ(fleet.Epoch(), 2u);
  EXPECT_EQ(fleet.NumTenants(), 2u);

  // Each tenant's answer comes from ITS model (scales differ), and the
  // response echoes tenant and version.
  const std::vector<double>& probe = train[0].features;
  Result<EstimateResponse> r7 = fleet.Estimate(TenantRequest(7, probe));
  Result<EstimateResponse> r9 = fleet.Estimate(TenantRequest(9, probe));
  ASSERT_TRUE(r7.ok());
  ASSERT_TRUE(r9.ok());
  EXPECT_EQ(r7.ValueOrDie().tenant_id, 7u);
  EXPECT_EQ(r9.ValueOrDie().tenant_id, 9u);
  EXPECT_EQ(r7.ValueOrDie().version, 1u);
  EXPECT_NE(r7.ValueOrDie().estimate, r9.ValueOrDie().estimate);

  // Unknown tenants are NotFound, not silently rerouted.
  EXPECT_EQ(fleet.Estimate(TenantRequest(8, probe)).status().code(),
            StatusCode::kNotFound);

  // Predicate-hash routing lands on a real shard and names it.
  Result<EstimateResponse> hashed =
      fleet.EstimateHashed(TenantRequest(0, probe));
  ASSERT_TRUE(hashed.ok());
  EXPECT_TRUE(hashed.ValueOrDie().tenant_id == 7u ||
              hashed.ValueOrDie().tenant_id == 9u);

  // Async round-trip.
  Result<EstimateResponse> async =
      fleet.EstimateAsync(TenantRequest(9, probe)).get();
  ASSERT_TRUE(async.ok());
  EXPECT_EQ(async.ValueOrDie().estimate, r9.ValueOrDie().estimate);

  fleet.Stop();
  EXPECT_FALSE(fleet.running());
  EXPECT_FALSE(fleet.Estimate(TenantRequest(7, probe)).ok());
}

TEST(ServingFleetTest, StartValidatesConfigAndRequiresTenants) {
  core::ServeConfig bad;
  bad.tenant_queue_depth = 0;
  StubFleetEnv env(51);
  std::vector<ce::LabeledExample> train =
      env.Examples(workload::GenMethod::kW1, 40);
  {
    ServingFleet fleet(bad);
    ASSERT_TRUE(fleet.AddTenant(1, env.MakeTenant(train)).ok());
    Status status = fleet.Start();
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  }
  {
    ServingFleet fleet((core::ServeConfig()));
    EXPECT_EQ(fleet.Start().code(), StatusCode::kFailedPrecondition);
  }
}

TEST(ServingFleetTest, AdaptationRunsOnSharedExecutorAndBumpsEpoch) {
  StubFleetEnv env(52);
  std::vector<ce::LabeledExample> train =
      env.Examples(workload::GenMethod::kW1, 40);

  core::ServeConfig config;
  config.batch_max = 1;
  config.adapt_threads = 2;
  ServingFleet fleet(config);
  ASSERT_TRUE(fleet.AddTenant(1, env.MakeTenant(train)).ok());
  ASSERT_TRUE(fleet.AddTenant(2, env.MakeTenant(train)).ok());
  ASSERT_TRUE(fleet.Start().ok());
  const uint64_t epoch_after_start = fleet.Epoch();

  core::Warper::Invocation invocation;
  invocation.new_queries = env.Examples(workload::GenMethod::kW3, 20);
  Result<AdaptationOutcome> outcome =
      fleet.SubmitInvocation(1, invocation).get();
  ASSERT_TRUE(outcome.ok());
  const AdaptationOutcome& o = outcome.ValueOrDie();
  EXPECT_GE(o.result.drift_severity, 0.0);
  // The pass's severity is now tenant 1's live scheduling signal.
  EXPECT_EQ(fleet.tenant(1)->drift_severity(), o.result.drift_severity);
  if (o.published) {
    EXPECT_EQ(o.version, fleet.tenant(1)->CurrentVersion());
    EXPECT_GT(fleet.Epoch(), epoch_after_start);
  } else {
    EXPECT_EQ(o.version, 1u);
  }
  // Tenant 2 was untouched: still serving version 1 with no stalls.
  EXPECT_EQ(fleet.tenant(2)->CurrentVersion(), 1u);
  ASSERT_TRUE(fleet.Estimate(TenantRequest(2, train[0].features)).ok());

  // Unknown tenant: the future resolves NotFound instead of hanging.
  EXPECT_EQ(fleet.SubmitInvocation(99, invocation).get().status().code(),
            StatusCode::kNotFound);
  fleet.Stop();
}

TEST(ServingFleetTest, ShedBudgetIsolatesASaturatedTenant) {
  StubFleetEnv env(53);
  std::vector<ce::LabeledExample> train =
      env.Examples(workload::GenMethod::kW1, 40);

  core::ServeConfig config;
  config.batch_max = 2;  // queue path, so depth is observable
  config.tenant_queue_depth = 4;
  config.tenant_shed_budget = 1;
  // ThreadPool(n) spawns n-1 workers (the submitter participates in
  // ParallelFor); 2 gives exactly one dispatch worker to park below.
  util::ThreadPool pool(2);
  ServingFleet fleet(config, &pool);
  ASSERT_TRUE(fleet.AddTenant(1, env.MakeTenant(train)).ok());
  ASSERT_TRUE(fleet.AddTenant(2, env.MakeTenant(train)).ok());
  ASSERT_TRUE(fleet.Start().ok());

  util::Counter* shed_counter = util::Metrics().GetCounter(
      TenantMetricName("serve.tenant.shed", /*tenant_id=*/1));
  const uint64_t shed_before = shed_counter->Value();

  // Park the ONLY dispatch worker so queued requests deterministically stay
  // queued while we probe the admission decisions.
  std::promise<void> gate;
  std::shared_future<void> gate_future = gate.get_future().share();
  std::atomic<bool> blocked{false};
  std::future<void> blocker = pool.Submit([&] {
    blocked.store(true);
    gate_future.wait();
  });
  while (!blocked.load()) std::this_thread::yield();

  const std::vector<double>& probe = train[0].features;
  // First request: admitted (depth 0 < budget 1).
  auto admitted = fleet.EstimateAsync(TenantRequest(1, probe));
  // Second request: tenant 1 is now at its budget — shed.
  Result<EstimateResponse> shed =
      fleet.EstimateAsync(TenantRequest(1, probe)).get();
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(shed_counter->Value(), shed_before + 1);

  // priority > 0 bypasses the budget (still bounded by queue capacity).
  EstimateRequest urgent = TenantRequest(1, probe);
  urgent.priority = 1;
  auto bypassed = fleet.EstimateAsync(urgent);

  // The SIBLING is not penalized by tenant 1's saturation: its own queue is
  // empty, so it is admitted.
  auto sibling = fleet.EstimateAsync(TenantRequest(2, probe));

  gate.set_value();
  blocker.get();
  EXPECT_TRUE(admitted.get().ok());
  EXPECT_TRUE(bypassed.get().ok());
  EXPECT_TRUE(sibling.get().ok());
  fleet.Stop();
}

// Non-finite features are refused InvalidArgument on every estimate path —
// queued, inline and hash-routed — before they can reach a batch: the
// finite requests submitted around a refused one are served as one batch of
// their own, with the same bits they get alone.
TEST(ServingFleetTest, RefusesNonFiniteFeaturesOnEveryEstimatePath) {
  StubFleetEnv env(54);
  std::vector<ce::LabeledExample> train =
      env.Examples(workload::GenMethod::kW1, 40);
  const std::vector<double>& probe = train[0].features;
  std::vector<double> nan_probe = probe;
  nan_probe[0] = std::nan("");
  std::vector<double> inf_probe = probe;
  inf_probe[1] = std::numeric_limits<double>::infinity();

  core::ServeConfig batched;
  batched.batch_max = 4;
  util::ThreadPool pool(2);  // one dispatch worker, parked below
  ServingFleet fleet(batched, &pool);
  ASSERT_TRUE(fleet.AddTenant(7, env.MakeTenant(train)).ok());
  ASSERT_TRUE(fleet.Start().ok());

  std::promise<void> gate;
  std::shared_future<void> gate_future = gate.get_future().share();
  std::atomic<bool> blocked{false};
  std::future<void> blocker = pool.Submit([&] {
    blocked.store(true);
    gate_future.wait();
  });
  while (!blocked.load()) std::this_thread::yield();

  util::Counter* requests = util::Metrics().GetCounter("serve.requests");
  util::Counter* batches = util::Metrics().GetCounter("serve.batches");
  const uint64_t requests_before = requests->Value();
  const uint64_t batches_before = batches->Value();
  auto first = fleet.EstimateAsync(TenantRequest(7, probe));
  auto nan = fleet.EstimateAsync(TenantRequest(7, nan_probe));
  auto second = fleet.EstimateAsync(TenantRequest(7, probe));
  auto inf = fleet.EstimateAsync(TenantRequest(7, inf_probe));
  // Refused at admission, while the dispatch worker is still parked.
  EXPECT_EQ(nan.get().status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(inf.get().status().code(), StatusCode::kInvalidArgument);
  gate.set_value();
  blocker.get();
  Result<EstimateResponse> r1 = first.get();
  Result<EstimateResponse> r2 = second.get();
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(requests->Value() - requests_before, 2u);
  EXPECT_EQ(batches->Value() - batches_before, 1u);

  Result<EstimateResponse> alone = fleet.Estimate(TenantRequest(7, probe));
  ASSERT_TRUE(alone.ok());
  EXPECT_EQ(r1.ValueOrDie().estimate, alone.ValueOrDie().estimate);
  EXPECT_EQ(r2.ValueOrDie().estimate, alone.ValueOrDie().estimate);
  EXPECT_EQ(fleet.Estimate(TenantRequest(7, nan_probe)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fleet.EstimateHashed(TenantRequest(0, inf_probe)).status().code(),
            StatusCode::kInvalidArgument);
  fleet.Stop();

  // batch_max = 1: the inline path refuses them too.
  core::ServeConfig inline_config;
  inline_config.batch_max = 1;
  ServingFleet inline_fleet(inline_config);
  ASSERT_TRUE(inline_fleet.AddTenant(8, env.MakeTenant(train)).ok());
  ASSERT_TRUE(inline_fleet.Start().ok());
  EXPECT_EQ(inline_fleet.Estimate(TenantRequest(8, nan_probe)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      inline_fleet.EstimateHashed(TenantRequest(0, inf_probe)).status().code(),
      StatusCode::kInvalidArgument);
  EXPECT_TRUE(inline_fleet.Estimate(TenantRequest(8, probe)).ok());
  inline_fleet.Stop();
}

// A non-finite feature, or an actual that is non-finite or negative, is
// refused before it reaches the template tracker, where one NaN or inf
// would stay in the template's error EWMA for good.
TEST(ServingFleetTest, ReportObservationRefusesNonFiniteInput) {
  StubFleetEnv env(56);
  std::vector<ce::LabeledExample> train =
      env.Examples(workload::GenMethod::kW1, 40);
  core::ServeConfig config;
  config.batch_max = 1;
  ServingFleet fleet(config);
  ASSERT_TRUE(fleet.AddTenant(7, env.MakeTenant(train)).ok());
  ASSERT_TRUE(fleet.Start().ok());

  const std::vector<double>& probe = train[0].features;
  std::vector<double> nan_probe = probe;
  nan_probe[0] = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  for (double actual : {std::nan(""), inf, -inf, -1.0}) {
    EXPECT_EQ(fleet.ReportObservation(7, probe, actual).code(),
              StatusCode::kInvalidArgument)
        << "actual=" << actual;
  }
  EXPECT_EQ(fleet.ReportObservation(7, nan_probe, 100.0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(fleet.TenantTopOffenders(7, 3).ValueOrDie().empty());

  // Only the exact observations that follow are tracked.
  const double served =
      fleet.Estimate(TenantRequest(7, probe)).ValueOrDie().estimate;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(fleet.ReportObservation(7, probe, served).ok());
  }
  std::vector<core::TemplateTracker::Offender> top =
      fleet.TenantTopOffenders(7, 3).ValueOrDie();
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].stats.count, 8u);
  EXPECT_TRUE(std::isfinite(top[0].stats.ewma_err));
  fleet.Stop();
}

// ---------------------------------------------------------------------------
// AdaptationOutcome::version contract (satellite): on rollback the reported
// version is the one still serving — it never names the rejected model.

TEST(ServingFleetTest, AdaptationOutcomeVersionContract) {
  storage::Table table = storage::MakePrsa(12000, /*seed=*/55);
  storage::Annotator annotator(&table);
  ce::SingleTableDomain domain(&annotator);
  util::Rng rng(55);

  auto examples = [&](workload::GenMethod method, size_t n) {
    std::vector<storage::RangePredicate> preds =
        workload::GenerateWorkload(table, {method}, n, &rng);
    std::vector<int64_t> counts = annotator.BatchCount(preds);
    std::vector<ce::LabeledExample> out(n);
    for (size_t i = 0; i < n; ++i) {
      out[i] = {domain.FeaturizePredicate(preds[i]), counts[i]};
    }
    return out;
  };
  std::vector<ce::LabeledExample> train =
      examples(workload::GenMethod::kW1, 400);

  // A real trainable model: the rollback needs weights that actually move.
  ce::LmMlpConfig model_config;
  model_config.hidden = {64, 64};
  ce::LmMlp model(domain.FeatureDim(), model_config, /*seed=*/55);
  {
    nn::Matrix x;
    std::vector<double> y;
    ce::ExamplesToMatrix(train, &x, &y);
    model.Train(x, y);
  }
  core::WarperConfig warper_config;
  warper_config.hidden_units = 32;
  warper_config.hidden_layers = 2;
  warper_config.n_i = 30;
  warper_config.n_p = 100;
  core::Warper warper(&domain, &model, warper_config);
  ASSERT_TRUE(warper.Initialize(train).ok());

  // Eval set labeled with the model's own estimates: the served model is
  // "perfect" on it, so under the strictest gate any weight movement is a
  // regression and the pass must roll back.
  std::vector<ce::LabeledExample> adversarial;
  for (const ce::LabeledExample& ex : train) {
    double est = model.EstimateCardinality(ex.features);
    if (est > 10.0 * ce::kQErrorTheta) {
      adversarial.push_back(
          {ex.features, static_cast<int64_t>(std::llround(est))});
    }
  }
  ASSERT_GE(adversarial.size(), 10u);

  core::ServeConfig config;
  config.batch_max = 1;
  config.regression_tolerance = 1.0;  // strictest gate
  ServingFleet fleet(config);
  constexpr uint64_t kTenant = 901;
  ASSERT_TRUE(fleet.AddTenant(kTenant, &warper).ok());
  ASSERT_TRUE(fleet.SetEvalSet(kTenant, adversarial).ok());
  ASSERT_TRUE(fleet.Start().ok());
  const uint64_t version_before = fleet.tenant(kTenant)->CurrentVersion();
  const uint64_t epoch_before = fleet.Epoch();
  util::Counter* rollbacks = util::Metrics().GetCounter(
      TenantMetricName("serve.tenant.rollbacks", kTenant));
  const uint64_t rollbacks_before = rollbacks->Value();

  core::Warper::Invocation invocation;
  invocation.new_queries = examples(workload::GenMethod::kW3, 60);
  Result<AdaptationOutcome> result =
      fleet.SubmitInvocation(kTenant, std::move(invocation)).get();
  ASSERT_TRUE(result.ok());
  const AdaptationOutcome& outcome = result.ValueOrDie();
  ASSERT_TRUE(outcome.rolled_back);
  EXPECT_FALSE(outcome.published);
  // THE contract: version is unchanged on rollback — it reports what is
  // still serving, never the rejected model.
  EXPECT_EQ(outcome.version, version_before);
  EXPECT_EQ(fleet.tenant(kTenant)->CurrentVersion(), version_before);
  // No publish, no epoch movement — sibling readers saw nothing.
  EXPECT_EQ(fleet.Epoch(), epoch_before);
  // And the per-tenant rollback counter recorded it.
  EXPECT_EQ(rollbacks->Value(), rollbacks_before + 1);
  fleet.Stop();
}

// ---------------------------------------------------------------------------
// Stress (the TSan target): 32 tenants, concurrent estimates × hot swaps.

TEST(ServingFleetStressTest, EstimatesVsAdaptationAcross32Tenants) {
  constexpr size_t kTenants = 32;
  StubFleetEnv env(56);
  std::vector<ce::LabeledExample> train =
      env.Examples(workload::GenMethod::kW1, 30);

  core::ServeConfig config;
  config.batch_max = 1;  // inline fast path: producers never queue
  config.adapt_threads = 4;
  util::ThreadPool pool(2);
  ServingFleet fleet(config, &pool);
  for (uint64_t t = 0; t < kTenants; ++t) {
    ASSERT_TRUE(fleet.AddTenant(t, env.MakeTenant(train)).ok());
  }
  ASSERT_TRUE(fleet.Start().ok());
  EXPECT_EQ(fleet.Epoch(), kTenants);

  // Producers hammer random tenants while every tenant's adaptation pass
  // runs on the shared executor (hot-swapping snapshots when it publishes).
  constexpr size_t kProducers = 4;
  constexpr size_t kRequestsPerProducer = 300;
  std::atomic<size_t> bad{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      util::Rng local(200 + p);
      while (!go.load()) std::this_thread::yield();
      for (size_t i = 0; i < kRequestsPerProducer; ++i) {
        uint64_t t = static_cast<uint64_t>(
            local.UniformInt(0, static_cast<int64_t>(kTenants) - 1));
        Result<EstimateResponse> r =
            fleet.Estimate(TenantRequest(t, train[i % train.size()].features));
        if (!r.ok() || r.ValueOrDie().tenant_id != t) bad.fetch_add(1);
      }
    });
  }

  std::vector<ce::LabeledExample> drifted =
      env.Examples(workload::GenMethod::kW3, 20);
  go.store(true);
  std::vector<std::future<Result<AdaptationOutcome>>> passes;
  passes.reserve(kTenants);
  for (uint64_t t = 0; t < kTenants; ++t) {
    core::Warper::Invocation invocation;
    invocation.new_queries = drifted;
    passes.push_back(fleet.SubmitInvocation(t, std::move(invocation)));
  }
  for (auto& f : passes) {
    if (!f.get().ok()) bad.fetch_add(1);
  }
  for (std::thread& t : producers) t.join();

  EXPECT_EQ(bad.load(), 0u);
  EXPECT_GE(fleet.Epoch(), kTenants);  // every publish bumped it exactly once
  fleet.Stop();
  // Stop is idempotent and the destructor tolerates a stopped fleet.
  fleet.Stop();
}

}  // namespace
}  // namespace warper::serve
