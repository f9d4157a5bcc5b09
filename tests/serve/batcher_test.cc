// MicroBatcher: coalescing, determinism, admission and deadlines.
#include "serve/batcher.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <future>
#include <thread>
#include <vector>

#include "serve_test_util.h"
#include "util/rng.h"

namespace warper::serve {
namespace {

constexpr size_t kDim = 4;

core::ServeConfig Config(size_t batch_max, size_t capacity = 1024) {
  core::ServeConfig config;
  config.batch_max = batch_max;
  config.queue_capacity = capacity;
  return config;
}

EstimateRequest Req(std::vector<double> features, int64_t deadline_us = 0) {
  EstimateRequest request;
  request.features = std::move(features);
  request.deadline_us = deadline_us;
  return request;
}

std::vector<double> RandomFeatures(util::Rng* rng) {
  std::vector<double> f(kDim);
  for (double& v : f) v = rng->Uniform();
  return f;
}

TEST(MicroBatcherTest, BatchedMatchesDirectBitIdentical) {
  // Every kernel table is replay-exact across batch splits, so an N-row
  // pass must reproduce each 1-row pass bit for bit.
  SnapshotStore store;
  store.Publish(MakeStubSnapshot(1, /*scale=*/3.7));
  MicroBatcher batcher(Config(/*batch_max=*/8), &store, kDim);
  ASSERT_TRUE(batcher.Start().ok());

  util::Rng rng(42);
  std::vector<std::vector<double>> features;
  std::vector<std::future<Result<EstimateResponse>>> futures;
  for (size_t i = 0; i < 64; ++i) {
    features.push_back(RandomFeatures(&rng));
    futures.push_back(batcher.EstimateAsync(Req(features.back())));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    Result<EstimateResponse> batched = futures[i].get();
    ASSERT_TRUE(batched.ok());
    Result<EstimateResponse> direct = batcher.EstimateDirect(Req(features[i]));
    ASSERT_TRUE(direct.ok());
    // Bit-identical, not approximately equal.
    EXPECT_EQ(batched.ValueOrDie().estimate, direct.ValueOrDie().estimate);
    // Both served from the same published snapshot version.
    EXPECT_EQ(batched.ValueOrDie().version, 1u);
    EXPECT_EQ(direct.ValueOrDie().version, 1u);
  }
  batcher.Stop();
}

TEST(MicroBatcherTest, BlockingEstimateResolvesThroughTheQueue) {
  SnapshotStore store;
  store.Publish(MakeStubSnapshot(1, /*scale=*/1.0));
  MicroBatcher batcher(Config(/*batch_max=*/4), &store, kDim);
  ASSERT_TRUE(batcher.Start().ok());

  EstimateRequest request = Req({0.1, 0.2, 0.3, 0.4});
  request.tenant_id = 7;
  Result<EstimateResponse> got = batcher.Estimate(request);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.ValueOrDie().estimate,
            batcher.EstimateDirect(request).ValueOrDie().estimate);
  // The response echoes the request's tenant.
  EXPECT_EQ(got.ValueOrDie().tenant_id, 7u);
}

TEST(MicroBatcherTest, BatchMaxOneIsTheInlineFastPath) {
  SnapshotStore store;
  store.Publish(MakeStubSnapshot(1, /*scale=*/2.0));
  MicroBatcher batcher(Config(/*batch_max=*/1), &store, kDim);
  // No Start(): batch_max == 1 never touches the queue or dispatcher.
  Result<EstimateResponse> got = batcher.Estimate(Req({1.0, 1.0, 1.0, 1.0}));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.ValueOrDie().estimate,
            batcher.EstimateDirect(Req({1.0, 1.0, 1.0, 1.0}))
                .ValueOrDie()
                .estimate);
}

TEST(MicroBatcherTest, ShedPolicyRefusesOverflowWithUnavailable) {
  SnapshotStore store;
  store.Publish(MakeStubSnapshot(1));
  core::ServeConfig config = Config(/*batch_max=*/2, /*capacity=*/2);
  config.overflow = core::ServeConfig::Overflow::kShed;
  MicroBatcher batcher(config, &store, kDim);

  // Dispatcher not started yet, so the queue fills deterministically.
  std::vector<double> f(kDim, 0.5);
  auto f1 = batcher.EstimateAsync(Req(f));
  auto f2 = batcher.EstimateAsync(Req(f));
  auto f3 = batcher.EstimateAsync(Req(f));  // over capacity -> shed
  Result<EstimateResponse> shed = f3.get();
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);

  // The admitted two are served once the dispatcher runs.
  ASSERT_TRUE(batcher.Start().ok());
  EXPECT_TRUE(f1.get().ok());
  EXPECT_TRUE(f2.get().ok());
  batcher.Stop();
}

TEST(MicroBatcherTest, AsyncCallersAreNeverParkedByBlockPolicy) {
  SnapshotStore store;
  store.Publish(MakeStubSnapshot(1));
  core::ServeConfig config = Config(/*batch_max=*/2, /*capacity=*/1);
  config.overflow = core::ServeConfig::Overflow::kBlock;
  MicroBatcher batcher(config, &store, kDim);

  std::vector<double> f(kDim, 0.5);
  auto admitted = batcher.EstimateAsync(Req(f));
  // kBlock would park a synchronous caller; the pipelining API must return
  // immediately with Unavailable instead of deadlocking the producer.
  auto refused = batcher.EstimateAsync(Req(f));
  Result<EstimateResponse> r = refused.get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);

  ASSERT_TRUE(batcher.Start().ok());
  EXPECT_TRUE(admitted.get().ok());
  batcher.Stop();
}

TEST(MicroBatcherTest, ExpiredRequestsGetDeadlineExceeded) {
  SnapshotStore store;
  store.Publish(MakeStubSnapshot(1));
  MicroBatcher batcher(Config(/*batch_max=*/4), &store, kDim);

  // Enqueue with a 1µs deadline while the dispatcher is not running, let it
  // lapse, then start: the dispatcher must expire it, not serve it.
  auto expired = batcher.EstimateAsync(
      Req(std::vector<double>(kDim, 0.5), /*deadline_us=*/1));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(batcher.Start().ok());
  Result<EstimateResponse> r = expired.get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  batcher.Stop();
}

TEST(MicroBatcherTest, WrongFeatureWidthIsRefusedUpFront) {
  SnapshotStore store;
  store.Publish(MakeStubSnapshot(1));
  MicroBatcher batcher(Config(/*batch_max=*/4), &store, kDim);
  ASSERT_TRUE(batcher.Start().ok());
  Result<EstimateResponse> r = batcher.Estimate(Req({1.0, 2.0}));  // kDim is 4
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(batcher.EstimateDirect(Req({1.0})).ok());
  batcher.Stop();
}

TEST(MicroBatcherTest, EstimateWithoutSnapshotFailsCleanly) {
  SnapshotStore store;  // nothing published
  MicroBatcher batcher(Config(/*batch_max=*/1), &store, kDim);
  Result<EstimateResponse> r =
      batcher.Estimate(Req(std::vector<double>(kDim, 0.5)));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(MicroBatcherTest, StopAnswersQueuedRequestsAndIsIdempotent) {
  SnapshotStore store;
  store.Publish(MakeStubSnapshot(1));
  MicroBatcher batcher(Config(/*batch_max=*/4), &store, kDim);
  auto orphan = batcher.EstimateAsync(Req(std::vector<double>(kDim, 0.5)));
  batcher.Stop();  // never started: the queued request must still resolve
  Result<EstimateResponse> r = orphan.get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  batcher.Stop();  // idempotent
  EXPECT_FALSE(batcher.Start().ok());  // no restart after Stop
  EXPECT_FALSE(batcher.running());
}

TEST(MicroBatcherTest, PoolModeServesBatchesWithoutADispatcherThread) {
  SnapshotStore store;
  store.Publish(MakeStubSnapshot(1, /*scale=*/1.3));
  util::ThreadPool pool(2);
  MicroBatcher batcher(Config(/*batch_max=*/8), &store, kDim);
  ASSERT_TRUE(batcher.StartOnPool(&pool).ok());

  util::Rng rng(7);
  std::vector<std::vector<double>> features;
  std::vector<std::future<Result<EstimateResponse>>> futures;
  for (size_t i = 0; i < 64; ++i) {
    features.push_back(RandomFeatures(&rng));
    futures.push_back(batcher.EstimateAsync(Req(features.back())));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    Result<EstimateResponse> got = futures[i].get();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.ValueOrDie().estimate,
              batcher.EstimateDirect(Req(features[i])).ValueOrDie().estimate);
  }
  EXPECT_GE(batcher.served_total(), 64u);
  batcher.Stop();
}

}  // namespace
}  // namespace warper::serve
