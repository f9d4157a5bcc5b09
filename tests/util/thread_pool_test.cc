// Tests for the shared thread pool: full-range coverage, deterministic
// chunking, exception propagation, nested-call safety, and the global
// Configure() lifecycle.
#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/mutex.h"

namespace warper::util {
namespace {

TEST(ParallelConfigTest, ValidateCatchesBadKnobs) {
  ParallelConfig ok;
  EXPECT_TRUE(ok.Validate().ok());

  ParallelConfig negative;
  negative.threads = -1;
  EXPECT_EQ(negative.Validate().code(), StatusCode::kInvalidArgument);

  ParallelConfig zero_grain;
  zero_grain.grain = 0;
  EXPECT_EQ(zero_grain.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(ParallelConfigTest, ResolvedThreadsNeverZero) {
  ParallelConfig config;
  config.threads = 0;
  EXPECT_GE(config.ResolvedThreads(), 1);
  config.threads = 3;
  EXPECT_EQ(config.ResolvedThreads(), 3);
}

TEST(ThreadPoolTest, SizeCountsWorkersNotCallers) {
  // The calling thread participates, so an n-way pool owns n-1 workers.
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 3);
  ThreadPool serial(1);
  EXPECT_EQ(serial.size(), 0);
}

TEST(ThreadPoolTest, SubmitRunsEveryTask) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.Submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPoolTest, SubmitFuturePropagatesException) {
  ThreadPool pool(2);
  std::future<void> f =
      pool.Submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<int> hits(1000, 0);
  // Chunks are disjoint, so unsynchronized writes to distinct slots are safe.
  pool.ParallelFor(0, hits.size(), 10, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) ++hits[i];
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 1000);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, ParallelForSmallRangeStaysSerial) {
  ThreadPool pool(4);
  Mutex mu;
  std::vector<std::pair<size_t, size_t>> chunks;
  pool.ParallelFor(0, 100, 64, [&](size_t lo, size_t hi) {
    MutexLock lock(&mu);
    chunks.push_back({lo, hi});
  });
  // 100 / 64 < 2 chunks: one inline call covering the whole range.
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0], (std::pair<size_t, size_t>{0, 100}));
}

TEST(ThreadPoolTest, ParallelForChunkingIsDeterministic) {
  ThreadPool pool(4);
  auto boundaries = [&] {
    Mutex mu;
    std::set<std::pair<size_t, size_t>> out;
    pool.ParallelFor(0, 10000, 16, [&](size_t lo, size_t hi) {
      MutexLock lock(&mu);
      out.insert({lo, hi});
    });
    return out;
  };
  auto first = boundaries();
  auto second = boundaries();
  EXPECT_EQ(first, second);
  // Fixed partition: min(workers+1, n/grain) contiguous chunks.
  EXPECT_EQ(first.size(), 4u);
}

TEST(ThreadPoolTest, ParallelForPropagatesChunkException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(0, 1000, 10,
                                [](size_t lo, size_t) {
                                  if (lo >= 500) {
                                    throw std::runtime_error("chunk failed");
                                  }
                                }),
               std::runtime_error);
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::atomic<long> total{0};
  pool.ParallelFor(0, 400, 10, [&](size_t lo, size_t hi) {
    // A nested call on a worker thread must not block on the queue it is
    // supposed to drain; it runs serially inline instead.
    pool.ParallelFor(lo, hi, 1, [&](size_t a, size_t b) {
      total += static_cast<long>(b - a);
    });
  });
  EXPECT_EQ(total.load(), 400);
}

TEST(ThreadPoolTest, ParallelForBitIdenticalOrderedReduction) {
  // The contract behind replay-exact kernels: the partition is fixed, so
  // per-chunk partial sums combined in chunk order give the same double on
  // every run — and match a serial pass over the same chunk boundaries.
  // (A chunked float sum cannot match a single-pass serial sum bit-for-bit;
  // kernels that need that, like nn::Matrix, keep each output element's
  // accumulation order unchanged instead of re-associating it.)
  std::vector<double> values(5000);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = 1.0 / static_cast<double>(i + 1);
  }

  ThreadPool pool(4);
  auto chunked_sum = [&] {
    Mutex mu;
    std::vector<std::pair<size_t, double>> partials;
    pool.ParallelFor(0, values.size(), 16, [&](size_t lo, size_t hi) {
      double s = 0.0;
      for (size_t i = lo; i < hi; ++i) s += values[i];
      MutexLock lock(&mu);
      partials.push_back({lo, s});
    });
    std::sort(partials.begin(), partials.end());
    double total = 0.0;
    for (const auto& [lo, s] : partials) total += s;
    return total;
  };

  // Serial reference over the partition ParallelFor is documented to use:
  // min(workers + 1, n / grain) contiguous chunks of ceil(n / chunks).
  size_t chunks = 4, chunk_size = (values.size() + chunks - 1) / chunks;
  double reference = 0.0;
  for (size_t c = 0; c < chunks; ++c) {
    size_t lo = c * chunk_size, hi = std::min(values.size(), lo + chunk_size);
    double s = 0.0;
    for (size_t i = lo; i < hi; ++i) s += values[i];
    reference += s;
  }
  for (int run = 0; run < 3; ++run) {
    EXPECT_EQ(chunked_sum(), reference);  // bit-identical, every run
  }
}

TEST(ThreadPoolTest, GlobalConfigureResizes) {
  ParallelConfig two;
  two.threads = 2;
  ThreadPool::Configure(two);
  EXPECT_EQ(ThreadPool::Global().size(), 1);

  ParallelConfig one;
  one.threads = 1;
  ThreadPool::Configure(one);
  EXPECT_EQ(ThreadPool::Global().size(), 0);

  // Restore the default (hardware concurrency) for the rest of the suite.
  ThreadPool::Configure(ParallelConfig{});
  EXPECT_EQ(ThreadPool::Global().size(),
            ParallelConfig{}.ResolvedThreads() - 1);
}

}  // namespace
}  // namespace warper::util
