// Tests for the serving layer: the persistent ThreadPool and the
// backend-agnostic QueryEngine facade (sync, batched, async) over
// index::SimilarityIndex.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/accelerator.hpp"
#include "index/backends.hpp"
#include "index/registry.hpp"
#include "serve/query_engine.hpp"
#include "telemetry/metrics.hpp"
#include "test_helpers.hpp"
#include "util/cpu_features.hpp"
#include "util/thread_pool.hpp"

namespace topk::serve {
namespace {

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, RejectsNegativeWorkerCount) {
  EXPECT_THROW(util::ThreadPool(-1), std::invalid_argument);
}

TEST(ThreadPoolTest, ParallelForRunsEveryIndexExactlyOnce) {
  util::ThreadPool pool(4);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                              std::size_t{64}, std::size_t{1000}}) {
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(n, 4, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " of " << n;
    }
  }
}

TEST(ThreadPoolTest, ZeroWorkerPoolRunsOnCaller) {
  util::ThreadPool pool(0);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(8);
  pool.parallel_for(8, 1, [&](std::size_t i) { seen[i] = std::this_thread::get_id(); });
  for (const auto& id : seen) {
    EXPECT_EQ(id, caller);
  }
}

TEST(ThreadPoolTest, PoolIsReusableAcrossManyCalls) {
  util::ThreadPool pool(2);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> sum{0};
    pool.parallel_for(10, 3, [&](std::size_t i) {
      sum += static_cast<int>(i);
    });
    EXPECT_EQ(sum.load(), 45) << "round " << round;
  }
}

TEST(ThreadPoolTest, PropagatesFirstException) {
  util::ThreadPool pool(3);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.parallel_for(20, 4,
                        [&](std::size_t i) {
                          ++ran;
                          if (i == 7) {
                            throw std::runtime_error("boom");
                          }
                        }),
      std::runtime_error);
  // Exceptions record but do not cancel: every item still ran.
  EXPECT_EQ(ran.load(), 20);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  util::ThreadPool pool(2);
  std::atomic<int> leaf{0};
  pool.parallel_for(4, 3, [&](std::size_t) {
    pool.parallel_for(4, 3, [&](std::size_t) { ++leaf; });
  });
  EXPECT_EQ(leaf.load(), 16);
}

TEST(ThreadPoolTest, PostedTasksRun) {
  std::promise<int> promise;
  auto future = promise.get_future();
  {
    util::ThreadPool pool(1);
    pool.post([&] { promise.set_value(41); });
    EXPECT_EQ(future.get(), 41);
  }  // destructor drains and joins
}

TEST(ThreadPoolTest, EnsureWorkersGrowsButNeverShrinks) {
  util::ThreadPool pool(1);
  EXPECT_EQ(pool.workers(), 1);
  pool.ensure_workers(3);
  EXPECT_EQ(pool.workers(), 3);
  pool.ensure_workers(2);
  EXPECT_EQ(pool.workers(), 3);
}

TEST(ThreadPoolTest, ParallelForGrowsThePoolToItsHelperBudget) {
  // A zero-worker pool sizes itself: concurrency 3 over 8 items asks
  // for 2 helpers, so the pool ends with exactly 2 workers.
  util::ThreadPool pool(0);
  std::vector<std::atomic<int>> hits(8);
  pool.parallel_for(8, 3, [&](std::size_t i) { ++hits[i]; });
  EXPECT_EQ(pool.workers(), 2);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
  // A narrower call never shrinks it; concurrency 1 stays inline.
  pool.parallel_for(8, 1, [](std::size_t) {});
  EXPECT_EQ(pool.workers(), 2);
}

TEST(ThreadPoolTest, ResolveFanoutThreadsIsTheOneThreadCountRule) {
  // Pure function only: no pool is started at these counts.
  EXPECT_THROW((void)util::resolve_fanout_threads(-1, 8),
               std::invalid_argument);
  EXPECT_THROW((void)util::resolve_fanout_threads(
                   std::numeric_limits<int>::min(), 8),
               std::invalid_argument);
  // 0 = hardware concurrency, clamped to the work items.
  const int hardware = util::default_thread_count();
  EXPECT_EQ(util::resolve_fanout_threads(0, 1'000'000), hardware);
  EXPECT_EQ(util::resolve_fanout_threads(0, 2), std::min(hardware, 2));
  EXPECT_EQ(util::resolve_fanout_threads(0, 1), 1);
  // No work still leaves the calling thread.
  EXPECT_EQ(util::resolve_fanout_threads(0, 0), 1);
  EXPECT_EQ(util::resolve_fanout_threads(5, 0), 1);
  EXPECT_EQ(util::resolve_fanout_threads(3, 8), 3);
  // INT_MAX clamps to the items without wrapping, however large.
  const int max = std::numeric_limits<int>::max();
  EXPECT_EQ(util::resolve_fanout_threads(max, 37), 37);
  EXPECT_EQ(util::resolve_fanout_threads(max, std::size_t{1} << 32), max);
  EXPECT_EQ(util::resolve_fanout_threads(
                max, std::numeric_limits<std::size_t>::max()),
            max);
}

// -------------------------------------------------------------- QueryEngine

class QueryEngineTest : public ::testing::Test {
 protected:
  QueryEngineTest()
      : matrix_(std::make_shared<const sparse::Csr>(
            test::small_random_matrix(800, 256, 12.0, 97))),
        fpga_(std::make_shared<index::FpgaSimIndex>(
            matrix_, core::DesignConfig::fixed(20, 8))) {}

  [[nodiscard]] std::vector<std::vector<float>> make_queries(int count,
                                                             std::uint64_t seed) {
    util::Xoshiro256 rng(seed);
    std::vector<std::vector<float>> queries;
    queries.reserve(static_cast<std::size_t>(count));
    for (int q = 0; q < count; ++q) {
      queries.push_back(sparse::generate_dense_vector(256, rng));
    }
    return queries;
  }

  std::shared_ptr<const sparse::Csr> matrix_;
  std::shared_ptr<const index::FpgaSimIndex> fpga_;
};

/// Delegates to an inner index, but every query first waits for
/// open(): holds an engine's queue full for as long as a test needs.
class GatedIndex final : public index::SimilarityIndex {
 public:
  explicit GatedIndex(std::shared_ptr<const index::SimilarityIndex> inner)
      : inner_(std::move(inner)), gate_(opened_.get_future().share()) {}

  void open() { opened_.set_value(); }

  [[nodiscard]] index::QueryResult query(
      std::span<const float> x, int top_k,
      const index::QueryOptions& options = {}) const override {
    gate_.wait();
    return inner_->query(x, top_k, options);
  }
  [[nodiscard]] std::uint32_t rows() const noexcept override {
    return inner_->rows();
  }
  [[nodiscard]] std::uint32_t cols() const noexcept override {
    return inner_->cols();
  }
  [[nodiscard]] index::IndexDescription describe() const override {
    return inner_->describe();
  }
  [[nodiscard]] int max_top_k() const noexcept override {
    return inner_->max_top_k();
  }

 private:
  std::shared_ptr<const index::SimilarityIndex> inner_;
  std::promise<void> opened_;
  std::shared_future<void> gate_;
};

std::uint64_t engine_rejections_metric() {
  return telemetry::registry().counter("topk_engine_rejections_total").value();
}

TEST_F(QueryEngineTest, WorkerCountDoesNotChangeResults) {
  const auto queries = make_queries(6, 201);
  const index::QueryResult reference = fpga_->query(queries[0], 32);
  const int oversubscribed = 4 * topk::util::default_thread_count();
  for (const int workers : {1, 2, 8, 16, oversubscribed}) {
    QueryEngine engine(fpga_, {.workers = workers});
    const index::QueryResult result = engine.query(queries[0], 32);
    ASSERT_EQ(result.entries.size(), reference.entries.size())
        << workers << " workers";
    for (std::size_t i = 0; i < result.entries.size(); ++i) {
      EXPECT_EQ(result.entries[i], reference.entries[i])
          << workers << " workers, rank " << i;
    }
    const core::ExecutionStats* stats = index::fpga_stats(result);
    const core::ExecutionStats* expected = index::fpga_stats(reference);
    ASSERT_NE(stats, nullptr);
    ASSERT_NE(expected, nullptr);
    EXPECT_EQ(stats->total_packets, expected->total_packets);
    EXPECT_EQ(stats->max_rows_in_packet, expected->max_rows_in_packet);
  }
}

TEST_F(QueryEngineTest, BatchMatchesSingleThreadedQueries) {
  const auto queries = make_queries(9, 202);
  for (const int workers : {1, 2, 8, 16}) {
    QueryEngine engine(fpga_, {.workers = workers});
    const auto batch = engine.query_batch(queries, 16);
    ASSERT_EQ(batch.size(), queries.size());
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const index::QueryResult individual = fpga_->query(queries[q], 16);
      ASSERT_EQ(batch[q].entries.size(), individual.entries.size())
          << workers << " workers, query " << q;
      for (std::size_t i = 0; i < individual.entries.size(); ++i) {
        EXPECT_EQ(batch[q].entries[i], individual.entries[i])
            << workers << " workers, query " << q << ", rank " << i;
      }
    }
  }
}

TEST_F(QueryEngineTest, BatchValidatesUpFront) {
  QueryEngine engine(fpga_, {.workers = 2});
  auto queries = make_queries(2, 203);
  EXPECT_THROW((void)engine.query_batch(queries, 0), std::invalid_argument);
  EXPECT_THROW((void)engine.query_batch(queries, 8 * 8 + 1),
               std::invalid_argument);
  queries.push_back(std::vector<float>(17, 0.0f));
  EXPECT_THROW((void)engine.query_batch(queries, 8), std::invalid_argument);
  EXPECT_TRUE(engine.query_batch({}, 8).empty());
}

TEST_F(QueryEngineTest, SubmitResultsAlignWithSubmissionOrder) {
  const auto queries = make_queries(12, 204);
  QueryEngine engine(fpga_, {.workers = 4});
  std::vector<std::future<index::QueryResult>> futures;
  futures.reserve(queries.size());
  for (const auto& x : queries) {
    futures.push_back(engine.submit(x, 16));
  }
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const index::QueryResult expected = fpga_->query(queries[q], 16);
    const index::QueryResult got = futures[q].get();
    ASSERT_EQ(got.entries.size(), expected.entries.size()) << "query " << q;
    for (std::size_t i = 0; i < expected.entries.size(); ++i) {
      EXPECT_EQ(got.entries[i], expected.entries[i])
          << "query " << q << ", rank " << i;
    }
  }
  engine.drain();
  EXPECT_EQ(engine.pending(), 0u);
}

TEST_F(QueryEngineTest, SubmitPropagatesValidationErrorsThroughFuture) {
  QueryEngine engine(fpga_, {.workers = 2});
  auto wrong_size = engine.submit(std::vector<float>(17, 0.0f), 8);
  EXPECT_THROW((void)wrong_size.get(), std::invalid_argument);
  auto bad_topk = engine.submit(make_queries(1, 205)[0], 8 * 8 + 1);
  EXPECT_THROW((void)bad_topk.get(), std::invalid_argument);
  // The engine stays serviceable after failed requests.
  auto good = engine.submit(make_queries(1, 206)[0], 8);
  EXPECT_EQ(good.get().entries.size(), 8u);
}

TEST_F(QueryEngineTest, BoundedQueueBackpressureStillCompletesEverything) {
  const auto queries = make_queries(10, 207);
  QueryEngine engine(fpga_, {.workers = 2, .max_pending = 2});
  std::vector<std::future<index::QueryResult>> futures;
  for (const auto& x : queries) {
    futures.push_back(engine.submit(x, 8));  // blocks when 2 in flight
  }
  for (auto& future : futures) {
    EXPECT_EQ(future.get().entries.size(), 8u);
  }
}

TEST_F(QueryEngineTest, TrySubmitOnAFullQueueReturnsNulloptAndCounts) {
  const auto queries = make_queries(2, 208);
  const auto gated = std::make_shared<GatedIndex>(fpga_);
  QueryEngine engine(gated, {.workers = 2, .max_pending = 1});
  const std::uint64_t metric_before = engine_rejections_metric();
  auto admitted = engine.submit(queries[0], 8);  // parks on the gate
  // EXPECT, not ASSERT, until the gate opens: an early return would
  // leave the engine's destructor draining a request that never ends.
  EXPECT_EQ(engine.pending(), 1u);
  EXPECT_FALSE(engine.try_submit(queries[1], 8).has_value());
  EXPECT_EQ(engine.stats().rejections, 1u);
  EXPECT_EQ(engine_rejections_metric(), metric_before + 1);
  gated->open();
  EXPECT_EQ(admitted.get().entries.size(), 8u);
}

TEST_F(QueryEngineTest, TrySubmitResolvesBitIdenticallyToQuery) {
  const auto queries = make_queries(4, 209);
  QueryEngine engine(fpga_, {.workers = 2});
  for (std::size_t q = 0; q < queries.size(); ++q) {
    auto future = engine.try_submit(queries[q], 16);
    ASSERT_TRUE(future.has_value()) << "query " << q;
    EXPECT_EQ(future->get().entries, engine.query(queries[q], 16).entries)
        << "query " << q;
  }
  EXPECT_EQ(engine.stats().rejections, 0u);
}

TEST_F(QueryEngineTest, TrySubmitAdmitsAgainAfterDrain) {
  const auto queries = make_queries(2, 210);
  const auto gated = std::make_shared<GatedIndex>(fpga_);
  QueryEngine engine(gated, {.workers = 2, .max_pending = 1});
  auto admitted = engine.try_submit(queries[0], 8);
  EXPECT_TRUE(admitted.has_value());
  EXPECT_FALSE(engine.try_submit(queries[1], 8).has_value());
  gated->open();
  engine.drain();
  EXPECT_EQ(engine.pending(), 0u);
  auto again = engine.try_submit(queries[1], 8);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->get().entries, engine.query(queries[1], 8).entries);
  EXPECT_EQ(engine.stats().rejections, 1u);
}

TEST_F(QueryEngineTest, RejectsBadConfig) {
  EXPECT_THROW(QueryEngine(fpga_, {.workers = -1}), std::invalid_argument);
  EXPECT_THROW(QueryEngine(fpga_, {.max_pending = 0}), std::invalid_argument);
  EXPECT_THROW(QueryEngine(fpga_, {.latency_window = 0}),
               std::invalid_argument);
  EXPECT_THROW(
      QueryEngine(std::shared_ptr<const index::SimilarityIndex>(), {}),
      std::invalid_argument);
  EXPECT_THROW(QueryEngine(std::shared_ptr<index::MutableIndex>(), {}),
               std::invalid_argument);
}

TEST_F(QueryEngineTest, LatencySummaryCountsEveryServedQuery) {
  const auto queries = make_queries(5, 208);
  QueryEngine engine(fpga_, {.workers = 2});
  EXPECT_EQ(engine.latency_summary().count, 0u);
  (void)engine.query(queries[0], 8);
  (void)engine.query_batch(queries, 8);
  engine.submit(queries[1], 8).get();
  const LatencySummary summary = engine.latency_summary();
  EXPECT_EQ(summary.count, 1u + queries.size() + 1u);
  EXPECT_GE(summary.p50_ms, 0.0);
  EXPECT_GE(summary.p99_ms, summary.p50_ms);
  EXPECT_GE(summary.max_ms, summary.p99_ms);
  EXPECT_GT(summary.mean_ms, 0.0);
}

TEST_F(QueryEngineTest, ResetLatencyStartsAFreshEpoch) {
  const auto queries = make_queries(4, 209);
  QueryEngine engine(fpga_, {.workers = 2});
  (void)engine.query_batch(queries, 8);
  EXPECT_EQ(engine.latency_summary().count, queries.size());
  engine.reset_latency();
  const LatencySummary cleared = engine.latency_summary();
  EXPECT_EQ(cleared.count, 0u);
  EXPECT_EQ(cleared.mean_ms, 0.0);
  EXPECT_EQ(cleared.p99_ms, 0.0);
  // The engine keeps serving and measuring after a reset.
  (void)engine.query(queries[0], 8);
  EXPECT_EQ(engine.latency_summary().count, 1u);
}

TEST_F(QueryEngineTest, LatencyWindowSizeComesFromConfig) {
  const auto queries = make_queries(6, 210);
  QueryEngine engine(fpga_, {.workers = 1, .latency_window = 2});
  EXPECT_EQ(engine.latency_window(), 2u);
  (void)engine.query_batch(queries, 8);
  // Lifetime count covers everything even though the percentile window
  // only holds the last two samples.
  EXPECT_EQ(engine.latency_summary().count, queries.size());
}

// ------------------------------------------- backend-agnostic serving paths

TEST_F(QueryEngineTest, ServesCpuAndFpgaBackendsThroughIdenticalCodePath) {
  const auto queries = make_queries(6, 211);
  const auto cpu = std::make_shared<index::CpuHeapIndex>(matrix_);

  QueryEngine fpga_engine(fpga_, {.workers = 4});
  QueryEngine cpu_engine(cpu, {.workers = 4});

  const auto fpga_batch = fpga_engine.query_batch(queries, 10);
  const auto cpu_batch = cpu_engine.query_batch(queries, 10);
  ASSERT_EQ(fpga_batch.size(), queries.size());
  ASSERT_EQ(cpu_batch.size(), queries.size());

  for (std::size_t q = 0; q < queries.size(); ++q) {
    // Each engine reproduces its own backend bit-for-bit...
    const auto direct_cpu = cpu->query(queries[q], 10);
    ASSERT_EQ(cpu_batch[q].entries, direct_cpu.entries) << "query " << q;
    // ...and the async path agrees with the sync one per backend.
    EXPECT_EQ(fpga_engine.submit(queries[q], 10).get().entries,
              fpga_batch[q].entries)
        << "query " << q;
    EXPECT_EQ(cpu_engine.submit(queries[q], 10).get().entries,
              cpu_batch[q].entries)
        << "query " << q;
  }

  // Per-backend latency digests accumulate independently.
  EXPECT_EQ(fpga_engine.latency_summary().count, 2 * queries.size());
  EXPECT_EQ(cpu_engine.latency_summary().count, 2 * queries.size());
  EXPECT_EQ(fpga_engine.index().describe().backend, "fpga-sim");
  EXPECT_EQ(cpu_engine.index().describe().backend, "cpu-heap");
}

TEST_F(QueryEngineTest, RegistryBackendsServeThroughTheEngine) {
  const auto queries = make_queries(3, 212);
  index::IndexOptions options;
  options.design = core::DesignConfig::fixed(20, 8);
  for (const std::string& name : index::registered_backends()) {
    QueryEngine engine(index::make_index(name, matrix_, options),
                       {.workers = 2});
    const auto results = engine.query_batch(queries, 8);
    ASSERT_EQ(results.size(), queries.size()) << name;
    for (const auto& result : results) {
      EXPECT_EQ(result.entries.size(), 8u) << name;
    }
    EXPECT_EQ(engine.latency_summary().count, queries.size()) << name;
  }
}

// ----------------------------------------------------- ExecutionStats fix

TEST_F(QueryEngineTest, MaxRowsInPacketSurfacesInExecutionStats) {
  util::Xoshiro256 rng(209);
  const auto x = sparse::generate_dense_vector(256, rng);
  const index::QueryResult result = fpga_->query(x, 32);
  // The aggregate must equal the busiest packet across the per-core
  // encoder stats — the kernel re-counts exactly what the encoder laid
  // out.
  std::uint64_t expected = 0;
  for (const auto& stream : fpga_->accelerator().core_streams()) {
    expected = std::max(expected, stream.stats().max_rows_in_packet);
  }
  const core::ExecutionStats* stats = index::fpga_stats(result);
  ASSERT_NE(stats, nullptr);
  EXPECT_GT(stats->max_rows_in_packet, 0u);
  EXPECT_EQ(stats->max_rows_in_packet, expected);
}

}  // namespace
}  // namespace topk::serve
