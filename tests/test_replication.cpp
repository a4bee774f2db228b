// Tests for per-shard replica sets: replicated builds bit-identical to
// the unreplicated index at every replica count and routing policy,
// failover absorbing a throwing replica without changing a single bit,
// the all-replicas-down rethrow, routing-policy load spreading, the
// IndexOptions::replicas knob through the registry, and replicated
// warm loads from persisted deployments.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "index/backends.hpp"
#include "index/registry.hpp"
#include "persist/deployment.hpp"
#include "shard/sharded_index.hpp"
#include "test_helpers.hpp"

namespace topk::shard {
namespace {

std::shared_ptr<const sparse::Csr> shared_matrix(std::uint32_t rows,
                                                 std::uint32_t cols,
                                                 double mean_nnz,
                                                 std::uint64_t seed) {
  return std::make_shared<const sparse::Csr>(
      test::small_random_matrix(rows, cols, mean_nnz, seed));
}

/// Copies the shards of `index` and wraps replica `replica` of every
/// shard in a ThrowingIndex — the standard fault-injection transform.
std::vector<Shard> with_throwing_replica(const ShardedIndex& index,
                                         std::size_t replica) {
  std::vector<Shard> shards;
  for (std::size_t s = 0; s < index.shard_count(); ++s) {
    shards.push_back(index.shard(s));
    shards.back().replicas[replica] =
        std::make_shared<test::ThrowingIndex>(shards.back().replicas[replica]);
  }
  return shards;
}

// ----------------------------------------------------------- replica builds

TEST(ReplicationTest, ReplicatedBuildsBitIdenticalToUnreplicated) {
  const auto matrix = shared_matrix(900, 64, 6.0, 71);
  const index::ExactSortIndex flat(matrix);
  util::Xoshiro256 rng(72);
  std::vector<std::vector<float>> queries;
  for (int q = 0; q < 4; ++q) {
    queries.push_back(sparse::generate_dense_vector(64, rng));
  }
  for (const int replicas : {1, 2, 3}) {
    for (const RoutingPolicy routing :
         {RoutingPolicy::kRoundRobin, RoutingPolicy::kLeastLoaded}) {
      const auto sharded = ShardedIndexBuilder()
                               .matrix(matrix)
                               .shards(3)
                               .inner_backend("exact-sort")
                               .replicas(replicas)
                               .routing(routing)
                               .build();
      EXPECT_EQ(sharded->routing(), routing);
      for (std::size_t s = 0; s < sharded->shard_count(); ++s) {
        EXPECT_EQ(sharded->replica_count(s),
                  static_cast<std::size_t>(replicas));
      }
      for (const auto& x : queries) {
        const auto result = sharded->query(x, 20);
        EXPECT_EQ(result.entries, flat.query(x, 20).entries)
            << to_string(routing) << " R=" << replicas;
        const index::ShardStats* stats = index::shard_stats(result);
        ASSERT_NE(stats, nullptr);
        EXPECT_EQ(stats->replicas, replicas);
        EXPECT_EQ(stats->failovers, 0u);
        EXPECT_NE(stats->slowest_shard, -1);
      }
      // The batch grid path routes per (query, shard) cell; the
      // results must not depend on which replica served which cell.
      const auto batch = sharded->query_batch(queries, 20);
      for (std::size_t q = 0; q < queries.size(); ++q) {
        EXPECT_EQ(batch[q].entries, flat.query(queries[q], 20).entries)
            << to_string(routing) << " R=" << replicas << " query " << q;
      }
    }
  }
}

// ---------------------------------------------------------------- failover

TEST(ReplicationTest, FailoverServesBitIdenticalAndRecordsFailures) {
  const auto matrix = shared_matrix(1000, 64, 6.0, 73);
  const index::CpuHeapIndex flat(matrix);
  const auto healthy = ShardedIndexBuilder()
                           .matrix(matrix)
                           .shards(4)
                           .inner_backend("cpu-heap")
                           .replicas(2)
                           .build();
  // Replica 0 of every shard is down (throws on every call).
  const ShardedIndex faulty(with_throwing_replica(*healthy, 0),
                            "sharded-faulty", RoutingPolicy::kRoundRobin);

  util::Xoshiro256 rng(74);
  std::vector<std::vector<float>> queries;
  for (int q = 0; q < 3; ++q) {
    queries.push_back(sparse::generate_dense_vector(64, rng));
  }

  // First query: round-robin routes every shard's cell to replica 0
  // first, so all four cells fail over — and still return exactly the
  // unreplicated answer.
  const auto first = faulty.query(queries[0], 15);
  EXPECT_EQ(first.entries, flat.query(queries[0], 15).entries);
  const index::ShardStats* stats = index::shard_stats(first);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->failovers, 4u);
  EXPECT_EQ(stats->replicas, 2);

  // Later queries route around the now-unhealthy replica without new
  // failovers; the batch path stays bit-identical too.
  for (const auto& x : queries) {
    EXPECT_EQ(faulty.query(x, 15).entries, flat.query(x, 15).entries);
  }
  const auto batch = faulty.query_batch(queries, 15);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(batch[q].entries, flat.query(queries[q], 15).entries);
  }

  // The per-replica surface recorded the episode: replica 0 failed
  // once (health-aware routing never re-picked it), replica 1 served
  // everything, in-flight counts drained back to zero.
  for (std::size_t s = 0; s < faulty.shard_count(); ++s) {
    const auto replicas = faulty.replica_stats(s);
    ASSERT_EQ(replicas.size(), 2u);
    EXPECT_GE(replicas[0].failures, 1u) << "shard " << s;
    EXPECT_EQ(replicas[0].queries, 0u) << "shard " << s;
    EXPECT_FALSE(replicas[0].healthy) << "shard " << s;
    EXPECT_NE(replicas[0].last_error.find("injected"), std::string::npos)
        << "shard " << s << ": " << replicas[0].last_error;
    EXPECT_GT(replicas[1].queries, 0u) << "shard " << s;
    EXPECT_EQ(replicas[1].failures, 0u) << "shard " << s;
    EXPECT_TRUE(replicas[1].healthy) << "shard " << s;
    EXPECT_GT(replicas[1].ewma_seconds, 0.0) << "shard " << s;
    EXPECT_EQ(replicas[0].inflight, 0) << "shard " << s;
    EXPECT_EQ(replicas[1].inflight, 0) << "shard " << s;
  }
}

TEST(ReplicationTest, FailedReplicaCallsFeedTheLatencyEwma) {
  // Regression: a failed call must be wall-timed and blended into the
  // replica's latency EWMA BEFORE it is marked unhealthy.  Otherwise a
  // replica that dies mid-traffic keeps its stale pre-failure EWMA, and
  // once a recovery probe flips it back healthy, least-loaded routing
  // ranks it by latency it never demonstrated.
  const auto matrix = shared_matrix(300, 32, 4.0, 87);
  const auto healthy = ShardedIndexBuilder()
                           .matrix(matrix)
                           .shards(1)
                           .inner_backend("cpu-heap")
                           .replicas(2)
                           .routing(RoutingPolicy::kRoundRobin)
                           .build();
  auto shards = std::vector<Shard>{healthy->shard(0)};
  shards[0].replicas[0] =
      std::make_shared<test::ThrowingIndex>(shards[0].replicas[0]);
  const ShardedIndex faulty(std::move(shards), "sharded-faulty",
                            RoutingPolicy::kRoundRobin);

  const std::vector<float> x(32, 0.1f);
  (void)faulty.query(x, 5);  // replica 0 fails, replica 1 serves
  const auto replicas = faulty.replica_stats(0);
  ASSERT_EQ(replicas.size(), 2u);
  EXPECT_EQ(replicas[0].failures, 1u);
  EXPECT_EQ(replicas[0].queries, 0u);  // failed calls are not served queries
  EXPECT_FALSE(replicas[0].healthy);
  EXPECT_GT(replicas[0].ewma_seconds, 0.0)
      << "the failed call's duration never reached the EWMA";
  EXPECT_EQ(replicas[0].inflight, 0);
}

TEST(ReplicationTest, AllReplicasFailedRethrowsLastError) {
  const auto matrix = shared_matrix(200, 32, 4.0, 75);
  const auto healthy = ShardedIndexBuilder()
                           .matrix(matrix)
                           .shards(2)
                           .inner_backend("exact-sort")
                           .replicas(2)
                           .build();
  auto shards = with_throwing_replica(*healthy, 0);
  // Shard 0 loses its second replica as well: the whole shard is down.
  shards[0].replicas[1] = std::make_shared<test::ThrowingIndex>(
      shards[0].replicas[1], "second replica down");
  const ShardedIndex dead(std::move(shards), "sharded-dead");

  const std::vector<float> x(32, 0.1f);
  try {
    (void)dead.query(x, 5);
    FAIL() << "query over an all-failed shard did not throw";
  } catch (const std::runtime_error& error) {
    // The LAST error in failover order surfaces.
    EXPECT_NE(std::string(error.what()).find("replica"), std::string::npos)
        << error.what();
  }
  EXPECT_THROW((void)dead.query_batch({x}, 5), std::runtime_error);
  const auto replicas = dead.replica_stats(0);
  EXPECT_GE(replicas[0].failures + replicas[1].failures, 2u);
  EXPECT_FALSE(replicas[0].healthy);
  EXPECT_FALSE(replicas[1].healthy);
}

/// Fails its first `failures` calls, then serves normally — a replica
/// with a transient fault.
class FlakyIndex final : public index::SimilarityIndex {
 public:
  FlakyIndex(std::shared_ptr<const index::SimilarityIndex> inner,
             std::uint64_t failures)
      : inner_(std::move(inner)), remaining_(failures) {}

  [[nodiscard]] index::QueryResult query(
      std::span<const float> x, int top_k,
      const index::QueryOptions& options = {}) const override {
    if (remaining_.load(std::memory_order_relaxed) > 0) {
      remaining_.fetch_sub(1, std::memory_order_relaxed);
      throw std::runtime_error("transient fault");
    }
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
  mutable std::atomic<std::uint64_t> remaining_;
};

TEST(ReplicationTest, TransientlyFailedReplicaRejoinsViaRecoveryProbe) {
  // One blip must not drain a replica forever: routing skips an
  // unhealthy replica, but every 16th pick probes one, and a probe
  // that succeeds flips it healthy again.
  const auto matrix = shared_matrix(300, 32, 4.0, 86);
  const auto healthy = ShardedIndexBuilder()
                           .matrix(matrix)
                           .shards(1)
                           .inner_backend("cpu-heap")
                           .replicas(2)
                           .routing(RoutingPolicy::kRoundRobin)
                           .build();
  auto shards = std::vector<Shard>{healthy->shard(0)};
  shards[0].replicas[0] =
      std::make_shared<FlakyIndex>(shards[0].replicas[0], 1);
  const ShardedIndex flaky(std::move(shards), "sharded-flaky",
                           RoutingPolicy::kRoundRobin);

  const std::vector<float> x(32, 0.1f);
  const auto reference = healthy->query(x, 5).entries;
  // Pick 0 routes to replica 0, absorbs the one transient failure and
  // marks it unhealthy; picks 1..14 route around it; pick 15 probes it,
  // succeeds, and flips it back to healthy.
  for (int q = 0; q < 20; ++q) {
    EXPECT_EQ(flaky.query(x, 5).entries, reference) << "query " << q;
  }
  const auto replicas = flaky.replica_stats(0);
  EXPECT_EQ(replicas[0].failures, 1u);
  EXPECT_TRUE(replicas[0].healthy);
  EXPECT_GT(replicas[0].queries, 0u);   // served again after recovery
  EXPECT_GT(replicas[1].queries, 0u);
  EXPECT_EQ(replicas[0].queries + replicas[1].queries, 20u);
}

// ------------------------------------------------------------------ routing

TEST(ReplicationTest, RoundRobinSpreadsQueriesAcrossReplicas) {
  const auto matrix = shared_matrix(400, 32, 4.0, 76);
  const auto sharded = ShardedIndexBuilder()
                           .matrix(matrix)
                           .shards(2)
                           .inner_backend("cpu-heap")
                           .replicas(2)
                           .routing(RoutingPolicy::kRoundRobin)
                           .build();
  const std::vector<float> x(32, 0.1f);
  for (int q = 0; q < 4; ++q) {
    (void)sharded->query(x, 5);
  }
  for (std::size_t s = 0; s < sharded->shard_count(); ++s) {
    const auto replicas = sharded->replica_stats(s);
    EXPECT_EQ(replicas[0].queries, 2u) << "shard " << s;
    EXPECT_EQ(replicas[1].queries, 2u) << "shard " << s;
  }
}

TEST(ReplicationTest, LeastLoadedExploresUnmeasuredReplicasFirst) {
  const auto matrix = shared_matrix(400, 32, 4.0, 77);
  const auto sharded = ShardedIndexBuilder()
                           .matrix(matrix)
                           .shards(2)
                           .inner_backend("cpu-heap")
                           .replicas(3)
                           .routing(RoutingPolicy::kLeastLoaded)
                           .build();
  const std::vector<float> x(32, 0.1f);
  // Serial traffic: all in-flight counts are 0, so the EWMA tie-break
  // sends each of the first three queries to a different (still
  // unmeasured, EWMA = 0) replica before any repeats.
  for (int q = 0; q < 3; ++q) {
    (void)sharded->query(x, 5);
  }
  for (std::size_t s = 0; s < sharded->shard_count(); ++s) {
    const auto replicas = sharded->replica_stats(s);
    for (std::size_t r = 0; r < replicas.size(); ++r) {
      EXPECT_EQ(replicas[r].queries, 1u) << "shard " << s << " replica " << r;
      EXPECT_GT(replicas[r].ewma_seconds, 0.0);
    }
  }
}

// --------------------------------------------- top_k vs small-shard gather

TEST(ReplicationTest, TopKLargerThanSmallestShardGathersMinTopKRows) {
  // 15 rows split even-rows across 4 shards -> 4+4+4+3: the last shard
  // holds fewer rows than top_k = 10 and must contribute exactly its 3
  // rows to the gather, at every replica count.
  const auto matrix = shared_matrix(15, 32, 4.0, 78);
  const index::ExactSortIndex flat(matrix);
  util::Xoshiro256 rng(79);
  const auto x = sparse::generate_dense_vector(32, rng);
  for (const int replicas : {1, 2, 3}) {
    const auto sharded = ShardedIndexBuilder()
                             .matrix(matrix)
                             .shards(4)
                             .policy(ShardPolicy::kEvenRows)
                             .inner_backend("exact-sort")
                             .replicas(replicas)
                             .build();
    ASSERT_EQ(sharded->shard(3).range.rows(), 3u);
    const auto result = sharded->query(x, 10);
    EXPECT_EQ(result.entries, flat.query(x, 10).entries) << "R=" << replicas;
    EXPECT_EQ(result.entries.size(), 10u);
    // Every shard contributes min(top_k, shard rows): 4 + 4 + 4 + 3.
    ASSERT_NE(index::shard_stats(result), nullptr);
    EXPECT_EQ(index::shard_stats(result)->gathered_candidates, 15u);

    // top_k above the whole collection: min(top_k, rows) global rows.
    const auto all = sharded->query(x, 40);
    EXPECT_EQ(all.entries, flat.query(x, 40).entries);
    EXPECT_EQ(all.entries.size(), 15u);
  }
}

// ----------------------------------------------------- registry + builders

TEST(ReplicationTest, RegistryAndIndexBuilderForwardReplicas) {
  const auto matrix = shared_matrix(500, 64, 6.0, 80);
  index::IndexOptions options;
  options.shards = 2;
  options.replicas = 2;
  const auto replicated =
      index::make_index("sharded-cpu-heap", matrix, options);
  const auto flat = index::make_index("cpu-heap", matrix);
  util::Xoshiro256 rng(81);
  const auto x = sparse::generate_dense_vector(64, rng);
  const auto result = replicated->query(x, 10);
  EXPECT_EQ(result.entries, flat->query(x, 10).entries);
  ASSERT_NE(index::shard_stats(result), nullptr);
  EXPECT_EQ(index::shard_stats(result)->replicas, 2);

  // Non-positive counts are clamped by the factory (generic sweeps),
  // but the explicit builder rejects them.
  options.replicas = 0;
  const auto clamped = index::make_index("sharded-cpu-heap", matrix, options);
  const auto clamped_result = clamped->query(x, 10);
  ASSERT_NE(index::shard_stats(clamped_result), nullptr);
  EXPECT_EQ(index::shard_stats(clamped_result)->replicas, 1);
  EXPECT_THROW(
      (void)ShardedIndexBuilder().matrix(matrix).replicas(0).build(),
      std::invalid_argument);

  index::IndexOptions replicated_options;
  replicated_options.shards = 3;
  replicated_options.replicas = 2;
  const auto built =
      index::make_index("sharded-exact-sort", matrix, replicated_options);
  const auto built_result = built->query(x, 10);
  ASSERT_NE(index::shard_stats(built_result), nullptr);
  EXPECT_EQ(index::shard_stats(built_result)->replicas, 2);
}

// --------------------------------------------------- replicated warm loads

class ReplicatedDeploymentTest : public test::TempDirFixture {};

TEST_F(ReplicatedDeploymentTest, DeploymentLoadsReplicasBitIdentically) {
  const auto matrix = shared_matrix(600, 64, 6.0, 82);
  const auto cold = test::build_test_sharded(matrix, 2, "cpu-heap");
  persist::save_deployment(*cold, dir());

  index::IndexOptions options;
  options.replicas = 2;
  const auto warm = ShardedIndexBuilder::from_deployment(dir(), options);
  for (std::size_t s = 0; s < warm->shard_count(); ++s) {
    EXPECT_EQ(warm->replica_count(s), 2u);
  }
  util::Xoshiro256 rng(83);
  for (int q = 0; q < 3; ++q) {
    const auto x = sparse::generate_dense_vector(64, rng);
    EXPECT_EQ(warm->query(x, 12).entries, cold->query(x, 12).entries)
        << "query " << q;
  }

  // The registry warm path honours the knob too (no matrix needed).
  index::IndexOptions registry_options;
  registry_options.deployment_dir = dir().string();
  registry_options.replicas = 2;
  const auto via_registry =
      index::make_index("sharded-cpu-heap", nullptr, registry_options);
  const auto x = sparse::generate_dense_vector(64, rng);
  const auto result = via_registry->query(x, 12);
  EXPECT_EQ(result.entries, cold->query(x, 12).entries);
  ASSERT_NE(index::shard_stats(result), nullptr);
  EXPECT_EQ(index::shard_stats(result)->replicas, 2);
}

TEST_F(ReplicatedDeploymentTest, FpgaImagesReplayPerReplica) {
  // The fpga-sim image path re-reads the device image once per replica
  // (streams move into each accelerator); the replicas must serve
  // bit-identically to the cold index and to each other via failover.
  const auto matrix = shared_matrix(300, 64, 6.0, 84);
  index::IndexOptions build_options;
  build_options.design = core::DesignConfig::fixed(20, 4);
  const auto cold =
      test::build_test_sharded(matrix, 2, "fpga-sim", build_options);
  persist::save_deployment(*cold, dir());

  index::IndexOptions load_options;
  load_options.replicas = 2;
  const auto warm = ShardedIndexBuilder::from_deployment(dir(), load_options);
  for (std::size_t s = 0; s < warm->shard_count(); ++s) {
    ASSERT_EQ(warm->replica_count(s), 2u);
  }
  util::Xoshiro256 rng(85);
  const auto x = sparse::generate_dense_vector(64, rng);
  EXPECT_EQ(warm->query(x, 10).entries, cold->query(x, 10).entries);

  // Kill replica 0 everywhere: failover onto the second loaded image
  // must reproduce the same bits.
  const ShardedIndex faulty(with_throwing_replica(*warm, 0),
                            "sharded-faulty");
  EXPECT_EQ(faulty.query(x, 10).entries, cold->query(x, 10).entries);
}

// ------------------------------------------------- stats under failover load

TEST(ReplicationTest, StatsSnapshotsStayCoherentUnderFailoverLoad) {
  // The TSan leg's probe of the ReplicaState surface: reader threads
  // hammer replica_stats() and per-query ShardStats while query
  // threads drive both failing (replica 0 throws) and succeeding
  // calls, exercising every counter — queries, failures, inflight,
  // ewma, health flips and the mutex-guarded last_error string —
  // concurrently with the snapshots.
  const auto matrix = shared_matrix(400, 32, 5.0, 91);
  const auto healthy = ShardedIndexBuilder()
                           .matrix(matrix)
                           .shards(3)
                           .inner_backend("cpu-heap")
                           .replicas(2)
                           .build();
  const ShardedIndex faulty(with_throwing_replica(*healthy, 0),
                            "sharded-faulty", RoutingPolicy::kRoundRobin);
  const index::CpuHeapIndex flat(matrix);

  constexpr int kQueryThreads = 3;
  constexpr int kQueriesPerThread = 120;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> snapshots{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        for (std::size_t s = 0; s < faulty.shard_count(); ++s) {
          const auto replicas = faulty.replica_stats(s);
          ASSERT_EQ(replicas.size(), 2u);
          for (const index::ReplicaStats& replica : replicas) {
            // Invariants that hold at any instant mid-run.  (failures
            // and last_error are updated in separate steps, so their
            // implication is NOT an instant invariant — the string is
            // only touched, which is what TSan needs to see.)
            EXPECT_GE(replica.inflight, 0);
            EXPECT_GE(replica.ewma_seconds, 0.0);
            EXPECT_LE(replica.last_error.size(), std::size_t{256});
          }
        }
        snapshots.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::vector<std::thread> queriers;
  for (int t = 0; t < kQueryThreads; ++t) {
    queriers.emplace_back([&, t] {
      util::Xoshiro256 rng(92 + static_cast<std::uint64_t>(t));
      for (int q = 0; q < kQueriesPerThread; ++q) {
        const auto x = sparse::generate_dense_vector(32, rng);
        // Every query fails over (or routes around) replica 0 and must
        // still return the unreplicated answer bit-for-bit.
        EXPECT_EQ(faulty.query(x, 10).entries, flat.query(x, 10).entries);
      }
    });
  }
  for (auto& thread : queriers) {
    thread.join();
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& thread : readers) {
    thread.join();
  }
  EXPECT_GT(snapshots.load(std::memory_order_relaxed), 0u);

  // Settled state: in-flight drained, replica 1 served every cell,
  // replica 0 recorded only failures.
  std::uint64_t served = 0;
  for (std::size_t s = 0; s < faulty.shard_count(); ++s) {
    const auto replicas = faulty.replica_stats(s);
    EXPECT_EQ(replicas[0].inflight, 0) << "shard " << s;
    EXPECT_EQ(replicas[1].inflight, 0) << "shard " << s;
    EXPECT_EQ(replicas[0].queries, 0u) << "shard " << s;
    EXPECT_EQ(replicas[1].failures, 0u) << "shard " << s;
    served += replicas[1].queries;
  }
  EXPECT_EQ(served, static_cast<std::uint64_t>(kQueryThreads) *
                        kQueriesPerThread * faulty.shard_count());
}

}  // namespace
}  // namespace topk::shard
