// Sharded serving demo — the host-scale version of the paper's
// multi-core design, with a persistent-deployment warm-restart path
// and per-shard replica sets.  A 60k-row collection is split into four
// nnz-balanced row-range shards served by mixed backends (three
// fpga-sim shards plus one exact cpu-heap straggler), and the
// composite ShardedIndex — itself a SimilarityIndex — serves batch and
// async traffic through the backend-agnostic serve::QueryEngine.
// Queries scatter across the shards on the shared thread pool; each
// (query, shard) cell routes to one replica (least-loaded) and fails
// over on error; the gather is a deterministic k-way merge, with the
// scatter described by the index::ShardStats extension (width,
// replicas, critical-path shard, candidates merged, failovers).
//
//   $ ./sharded_service                 # build the index, serve
//   $ ./sharded_service --replicas 2    # replica pairs + failover demo
//   $ ./sharded_service --save DIR      # also persist it as a deployment
//   $ ./sharded_service --load DIR      # warm restart: replay the images
//                                       # (no encoder) and serve
//   $ ./sharded_service --mutate        # mutable tier: absorb live
//                                       # inserts/deletes, compact, and
//                                       # prove bit-identical serving
//
// --replicas N composes with both paths: a cold build constructs N
// registry replicas per shard, a warm load replays each shard's
// digest-verified image N times.  With N >= 2 the demo additionally
// injects a fault — replica 0 of every shard is wrapped in an index
// that throws on every call — and proves failover serves results
// bit-identical to the healthy index, with the absorbed failures
// visible in the per-replica stats.
//
// --save additionally records a SHA-256 digest of every query result;
// --load recomputes it in the fresh process and fails unless the
// warm-loaded index reproduced the cold process's results bit for bit
// — the cross-process reuse proof CI runs (with --replicas 2, the
// replicated warm load must reproduce the unreplicated cold results).
// Observability: --metrics-dump FILE writes the Prometheus text
// exposition to FILE, the JSON snapshot to FILE.json, and the Chrome
// trace-event JSON (chrome://tracing) to FILE.trace.json at exit;
// --stats-every SEC prints a one-line human digest to stderr on that
// period while the demo runs.  Machine-readable output goes to the
// chosen sink, diagnostics to stderr — stdout stays the demo's report.
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "index/mutable_index.hpp"
#include "index/registry.hpp"
#include "persist/compactor.hpp"
#include "persist/deployment.hpp"
#include "persist/digest.hpp"
#include "serve/query_engine.hpp"
#include "shard/mutable_sharded_index.hpp"
#include "shard/sharded_index.hpp"
#include "sparse/generator.hpp"
#include "telemetry/exposition.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

constexpr int kBatch = 16;
constexpr int kAsync = 8;
constexpr int kTopK = 40;
constexpr std::uint32_t kCols = 1024;
constexpr const char* kResultsDigestFile = "results.sha256";

/// Sum of one family's series values in a registry snapshot (0 when
/// the family has not been registered yet).
double metric_value(
    const std::vector<topk::telemetry::FamilySnapshot>& families,
    const std::string& name) {
  for (const auto& family : families) {
    if (family.name != name) {
      continue;
    }
    double total = 0.0;
    for (const auto& series : family.series) {
      total += series.value;
    }
    return total;
  }
  return 0.0;
}

/// Scoped telemetry session: enables the trace recorder when a dump
/// file was requested, runs the --stats-every stderr ticker, and
/// writes the exposition files when it goes out of scope — so every
/// exit path of the demo dumps the same way.
class TelemetrySession {
 public:
  TelemetrySession(std::filesystem::path dump, double stats_every_seconds)
      : dump_(std::move(dump)) {
    if (!dump_.empty()) {
      topk::telemetry::tracer().enable();
    }
    if (stats_every_seconds > 0.0) {
      ticker_ = std::thread([this, stats_every_seconds] {
        run_ticker(stats_every_seconds);
      });
    }
  }

  TelemetrySession(const TelemetrySession&) = delete;
  TelemetrySession& operator=(const TelemetrySession&) = delete;

  ~TelemetrySession() {
    stop_.store(true, std::memory_order_relaxed);
    if (ticker_.joinable()) {
      ticker_.join();
    }
    if (dump_.empty()) {
      return;
    }
    const auto parent = dump_.parent_path();
    if (!parent.empty()) {
      std::filesystem::create_directories(parent);
    }
    const auto families = topk::telemetry::registry().snapshot();
    {
      std::ofstream out(dump_);
      topk::telemetry::write_prometheus(out, families);
    }
    {
      std::ofstream out(dump_.string() + ".json");
      topk::telemetry::write_json(out, families);
    }
    {
      std::ofstream out(dump_.string() + ".trace.json");
      topk::telemetry::tracer().write_chrome_trace(out);
    }
    std::cerr << "telemetry: wrote " << dump_.string() << " (Prometheus), "
              << dump_.string() << ".json (snapshot), " << dump_.string()
              << ".trace.json (" << topk::telemetry::tracer().snapshot().size()
              << " spans, " << topk::telemetry::tracer().dropped()
              << " dropped)\n";
  }

 private:
  void run_ticker(double period_seconds) {
    // Sleep in short slices so shutdown never waits a whole period.
    const auto slice = std::chrono::milliseconds(50);
    auto next = std::chrono::steady_clock::now() +
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(period_seconds));
    while (!stop_.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(slice);
      if (std::chrono::steady_clock::now() < next) {
        continue;
      }
      next += std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(period_seconds));
      const auto families = topk::telemetry::registry().snapshot();
      std::cerr << "[stats t=" << topk::util::format_double(
                       topk::telemetry::now_seconds(), 1)
                << "s] queries="
                << metric_value(families, "topk_engine_queries_total")
                << " cells=" << metric_value(families, "topk_shard_cells_total")
                << " failovers="
                << metric_value(families, "topk_shard_failovers_total")
                << " queue="
                << metric_value(families, "topk_engine_queue_depth")
                << " delta_rows=" << metric_value(families, "topk_delta_rows")
                << " compactions="
                << metric_value(families, "topk_compactions_total") << "\n";
    }
  }

  std::filesystem::path dump_;
  std::atomic<bool> stop_{false};
  std::thread ticker_;
};

/// SHA-256 over every result's (row id, score) pairs in serve order —
/// one number that two processes can compare to prove bit-identical
/// serving.
std::string results_digest(
    const std::vector<topk::index::QueryResult>& results) {
  topk::persist::Sha256 hasher;
  for (const auto& result : results) {
    for (const auto& entry : result.entries) {
      hasher.update(&entry.index, sizeof(entry.index));
      hasher.update(&entry.value, sizeof(entry.value));
    }
  }
  const auto digest = hasher.finish();
  return topk::persist::sha256_hex({digest.data(), digest.size()});
}

/// A replica device that is down: every call throws.  Metadata still
/// forwards, so the replica set validates — exactly the failure mode
/// failover exists for.
class DownReplica final : public topk::index::SimilarityIndex {
 public:
  explicit DownReplica(
      std::shared_ptr<const topk::index::SimilarityIndex> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] topk::index::QueryResult query(
      std::span<const float> /*x*/, int /*top_k*/,
      const topk::index::QueryOptions& /*options*/ = {}) const override {
    throw std::runtime_error("injected fault: replica device down");
  }
  [[nodiscard]] std::uint32_t rows() const noexcept override {
    return inner_->rows();
  }
  [[nodiscard]] std::uint32_t cols() const noexcept override {
    return inner_->cols();
  }
  [[nodiscard]] topk::index::IndexDescription describe() const override {
    return inner_->describe();
  }
  [[nodiscard]] int max_top_k() const noexcept override {
    return inner_->max_top_k();
  }

 private:
  std::shared_ptr<const topk::index::SimilarityIndex> inner_;
};

/// Fault-injection proof: replica 0 of every shard goes down; the
/// replicated index must absorb every failure and reproduce the
/// healthy index's results bit for bit.  Returns false on any
/// disagreement.
bool run_failover_demo(const topk::shard::ShardedIndex& healthy,
                       const std::vector<std::vector<float>>& queries,
                       const std::string& healthy_digest) {
  std::vector<topk::shard::Shard> shards;
  for (std::size_t s = 0; s < healthy.shard_count(); ++s) {
    shards.push_back(healthy.shard(s));
    shards.back().replicas[0] =
        std::make_shared<DownReplica>(shards.back().replicas[0]);
  }
  const topk::shard::ShardedIndex faulty(std::move(shards), "sharded-faulty",
                                         healthy.routing());

  auto results = faulty.query_batch(queries, kTopK);
  std::uint64_t failovers = 0;
  for (const auto& result : results) {
    const topk::index::ShardStats* scatter = topk::index::shard_stats(result);
    if (scatter != nullptr) {
      failovers += scatter->failovers;
    }
  }
  std::uint64_t absorbed_failures = 0;
  std::uint64_t surviving_queries = 0;
  for (std::size_t s = 0; s < faulty.shard_count(); ++s) {
    for (const auto& replica : faulty.replica_stats(s)) {
      absorbed_failures += replica.failures;
      surviving_queries += replica.queries;
    }
  }
  const std::string digest = results_digest(results);
  const bool identical = digest == healthy_digest;
  std::cout << "\nFault injection: replica 0 of every shard down — "
            << failovers << " cells failed over, " << absorbed_failures
            << " failures absorbed, " << surviving_queries
            << " cells served by the survivors; results vs healthy index: "
            << (identical ? "bit-identical" : "MISMATCH") << "\n";
  return identical;
}

/// Mutable-tier demo: a mutable-sharded index absorbs live inserts and
/// deletes while serving through the engine, compaction folds the
/// delta into a fresh sealed generation off the serving path, and both
/// the pre- and post-compaction results must be bit-identical to an
/// exact-sort index rebuilt cold from the logically-equivalent matrix.
/// Returns the process exit code.
int run_mutate_demo(int replicas) {
  constexpr std::uint32_t kRows = 20'000;
  constexpr std::uint32_t kAppends = 200;

  topk::sparse::GeneratorConfig generator;
  generator.rows = kRows;
  generator.cols = kCols;
  generator.mean_nnz_per_row = 20.0;
  generator.seed = 23;
  const auto matrix = std::make_shared<const topk::sparse::Csr>(
      topk::sparse::generate_matrix(generator));
  // The appended rows come from a second generated matrix so the
  // logically-equivalent rebuild below can splice them back in.
  generator.rows = kAppends;
  generator.seed = 24;
  const topk::sparse::Csr appended = topk::sparse::generate_matrix(generator);

  topk::index::IndexOptions options;
  options.shards = 4;
  options.replicas = replicas;
  const auto index =
      topk::index::make_index("mutable-sharded-cpu-heap", matrix, options);
  const auto mut = topk::index::as_mutable(index);
  const auto typed =
      std::dynamic_pointer_cast<topk::shard::MutableShardedIndex>(index);

  // Live mutations: append every extra row, tombstone three base rows.
  const std::vector<std::uint32_t> deleted = {7, 1'234, 9'999};
  for (std::uint32_t r = 0; r < appended.rows(); ++r) {
    (void)mut->insert_row(appended.row_cols(r), appended.row_values(r));
  }
  for (const std::uint32_t id : deleted) {
    if (!mut->delete_row(id)) {
      std::cerr << "delete of live row " << id << " was a no-op\n";
      return 1;
    }
  }

  // The oracle: exact-sort over the logically-equivalent matrix (live
  // base rows then appended rows, ascending id), ids remapped back.
  std::vector<std::uint32_t> live_ids;
  topk::sparse::Coo coo(kRows - 3 + kAppends, kCols);
  for (std::uint32_t r = 0; r < kRows; ++r) {
    if (r == deleted[0] || r == deleted[1] || r == deleted[2]) {
      continue;
    }
    const auto row = static_cast<std::uint32_t>(live_ids.size());
    live_ids.push_back(r);
    const auto cols = matrix->row_cols(r);
    const auto vals = matrix->row_values(r);
    for (std::size_t i = 0; i < cols.size(); ++i) {
      coo.push_back(row, cols[i], vals[i]);
    }
  }
  for (std::uint32_t r = 0; r < appended.rows(); ++r) {
    const auto row = static_cast<std::uint32_t>(live_ids.size());
    live_ids.push_back(kRows + r);
    const auto cols = appended.row_cols(r);
    const auto vals = appended.row_values(r);
    for (std::size_t i = 0; i < cols.size(); ++i) {
      coo.push_back(row, cols[i], vals[i]);
    }
  }
  const topk::index::ExactSortIndex rebuilt(
      std::make_shared<const topk::sparse::Csr>(
          topk::sparse::Csr::from_coo(std::move(coo))));

  topk::serve::QueryEngine engine(
      index, {.workers = 0, .max_pending = 64, .latency_window = 1024});
  topk::util::Xoshiro256 rng(25);
  std::vector<std::vector<float>> queries;
  for (int q = 0; q < kBatch; ++q) {
    queries.push_back(topk::sparse::generate_dense_vector(kCols, rng));
  }

  const auto serve_and_check = [&](const std::string& stage) {
    auto results = engine.query_batch(queries, kTopK);
    for (std::size_t q = 0; q < queries.size(); ++q) {
      auto expected = rebuilt.query(queries[q], kTopK).entries;
      for (auto& entry : expected) {
        entry.index = live_ids[entry.index];
      }
      if (results[q].entries != expected) {
        std::cerr << stage << ": query " << q
                  << " differs from the exact-sort rebuild\n";
        return std::string();
      }
    }
    return results_digest(results);
  };

  const auto stats = mut->delta_stats();
  std::cout << "Mutable tier: " << matrix->rows() << " sealed rows + "
            << stats.delta_rows << " delta rows, " << stats.tombstones
            << " tombstones, " << mut->live_rows() << " live (generation "
            << stats.generation << ", " << replicas << " replica(s)/shard)\n";
  const std::string before = serve_and_check("pre-compaction");
  if (before.empty()) {
    return 1;
  }
  std::cout << "Pre-compaction serving vs cold exact rebuild: bit-identical "
               "(digest " << before.substr(0, 12) << "...)\n";

  // Async traffic through the same engine: the admission queue is what
  // mints per-request trace ids, so these are the requests whose
  // queue-wait spans show up in the --metrics-dump trace.
  std::vector<std::future<topk::index::QueryResult>> futures;
  for (int q = 0; q < kAsync; ++q) {
    futures.push_back(
        engine.submit(queries[static_cast<std::size_t>(q) % queries.size()],
                      kTopK));
  }
  for (auto& future : futures) {
    if (future.get().entries.size() != static_cast<std::size_t>(kTopK)) {
      std::cerr << "async result smaller than top-k\n";
      return 1;
    }
  }

  const auto deploy_root = std::filesystem::temp_directory_path() /
                           "topk_sharded_service_mutate";
  std::filesystem::remove_all(deploy_root);
  topk::persist::Compactor compactor(typed, deploy_root);
  const auto report = compactor.compact();
  if (!report.has_value()) {
    std::cerr << "compaction unexpectedly found an empty delta\n";
    return 1;
  }
  topk::util::TablePrinter table({"Compaction", "Value"});
  table.add_row({"Generation swapped in", std::to_string(report->generation)});
  table.add_row({"Folded rows", std::to_string(report->folded_rows)});
  table.add_row({"Inherited tombstones", std::to_string(report->tombstones)});
  table.add_row({"Folded mutations", std::to_string(report->folded_mutations)});
  table.add_row({"Snapshot pause",
                 topk::util::format_double(report->snapshot_seconds * 1e3, 3) +
                     " ms"});
  table.add_row({"Atomic swap pause",
                 topk::util::format_double(report->swap_seconds * 1e3, 3) +
                     " ms"});
  table.add_row({"Total (off serving path)",
                 topk::util::format_double(report->total_seconds * 1e3, 1) +
                     " ms"});
  table.print(std::cout);

  const std::string after = serve_and_check("post-compaction");
  std::filesystem::remove_all(deploy_root);
  if (after.empty()) {
    return 1;
  }
  const bool identical = after == before;
  std::cout << "Post-compaction serving vs pre-compaction: "
            << (identical ? "bit-identical" : "MISMATCH") << " (digest "
            << after.substr(0, 12) << "...)\n";
  return identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  enum class Mode { kCold, kSave, kLoad, kMutate };
  Mode mode = Mode::kCold;
  std::filesystem::path deploy_dir;
  std::filesystem::path metrics_dump;
  double stats_every = 0.0;
  std::uint32_t cold_rows = 60'000;
  int replicas = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if ((arg == "--save" || arg == "--load") && i + 1 < argc) {
      mode = arg == "--save" ? Mode::kSave : Mode::kLoad;
      deploy_dir = argv[++i];
    } else if (arg == "--mutate") {
      mode = Mode::kMutate;
    } else if (arg == "--metrics-dump" && i + 1 < argc) {
      metrics_dump = argv[++i];
    } else if (arg == "--stats-every" && i + 1 < argc) {
      try {
        stats_every = std::stod(argv[++i]);
      } catch (const std::exception&) {
        stats_every = 0.0;
      }
      if (stats_every <= 0.0) {
        std::cerr << "--stats-every needs a positive period in seconds\n";
        return 2;
      }
    } else if (arg == "--rows" && i + 1 < argc) {
      try {
        cold_rows = static_cast<std::uint32_t>(std::stoul(argv[++i]));
      } catch (const std::exception&) {
        cold_rows = 0;
      }
      if (cold_rows < 4) {
        std::cerr << "--rows needs at least one row per shard\n";
        return 2;
      }
    } else if (arg == "--replicas" && i + 1 < argc) {
      try {
        replicas = std::stoi(argv[++i]);
      } catch (const std::exception&) {
        replicas = 0;
      }
      if (replicas < 1) {
        std::cerr << "--replicas needs a positive count\n";
        return 2;
      }
    } else {
      std::cerr << "usage: sharded_service [--replicas N] [--rows N] "
                   "[--metrics-dump FILE] [--stats-every SEC] "
                   "[--save DIR | --load DIR | --mutate]\n";
      return 2;
    }
  }
  // Declared before the demo state so it destructs last: the dump sees
  // every metric the demo recorded, on every exit path below.
  TelemetrySession telemetry(metrics_dump, stats_every);
  if (mode == Mode::kMutate) {
    return run_mutate_demo(replicas);
  }

  // 1. The index: either built cold from the collection (60k sparse
  //    embeddings, M = 1024, ~20 nnz/row; mixed backends — fpga-sim
  //    shards with an exact cpu-heap straggler on the last row range,
  //    the fallback/shadow mix of a partial rollout), or warm-loaded
  //    from a persisted deployment without touching the encoder.  With
  //    --replicas N every shard becomes a replica set: N registry
  //    builds cold, N replays of the same digest-verified image warm.
  std::shared_ptr<topk::shard::ShardedIndex> sharded;
  std::shared_ptr<const topk::sparse::Csr> matrix;
  topk::util::WallTimer index_timer;
  if (mode == Mode::kLoad) {
    topk::index::IndexOptions load_options;
    load_options.replicas = replicas;
    sharded =
        topk::shard::ShardedIndexBuilder::from_deployment(deploy_dir,
                                                          load_options);
    std::cout << "Warm-loaded deployment from " << deploy_dir << " in "
              << topk::util::format_double(index_timer.millis(), 1)
              << " ms (no encoder, " << replicas << " replica(s)/shard)\n";
  } else {
    topk::sparse::GeneratorConfig generator;
    generator.rows = cold_rows;
    generator.cols = kCols;
    generator.mean_nnz_per_row = 20.0;
    generator.seed = 21;
    matrix = std::make_shared<const topk::sparse::Csr>(
        topk::sparse::generate_matrix(generator));
    std::cout << "Collection: " << matrix->rows() << " x " << matrix->cols()
              << ", " << matrix->nnz() << " non-zeros\n";

    topk::index::IndexOptions options;
    options.design = topk::core::DesignConfig::fixed(20, 8);
    index_timer.reset();
    sharded = topk::shard::ShardedIndexBuilder()
                  .matrix(matrix)
                  .shards(4)
                  .policy(topk::shard::ShardPolicy::kNnzBalanced)
                  .inner_backend("fpga-sim")
                  .inner_options(options)
                  .shard_backend(3, "cpu-heap")
                  .replicas(replicas)
                  .label("sharded-mixed")
                  .build();
    std::cout << "Cold-built index in "
              << topk::util::format_double(index_timer.millis(), 1) << " ms ("
              << replicas << " replica(s)/shard)\n";
  }
  const auto description = sharded->describe();
  std::cout << "Index: " << description.backend << " — " << description.detail
            << "\n\n";

  // 2. Serve it exactly like any flat backend: the engine's worker
  //    budget becomes the scatter width of each query.  The workload
  //    is seeded, so a cold and a warm process serve identical
  //    queries.
  topk::serve::QueryEngine engine(
      sharded, {.workers = 0, .max_pending = 64, .latency_window = 1024});

  topk::util::Xoshiro256 rng(22);
  std::vector<std::vector<float>> queries;
  for (int q = 0; q < kBatch + kAsync; ++q) {
    queries.push_back(topk::sparse::generate_dense_vector(kCols, rng));
  }

  topk::util::WallTimer batch_timer;
  auto results =
      engine.query_batch({queries.begin(), queries.begin() + kBatch}, kTopK);
  const double batch_ms = batch_timer.millis();

  std::vector<std::future<topk::index::QueryResult>> futures;
  for (int q = kBatch; q < kBatch + kAsync; ++q) {
    futures.push_back(engine.submit(queries[q], kTopK));
  }
  for (auto& future : futures) {
    results.push_back(future.get());
    if (results.back().entries.size() != static_cast<std::size_t>(kTopK)) {
      std::cerr << "async invariant violated\n";
      return 1;
    }
  }

  // 3. Invariants: every query saw all rows (the shards' rows_scanned
  //    sum to the collection), scattered across all four shards with
  //    the requested replication, gathered at least kTopK candidates,
  //    and — all replicas healthy — never failed over; the
  //    slowest-shard load signal is live for every backend mix.
  for (const auto& result : results) {
    const topk::index::ShardStats* scatter = topk::index::shard_stats(result);
    if (result.entries.size() != static_cast<std::size_t>(kTopK) ||
        result.stats.rows_scanned != sharded->rows() || scatter == nullptr ||
        scatter->shards != 4 || scatter->replicas != replicas ||
        scatter->gathered_candidates < static_cast<std::uint64_t>(kTopK) ||
        scatter->failovers != 0 || scatter->slowest_shard < 0) {
      std::cerr << "scatter-gather invariant violated\n";
      return 1;
    }
  }

  const auto latency = engine.latency_summary();
  const topk::index::ShardStats* scatter =
      topk::index::shard_stats(results.front());
  topk::util::TablePrinter table({"Metric", "Value"});
  table.add_row({"Backend", description.backend});
  table.add_row({"Shards", std::to_string(scatter->shards)});
  table.add_row({"Replicas / shard", std::to_string(scatter->replicas)});
  table.add_row({"Routing policy", topk::shard::to_string(sharded->routing())});
  table.add_row({"Batch + async queries",
                 std::to_string(kBatch) + " + " + std::to_string(kAsync)});
  table.add_row({"Batch wall time",
                 topk::util::format_double(batch_ms, 1) + " ms"});
  table.add_row({"p50 / p99 latency",
                 topk::util::format_double(latency.p50_ms, 1) + " / " +
                     topk::util::format_double(latency.p99_ms, 1) + " ms"});
  table.add_row({"Candidates gathered / query",
                 std::to_string(scatter->gathered_candidates)});
  table.add_row({"Slowest shard (modelled or measured)",
                 std::to_string(scatter->slowest_shard) + " (" +
                     topk::util::format_double(
                         scatter->slowest_seconds * 1e3, 3) +
                     " ms)"});
  table.add_row({"Modelled FPGA critical path",
                 topk::util::format_double(
                     results.front().stats.modelled_seconds * 1e3, 3) +
                     " ms"});
  table.print(std::cout);

  const std::string digest = results_digest(results);

  // 4. Replication: with R >= 2, prove the point of the replica tier —
  //    kill replica 0 of every shard and serve the same workload
  //    bit-identically off the survivors.
  if (replicas >= 2) {
    if (!run_failover_demo(*sharded, queries, digest)) {
      return 1;
    }
  }

  // 5. Persistence: --save writes the deployment images plus the
  //    results digest; --load proves the warm-loaded index reproduced
  //    the cold process's results bit for bit (at any replica count —
  //    replication must never change a bit).
  if (mode == Mode::kSave) {
    topk::util::WallTimer save_timer;
    topk::persist::save_deployment(*sharded, deploy_dir);
    std::ofstream(deploy_dir / kResultsDigestFile) << digest << '\n';
    std::cout << "\nSaved deployment to " << deploy_dir << " in "
              << topk::util::format_double(save_timer.millis(), 1)
              << " ms (results digest " << digest.substr(0, 12) << "...)\n";
  } else if (mode == Mode::kLoad) {
    std::ifstream digest_file(deploy_dir / kResultsDigestFile);
    std::string expected;
    if (!(digest_file >> expected)) {
      std::cerr << "cannot read " << deploy_dir / kResultsDigestFile
                << " (was the deployment saved with --save?)\n";
      return 1;
    }
    const bool identical = digest == expected;
    std::cout << "\nWarm process vs cold process results: "
              << (identical ? "bit-identical" : "MISMATCH") << " (digest "
              << digest.substr(0, 12) << "...)\n";
    if (!identical) {
      return 1;
    }
    return 0;
  }

  // 6. The registry one-liner: a uniform sharded backend is just
  //    another name, and its exact variant agrees with the flat exact
  //    scan bit-for-bit.
  const auto sharded_exact =
      topk::index::make_index("sharded-exact-sort", matrix);
  const auto flat_exact = topk::index::make_index("exact-sort", matrix);
  const bool identical =
      sharded_exact->query(queries.front(), kTopK).entries ==
      flat_exact->query(queries.front(), kTopK).entries;
  std::cout << "\nsharded-exact-sort vs exact-sort on the same query: "
            << (identical ? "bit-identical" : "MISMATCH") << "\n";
  return identical ? 0 : 1;
}
