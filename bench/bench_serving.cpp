// Serving-layer benchmark: every registered SimilarityIndex backend
// served through the identical QueryEngine code path, with
// per-backend throughput and latency percentiles — the
// apples-to-apples comparison the unified index API exists for.  The
// bench exits non-zero if any backend returns a short batch.
//
//   $ ./bench_serving [--full] [--quick] [--queries=N] [--seed=N]
//                     [--threads=N] [--backend=NAME[,NAME...]]
//
// --threads sets the engine's worker count (default 8); --queries
// overrides the query count; --backend restricts the sweep.
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/accelerator.hpp"
#include "index/registry.hpp"
#include "serve/query_engine.hpp"
#include "sparse/generator.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

std::vector<std::vector<float>> make_queries(int count, std::uint32_t cols,
                                             std::uint64_t seed) {
  topk::util::Xoshiro256 rng(seed);
  std::vector<std::vector<float>> queries;
  queries.reserve(static_cast<std::size_t>(count));
  for (int q = 0; q < count; ++q) {
    queries.push_back(topk::sparse::generate_dense_vector(cols, rng));
  }
  return queries;
}

}  // namespace

int main(int argc, char** argv) {
  const topk::bench::BenchArgs args = topk::bench::parse_args(argc, argv);
  const std::vector<std::string> backends = args.selected_backends();

  // Paper-flavoured index: Table III-scale rows (shrunk by default),
  // 512 columns, ~16 nnz/row, 16 cores.
  topk::sparse::GeneratorConfig generator;
  generator.rows = args.scale_rows(500'000, 25.0);
  generator.cols = 512;
  generator.mean_nnz_per_row = 16.0;
  generator.seed = args.seed;
  const auto matrix = std::make_shared<const topk::sparse::Csr>(
      topk::sparse::generate_matrix(generator));
  const auto design = topk::core::DesignConfig::fixed(20, 16);
  constexpr int kTopK = 50;

  std::cout << "Serving bench: " << matrix->rows() << " rows, "
            << matrix->nnz() << " nnz, top-" << kTopK << "\n\n";

  const int workers = args.threads > 0 ? args.threads : 8;
  bool all_complete = true;

  std::cout << "Cross-backend serving (engine batch path, " << workers
            << " workers):\n";
  const int serve_queries = args.queries > 0 ? args.queries : 48;
  const auto queries = make_queries(serve_queries, 512, args.seed + 11);

  topk::util::TablePrinter backend_table(
      {"Backend", "Exact", "q/s", "p50 (ms)", "p99 (ms)", "Index size"});
  for (const std::string& name : backends) {
    topk::index::IndexOptions options;
    options.design = design;
    const std::shared_ptr<const topk::index::SimilarityIndex> index =
        topk::index::make_index(name, matrix, options);
    topk::serve::QueryEngine engine(index, {.workers = workers});

    (void)engine.query_batch({queries.front()}, kTopK);  // warm-up
    engine.reset_latency();
    topk::util::WallTimer timer;
    const auto results = engine.query_batch(queries, kTopK);
    const double seconds = timer.seconds();
    if (results.size() != queries.size()) {
      std::cerr << "FAIL: short batch from " << name << "\n";
      all_complete = false;
    }

    const auto latency = engine.latency_summary();
    const auto description = index->describe();
    backend_table.add_row(
        {name, description.exact ? "yes" : "no",
         topk::util::format_double(serve_queries / seconds, 1),
         topk::util::format_double(latency.p50_ms, 2),
         topk::util::format_double(latency.p99_ms, 2),
         topk::util::format_bytes(
             static_cast<double>(description.memory_bytes))});
  }
  backend_table.print(std::cout);
  std::cout << "\nEvery backend served through the identical QueryEngine "
               "code path; latency digests are directly comparable.\n";
  return all_complete ? 0 : 1;
}
