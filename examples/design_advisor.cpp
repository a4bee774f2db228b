// Design advisor: given a workload (collection size, embedding
// dimension, density, K) and an accuracy target, recommend an
// accelerator configuration — the interactive face of the paper's
// future-work "adaptive precision" idea.  The recommendation is then
// validated empirically: the advised design is instantiated as an
// "fpga-sim" SimilarityIndex over a sampled workload and its recall
// measured against the exact backend through the same unified API.
//
//   $ ./design_advisor [rows] [cols] [nnz_per_row] [K] [min_precision]
//   $ ./design_advisor 5000000 512 20 50 0.995
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>

#include "eval/ranking.hpp"
#include "hbmsim/design_space.hpp"
#include "hbmsim/power_model.hpp"
#include "index/registry.hpp"
#include "sparse/generator.hpp"
#include "util/table.hpp"

namespace {

/// Instantiates the advised design on a sampled workload and measures
/// recall@K against the exact backend — closing the loop between the
/// analytic precision model and the functional simulator.
void validate_recommendation(const topk::hbmsim::WorkloadGoal& goal,
                             const topk::core::DesignConfig& design,
                             double nnz_per_row) {
  topk::sparse::GeneratorConfig generator;
  generator.rows = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(goal.rows, 20'000));
  generator.cols = goal.cols;
  generator.mean_nnz_per_row = nnz_per_row;
  generator.seed = 9;
  const auto matrix = std::make_shared<const topk::sparse::Csr>(
      topk::sparse::generate_matrix(generator));

  topk::index::IndexOptions options;
  options.design = design;
  const auto advised = topk::index::make_index("fpga-sim", matrix, options);
  const auto exact = topk::index::make_index("exact-sort", matrix);
  const int top_k = std::min(goal.top_k, advised->max_top_k());

  topk::util::Xoshiro256 rng(10);
  double recall_sum = 0.0;
  constexpr int kProbes = 5;
  for (int q = 0; q < kProbes; ++q) {
    const auto x =
        topk::sparse::generate_dense_vector(generator.cols, rng);
    const auto approx = advised->query(x, top_k);
    const auto truth = exact->query(x, top_k);
    std::vector<std::uint32_t> approx_rows;
    std::vector<std::uint32_t> truth_rows;
    for (const auto& entry : approx.entries) {
      approx_rows.push_back(entry.index);
    }
    for (const auto& entry : truth.entries) {
      truth_rows.push_back(entry.index);
    }
    recall_sum += topk::eval::precision_at_k(approx_rows, truth_rows);
  }
  std::cout << "Empirical check (" << generator.rows << "-row sample, "
            << kProbes << " probes): recall@" << top_k << " = "
            << topk::util::format_double(recall_sum / kProbes, 4)
            << " on the advised design, vs the " << goal.min_precision
            << " analytic floor.\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  topk::hbmsim::WorkloadGoal goal;
  goal.rows = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 10'000'000;
  goal.cols = argc > 2 ? static_cast<std::uint32_t>(std::atoi(argv[2])) : 1024;
  const double nnz_per_row = argc > 3 ? std::atof(argv[3]) : 20.0;
  goal.nnz = static_cast<std::uint64_t>(goal.rows * nnz_per_row);
  goal.top_k = argc > 4 ? std::atoi(argv[4]) : 100;
  goal.min_precision = argc > 5 ? std::atof(argv[5]) : 0.99;

  std::cout << "Workload: N = " << goal.rows << ", M = " << goal.cols
            << ", nnz = " << goal.nnz << ", K = " << goal.top_k
            << ", precision floor = " << goal.min_precision << "\n\n";

  std::optional<topk::core::DesignConfig> first_feasible;
  for (const auto& board : topk::hbmsim::all_boards()) {
    std::cout << "=== " << board.name << " ===\n";
    try {
      const auto fastest = topk::hbmsim::recommend_fastest(goal, board);
      const auto cheapest = topk::hbmsim::recommend_cheapest(goal, board, 1.5);

      topk::util::TablePrinter table(
          {"Objective", "Design", "k", "B", "E[P]", "Latency", "Power"});
      const auto add = [&](const char* objective,
                           const topk::hbmsim::OperatingPoint& point) {
        table.add_row({objective, point.design.name(),
                       std::to_string(point.design.k),
                       std::to_string(point.layout.capacity),
                       topk::util::format_double(point.expected_precision, 4),
                       topk::util::format_double(point.modelled_seconds * 1e3, 2) +
                           " ms",
                       topk::util::format_double(point.modelled_power_w, 0) +
                           " W"});
      };
      add("fastest", fastest);
      add("cheapest (<=1.5x slower)", cheapest);
      table.print(std::cout);

      const double gnnz =
          static_cast<double>(goal.nnz) / fastest.modelled_seconds / 1e9;
      std::cout << "Projected throughput: "
                << topk::util::format_double(gnnz, 1) << " Gnnz/s; device "
                << "image needs "
                << topk::util::format_bytes(
                       static_cast<double>(goal.nnz) / fastest.layout.capacity *
                       fastest.layout.bytes_per_packet())
                << " of HBM (capacity "
                << topk::util::format_bytes(
                       static_cast<double>(board.hbm.capacity_bytes))
                << ").\n\n";
      if (!first_feasible) {
        first_feasible = fastest.design;
      }
    } catch (const std::exception& error) {
      std::cout << "no feasible design: " << error.what() << "\n\n";
    }
  }

  if (first_feasible) {
    validate_recommendation(goal, *first_feasible, nnz_per_row);
  }

  std::cout << "Tip: loosen the precision floor or lower K to unlock "
               "narrower value types (higher B, faster streaming).\n";
  return 0;
}
