#include "hbmsim/design_space.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/precision_model.hpp"
#include "hbmsim/resource_model.hpp"

namespace topk::hbmsim {

void validate(const WorkloadGoal& goal) {
  if (goal.rows == 0 || goal.cols == 0 || goal.nnz == 0) {
    throw std::invalid_argument("WorkloadGoal: sizes must be positive");
  }
  if (goal.top_k <= 0) {
    throw std::invalid_argument("WorkloadGoal: top_k must be positive");
  }
  if (goal.min_precision <= 0.0 || goal.min_precision > 1.0) {
    throw std::invalid_argument("WorkloadGoal: min_precision must be in (0, 1]");
  }
  if (goal.min_value_bits < 2 || goal.min_value_bits > 32) {
    throw std::invalid_argument("WorkloadGoal: min_value_bits out of range");
  }
}

OperatingPoint evaluate_design(const core::DesignConfig& design,
                               const WorkloadGoal& goal,
                               const BoardProfile& board) {
  validate(goal);
  core::validate(design);
  validate(board);

  OperatingPoint point;
  point.design = design;
  point.layout = core::PacketLayout::solve(goal.cols, design.value_bits);

  point.expected_precision = core::expected_precision_closed(
      goal.rows, design.cores, design.k, goal.top_k);
  point.meets_precision =
      point.expected_precision >= goal.min_precision &&
      static_cast<std::int64_t>(design.k) * design.cores >= goal.top_k;

  const ResourceUsage usage = estimate_resources(design, point.layout);
  // The resource model's power figure is calibrated on the U280; remap
  // its static share onto the target board's floor.
  const double dynamic_power_w =
      std::max(0.0, usage.power_w - board_u280().static_power_w);
  point.modelled_power_w = board.static_power_w + dynamic_power_w;
  point.fits = fits_device(usage, board.resources) &&
               point.modelled_power_w <= board.max_power_w &&
               design.cores <= board.hbm.channels;

  const std::uint64_t packets_per_core =
      goal.nnz /
          (static_cast<std::uint64_t>(design.cores) *
           static_cast<std::uint64_t>(point.layout.capacity)) +
      1;
  point.modelled_seconds =
      estimate_query_time(design, point.layout, packets_per_core, goal.nnz,
                          board.hbm)
          .seconds;
  return point;
}

namespace {

/// Every point of the default grid, feasible or not.
std::vector<OperatingPoint> enumerate_design_space(const WorkloadGoal& goal,
                                                   const BoardProfile& board) {
  validate(goal);
  validate(board);

  std::vector<OperatingPoint> points;
  const int core_options[] = {8, 16, board.hbm.channels};
  for (const int value_bits : {8, 12, 16, 20, 25, 32}) {
    if (value_bits < goal.min_value_bits) {
      continue;
    }
    for (const int k : {4, 8, 16}) {
      for (const int cores : core_options) {
        if (static_cast<std::uint64_t>(cores) > goal.rows) {
          continue;
        }
        core::DesignConfig design = core::DesignConfig::fixed(value_bits, cores);
        design.k = k;
        points.push_back(evaluate_design(design, goal, board));
        if (value_bits == 32) {
          core::DesignConfig float_design = core::DesignConfig::float32(cores);
          float_design.k = k;
          points.push_back(evaluate_design(float_design, goal, board));
        }
      }
    }
  }
  return points;
}

std::vector<OperatingPoint> feasible_points(const WorkloadGoal& goal,
                                            const BoardProfile& board) {
  std::vector<OperatingPoint> points = enumerate_design_space(goal, board);
  std::erase_if(points, [](const OperatingPoint& p) { return !p.feasible(); });
  if (points.empty()) {
    throw std::runtime_error(
        "design_space: no feasible operating point for this goal on " +
        board.name);
  }
  return points;
}

}  // namespace

OperatingPoint recommend_fastest(const WorkloadGoal& goal,
                                 const BoardProfile& board) {
  std::vector<OperatingPoint> points = feasible_points(goal, board);
  return *std::min_element(points.begin(), points.end(),
                           [](const OperatingPoint& a, const OperatingPoint& b) {
                             return a.modelled_seconds < b.modelled_seconds;
                           });
}

OperatingPoint recommend_cheapest(const WorkloadGoal& goal,
                                  const BoardProfile& board,
                                  double slowdown_budget) {
  if (slowdown_budget < 1.0) {
    throw std::invalid_argument(
        "recommend_cheapest: slowdown_budget must be >= 1");
  }
  std::vector<OperatingPoint> points = feasible_points(goal, board);
  const double fastest =
      std::min_element(points.begin(), points.end(),
                       [](const OperatingPoint& a, const OperatingPoint& b) {
                         return a.modelled_seconds < b.modelled_seconds;
                       })
          ->modelled_seconds;
  std::erase_if(points, [&](const OperatingPoint& p) {
    return p.modelled_seconds > fastest * slowdown_budget;
  });
  return *std::min_element(points.begin(), points.end(),
                           [](const OperatingPoint& a, const OperatingPoint& b) {
                             if (a.modelled_power_w != b.modelled_power_w) {
                               return a.modelled_power_w < b.modelled_power_w;
                             }
                             return a.modelled_seconds < b.modelled_seconds;
                           });
}

}  // namespace topk::hbmsim
