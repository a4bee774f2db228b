// Design-space exploration: adaptive precision and parallelism
// selection (paper section VI, future work).
//
// The paper's conclusion proposes "adaptive compressed matrix
// representations by reconfiguring the FPGA in terms of numerical
// precision to guarantee desired targets of accuracy or performance".
// This module composes the three calibrated models — precision
// (Eq. 1), timing (clock/II/bandwidth) and resources (Table II) — to
// enumerate the (V, k, r, cores) design space for a given workload and
// pick operating points:
//
//   * recommend_fastest(goal, board): minimum modelled latency subject
//     to a precision floor and board feasibility;
//   * recommend_cheapest(goal, board): minimum modelled power subject
//     to the same constraints (the "smaller cards" scenario).
#pragma once

#include <cstdint>
#include <vector>

#include "core/design.hpp"
#include "core/packet_layout.hpp"
#include "hbmsim/boards.hpp"
#include "hbmsim/timing_model.hpp"

namespace topk::hbmsim {

/// The workload a design is being selected for.
struct WorkloadGoal {
  std::uint64_t rows = 10'000'000;  ///< N
  std::uint32_t cols = 1024;        ///< M
  std::uint64_t nnz = 200'000'000;  ///< total non-zeros
  int top_k = 100;                  ///< K requested at query time
  /// Floor on the expected Top-K precision (Eq. 1 model).
  double min_precision = 0.99;
  /// Floor on value resolution: require V >= this many bits (guards
  /// against quantisation error, which Eq. 1 does not model).
  int min_value_bits = 10;
};

/// One evaluated configuration.
struct OperatingPoint {
  core::DesignConfig design;
  core::PacketLayout layout;
  double expected_precision = 0.0;  ///< Eq. 1 model at goal.top_k
  double modelled_seconds = 0.0;    ///< timing model for goal.nnz
  double modelled_power_w = 0.0;    ///< resource-model board power
  bool fits = false;                ///< resources fit the board
  bool meets_precision = false;     ///< precision >= goal floor

  [[nodiscard]] bool feasible() const noexcept {
    return fits && meets_precision;
  }
};

/// Validates a goal; throws std::invalid_argument on zero sizes,
/// precision outside (0, 1], or min_value_bits outside [2, 32].
void validate(const WorkloadGoal& goal);

/// Evaluates a single configuration against a goal/board.
[[nodiscard]] OperatingPoint evaluate_design(const core::DesignConfig& design,
                                             const WorkloadGoal& goal,
                                             const BoardProfile& board);

/// Fastest feasible point over the default grid: V in
/// {8,12,16,20,25,32} (>= the goal's floor), k in {4, 8, 16}, cores in
/// {8, 16, channels}, float32 included; r fixed at 8.  Throws
/// std::runtime_error if no grid point satisfies the goal on this
/// board.
[[nodiscard]] OperatingPoint recommend_fastest(const WorkloadGoal& goal,
                                               const BoardProfile& board);

/// Lowest-power feasible point that is at most `slowdown_budget` times
/// slower than the fastest feasible point.  Throws std::runtime_error
/// if nothing is feasible.
[[nodiscard]] OperatingPoint recommend_cheapest(const WorkloadGoal& goal,
                                                const BoardProfile& board,
                                                double slowdown_budget = 1.5);

}  // namespace topk::hbmsim
