// Small running-statistics helpers shared by tests and benches.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace topk::util {

/// Online mean/min/max accumulator.
class RunningStats {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Returns the q-quantile (q in [0,1]) of `values` by linear
/// interpolation on a sorted copy.  Throws std::invalid_argument on an
/// empty input or q outside [0,1].
[[nodiscard]] double quantile(std::span<const double> values, double q);

}  // namespace topk::util
