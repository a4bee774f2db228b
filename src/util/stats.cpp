#include "util/stats.hpp"

#include <algorithm>
#include <stdexcept>

namespace topk::util {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  mean_ += (x - mean_) / static_cast<double>(n_);
}

double quantile(std::span<const double> values, double q) {
  if (values.empty()) {
    throw std::invalid_argument("quantile: empty input");
  }
  if (!(q >= 0.0 && q <= 1.0)) {  // also rejects NaN
    throw std::invalid_argument("quantile: q must be in [0, 1]");
  }
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace topk::util
