// Sliding-window latency samples for the serving layer.  The engine
// reads p50/p95/p99 off samples() with util::quantile, so the whole
// stack shares one definition of "p99".
#pragma once

#include <cstddef>
#include <vector>

namespace topk::util {

/// Fixed-capacity ring buffer of the most recent samples.  NOT
/// thread-safe: callers serialise access (the engine guards it with
/// its latency mutex).
class PercentileWindow {
 public:
  /// Throws std::invalid_argument for capacity == 0.
  explicit PercentileWindow(std::size_t capacity);

  /// Records one sample, evicting the oldest once full.
  void add(double value);

  /// Copy of the retained samples (unordered — the ring rotation is
  /// not undone, quantiles sort anyway).
  [[nodiscard]] std::vector<double> samples() const { return window_; }

  /// Drops every sample (fresh measurement epoch).
  void clear();

 private:
  std::size_t capacity_;
  std::vector<double> window_;
  std::size_t next_ = 0;  ///< eviction cursor once the window is full
};

}  // namespace topk::util
