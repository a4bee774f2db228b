#include "core/precision_model.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

namespace topk::core {

namespace {

void check_args(std::uint64_t rows, int partitions, int k, int top_k) {
  if (rows == 0) {
    throw std::invalid_argument("precision model: rows must be positive");
  }
  if (partitions <= 0 || static_cast<std::uint64_t>(partitions) > rows) {
    throw std::invalid_argument("precision model: partitions must be in [1, rows]");
  }
  if (k <= 0 || top_k <= 0) {
    throw std::invalid_argument("precision model: k and top_k must be positive");
  }
}

/// log C(n, r) via lgamma; requires r in [0, n].
double log_binomial(double n, double r) {
  return std::lgamma(n + 1.0) - std::lgamma(r + 1.0) - std::lgamma(n - r + 1.0);
}

/// E[min(X, k)] for X ~ Hypergeometric(N, m, K): m marked rows (one
/// partition), K draws (the global top-K positions).
double expected_min_hypergeometric(double n_total, double n_marked, int draws,
                                   int k) {
  const int x_max = static_cast<int>(
      std::min<double>(draws, n_marked));
  double expectation = 0.0;
  for (int x = 0; x <= x_max; ++x) {
    if (draws - x > n_total - n_marked) {
      continue;  // impossible configuration
    }
    const double log_p = log_binomial(n_marked, x) +
                         log_binomial(n_total - n_marked, draws - x) -
                         log_binomial(n_total, draws);
    expectation += std::min(x, k) * std::exp(log_p);
  }
  return expectation;
}

}  // namespace

double expected_precision_closed(std::uint64_t rows, int partitions, int k,
                                 int top_k) {
  check_args(rows, partitions, k, top_k);
  // Partition sizes differ by at most one; weight the two sizes by
  // their multiplicities for an exact expectation.
  const std::uint64_t base = rows / static_cast<std::uint64_t>(partitions);
  const std::uint64_t remainder = rows % static_cast<std::uint64_t>(partitions);
  const double n_total = static_cast<double>(rows);

  double retrieved = 0.0;
  if (remainder > 0) {
    retrieved += static_cast<double>(remainder) *
                 expected_min_hypergeometric(
                     n_total, static_cast<double>(base + 1), top_k, k);
  }
  retrieved += static_cast<double>(partitions - remainder) *
               expected_min_hypergeometric(n_total, static_cast<double>(base),
                                           top_k, k);
  return std::min(1.0, retrieved / static_cast<double>(top_k));
}

double expected_precision_mc(std::uint64_t rows, int partitions, int k,
                             int top_k, int trials,
                             util::Xoshiro256& rng) {
  check_args(rows, partitions, k, top_k);
  if (trials <= 0) {
    throw std::invalid_argument("expected_precision_mc: trials must be positive");
  }

  const std::uint64_t base = rows / static_cast<std::uint64_t>(partitions);
  const std::uint64_t remainder = rows % static_cast<std::uint64_t>(partitions);
  std::vector<int> counts(static_cast<std::size_t>(partitions));

  double total_precision = 0.0;
  for (int t = 0; t < trials; ++t) {
    std::fill(counts.begin(), counts.end(), 0);
    for (int i = 0; i < top_k; ++i) {
      // Draw a uniform row and map it to its partition (the first
      // `remainder` partitions hold base+1 rows).  Sampling with
      // replacement is indistinguishable at K << N.
      const std::uint64_t row = rng.bounded(rows);
      const std::uint64_t big_span = remainder * (base + 1);
      std::size_t partition;
      if (row < big_span) {
        partition = static_cast<std::size_t>(row / (base + 1));
      } else {
        partition =
            static_cast<std::size_t>(remainder + (row - big_span) / base);
      }
      ++counts[partition];
    }
    int retrieved = 0;
    for (const int count : counts) {
      retrieved += std::min(count, k);
    }
    total_precision +=
        static_cast<double>(retrieved) / static_cast<double>(top_k);
  }
  return total_precision / static_cast<double>(trials);
}

}  // namespace topk::core
