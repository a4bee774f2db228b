// Expected precision of the partitioned Top-K approximation
// (paper section III-A, Equation 1, Table I).
//
// If the K global top rows land uniformly at random across c row
// partitions and each partition surfaces only its local top k, a
// partition holding x > k of the global top-K loses x - k of them.
// With X ~ Hypergeometric(N, N/c, K) counting top-K rows in one
// partition, the expected number retrieved is c * E[min(X, k)] and the
// expected precision is that divided by K.  The paper estimates the
// same quantity with a Monte Carlo simulation; both are provided and
// cross-validated in the tests.
#pragma once

#include <cstdint>

#include "util/rng.hpp"

namespace topk::core {

/// Closed-form expected precision via the hypergeometric occupancy
/// count.  Uses log-gamma for the binomials, exact summation over the
/// (tiny) support.  Throws std::invalid_argument for k <= 0, K <= 0,
/// c <= 0, or c > N.
[[nodiscard]] double expected_precision_closed(std::uint64_t rows, int partitions,
                                               int k, int top_k);

/// Monte Carlo estimate: `trials` random assignments of the top_k
/// global rows to partitions (multinomial with the exact floor/ceil
/// partition sizes), averaging sum_i min(count_i, k) / K.
[[nodiscard]] double expected_precision_mc(std::uint64_t rows, int partitions,
                                           int k, int top_k, int trials,
                                           util::Xoshiro256& rng);

}  // namespace topk::core
