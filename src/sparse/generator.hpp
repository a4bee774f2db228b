// Synthetic sparse-embedding matrix generators (paper Table III).
//
// The evaluation uses synthetic matrices with controlled row-density
// distributions — uniform and left-skewed Gamma(k=3, theta=4/3) — with
// 20 or 40 average non-zeros per row, M in {512, 1024}, and rows
// L2-normalised so that Top-K SpMV retrieves cosine-nearest rows.
#pragma once

#include <cstdint>
#include <vector>

#include "sparse/csr.hpp"
#include "util/rng.hpp"

namespace topk::sparse {

/// Row-density (non-zeros per row) distribution families from Table III.
enum class RowDistribution {
  kUniform,  ///< nnz/row ~ Uniform centred on the mean (paper "Uniform")
  kGamma,    ///< nnz/row ~ Gamma(3, 4/3) rescaled to the mean (paper "Γ")
};

/// Parameters for the synthetic generator.
struct GeneratorConfig {
  std::uint32_t rows = 1'000'000;   ///< N: embedding collection size.
  std::uint32_t cols = 1024;        ///< M: dense embedding dimension.
  double mean_nnz_per_row = 20.0;   ///< average non-zeros per row (20/40).
  RowDistribution distribution = RowDistribution::kUniform;
  /// Gamma shape/scale; defaults reproduce Γ(k=3, θ=4/3) whose mean (4)
  /// is rescaled to mean_nnz_per_row.
  double gamma_shape = 3.0;
  double gamma_scale = 4.0 / 3.0;
  bool l2_normalize = true;         ///< normalise rows (cosine similarity).
  std::uint64_t seed = 42;
};

/// Validates a config; throws std::invalid_argument on nonsense
/// (zero dims, mean below 1 or above cols, non-positive gamma params).
void validate(const GeneratorConfig& config);

/// Generates a synthetic sparse embedding matrix.  Every row gets a
/// sampled non-zero count (clamped to [1, cols]), distinct uniformly
/// chosen columns, and values uniform in (0, 1) before optional row
/// normalisation — non-negative as in the paper's unsigned fixed-point
/// setting.
[[nodiscard]] Csr generate_matrix(const GeneratorConfig& config);

/// Samples the number of non-zeros for one row (exposed for tests).
[[nodiscard]] std::uint32_t sample_row_nnz(const GeneratorConfig& config,
                                           util::Xoshiro256& rng);

/// Generates a dense non-negative query embedding of size `cols`,
/// L2-normalised.  Used as the SpMV input vector x.
[[nodiscard]] std::vector<float> generate_dense_vector(std::uint32_t cols,
                                                       util::Xoshiro256& rng);

/// Generates a query correlated with row `row` of `matrix`: the row is
/// densified and perturbed with `noise` relative Gaussian noise, then
/// normalised.  Gives examples a meaningful nearest-neighbour
/// structure (the source row should rank first for small noise).
[[nodiscard]] std::vector<float> generate_query_near_row(const Csr& matrix,
                                                         std::uint32_t row,
                                                         double noise,
                                                         util::Xoshiro256& rng);

}  // namespace topk::sparse
