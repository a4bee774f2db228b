#include "sparse/generator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

namespace topk::sparse {

namespace {

/// Marsaglia-Tsang gamma sampling for shape >= 1 (our shapes are 3).
double sample_gamma(double shape, double scale, util::Xoshiro256& rng) {
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    // Box-Muller normal variate.
    const double u1 = rng.uniform();
    const double u2 = rng.uniform();
    const double z =
        std::sqrt(-2.0 * std::log(1.0 - u1)) * std::cos(6.283185307179586 * u2);
    const double v = std::pow(1.0 + c * z, 3.0);
    if (v <= 0.0) {
      continue;
    }
    const double u = rng.uniform();
    if (std::log(u) < 0.5 * z * z + d - d * v + d * std::log(v)) {
      return d * v * scale;
    }
  }
}

/// Samples `count` distinct columns in [0, cols).  Uses a hash set for
/// sparse draws; `count` is tiny relative to `cols` in our workloads.
void sample_distinct_columns(std::uint32_t cols, std::uint32_t count,
                             util::Xoshiro256& rng,
                             std::vector<std::uint32_t>& out) {
  out.clear();
  if (count * 2 >= cols) {
    // Dense case: partial Fisher-Yates over all columns.
    std::vector<std::uint32_t> pool(cols);
    for (std::uint32_t i = 0; i < cols; ++i) {
      pool[i] = i;
    }
    for (std::uint32_t i = 0; i < count; ++i) {
      const auto j =
          i + static_cast<std::uint32_t>(rng.bounded(cols - i));
      std::swap(pool[i], pool[j]);
      out.push_back(pool[i]);
    }
  } else {
    std::unordered_set<std::uint32_t> seen;
    seen.reserve(count * 2);
    while (out.size() < count) {
      const auto c = static_cast<std::uint32_t>(rng.bounded(cols));
      if (seen.insert(c).second) {
        out.push_back(c);
      }
    }
  }
  std::sort(out.begin(), out.end());
}

}  // namespace

void validate(const GeneratorConfig& config) {
  if (config.rows == 0 || config.cols == 0) {
    throw std::invalid_argument("GeneratorConfig: dimensions must be positive");
  }
  if (config.mean_nnz_per_row < 1.0 ||
      config.mean_nnz_per_row > static_cast<double>(config.cols)) {
    throw std::invalid_argument(
        "GeneratorConfig: mean_nnz_per_row must be in [1, cols]");
  }
  if (config.distribution == RowDistribution::kGamma &&
      (config.gamma_shape < 1.0 || config.gamma_scale <= 0.0)) {
    throw std::invalid_argument("GeneratorConfig: invalid gamma parameters");
  }
}

std::uint32_t sample_row_nnz(const GeneratorConfig& config, util::Xoshiro256& rng) {
  double nnz = 0.0;
  switch (config.distribution) {
    case RowDistribution::kUniform: {
      // Uniform over [mean/2, 3*mean/2]: mean matches, bounded spread.
      const double lo = config.mean_nnz_per_row * 0.5;
      const double hi = config.mean_nnz_per_row * 1.5;
      nnz = rng.uniform(lo, hi);
      break;
    }
    case RowDistribution::kGamma: {
      const double g = sample_gamma(config.gamma_shape, config.gamma_scale, rng);
      const double gamma_mean = config.gamma_shape * config.gamma_scale;
      nnz = g * config.mean_nnz_per_row / gamma_mean;
      break;
    }
  }
  const double clamped =
      std::clamp(std::nearbyint(nnz), 1.0, static_cast<double>(config.cols));
  return static_cast<std::uint32_t>(clamped);
}

Csr generate_matrix(const GeneratorConfig& config) {
  validate(config);
  util::Xoshiro256 rng(config.seed);

  std::vector<std::uint64_t> row_ptr(static_cast<std::size_t>(config.rows) + 1, 0);
  std::vector<std::uint32_t> row_counts(config.rows);
  std::uint64_t total_nnz = 0;
  for (std::uint32_t r = 0; r < config.rows; ++r) {
    row_counts[r] = sample_row_nnz(config, rng);
    total_nnz += row_counts[r];
    row_ptr[r + 1] = total_nnz;
  }

  std::vector<std::uint32_t> col_idx(total_nnz);
  std::vector<float> values(total_nnz);
  std::vector<std::uint32_t> cols_scratch;
  for (std::uint32_t r = 0; r < config.rows; ++r) {
    sample_distinct_columns(config.cols, row_counts[r], rng, cols_scratch);
    const std::uint64_t base = row_ptr[r];
    for (std::size_t i = 0; i < cols_scratch.size(); ++i) {
      col_idx[base + i] = cols_scratch[i];
      // Strictly positive so normalisation never divides by zero.
      values[base + i] = static_cast<float>(rng.uniform(0.01, 1.0));
    }
  }

  Csr matrix = Csr::from_parts(config.rows, config.cols, std::move(row_ptr),
                               std::move(col_idx), std::move(values));
  if (config.l2_normalize) {
    matrix.l2_normalize_rows();
  }
  return matrix;
}

std::vector<float> generate_dense_vector(std::uint32_t cols, util::Xoshiro256& rng) {
  std::vector<float> x(cols);
  double sum_sq = 0.0;
  for (auto& v : x) {
    v = static_cast<float>(rng.uniform(0.0, 1.0));
    sum_sq += static_cast<double>(v) * static_cast<double>(v);
  }
  const auto inv_norm = static_cast<float>(1.0 / std::sqrt(sum_sq));
  for (auto& v : x) {
    v *= inv_norm;
  }
  return x;
}

std::vector<float> generate_query_near_row(const Csr& matrix, std::uint32_t row,
                                           double noise, util::Xoshiro256& rng) {
  if (row >= matrix.rows()) {
    throw std::out_of_range("generate_query_near_row: row out of range");
  }
  std::vector<float> x(matrix.cols(), 0.0f);
  const auto cols = matrix.row_cols(row);
  const auto vals = matrix.row_values(row);
  for (std::size_t i = 0; i < cols.size(); ++i) {
    x[cols[i]] = vals[i];
  }
  double sum_sq = 0.0;
  for (auto& v : x) {
    // Non-negative perturbation keeps the vector in the unsigned range.
    const double perturbed =
        std::max(0.0, static_cast<double>(v) + noise * (rng.uniform() - 0.25));
    v = static_cast<float>(perturbed);
    sum_sq += static_cast<double>(v) * static_cast<double>(v);
  }
  if (sum_sq > 0.0) {
    const auto inv_norm = static_cast<float>(1.0 / std::sqrt(sum_sq));
    for (auto& v : x) {
      v *= inv_norm;
    }
  }
  return x;
}

}  // namespace topk::sparse
