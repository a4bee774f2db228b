// Helpers of the end-to-end benchmark that do not touch the program:
// the seeded input generator, the exact double-precision reference
// top-K, the shadow model of a mutable collection, the percentile rule
// and the result checks.  Nothing here includes a library header, so
// the reference the benchmark checks the program against is computed
// apart from the code under test.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace e2e {

/// xoshiro256** seeded through splitmix64: the benchmark's own stream,
/// so its inputs stay fixed for a seed whatever the library's RNG does.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);
  std::uint64_t next();
  /// Uniform in (0, 1].
  double uniform();
  /// Standard normal (Box-Muller).
  double normal();
  /// Uniform integer in [0, n).
  std::uint32_t below(std::uint32_t n);

 private:
  std::uint64_t s_[4];
};

/// One sparse row: ascending distinct columns, positive values.
struct Row {
  std::vector<std::uint32_t> cols;
  std::vector<float> vals;
};

/// Row-major sparse matrix in the benchmark's own representation.
struct Matrix {
  std::uint32_t cols = 0;
  std::vector<std::uint64_t> ptr{0};
  std::vector<std::uint32_t> idx;
  std::vector<float> val;

  [[nodiscard]] std::uint32_t rows() const {
    return static_cast<std::uint32_t>(ptr.size() - 1);
  }
  [[nodiscard]] std::size_t nnz() const { return idx.size(); }
  void append(const Row& row);
  [[nodiscard]] Row row(std::uint32_t r) const;
};

/// A row of the paper's Table III Gamma family: nnz ~ Gamma(3, 4/3)
/// rescaled to `mean_nnz` (clamped to [1, cols]), distinct uniform
/// columns, values uniform in (0, 1], L2-normalised.
Row make_row(std::uint32_t cols, double mean_nnz, Rng& rng);
Matrix make_matrix(std::uint32_t rows, std::uint32_t cols, double mean_nnz,
                   Rng& rng);

/// A dense non-negative query near `row`: the row densified plus
/// `noise` * |N(0, 1)| / sqrt(cols) in every column, L2-normalised.
std::vector<float> make_query_near(const Row& row, std::uint32_t cols,
                                   double noise, Rng& rng);

/// One result entry, as the benchmark sees it.
struct Entry {
  std::uint32_t id = 0;
  double score = 0.0;
  friend bool operator==(const Entry&, const Entry&) = default;
};

/// The tie rule: descending score, then ascending id.
bool entry_before(const Entry& a, const Entry& b);

/// Exact dot product: double products summed in ascending column order.
double exact_dot(std::span<const std::uint32_t> cols,
                 std::span<const float> vals, std::span<const float> x);

/// Keeps the best `k` entries under the tie rule.
class TopK {
 public:
  explicit TopK(int k);
  void offer(std::uint32_t id, double score);
  /// Best first.
  [[nodiscard]] std::vector<Entry> sorted() const;

 private:
  std::size_t k_;
  std::vector<Entry> heap_;  // worst entry at the front
};

/// Exact top-K of every row of `m` against `x`.
std::vector<Entry> exact_topk(const Matrix& m, std::span<const float> x, int k);

/// The live rows of a mutable collection, mirrored mutation by mutation
/// with the program's id rules: an insert takes the next id, an upsert
/// replaces a live id, a delete retires one.
class Shadow {
 public:
  explicit Shadow(const Matrix& base);
  std::uint32_t insert(Row row);
  void upsert(std::uint32_t id, Row row);
  void erase(std::uint32_t id);
  [[nodiscard]] bool live(std::uint32_t id) const { return live_.at(id) != 0; }
  [[nodiscard]] std::uint32_t next_id() const {
    return static_cast<std::uint32_t>(rows_.size());
  }
  [[nodiscard]] std::uint64_t live_rows() const { return live_count_; }
  /// A uniformly drawn live id.
  [[nodiscard]] std::uint32_t pick_live(Rng& rng) const;
  [[nodiscard]] std::vector<Entry> topk(std::span<const float> x, int k) const;

 private:
  std::vector<Row> rows_;
  std::vector<char> live_;
  std::uint64_t live_count_ = 0;
};

/// Nearest-rank percentile: the smallest sample with at least
/// ceil(p * n) samples at or below it (p in (0, 1]).
double percentile(std::vector<double> samples, double p);
double median(std::vector<double> samples);

/// "" when `got` equals `ref` entry by entry (ids exact, scores within
/// 1e-9); otherwise what differs.
std::string check_exact(const std::vector<Entry>& got,
                        const std::vector<Entry>& ref);

/// Checks an approximate result: `k_expected` entries, distinct ids,
/// ordered by the tie rule, and every score within `bound(id)` of the
/// exact score `exact(id)`.  "" when all hold.
template <typename Exact, typename Bound>
std::string check_bounded(const std::vector<Entry>& got, std::size_t k_expected,
                          Exact exact, Bound bound);

/// |got ∩ ref| / |ref| over ids.
double recall(const std::vector<Entry>& got, const std::vector<Entry>& ref);

/// Equation 1 of the paper in closed form: the expected share of the
/// true top-K a c-core design keeps when each core returns its local
/// top k, with X ~ Hypergeometric(N, N / c, K) top-K rows per core:
/// c * E[min(X, k)] / K.
double expected_precision(std::uint64_t rows, int cores, int k, int top_k);

/// Score error bound of the paper's unsigned fixed-point datapath for
/// one row: values rounded to V bits (V-1 fractional), the query to
/// Q1.31, each product truncated to 40 fractional bits:
/// 2^-V * sum_j x_j + nnz * 2^-31.
double fixed_point_bound(std::span<const std::uint32_t> cols,
                         std::span<const float> x, int value_bits);

// ---- template definitions ----

template <typename Exact, typename Bound>
std::string check_bounded(const std::vector<Entry>& got, std::size_t k_expected,
                          Exact exact, Bound bound) {
  if (got.size() != k_expected) {
    return "returned " + std::to_string(got.size()) + " entries, expected " +
           std::to_string(k_expected);
  }
  std::vector<std::uint32_t> ids;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (i > 0 && !entry_before(got[i - 1], got[i])) {
      return "entries " + std::to_string(i - 1) + " and " + std::to_string(i) +
             " out of order";
    }
    const double want = exact(got[i].id);
    const double diff = got[i].score > want ? got[i].score - want : want - got[i].score;
    if (diff > bound(got[i].id)) {
      return "id " + std::to_string(got[i].id) + " scored " +
             std::to_string(got[i].score) + ", exact " + std::to_string(want) +
             " (beyond the datapath bound)";
    }
    ids.push_back(got[i].id);
  }
  std::sort(ids.begin(), ids.end());
  if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
    return "duplicate ids";
  }
  return "";
}

}  // namespace e2e
