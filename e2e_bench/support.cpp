#include "support.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace e2e {

namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

// Worst entry first, so the heap front is the one to evict.
bool heap_order(const Entry& a, const Entry& b) { return entry_before(a, b); }

double log_choose(double n, double r) {
  return std::lgamma(n + 1) - std::lgamma(r + 1) - std::lgamma(n - r + 1);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  for (std::uint64_t& word : s_) {
    word = splitmix64(seed);
  }
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  return (static_cast<double>(next() >> 11) + 1.0) * 0x1.0p-53;
}

double Rng::normal() {
  const double u1 = uniform();
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
}

std::uint32_t Rng::below(std::uint32_t n) {
  return static_cast<std::uint32_t>((next() >> 32) * n >> 32);
}

void Matrix::append(const Row& row) {
  idx.insert(idx.end(), row.cols.begin(), row.cols.end());
  val.insert(val.end(), row.vals.begin(), row.vals.end());
  ptr.push_back(idx.size());
}

Row Matrix::row(std::uint32_t r) const {
  Row out;
  out.cols.assign(idx.begin() + static_cast<std::ptrdiff_t>(ptr[r]),
                  idx.begin() + static_cast<std::ptrdiff_t>(ptr[r + 1]));
  out.vals.assign(val.begin() + static_cast<std::ptrdiff_t>(ptr[r]),
                  val.begin() + static_cast<std::ptrdiff_t>(ptr[r + 1]));
  return out;
}

Row make_row(std::uint32_t cols, double mean_nnz, Rng& rng) {
  // Gamma(3, 1) as a sum of three unit exponentials; its mean 3 maps to
  // mean_nnz, which is Table III's Gamma(3, 4/3) rescaled.
  const double gamma3 =
      -(std::log(rng.uniform()) + std::log(rng.uniform()) + std::log(rng.uniform()));
  const double scaled = std::round(mean_nnz * gamma3 / 3.0);
  const auto nnz = static_cast<std::uint32_t>(
      std::clamp(scaled, 1.0, static_cast<double>(cols)));
  Row row;
  while (row.cols.size() < nnz) {
    const std::uint32_t c = rng.below(cols);
    if (std::find(row.cols.begin(), row.cols.end(), c) == row.cols.end()) {
      row.cols.push_back(c);
    }
  }
  std::sort(row.cols.begin(), row.cols.end());
  std::vector<double> raw(nnz);
  double norm = 0.0;
  for (double& v : raw) {
    v = rng.uniform();
    norm += v * v;
  }
  norm = std::sqrt(norm);
  for (const double v : raw) {
    row.vals.push_back(static_cast<float>(v / norm));
  }
  return row;
}

Matrix make_matrix(std::uint32_t rows, std::uint32_t cols, double mean_nnz,
                   Rng& rng) {
  Matrix m;
  m.cols = cols;
  m.ptr.reserve(rows + 1);
  m.idx.reserve(static_cast<std::size_t>(rows * mean_nnz * 1.05));
  m.val.reserve(m.idx.capacity());
  for (std::uint32_t r = 0; r < rows; ++r) {
    m.append(make_row(cols, mean_nnz, rng));
  }
  return m;
}

std::vector<float> make_query_near(const Row& row, std::uint32_t cols,
                                   double noise, Rng& rng) {
  std::vector<double> dense(cols, 0.0);
  for (std::size_t i = 0; i < row.cols.size(); ++i) {
    dense[row.cols[i]] = row.vals[i];
  }
  const double scale = noise / std::sqrt(static_cast<double>(cols));
  double norm = 0.0;
  for (double& v : dense) {
    v += scale * std::fabs(rng.normal());
    norm += v * v;
  }
  norm = std::sqrt(norm);
  std::vector<float> x(cols);
  for (std::uint32_t j = 0; j < cols; ++j) {
    x[j] = static_cast<float>(dense[j] / norm);
  }
  return x;
}

bool entry_before(const Entry& a, const Entry& b) {
  if (a.score != b.score) {
    return a.score > b.score;
  }
  return a.id < b.id;
}

double exact_dot(std::span<const std::uint32_t> cols,
                 std::span<const float> vals, std::span<const float> x) {
  double acc = 0.0;
  for (std::size_t i = 0; i < cols.size(); ++i) {
    acc += static_cast<double>(vals[i]) * static_cast<double>(x[cols[i]]);
  }
  return acc;
}

TopK::TopK(int k) : k_(static_cast<std::size_t>(k)) {
  if (k <= 0) {
    throw std::invalid_argument("TopK: k must be positive");
  }
  heap_.reserve(k_);
}

void TopK::offer(std::uint32_t id, double score) {
  const Entry e{id, score};
  if (heap_.size() < k_) {
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), heap_order);
  } else if (entry_before(e, heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), heap_order);
    heap_.back() = e;
    std::push_heap(heap_.begin(), heap_.end(), heap_order);
  }
}

std::vector<Entry> TopK::sorted() const {
  std::vector<Entry> out = heap_;
  std::sort(out.begin(), out.end(), entry_before);
  return out;
}

std::vector<Entry> exact_topk(const Matrix& m, std::span<const float> x, int k) {
  TopK top(k);
  for (std::uint32_t r = 0; r < m.rows(); ++r) {
    const auto begin = static_cast<std::size_t>(m.ptr[r]);
    const auto len = static_cast<std::size_t>(m.ptr[r + 1] - m.ptr[r]);
    top.offer(r, exact_dot(std::span(m.idx).subspan(begin, len),
                           std::span(m.val).subspan(begin, len), x));
  }
  return top.sorted();
}

Shadow::Shadow(const Matrix& base) {
  rows_.reserve(base.rows());
  for (std::uint32_t r = 0; r < base.rows(); ++r) {
    rows_.push_back(base.row(r));
  }
  live_.assign(rows_.size(), 1);
  live_count_ = rows_.size();
}

std::uint32_t Shadow::insert(Row row) {
  rows_.push_back(std::move(row));
  live_.push_back(1);
  ++live_count_;
  return static_cast<std::uint32_t>(rows_.size() - 1);
}

void Shadow::upsert(std::uint32_t id, Row row) {
  if (!live(id)) {
    throw std::logic_error("Shadow::upsert of a retired id");
  }
  rows_[id] = std::move(row);
}

void Shadow::erase(std::uint32_t id) {
  if (!live(id)) {
    throw std::logic_error("Shadow::erase of a retired id");
  }
  live_[id] = 0;
  rows_[id] = Row{};
  --live_count_;
}

std::uint32_t Shadow::pick_live(Rng& rng) const {
  if (live_count_ == 0) {
    throw std::logic_error("Shadow::pick_live on an empty collection");
  }
  for (;;) {
    const std::uint32_t id = rng.below(next_id());
    if (live_[id] != 0) {
      return id;
    }
  }
}

std::vector<Entry> Shadow::topk(std::span<const float> x, int k) const {
  TopK top(k);
  for (std::uint32_t id = 0; id < rows_.size(); ++id) {
    if (live_[id] != 0) {
      top.offer(id, exact_dot(rows_[id].cols, rows_[id].vals, x));
    }
  }
  return top.sorted();
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty() || !(p > 0.0 && p <= 1.0)) {
    throw std::invalid_argument("percentile: no samples or p outside (0, 1]");
  }
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(samples.size())));
  const std::size_t index = std::max<std::size_t>(rank, 1) - 1;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

double median(std::vector<double> samples) { return percentile(std::move(samples), 0.5); }

std::string check_exact(const std::vector<Entry>& got,
                        const std::vector<Entry>& ref) {
  if (got.size() != ref.size()) {
    return "returned " + std::to_string(got.size()) + " entries, reference has " +
           std::to_string(ref.size());
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].id != ref[i].id || std::fabs(got[i].score - ref[i].score) > 1e-9) {
      return "rank " + std::to_string(i) + ": got id " + std::to_string(got[i].id) +
             " score " + std::to_string(got[i].score) + ", reference id " +
             std::to_string(ref[i].id) + " score " + std::to_string(ref[i].score);
    }
  }
  return "";
}

double recall(const std::vector<Entry>& got, const std::vector<Entry>& ref) {
  if (ref.empty()) {
    return 1.0;
  }
  std::vector<std::uint32_t> want;
  for (const Entry& e : ref) {
    want.push_back(e.id);
  }
  std::sort(want.begin(), want.end());
  std::size_t hits = 0;
  for (const Entry& e : got) {
    hits += std::binary_search(want.begin(), want.end(), e.id) ? 1 : 0;
  }
  return static_cast<double>(hits) / static_cast<double>(ref.size());
}

double expected_precision(std::uint64_t rows, int cores, int k, int top_k) {
  if (cores <= 0 || k <= 0 || top_k <= 0 || rows < static_cast<std::uint64_t>(cores)) {
    throw std::invalid_argument("expected_precision: bad arguments");
  }
  const double n = static_cast<double>(rows);
  const double draws = std::round(n / cores);
  const double big_k = top_k;
  double expected_kept = 0.0;
  for (int x = 0; x <= top_k; ++x) {
    if (x > draws || big_k - x > n - draws) {
      continue;
    }
    const double log_p = log_choose(big_k, x) + log_choose(n - big_k, draws - x) -
                         log_choose(n, draws);
    expected_kept += std::min(x, k) * std::exp(log_p);
  }
  return cores * expected_kept / big_k;
}

double fixed_point_bound(std::span<const std::uint32_t> cols,
                         std::span<const float> x, int value_bits) {
  double mass = 0.0;
  for (const std::uint32_t c : cols) {
    mass += x[c];
  }
  return std::ldexp(mass, -value_bits) +
         static_cast<double>(cols.size()) * 0x1.0p-31;
}

}  // namespace e2e
