#include "baselines/cpu_topk_spmv.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace topk::baselines {

namespace {

/// Min-heap on the canonical Top-K order: the heap front is the entry
/// that sorts last (lowest score, highest row index on ties), so the
/// lower row index always survives eviction.
struct HeapLess {
  bool operator()(const core::TopKEntry& a, const core::TopKEntry& b) const {
    return core::topk_entry_before(a, b);
  }
};

void scan_rows(const sparse::Csr& matrix, std::span<const float> x,
               std::uint32_t row_begin, std::uint32_t row_end, int top_k,
               std::vector<core::TopKEntry>& heap) {
  heap.reserve(static_cast<std::size_t>(top_k));
  const HeapLess less;
  for (std::uint32_t r = row_begin; r < row_end; ++r) {
    const double score = matrix.row_dot(r, x);
    if (heap.size() < static_cast<std::size_t>(top_k)) {
      heap.push_back(core::TopKEntry{r, score});
      std::push_heap(heap.begin(), heap.end(), less);
    } else if (core::topk_entry_before(core::TopKEntry{r, score},
                                       heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), less);
      heap.back() = core::TopKEntry{r, score};
      std::push_heap(heap.begin(), heap.end(), less);
    }
  }
}

void sort_descending(std::vector<core::TopKEntry>& entries) {
  std::sort(entries.begin(), entries.end(), core::TopKEntryOrder{});
}

}  // namespace

std::vector<core::TopKEntry> cpu_topk_spmv(const sparse::Csr& matrix,
                                           std::span<const float> x, int top_k,
                                           int threads) {
  if (x.size() != matrix.cols()) {
    throw std::invalid_argument("cpu_topk_spmv: vector size mismatch");
  }
  if (top_k <= 0) {
    throw std::invalid_argument("cpu_topk_spmv: top_k must be positive");
  }
  threads = util::resolve_fanout_threads(threads, matrix.rows());

  // Static row ranges (each range writes only its own heap slot, so
  // results are deterministic), executed on the shared persistent pool
  // — no per-call thread spawning, matching the serving tier's worker
  // model.
  const std::uint32_t rows = matrix.rows();
  std::vector<std::vector<core::TopKEntry>> heaps(
      static_cast<std::size_t>(threads));
  util::shared_pool().parallel_for(
      heaps.size(), threads, [&](std::size_t t) {
        const std::uint32_t begin = static_cast<std::uint32_t>(
            static_cast<std::uint64_t>(rows) * t / threads);
        const std::uint32_t end = static_cast<std::uint32_t>(
            static_cast<std::uint64_t>(rows) * (t + 1) / threads);
        scan_rows(matrix, x, begin, end, top_k, heaps[t]);
      });

  std::vector<core::TopKEntry> merged;
  for (const auto& heap : heaps) {
    merged.insert(merged.end(), heap.begin(), heap.end());
  }
  sort_descending(merged);
  if (merged.size() > static_cast<std::size_t>(top_k)) {
    merged.resize(static_cast<std::size_t>(top_k));
  }
  return merged;
}

std::vector<core::TopKEntry> exact_topk_via_sort(const sparse::Csr& matrix,
                                                 std::span<const float> x,
                                                 int top_k) {
  if (x.size() != matrix.cols()) {
    throw std::invalid_argument("exact_topk_via_sort: vector size mismatch");
  }
  if (top_k <= 0) {
    throw std::invalid_argument("exact_topk_via_sort: top_k must be positive");
  }
  std::vector<core::TopKEntry> all(matrix.rows());
  for (std::uint32_t r = 0; r < matrix.rows(); ++r) {
    all[r] = core::TopKEntry{r, matrix.row_dot(r, x)};
  }
  const auto cutoff =
      std::min<std::size_t>(static_cast<std::size_t>(top_k), all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(cutoff),
                    all.end(), core::TopKEntryOrder{});
  all.resize(cutoff);
  return all;
}

}  // namespace topk::baselines
