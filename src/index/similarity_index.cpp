#include "index/similarity_index.hpp"

#include <stdexcept>

#include "util/thread_pool.hpp"

namespace topk::index {

void SimilarityIndex::check_vector(std::span<const float> x) const {
  if (x.size() != cols()) {
    throw std::invalid_argument(describe().backend +
                                ": query vector size mismatch");
  }
}

void SimilarityIndex::check_top_k(int top_k) const {
  if (top_k <= 0) {
    throw std::invalid_argument(describe().backend +
                                ": top_k must be positive");
  }
  const int limit = max_top_k();
  if (limit > 0 && top_k > limit) {
    throw std::invalid_argument(describe().backend +
                                ": top_k exceeds backend capability");
  }
}

void SimilarityIndex::validate_query(std::span<const float> x,
                                     int top_k) const {
  check_vector(x);
  check_top_k(top_k);
}

void SimilarityIndex::validate_batch(
    const std::vector<std::vector<float>>& queries, int top_k) const {
  for (const auto& x : queries) {
    check_vector(x);
  }
  check_top_k(top_k);
}

std::vector<QueryResult> SimilarityIndex::query_batch(
    const std::vector<std::vector<float>>& queries, int top_k,
    const QueryOptions& options) const {
  std::vector<QueryResult> results(queries.size());
  if (queries.empty()) {
    validate_batch(queries, top_k);
    return results;
  }
  const int threads =
      util::resolve_fanout_threads(options.threads, queries.size());
  validate_batch(queries, top_k);  // so worker threads never throw

  // Whole queries are claimed dynamically from the shared persistent
  // pool; each runs its intra-query path sequentially (throughput over
  // latency, the real-time service host loop).
  QueryOptions per_query;
  per_query.threads = 1;
  util::shared_pool().parallel_for(queries.size(), threads,
                                   [&](std::size_t i) {
    results[i] = query(queries[i], top_k, per_query);
  });
  return results;
}

}  // namespace topk::index
