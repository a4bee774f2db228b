// Serving facade over any index::SimilarityIndex: the host-side
// component a real-time retrieval service talks to.  The engine is
// backend-agnostic — an FPGA simulator, the CPU heap baseline or the
// GPU model all serve through the identical code path, so latency
// digests are directly comparable across backends.
//
// What it adds over calling the index directly:
//   * a persistent worker budget (no per-call thread spawning — all
//     execution runs on util::shared_pool() with dynamic claiming);
//   * synchronous query_batch() with per-query dynamic scheduling;
//   * an async submit() -> std::future path with a bounded request
//     queue (blocking backpressure, the standard admission control of
//     a serving tier);
//   * latency instrumentation: every query served through the engine
//     is timed, and latency_summary() reports count/mean/p50/p95/p99
//     via util::RunningStats and util::quantile; reset_latency()
//     starts a fresh measurement epoch (e.g. after warm-up).
//
// Thread-safety: all public methods may be called concurrently.  The
// destructor blocks until all pending async requests have completed,
// and futures stay valid past the engine's lifetime (the shared state
// is owned by the request).  The engine shares ownership of the index,
// so the index outlives every request by construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "index/mutable_index.hpp"
#include "index/similarity_index.hpp"
#include "util/percentile.hpp"
#include "util/stats.hpp"
#include "util/sync.hpp"

namespace topk::serve {

/// Configuration of one engine instance.
struct EngineConfig {
  /// Maximum concurrency per operation (0 = hardware concurrency).
  /// query() hands this to the backend as its intra-query budget;
  /// query_batch() fans whole queries instead.
  int workers = 0;
  /// Bound on queued-but-unfinished async requests; submit() blocks
  /// (backpressure) once this many are in flight.
  std::size_t max_pending = 1024;
  /// Ring-buffer capacity backing the latency percentile estimates —
  /// sized to the traffic a percentile should describe (a long-lived
  /// serving process never accumulates unbounded history).
  std::size_t latency_window = 4096;
};

/// Latency digest in milliseconds.  count/mean/max cover the current
/// measurement epoch (since construction or the last reset_latency());
/// the percentiles cover the most recent EngineConfig::latency_window
/// samples of that epoch.
struct LatencySummary {
  std::size_t count = 0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

/// Admission-control view of the engine, alongside the latency digest.
/// All counts cover the engine's lifetime (they are not reset by
/// reset_latency() — admission history is about capacity, not about
/// measurement epochs).
struct EngineStats {
  LatencySummary latency;
  /// Async requests admitted but not yet finished.
  std::size_t pending = 0;
  /// High-water mark of `pending` — how close the queue came to the
  /// max_pending admission bound.
  std::size_t peak_pending = 0;
  /// submit() calls that had to block on a full queue before being
  /// admitted.
  std::uint64_t backpressure_waits = 0;
  /// try_submit() calls turned away on a full queue.
  std::uint64_t rejections = 0;
};

class QueryEngine {
 public:
  /// Takes shared ownership of the index.  Throws
  /// std::invalid_argument for a null index, negative workers, zero
  /// max_pending, or a zero latency_window.
  explicit QueryEngine(std::shared_ptr<const index::SimilarityIndex> index,
                       EngineConfig config = {});

  /// Serving a mutable backend: queries flow through the identical
  /// path, and the engine additionally retains the mutation handle so
  /// callers reach insert_row/delete_row/delta_stats through
  /// mutable_index() while the engine serves.
  explicit QueryEngine(std::shared_ptr<index::MutableIndex> index,
                       EngineConfig config = {});

  /// Blocks until all pending async requests have finished.
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Synchronous single query: the backend's intra-query path gets the
  /// whole worker budget.  Results are identical to index.query(x,
  /// top_k) at any worker count.  Throws like the backend.
  [[nodiscard]] index::QueryResult query(std::span<const float> x,
                                         int top_k) const;

  /// Synchronous batch: whole queries are claimed dynamically by up to
  /// `workers` threads (each query runs its backend path sequentially,
  /// maximising throughput).  Results align with input order and are
  /// identical to per-query query() calls.
  [[nodiscard]] std::vector<index::QueryResult> query_batch(
      const std::vector<std::vector<float>>& queries, int top_k) const;

  /// Async path: enqueues the query and returns immediately with a
  /// future (unless max_pending requests are already in flight, in
  /// which case it blocks until a slot frees — bounded-queue
  /// backpressure).  The request executes with the same intra-query
  /// fan-out as query(), so a lone request on an idle engine gets
  /// full parallelism while concurrent requests degrade gracefully
  /// to one thread each.  The vector is moved/copied into the
  /// request, so the caller may free its buffer at once.  Validation
  /// errors surface through the future as std::invalid_argument.
  [[nodiscard]] std::future<index::QueryResult> submit(std::vector<float> x,
                                                       int top_k);

  /// Non-blocking admission: like submit(), but a full queue returns
  /// std::nullopt immediately (counted in EngineStats::rejections)
  /// instead of blocking — the load-shedding flavour of backpressure
  /// for callers that would rather drop than stall.
  [[nodiscard]] std::optional<std::future<index::QueryResult>> try_submit(
      std::vector<float> x, int top_k);

  /// Requests admitted via submit() whose futures are not yet ready.
  [[nodiscard]] std::size_t pending() const;

  /// Blocks until no async request is in flight.
  void drain();

  /// Digest over every query served in the current epoch (sync and
  /// async).
  [[nodiscard]] LatencySummary latency_summary() const;

  /// Latency digest plus the admission-control counters (queue depth,
  /// peak depth, backpressure waits, rejections).
  [[nodiscard]] EngineStats stats() const;

  /// Starts a fresh measurement epoch: clears the lifetime stats and
  /// the percentile window.  Queries already in flight land in the new
  /// epoch.
  void reset_latency();

  /// The served backend (shared ownership held by the engine).
  [[nodiscard]] const index::SimilarityIndex& index() const noexcept {
    return *index_;
  }

  /// The mutation handle of the served backend, when it is mutable
  /// (constructed from a MutableIndex, or the index dynamically is
  /// one); null for sealed backends.  Mutations are safe while the
  /// engine serves — the mutable tier linearises them against
  /// concurrent queries.
  [[nodiscard]] std::shared_ptr<index::MutableIndex> mutable_index()
      const noexcept {
    return mutable_;
  }
  [[nodiscard]] int workers() const noexcept { return workers_; }
  [[nodiscard]] std::size_t latency_window() const noexcept {
    return latency_window_size_;
  }

 private:
  void record_latency(double millis) const;
  /// The shared tail of submit() and try_submit(): mints the trace id
  /// and enqueue stamp of one admitted request (0 when tracing is off),
  /// then executes it on a pool thread and settles its promise.
  std::future<index::QueryResult> launch_async(std::vector<float> x,
                                               int top_k);

  std::shared_ptr<const index::SimilarityIndex> index_;
  std::shared_ptr<index::MutableIndex> mutable_;
  int workers_;
  std::size_t max_pending_;
  std::size_t latency_window_size_;

  mutable util::Mutex pending_mutex_;
  util::CondVar pending_cv_;
  std::size_t pending_ TOPK_GUARDED_BY(pending_mutex_) = 0;
  // Plain guarded members (not atomics): every touch already happens
  // under pending_mutex_ on the admission path, so atomics would buy
  // nothing — and the registry mirrors them for scrapes.
  std::size_t peak_pending_ TOPK_GUARDED_BY(pending_mutex_) = 0;
  std::uint64_t backpressure_waits_ TOPK_GUARDED_BY(pending_mutex_) = 0;
  std::uint64_t rejections_ TOPK_GUARDED_BY(pending_mutex_) = 0;

  mutable util::Mutex latency_mutex_;
  mutable util::RunningStats lifetime_latency_ TOPK_GUARDED_BY(latency_mutex_);
  mutable util::PercentileWindow latency_window_ TOPK_GUARDED_BY(latency_mutex_);
};

}  // namespace topk::serve
