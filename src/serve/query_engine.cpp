#include "serve/query_engine.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace topk::serve {

namespace {

// Registry handles resolve once per process (function-local statics);
// the hot path below is one relaxed atomic op per event.
telemetry::Counter& queries_metric() {
  static telemetry::Counter& c = telemetry::registry().counter(
      "topk_engine_queries_total", {},
      "Queries served through the engine (sync, batch, and async).");
  return c;
}

telemetry::Histogram& latency_metric() {
  static telemetry::Histogram& h = telemetry::registry().histogram(
      "topk_engine_query_seconds", telemetry::Histogram::latency_buckets(), {},
      "Engine-observed per-query wall time in seconds.");
  return h;
}

telemetry::Gauge& queue_depth_metric() {
  static telemetry::Gauge& g = telemetry::registry().gauge(
      "topk_engine_queue_depth", {},
      "Async requests admitted but not yet finished.");
  return g;
}

telemetry::Gauge& queue_peak_metric() {
  static telemetry::Gauge& g = telemetry::registry().gauge(
      "topk_engine_queue_depth_peak", {},
      "High-water mark of the async request queue.");
  return g;
}

telemetry::Counter& backpressure_metric() {
  static telemetry::Counter& c = telemetry::registry().counter(
      "topk_engine_backpressure_waits_total", {},
      "submit() calls that blocked on a full queue before admission.");
  return c;
}

telemetry::Counter& rejections_metric() {
  static telemetry::Counter& c = telemetry::registry().counter(
      "topk_engine_rejections_total", {},
      "try_submit() calls turned away on a full queue.");
  return c;
}

// ---- pool observation ----------------------------------------------------
// util::ThreadPool is foundation-layer code and must not import the
// telemetry vocabulary (tools/analysis/layers.toml); the serving layer
// closes the loop by installing these hooks when the first engine is
// built.  The hook functions themselves resolve their registry cells
// through function-local statics, same as every metric above.

void pool_workers_hook(double count) {
  static telemetry::Gauge& g = telemetry::registry().gauge(
      "topk_pool_workers", {}, "Threads owned by the shared pool.");
  g.set(count);
}

void pool_busy_hook(double delta) {
  static telemetry::Gauge& g = telemetry::registry().gauge(
      "topk_pool_busy_workers", {},
      "Pool threads currently executing a task (utilization numerator).");
  g.add(delta);
}

void pool_task_hook() {
  static telemetry::Counter& c = telemetry::registry().counter(
      "topk_pool_tasks_total", {}, "Tasks executed by pool threads.");
  c.inc();
}

constexpr util::PoolInstrumentation kPoolInstrumentation{
    &pool_workers_hook, &pool_busy_hook, &pool_task_hook};

/// Idempotent, thread-safe (function-local static): the first engine
/// constructed in the process wires the pool into the registry.
void ensure_pool_instrumented() {
  static const bool installed = [] {
    util::ThreadPool::set_instrumentation(&kPoolInstrumentation);
    // Publish the current size too: the pool may have grown before the
    // hooks existed (e.g. a bare kernel-layer parallel_for).
    pool_workers_hook(static_cast<double>(util::shared_pool().workers()));
    return true;
  }();
  (void)installed;
}

}  // namespace

QueryEngine::QueryEngine(std::shared_ptr<const index::SimilarityIndex> index,
                         EngineConfig config)
    : index_(std::move(index)),
      // Not clamped to any item count: the engine's width applies to
      // every batch and query it serves.
      workers_(util::resolve_fanout_threads(
          config.workers, std::numeric_limits<std::size_t>::max())),
      max_pending_(config.max_pending),
      latency_window_size_(config.latency_window),
      latency_window_(config.latency_window == 0 ? 1 : config.latency_window) {
  if (!index_) {
    throw std::invalid_argument("QueryEngine: null index");
  }
  if (max_pending_ == 0) {
    throw std::invalid_argument("EngineConfig: max_pending must be positive");
  }
  if (latency_window_size_ == 0) {
    throw std::invalid_argument("EngineConfig: latency_window must be positive");
  }
  // Grow the shared pool up front so the first request is not the one
  // paying thread-creation cost.  At least one worker is kept even for
  // workers = 1, so submit() is genuinely asynchronous (a zero-worker
  // pool would run posted tasks inline on the submitting thread).
  ensure_pool_instrumented();
  util::shared_pool().ensure_workers(std::max(workers_ - 1, 1));
}

QueryEngine::QueryEngine(std::shared_ptr<index::MutableIndex> index,
                         EngineConfig config)
    : QueryEngine(std::static_pointer_cast<const index::SimilarityIndex>(index),
                  config) {
  mutable_ = std::move(index);
}

QueryEngine::~QueryEngine() { drain(); }

index::QueryResult QueryEngine::query(std::span<const float> x,
                                      int top_k) const {
  // Sync queries are their own trace root: mint an id so the scatter /
  // cell / gather spans the backend records below all correlate.
  const bool traced = telemetry::tracer().enabled();
  telemetry::TraceContextScope scope(
      traced ? telemetry::tracer().mint_trace_id()
             : telemetry::current_trace_id());
  telemetry::SpanTimer span("query", "engine");
  util::WallTimer timer;
  index::QueryOptions options;
  options.threads = workers_;
  index::QueryResult result = index_->query(x, top_k, options);
  record_latency(timer.millis());
  return result;
}

std::vector<index::QueryResult> QueryEngine::query_batch(
    const std::vector<std::vector<float>>& queries, int top_k) const {
  // The engine owns the batch fan-out (rather than delegating to
  // SimilarityIndex::query_batch) so every query passes through the
  // same latency capture as the sync and async paths.
  std::vector<index::QueryResult> results(queries.size());
  index_->validate_batch(queries, top_k);
  const bool traced = telemetry::tracer().enabled();
  util::shared_pool().parallel_for(queries.size(), workers_,
                                   [&, traced](std::size_t i) {
    // Each batched query is its own trace root, same as a sync query.
    telemetry::TraceContextScope scope(
        traced ? telemetry::tracer().mint_trace_id() : 0);
    telemetry::SpanTimer span("query", "engine");
    if (span.active()) {
      span.add_arg(telemetry::arg("batch_index",
                                  static_cast<std::uint64_t>(i)));
    }
    util::WallTimer timer;
    results[i] = index_->query(queries[i], top_k);
    record_latency(timer.millis());
  });
  return results;
}

std::future<index::QueryResult> QueryEngine::launch_async(
    std::vector<float> x, int top_k) {
  // The trace is rooted at admission: the queue-wait span starts here,
  // before the task reaches a pool thread.
  const bool traced = telemetry::tracer().enabled();
  const std::uint64_t trace_id =
      traced ? telemetry::tracer().mint_trace_id() : 0;
  const double enqueued_seconds = traced ? telemetry::now_seconds() : 0.0;
  auto promise = std::make_shared<std::promise<index::QueryResult>>();
  std::future<index::QueryResult> future = promise->get_future();
  util::shared_pool().post([this, promise, x = std::move(x), top_k, trace_id,
                            enqueued_seconds]() mutable {
    // Re-establish the submitter's trace context on the pool thread,
    // then account the time the request sat in the queue as its first
    // span (start pinned to admission time, not task start).
    telemetry::TraceContextScope scope(trace_id);
    if (trace_id != 0 && telemetry::tracer().enabled()) {
      telemetry::TraceSpan wait;
      wait.name = "queue-wait";
      wait.category = "engine";
      wait.trace_id = trace_id;
      wait.thread_id = telemetry::current_thread_ordinal();
      wait.start_seconds = enqueued_seconds;
      wait.duration_seconds = telemetry::now_seconds() - enqueued_seconds;
      telemetry::tracer().record(std::move(wait));
    }
    try {
      telemetry::SpanTimer span("query", "engine");
      util::WallTimer timer;
      // Same intra-query fan-out as query(): at low load the
      // helpers start immediately (latency), at high load they
      // queue behind other submitted requests and the claiming
      // thread runs the backend itself (throughput).
      index::QueryOptions options;
      options.threads = workers_;
      index::QueryResult result = index_->query(x, top_k, options);
      record_latency(timer.millis());
      promise->set_value(std::move(result));
    } catch (...) {
      promise->set_exception(std::current_exception());
    }
    {
      // Notify under the lock: once a drain()ing destructor sees
      // pending_ == 0 it may free the engine, so no member may be
      // touched after this block releases the mutex.
      util::MutexLock lock(pending_mutex_);
      --pending_;
      queue_depth_metric().set(static_cast<double>(pending_));
      pending_cv_.notify_all();
    }
  });
  return future;
}

std::future<index::QueryResult> QueryEngine::submit(std::vector<float> x,
                                                    int top_k) {
  {
    // Bounded admission: block while max_pending requests are in
    // flight.  This is the serving tier's backpressure valve — callers
    // slow down instead of the queue growing without bound.
    util::MutexLock lock(pending_mutex_);
    if (pending_ >= max_pending_) {
      ++backpressure_waits_;
      backpressure_metric().inc();
    }
    while (pending_ >= max_pending_) {
      pending_cv_.wait(pending_mutex_);
    }
    ++pending_;
    peak_pending_ = std::max(peak_pending_, pending_);
    queue_depth_metric().set(static_cast<double>(pending_));
    queue_peak_metric().track_max(static_cast<double>(peak_pending_));
  }
  return launch_async(std::move(x), top_k);
}

std::optional<std::future<index::QueryResult>> QueryEngine::try_submit(
    std::vector<float> x, int top_k) {
  {
    util::MutexLock lock(pending_mutex_);
    if (pending_ >= max_pending_) {
      // Load shedding: count the turn-away and give the caller the
      // decision instead of stalling them.
      ++rejections_;
      rejections_metric().inc();
      return std::nullopt;
    }
    ++pending_;
    peak_pending_ = std::max(peak_pending_, pending_);
    queue_depth_metric().set(static_cast<double>(pending_));
    queue_peak_metric().track_max(static_cast<double>(peak_pending_));
  }
  return launch_async(std::move(x), top_k);
}

std::size_t QueryEngine::pending() const {
  util::MutexLock lock(pending_mutex_);
  return pending_;
}

void QueryEngine::drain() {
  util::MutexLock lock(pending_mutex_);
  while (pending_ != 0) {
    pending_cv_.wait(pending_mutex_);
  }
}

void QueryEngine::record_latency(double millis) const {
  // Registry first (lock-free), then the engine-local digest under its
  // mutex — the same sample feeds both, so the views cannot diverge.
  queries_metric().inc();
  latency_metric().observe(millis / 1e3);
  util::MutexLock lock(latency_mutex_);
  lifetime_latency_.add(millis);
  latency_window_.add(millis);
}

void QueryEngine::reset_latency() {
  util::MutexLock lock(latency_mutex_);
  lifetime_latency_ = util::RunningStats();
  latency_window_.clear();
}

LatencySummary QueryEngine::latency_summary() const {
  LatencySummary summary;
  std::vector<double> window;
  {
    util::MutexLock lock(latency_mutex_);
    summary.count = lifetime_latency_.count();
    summary.mean_ms = lifetime_latency_.mean();
    summary.max_ms = lifetime_latency_.max();
    window = latency_window_.samples();
  }
  if (window.empty()) {
    return summary;
  }
  summary.p50_ms = util::quantile(window, 0.5);
  summary.p95_ms = util::quantile(window, 0.95);
  summary.p99_ms = util::quantile(window, 0.99);
  return summary;
}

EngineStats QueryEngine::stats() const {
  EngineStats stats;
  stats.latency = latency_summary();
  util::MutexLock lock(pending_mutex_);
  stats.pending = pending_;
  stats.peak_pending = peak_pending_;
  stats.backpressure_waits = backpressure_waits_;
  stats.rejections = rejections_;
  return stats;
}

}  // namespace topk::serve
