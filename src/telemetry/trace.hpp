// Per-query trace spans, exportable as Chrome trace-event JSON
// (chrome://tracing / Perfetto "Open trace file").
//
// Model: a trace id is minted where a request enters the system
// (serve::QueryEngine::submit, persist::Compactor::compact) and rides
// thread-local storage through the fan-out — scatter lambdas capture
// current_trace_id() before posting and re-establish it inside the
// pool thread with a TraceContextScope, so every span a worker records
// lands on the right query.
//
// Recording is OFF by default and costs one relaxed atomic load per
// would-be span; SpanTimer skips the clock entirely while disabled, so
// the acceptance gate "<2% p50 regression with telemetry enabled" is
// measured against an honest zero-cost baseline.  When enabled, spans
// are buffered in a fixed-capacity ring guarded by util::Mutex —
// recording drops (and counts) spans past capacity instead of growing
// unbounded under load.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "util/sync.hpp"

namespace topk::telemetry {

/// Steady-clock seconds since process start — the time base for every
/// span and for ReplicaStats::last_error_seconds.  Monotonic and
/// comparable across threads; never wall-clock.
[[nodiscard]] double now_seconds();

/// One key/value annotation on a span.  `numeric` values are emitted
/// as bare JSON numbers/booleans, others as JSON strings.
struct SpanArg {
  std::string key;
  std::string value;
  bool numeric = false;
};

[[nodiscard]] inline SpanArg arg(std::string key, std::string value) {
  return {std::move(key), std::move(value), false};
}
[[nodiscard]] SpanArg arg(std::string key, std::uint64_t value);
[[nodiscard]] SpanArg arg(std::string key, std::int64_t value);
[[nodiscard]] inline SpanArg arg(std::string key, int value) {
  return arg(std::move(key), static_cast<std::int64_t>(value));
}
[[nodiscard]] inline SpanArg arg(std::string key, bool value) {
  return {std::move(key), value ? "true" : "false", true};
}

/// One completed span ("ph":"X" in the Chrome trace-event format).
struct TraceSpan {
  std::string name;          ///< e.g. "query", "cell", "fold"
  std::string category;      ///< e.g. "engine", "shard", "compact"
  std::uint64_t trace_id = 0;
  std::uint32_t thread_id = 0;     ///< small per-process thread ordinal
  double start_seconds = 0.0;      ///< now_seconds() at span open
  double duration_seconds = 0.0;
  std::vector<SpanArg> args;
};

/// Fixed-capacity span buffer.  Disabled (and free) until enable().
class TraceRecorder {
 public:
  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Starts recording into a fresh buffer of at most `capacity` spans.
  void enable(std::size_t capacity = kDefaultCapacity);
  void disable();
  /// relaxed: a stale read costs one extra/missing span, never a race
  /// (the span buffer itself is mutex-guarded).
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Fresh process-unique trace id (first id is 1; 0 means "no trace").
  [[nodiscard]] std::uint64_t mint_trace_id() noexcept {
    // relaxed: uniqueness needs atomicity only, not ordering.
    return next_trace_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Buffers one span; drops it (counted) when full or disabled.
  void record(TraceSpan span);

  [[nodiscard]] std::vector<TraceSpan> snapshot() const;
  [[nodiscard]] std::uint64_t dropped() const;
  void clear();

  /// Writes the buffered spans as a Chrome trace-event JSON object
  /// ({"traceEvents":[...]}; ts/dur in microseconds, one tid per
  /// recording thread, trace id surfaced in args).
  void write_chrome_trace(std::ostream& out) const;

  static constexpr std::size_t kDefaultCapacity = 65536;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_trace_id_{0};
  mutable util::Mutex mutex_;
  std::vector<TraceSpan> spans_ TOPK_GUARDED_BY(mutex_);
  std::size_t capacity_ TOPK_GUARDED_BY(mutex_) = kDefaultCapacity;
  std::uint64_t dropped_ TOPK_GUARDED_BY(mutex_) = 0;
};

/// The process-wide recorder every built-in span feeds.
[[nodiscard]] TraceRecorder& tracer();

/// The trace id attached to the calling thread (0 = none).
[[nodiscard]] std::uint64_t current_trace_id() noexcept;

/// Small per-process ordinal for the calling thread (stable, dense —
/// nicer chrome://tracing lanes than raw pthread ids).
[[nodiscard]] std::uint32_t current_thread_ordinal() noexcept;

/// RAII: installs `trace_id` as the calling thread's current trace id
/// and restores the previous one on destruction.  Scatter lambdas open
/// one of these first thing inside the pool thread.
class TraceContextScope {
 public:
  explicit TraceContextScope(std::uint64_t trace_id) noexcept;
  ~TraceContextScope();

  TraceContextScope(const TraceContextScope&) = delete;
  TraceContextScope& operator=(const TraceContextScope&) = delete;

 private:
  std::uint64_t previous_;
};

/// RAII span: opens at construction, records at destruction — but only
/// when the recorder was enabled at construction time (one relaxed
/// load; the clock is never read while tracing is off).
class SpanTimer {
 public:
  SpanTimer(std::string name, std::string category);
  ~SpanTimer();

  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

  /// Attaches an annotation (no-op while disabled).
  void add_arg(SpanArg span_arg);
  [[nodiscard]] bool active() const noexcept { return active_; }

 private:
  TraceSpan span_;
  bool active_ = false;
};

}  // namespace topk::telemetry
