#include "telemetry/trace.hpp"

#include <chrono>
#include <cmath>
#include <limits>
#include <ostream>
#include <sstream>

#include "telemetry/exposition.hpp"

namespace topk::telemetry {

namespace {

/// Formats a double the way the JSON writers do: shortest round-trip
/// representation, "0" for exact zero.
std::string format_number(double value) {
  if (!std::isfinite(value)) {
    // JSON has no Infinity/NaN; a quoted marker keeps the file loadable.
    return "\"nan\"";
  }
  std::ostringstream out;
  out.precision(std::numeric_limits<double>::max_digits10);
  out << value;
  return out.str();
}

}  // namespace

double now_seconds() {
  // One fixed anchor for the whole process: every span and error
  // timestamp is comparable because they all subtract the same origin.
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

SpanArg arg(std::string key, std::uint64_t value) {
  return {std::move(key), std::to_string(value), true};
}

SpanArg arg(std::string key, std::int64_t value) {
  return {std::move(key), std::to_string(value), true};
}

void TraceRecorder::enable(std::size_t capacity) {
  util::MutexLock lock(mutex_);
  spans_.clear();
  dropped_ = 0;
  capacity_ = capacity == 0 ? 1 : capacity;
  spans_.reserve(capacity_);
  // relaxed: the flag is advisory (see enabled()); the buffer swap
  // above is already ordered by the mutex for every recorder.
  enabled_.store(true, std::memory_order_relaxed);
}

void TraceRecorder::disable() {
  enabled_.store(false, std::memory_order_relaxed);
}

void TraceRecorder::record(TraceSpan span) {
  if (!enabled()) {
    return;
  }
  util::MutexLock lock(mutex_);
  if (spans_.size() >= capacity_) {
    ++dropped_;  // bounded buffer: drop-and-count beats unbounded growth
    return;
  }
  spans_.push_back(std::move(span));
}

std::vector<TraceSpan> TraceRecorder::snapshot() const {
  util::MutexLock lock(mutex_);
  return spans_;
}

std::uint64_t TraceRecorder::dropped() const {
  util::MutexLock lock(mutex_);
  return dropped_;
}

void TraceRecorder::clear() {
  util::MutexLock lock(mutex_);
  spans_.clear();
  dropped_ = 0;
}

void TraceRecorder::write_chrome_trace(std::ostream& out) const {
  const std::vector<TraceSpan> spans = snapshot();
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const TraceSpan& span : spans) {
    if (!first) {
      out << ",";
    }
    first = false;
    // Complete events ("ph":"X"): ts/dur are microseconds relative to
    // the process origin; pid is constant (single process), tid is the
    // dense thread ordinal so chrome://tracing draws one lane per
    // worker.
    out << "{\"name\":\"" << json_escape(span.name) << "\",\"cat\":\""
        << json_escape(span.category) << "\",\"ph\":\"X\",\"ts\":"
        << format_number(span.start_seconds * 1e6)
        << ",\"dur\":" << format_number(span.duration_seconds * 1e6)
        << ",\"pid\":1,\"tid\":" << span.thread_id << ",\"args\":{";
    out << "\"trace\":" << span.trace_id;
    for (const SpanArg& span_arg : span.args) {
      out << ",\"" << json_escape(span_arg.key) << "\":";
      if (span_arg.numeric) {
        out << span_arg.value;
      } else {
        out << "\"" << json_escape(span_arg.value) << "\"";
      }
    }
    out << "}}";
  }
  out << "]}\n";
}

TraceRecorder& tracer() {
  // Leaked singleton, same rationale as telemetry::registry(): spans
  // may be recorded from detached workers during process teardown.
  static TraceRecorder* instance = new TraceRecorder();
  return *instance;
}

namespace {

thread_local std::uint64_t t_trace_id = 0;

std::uint32_t next_thread_ordinal() {
  // relaxed: ordinals need uniqueness, not ordering.
  static std::atomic<std::uint32_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

std::uint64_t current_trace_id() noexcept { return t_trace_id; }

std::uint32_t current_thread_ordinal() noexcept {
  thread_local const std::uint32_t ordinal = next_thread_ordinal();
  return ordinal;
}

TraceContextScope::TraceContextScope(std::uint64_t trace_id) noexcept
    : previous_(t_trace_id) {
  t_trace_id = trace_id;
}

TraceContextScope::~TraceContextScope() { t_trace_id = previous_; }

SpanTimer::SpanTimer(std::string name, std::string category) {
  // One relaxed load decides everything: while tracing is off this
  // constructor never touches the clock (the <2% p50 budget).
  if (!tracer().enabled()) {
    return;
  }
  active_ = true;
  span_.name = std::move(name);
  span_.category = std::move(category);
  span_.trace_id = current_trace_id();
  span_.thread_id = current_thread_ordinal();
  span_.start_seconds = now_seconds();
}

SpanTimer::~SpanTimer() {
  if (!active_) {
    return;
  }
  span_.duration_seconds = now_seconds() - span_.start_seconds;
  tracer().record(std::move(span_));
}

void SpanTimer::add_arg(SpanArg span_arg) {
  if (active_) {
    span_.args.push_back(std::move(span_arg));
  }
}

}  // namespace topk::telemetry
