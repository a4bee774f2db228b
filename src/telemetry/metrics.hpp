// Process-wide metrics registry: the one vocabulary every layer of the
// serving stack counts in (tools/lint.py -Wraw-stat enforces it for
// stat-shaped atomics outside this directory).
//
// Three instrument types, all lock-free on the hot path:
//
//   * Counter   — monotonic uint64, one relaxed fetch_add per event;
//   * Gauge     — last-writer-wins double (set) with a CAS add path
//                 for +/- deltas (queue depth, in-flight);
//   * Histogram — fixed log-scale buckets chosen at registration, one
//                 relaxed increment + one CAS sum-add per observation.
//
// Memory ordering: every atomic operation in this header is relaxed,
// on purpose.  Metrics are advisory monotonic counts and last-value
// hints — no other memory is published through them, and a scrape that
// reads a value one event stale is indistinguishable from a scrape
// scheduled one microsecond earlier.  Snapshots promise per-cell
// atomicity, never cross-cell consistency (a histogram's sum may run
// one in-flight observation ahead of its buckets).
//
// Registration (name + sorted labels) deduplicates behind a
// util::Mutex — it runs once per call site thanks to the function-
// local-static handle idiom:
//
//   telemetry::Counter& queries() {
//     static telemetry::Counter& c = telemetry::registry().counter(
//         "topk_engine_queries_total", {}, "Queries served.");
//     return c;
//   }
//   ... queries().inc();            // hot path: one relaxed add
//
// Instrument references stay valid for the registry's lifetime (cells
// are heap-allocated and never removed).  Exposition lives in
// telemetry/exposition.hpp; per-query tracing in telemetry/trace.hpp.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/sync.hpp"

namespace topk::telemetry {

/// (label name, label value) pairs; canonicalised (sorted by name) at
/// registration, so {a=1, b=2} and {b=2, a=1} are the same series.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonic event counter.
class Counter {
 public:
  /// relaxed: an independent monotonic count — nothing is published
  /// through it (see the header comment).
  void add(std::uint64_t n) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  void inc() noexcept { add(1); }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-writer-wins scalar with an add path for +/- deltas.
class Gauge {
 public:
  /// relaxed store: a last-value hint; scrapes read whatever the most
  /// recent writer left.
  void set(double value) noexcept {
    value_.store(value, std::memory_order_relaxed);
  }
  /// relaxed CAS loop: per-update atomicity is all a running delta
  /// needs — a lost race simply re-adds against the winner's value.
  void add(double delta) noexcept {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  /// Raises the gauge to `candidate` if it is above the current value
  /// (peak tracking).  relaxed CAS: same per-update argument as add().
  void track_max(double candidate) noexcept {
    double current = value_.load(std::memory_order_relaxed);
    while (current < candidate &&
           !value_.compare_exchange_weak(current, candidate,
                                         std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Point-in-time copy of one histogram cell.
struct HistogramSnapshot {
  std::vector<double> bounds;         ///< finite upper edges, ascending
  std::vector<std::uint64_t> counts;  ///< bounds.size() + 1 (overflow last)
  std::uint64_t count = 0;            ///< total observations
  double sum = 0.0;                   ///< sum of observed values
};

/// Fixed-bucket histogram: bucket i counts observations <= bounds[i]
/// (Prometheus `le` semantics), plus one overflow bucket.
class Histogram {
 public:
  /// Throws std::invalid_argument on an empty or non-increasing bound
  /// list.
  explicit Histogram(std::vector<double> upper_bounds);

  /// Records one observation: a binary search over the immutable
  /// bounds, one relaxed bucket increment, one relaxed CAS sum-add.
  void observe(double value) noexcept;

  [[nodiscard]] HistogramSnapshot snapshot() const;

  /// `count` log-scale bucket bounds starting at `start`, each
  /// `factor` times the previous (Prometheus exponential_buckets).
  /// Throws std::invalid_argument for start <= 0, factor <= 1 or
  /// count < 1.
  [[nodiscard]] static std::vector<double> exponential_buckets(double start,
                                                               double factor,
                                                               int count);

  /// The default latency bucket ladder: 10 us to ~84 s, x2.5 per
  /// bucket — wide enough for a cold fpga-sim build and fine enough
  /// around the millisecond serving range.
  [[nodiscard]] static std::vector<double> latency_buckets() {
    return exponential_buckets(1e-5, 2.5, 18);
  }

 private:
  std::vector<double> bounds_;
  /// bounds_.size() + 1 cells, sized once in the constructor (vector
  /// of atomics is fine as long as it never reallocates).
  std::vector<std::atomic<std::uint64_t>> counts_;
  std::atomic<double> sum_{0.0};
};

enum class MetricType { kCounter, kGauge, kHistogram };

[[nodiscard]] std::string to_string(MetricType type);

/// One labelled cell of a family, snapshot form.
struct SeriesSnapshot {
  Labels labels;                ///< canonical (sorted by label name)
  double value = 0.0;           ///< counter/gauge value
  HistogramSnapshot histogram;  ///< histogram families only
};

/// One metric family (name + type + help) with its labelled series.
struct FamilySnapshot {
  std::string name;
  std::string help;
  MetricType type = MetricType::kCounter;
  std::vector<SeriesSnapshot> series;
};

/// Name + label registration with snapshot export.  Thread-safe; the
/// returned instrument references live as long as the registry.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the counter cell for (name, labels), creating it on first
  /// use.  `help` is adopted from the first registration of the
  /// family.  Throws std::invalid_argument on an invalid metric/label
  /// name, a duplicate label name, or a type clash with an existing
  /// family.
  Counter& counter(const std::string& name, Labels labels = {},
                   const std::string& help = "");

  /// Gauge flavour of counter(); same validation and dedup rules.
  Gauge& gauge(const std::string& name, Labels labels = {},
               const std::string& help = "");

  /// Histogram flavour: `upper_bounds` must match the family's bounds
  /// on every registration (a drifting bucket layout would corrupt the
  /// aggregated exposition).
  Histogram& histogram(const std::string& name,
                       std::vector<double> upper_bounds, Labels labels = {},
                       const std::string& help = "");

  /// Point-in-time copy of every family, sorted by name with series
  /// sorted by canonical labels — deterministic exposition order.
  [[nodiscard]] std::vector<FamilySnapshot> snapshot() const;

 private:
  struct Series {
    Labels labels;  ///< canonical
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    std::string name;
    std::string help;
    MetricType type = MetricType::kCounter;
    std::vector<double> bounds;  ///< histogram families only
    std::vector<Series> series;
  };

  /// Finds/creates the family and the series cell under mutex_; the
  /// instrument pointers are stable because cells are unique_ptr-held.
  Series& find_or_create(const std::string& name, Labels labels,
                         const std::string& help, MetricType type,
                         const std::vector<double>* bounds)
      TOPK_REQUIRES(mutex_);

  mutable util::Mutex mutex_;
  /// unique_ptr keeps Family addresses stable across vector growth.
  std::vector<std::unique_ptr<Family>> families_ TOPK_GUARDED_BY(mutex_);
};

/// The process-wide registry every built-in instrument registers with.
[[nodiscard]] MetricsRegistry& registry();

/// True for a legal Prometheus metric name ([a-zA-Z_:][a-zA-Z0-9_:]*).
[[nodiscard]] bool valid_metric_name(const std::string& name);
/// True for a legal label name ([a-zA-Z_][a-zA-Z0-9_]*).
[[nodiscard]] bool valid_label_name(const std::string& name);

}  // namespace topk::telemetry
