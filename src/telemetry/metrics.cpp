#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>

namespace topk::telemetry {

namespace {

/// Canonical series identity: labels sorted by name.  Throws on a
/// duplicate label name — {shard="0", shard="1"} is a bug at the call
/// site, not two series.
Labels canonicalize(Labels labels) {
  std::sort(labels.begin(), labels.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t i = 1; i < labels.size(); ++i) {
    if (labels[i].first == labels[i - 1].first) {
      throw std::invalid_argument("telemetry: duplicate label name '" +
                                  labels[i].first + "'");
    }
  }
  return labels;
}

}  // namespace

bool valid_metric_name(const std::string& name) {
  if (name.empty()) {
    return false;
  }
  const auto head = [](char c) {
    return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_' ||
           c == ':';
  };
  const auto tail = [&](char c) {
    return head(c) || std::isdigit(static_cast<unsigned char>(c)) != 0;
  };
  if (!head(name.front())) {
    return false;
  }
  return std::all_of(name.begin() + 1, name.end(), tail);
}

bool valid_label_name(const std::string& name) {
  // Same grammar as metric names minus the colon (reserved for
  // recording rules in Prometheus).
  return valid_metric_name(name) && name.find(':') == std::string::npos;
}

std::string to_string(MetricType type) {
  switch (type) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "unknown";
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), counts_(bounds_.size() + 1) {
  if (bounds_.empty()) {
    throw std::invalid_argument("Histogram: need at least one bucket bound");
  }
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    if (bounds_[i] <= bounds_[i - 1]) {
      throw std::invalid_argument(
          "Histogram: bounds must be strictly increasing");
    }
  }
}

void Histogram::observe(double value) noexcept {
  // First bound >= value is the Prometheus-`le` bucket; everything
  // above the last finite bound lands in the trailing overflow cell.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const auto bucket =
      static_cast<std::size_t>(std::distance(bounds_.begin(), it));
  // relaxed bucket add + relaxed CAS sum: advisory counts, nothing is
  // published through them (see metrics.hpp header comment).
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  double sum = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(sum, sum + value,
                                     std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  snap.counts.reserve(counts_.size());
  for (const auto& cell : counts_) {
    // relaxed: per-cell atomicity is the snapshot contract; cross-cell
    // skew of in-flight observations is documented and acceptable.
    const std::uint64_t n = cell.load(std::memory_order_relaxed);
    snap.counts.push_back(n);
    snap.count += n;
  }
  snap.sum = sum_.load(std::memory_order_relaxed);
  return snap;
}

std::vector<double> Histogram::exponential_buckets(double start, double factor,
                                                   int count) {
  if (start <= 0.0 || factor <= 1.0 || count < 1) {
    throw std::invalid_argument(
        "exponential_buckets: need start > 0, factor > 1, count >= 1");
  }
  std::vector<double> bounds;
  bounds.reserve(static_cast<std::size_t>(count));
  double bound = start;
  for (int i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= factor;
  }
  return bounds;
}

MetricsRegistry::Series& MetricsRegistry::find_or_create(
    const std::string& name, Labels labels, const std::string& help,
    MetricType type, const std::vector<double>* bounds) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument("telemetry: invalid metric name '" + name +
                                "'");
  }
  for (const auto& [label, _] : labels) {
    if (!valid_label_name(label)) {
      throw std::invalid_argument("telemetry: invalid label name '" + label +
                                  "' on metric '" + name + "'");
    }
  }
  Labels canonical = canonicalize(std::move(labels));

  Family* family = nullptr;
  for (const auto& candidate : families_) {
    if (candidate->name == name) {
      family = candidate.get();
      break;
    }
  }
  if (family == nullptr) {
    auto fresh = std::make_unique<Family>();
    fresh->name = name;
    fresh->help = help;
    fresh->type = type;
    if (bounds != nullptr) {
      fresh->bounds = *bounds;
    }
    families_.push_back(std::move(fresh));
    family = families_.back().get();
  } else {
    if (family->type != type) {
      throw std::invalid_argument("telemetry: metric '" + name +
                                  "' re-registered as " + to_string(type) +
                                  ", previously " + to_string(family->type));
    }
    if (bounds != nullptr && family->bounds != *bounds) {
      throw std::invalid_argument(
          "telemetry: histogram '" + name +
          "' re-registered with different bucket bounds");
    }
    if (family->help.empty() && !help.empty()) {
      family->help = help;
    }
  }

  for (auto& series : family->series) {
    if (series.labels == canonical) {
      return series;
    }
  }
  Series series;
  series.labels = std::move(canonical);
  switch (type) {
    case MetricType::kCounter:
      series.counter = std::make_unique<Counter>();
      break;
    case MetricType::kGauge:
      series.gauge = std::make_unique<Gauge>();
      break;
    case MetricType::kHistogram:
      series.histogram = std::make_unique<Histogram>(family->bounds);
      break;
  }
  family->series.push_back(std::move(series));
  return family->series.back();
}

Counter& MetricsRegistry::counter(const std::string& name, Labels labels,
                                  const std::string& help) {
  util::MutexLock lock(mutex_);
  return *find_or_create(name, std::move(labels), help, MetricType::kCounter,
                         nullptr)
              .counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, Labels labels,
                              const std::string& help) {
  util::MutexLock lock(mutex_);
  return *find_or_create(name, std::move(labels), help, MetricType::kGauge,
                         nullptr)
              .gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> upper_bounds,
                                      Labels labels, const std::string& help) {
  util::MutexLock lock(mutex_);
  return *find_or_create(name, std::move(labels), help, MetricType::kHistogram,
                         &upper_bounds)
              .histogram;
}

std::vector<FamilySnapshot> MetricsRegistry::snapshot() const {
  std::vector<FamilySnapshot> families;
  {
    util::MutexLock lock(mutex_);
    families.reserve(families_.size());
    for (const auto& family : families_) {
      FamilySnapshot snap;
      snap.name = family->name;
      snap.help = family->help;
      snap.type = family->type;
      snap.series.reserve(family->series.size());
      for (const auto& series : family->series) {
        SeriesSnapshot cell;
        cell.labels = series.labels;
        switch (family->type) {
          case MetricType::kCounter:
            cell.value = static_cast<double>(series.counter->value());
            break;
          case MetricType::kGauge:
            cell.value = series.gauge->value();
            break;
          case MetricType::kHistogram:
            cell.histogram = series.histogram->snapshot();
            break;
        }
        snap.series.push_back(std::move(cell));
      }
      families.push_back(std::move(snap));
    }
  }
  std::sort(families.begin(), families.end(),
            [](const FamilySnapshot& a, const FamilySnapshot& b) {
              return a.name < b.name;
            });
  for (auto& family : families) {
    std::sort(family.series.begin(), family.series.end(),
              [](const SeriesSnapshot& a, const SeriesSnapshot& b) {
                return a.labels < b.labels;
              });
  }
  return families;
}

MetricsRegistry& registry() {
  // Function-local static: constructed on first use, never destroyed
  // order-sensitively before the instruments that reference it (leaked
  // at exit is fine for a process-lifetime registry).
  static MetricsRegistry* instance = new MetricsRegistry();
  return *instance;
}

}  // namespace topk::telemetry
