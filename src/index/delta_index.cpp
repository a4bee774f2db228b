#include "index/delta_index.hpp"

#include <algorithm>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "telemetry/metrics.hpp"

namespace topk::index {

namespace {

// Process-wide aggregates over every delta tier; the per-instance view
// stays delta_rows()/tombstones()/mutations() on the index itself.
telemetry::Counter& scans_metric() {
  static telemetry::Counter& c = telemetry::registry().counter(
      "topk_delta_scans_total", {}, "Delta-tier scans served to queries.");
  return c;
}

telemetry::Counter& masked_rows_metric() {
  static telemetry::Counter& c = telemetry::registry().counter(
      "topk_delta_masked_rows_total", {},
      "Base rows hidden from sealed shards across delta scans.");
  return c;
}

telemetry::Counter& mutations_metric() {
  static telemetry::Counter& c = telemetry::registry().counter(
      "topk_delta_mutations_total", {},
      "Mutations accepted by a delta tier (appends, upserts, deletes).");
  return c;
}

telemetry::Gauge& delta_rows_metric() {
  static telemetry::Gauge& g = telemetry::registry().gauge(
      "topk_delta_rows", {},
      "Live delta rows of the most recently mutated delta tier.");
  return g;
}

telemetry::Gauge& tombstones_metric() {
  static telemetry::Gauge& g = telemetry::registry().gauge(
      "topk_delta_tombstones", {},
      "Deleted rows of the most recently mutated delta tier.");
  return g;
}

}  // namespace

DeltaIndex::DeltaIndex(std::uint32_t base_rows, std::uint32_t cols,
                       std::uint64_t capacity)
    : base_rows_(base_rows), cols_(cols), capacity_(capacity),
      next_id_(base_rows) {
  if (cols_ == 0) {
    throw std::invalid_argument("DeltaIndex: zero columns");
  }
}

DeltaIndex::DeltaIndex(std::uint32_t base_rows, std::uint32_t next_id,
                       std::uint32_t cols, std::uint64_t capacity,
                       std::vector<std::uint32_t> inherited,
                       std::map<std::uint32_t, DeltaVersion> versions,
                       std::uint64_t next_seq)
    : base_rows_(base_rows), cols_(cols), capacity_(capacity),
      next_id_(next_id), next_seq_(next_seq),
      versions_(std::move(versions)), inherited_(std::move(inherited)) {
  if (cols_ == 0) {
    throw std::invalid_argument("DeltaIndex: zero columns");
  }
  if (next_id_ < base_rows_) {
    throw std::invalid_argument("DeltaIndex: next_id below base_rows");
  }
  // Strictly increasing: deleted_ counts one per entry below, so a
  // duplicate id would be counted as two deletions.
  if (std::adjacent_find(inherited_.begin(), inherited_.end(),
                         std::greater_equal<>()) != inherited_.end()) {
    throw std::invalid_argument(
        "DeltaIndex: inherited tombstones not strictly increasing");
  }
  if (!inherited_.empty() && inherited_.back() >= base_rows_) {
    throw std::invalid_argument(
        "DeltaIndex: inherited tombstone outside the base");
  }
  for (const auto& [id, version] : versions_) {
    if (id >= next_id_) {
      throw std::invalid_argument("DeltaIndex: version id beyond next_id");
    }
    if (version.seq > next_seq_) {
      throw std::invalid_argument("DeltaIndex: version seq beyond next_seq");
    }
  }
  // Each residual version is one unfolded change the next compaction
  // must pick up; the counter makes "anything to fold?" a single read.
  mutations_ = versions_.size();
  for (const std::uint32_t id : inherited_) {
    if (!versions_.contains(id)) {
      ++deleted_;
    }
  }
  for (const auto& [id, version] : versions_) {
    if (version.tombstone) {
      ++deleted_;
    }
  }
}

bool DeltaIndex::is_deleted_locked(std::uint32_t row) const {
  const auto it = versions_.find(row);
  if (it != versions_.end()) {
    return it->second.tombstone;
  }
  return std::binary_search(inherited_.begin(), inherited_.end(), row);
}

void DeltaIndex::store_row_locked(std::uint32_t row,
                                  std::span<const std::uint32_t> columns,
                                  std::span<const float> values) {
  if (columns.size() != values.size()) {
    throw std::invalid_argument(
        "DeltaIndex: column/value counts differ (" +
        std::to_string(columns.size()) + " vs " +
        std::to_string(values.size()) + ")");
  }
  DeltaVersion version;
  version.columns.assign(columns.begin(), columns.end());
  version.values.assign(values.begin(), values.end());
  // Canonical CSR row order (ascending columns, no duplicates): the
  // scan accumulates in this order, which is exactly what a cold
  // rebuild through Csr::from_coo would do — the bit-identicality
  // invariant hangs on it.
  std::vector<std::size_t> order(version.columns.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return version.columns[a] < version.columns[b];
  });
  DeltaVersion sorted;
  sorted.columns.reserve(order.size());
  sorted.values.reserve(order.size());
  for (const std::size_t i : order) {
    if (version.columns[i] >= cols_) {
      throw std::invalid_argument("DeltaIndex: column " +
                                  std::to_string(version.columns[i]) +
                                  " outside [0, " + std::to_string(cols_) + ")");
    }
    if (!sorted.columns.empty() && sorted.columns.back() == version.columns[i]) {
      throw std::invalid_argument("DeltaIndex: duplicate column " +
                                  std::to_string(version.columns[i]) +
                                  " in inserted row");
    }
    sorted.columns.push_back(version.columns[i]);
    sorted.values.push_back(version.values[i]);
  }
  const bool was_live = row < next_id_ && !is_deleted_locked(row);
  const auto it = versions_.find(row);
  const bool replaces_delta_row =
      it != versions_.end() && !it->second.tombstone;
  if (!replaces_delta_row && capacity_ > 0 && delta_rows_locked() >= capacity_) {
    throw std::runtime_error(
        "DeltaIndex: delta at capacity (" + std::to_string(capacity_) +
        " rows) — compact before inserting more");
  }
  sorted.seq = ++next_seq_;
  ++mutations_;
  if (!was_live && row < next_id_) {
    --deleted_;  // revived
  }
  versions_.insert_or_assign(it == versions_.end() ? versions_.begin() : it,
                             row, std::move(sorted));
  if (row == next_id_) {
    ++next_id_;
  }
}

std::uint32_t DeltaIndex::append_row(std::span<const std::uint32_t> columns,
                                     std::span<const float> values) {
  util::WriterLock lock(mutex_);
  const std::uint32_t id = next_id_;
  store_row_locked(id, columns, values);
  mutations_metric().inc();
  delta_rows_metric().set(static_cast<double>(delta_rows_locked()));
  return id;
}

void DeltaIndex::upsert_row(std::uint32_t row,
                            std::span<const std::uint32_t> columns,
                            std::span<const float> values) {
  util::WriterLock lock(mutex_);
  if (row > next_id_) {
    throw std::invalid_argument("DeltaIndex: upsert at row " +
                                std::to_string(row) + " beyond the id space [0, " +
                                std::to_string(next_id_) + "]");
  }
  store_row_locked(row, columns, values);
  mutations_metric().inc();
  delta_rows_metric().set(static_cast<double>(delta_rows_locked()));
}

bool DeltaIndex::delete_row(std::uint32_t row) {
  util::WriterLock lock(mutex_);
  if (row >= next_id_) {
    throw std::invalid_argument("DeltaIndex: delete of nonexistent row " +
                                std::to_string(row) + " (rows: " +
                                std::to_string(next_id_) + ")");
  }
  if (is_deleted_locked(row)) {
    return false;
  }
  DeltaVersion tombstone;
  tombstone.tombstone = true;
  tombstone.seq = ++next_seq_;
  ++mutations_;
  ++deleted_;
  versions_.insert_or_assign(row, std::move(tombstone));
  mutations_metric().inc();
  tombstones_metric().set(static_cast<double>(deleted_));
  return true;
}

DeltaIndex::Scan DeltaIndex::scan(std::span<const float> x, int top_k) const {
  util::ReaderLock lock(mutex_);
  Scan out;
  // Mask = inherited ∪ {version ids < base_rows}: both lists are
  // sorted (std::map iterates ascending), so a linear merge dedupes.
  auto inherited_it = inherited_.begin();
  const auto push_masked = [&](std::uint32_t id) {
    if (out.masked.empty() || out.masked.back() != id) {
      out.masked.push_back(id);
    }
  };
  std::vector<core::TopKEntry> scored;
  scored.reserve(versions_.size());
  for (const auto& [id, version] : versions_) {
    if (id < base_rows_) {
      while (inherited_it != inherited_.end() && *inherited_it < id) {
        push_masked(*inherited_it++);
      }
      push_masked(id);
    }
    if (version.tombstone) {
      continue;
    }
    double acc = 0.0;
    for (std::size_t i = 0; i < version.columns.size(); ++i) {
      acc += static_cast<double>(version.values[i]) *
             static_cast<double>(x[version.columns[i]]);
    }
    scored.push_back(core::TopKEntry{id, acc});
  }
  while (inherited_it != inherited_.end()) {
    push_masked(*inherited_it++);
  }
  out.scanned = scored.size();
  scans_metric().inc();
  masked_rows_metric().add(static_cast<std::uint64_t>(out.masked.size()));
  const auto cut = std::min<std::size_t>(
      scored.size(), static_cast<std::size_t>(std::max(top_k, 0)));
  std::partial_sort(scored.begin(), scored.begin() + static_cast<std::ptrdiff_t>(cut),
                    scored.end(), core::TopKEntryOrder{});
  scored.resize(cut);
  out.entries = std::move(scored);
  return out;
}

std::uint32_t DeltaIndex::rows() const noexcept {
  util::ReaderLock lock(mutex_);
  return next_id_;
}

std::uint64_t DeltaIndex::memory_bytes() const {
  util::ReaderLock lock(mutex_);
  std::uint64_t bytes = 0;
  for (const auto& [id, version] : versions_) {
    bytes += version.columns.size() * 4 + version.values.size() * 4;
  }
  return bytes;
}

std::uint64_t DeltaIndex::live_rows() const {
  util::ReaderLock lock(mutex_);
  return static_cast<std::uint64_t>(next_id_) - deleted_;
}

std::uint64_t DeltaIndex::delta_rows() const {
  // The lockless predecessor of this method raced stats readers
  // (delta_stats()/describe() walking versions_) against concurrent
  // mutations rebalancing the map — the annotation migration flagged
  // it, and tests/test_mutable.cpp's ConcurrentDeltaStats TSan stress
  // is the regression.
  util::ReaderLock lock(mutex_);
  return delta_rows_locked();
}

std::uint64_t DeltaIndex::delta_rows_locked() const {
  std::uint64_t live_versions = 0;
  for (const auto& [id, version] : versions_) {
    if (!version.tombstone) {
      ++live_versions;
    }
  }
  return live_versions;
}

std::uint64_t DeltaIndex::tombstones() const {
  util::ReaderLock lock(mutex_);
  return deleted_;
}

std::uint64_t DeltaIndex::superseded() const {
  util::ReaderLock lock(mutex_);
  std::uint64_t count = 0;
  for (const auto& [id, version] : versions_) {
    if (id < base_rows_ && !version.tombstone) {
      ++count;
    }
  }
  return count;
}

std::uint64_t DeltaIndex::mutations() const {
  util::ReaderLock lock(mutex_);
  return mutations_;
}

DeltaIndex::Snapshot DeltaIndex::snapshot() const {
  util::ReaderLock lock(mutex_);
  Snapshot out;
  out.base_rows = base_rows_;
  out.next_id = next_id_;
  out.seq = next_seq_;
  out.versions.assign(versions_.begin(), versions_.end());
  out.inherited = inherited_;
  return out;
}

}  // namespace topk::index
