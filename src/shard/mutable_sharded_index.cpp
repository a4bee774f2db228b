#include "shard/mutable_sharded_index.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "telemetry/trace.hpp"
#include "util/timer.hpp"

namespace topk::shard {

namespace {

std::shared_ptr<index::DeltaIndex> make_delta(
    const ShardedIndex& base, std::uint64_t capacity,
    std::vector<std::uint32_t> inherited) {
  if (inherited.empty()) {
    return std::make_shared<index::DeltaIndex>(base.rows(), base.cols(),
                                               capacity);
  }
  return std::make_shared<index::DeltaIndex>(
      base.rows(), base.rows(), base.cols(), capacity, std::move(inherited),
      std::map<std::uint32_t, index::DeltaVersion>{}, std::uint64_t{0});
}

}  // namespace

MutableShardedIndex::MutableShardedIndex(
    std::shared_ptr<const ShardedIndex> base,
    std::shared_ptr<const sparse::Csr> base_matrix, RebuildRecipe recipe,
    MutableConfig config, std::uint64_t generation,
    std::vector<std::uint32_t> inherited)
    : recipe_(std::move(recipe)), config_(std::move(config)) {
  if (!base) {
    throw std::invalid_argument(config_.label + ": null base index");
  }
  if (base_matrix &&
      (base_matrix->rows() != base->rows() ||
       base_matrix->cols() != base->cols())) {
    throw std::invalid_argument(config_.label +
                                ": base matrix shape disagrees with the "
                                "sealed base");
  }
  auto state = std::make_shared<State>();
  state->delta =
      make_delta(*base, config_.delta_capacity, std::move(inherited));
  state->base = std::move(base);
  state->base_matrix = std::move(base_matrix);
  state->generation = generation;
  state_ = std::move(state);
}

std::shared_ptr<const MutableShardedIndex::State>
MutableShardedIndex::current_state() const {
  util::ReaderLock lock(mutex_);
  return state_;
}

// ---- MutableIndex surface ------------------------------------------------

// Mutations hold the state lock SHARED across the delta call: a
// concurrent swap (exclusive) either waits for the mutation to land in
// the delta it is about to fold/split, or the mutation sees the fresh
// delta — a mutation can never slip into a retired delta unseen.

std::uint32_t MutableShardedIndex::insert_row(
    std::span<const std::uint32_t> columns, std::span<const float> values) {
  util::ReaderLock lock(mutex_);
  return state_->delta->append_row(columns, values);
}

void MutableShardedIndex::insert_row(std::uint32_t row,
                                     std::span<const std::uint32_t> columns,
                                     std::span<const float> values) {
  util::ReaderLock lock(mutex_);
  state_->delta->upsert_row(row, columns, values);
}

bool MutableShardedIndex::delete_row(std::uint32_t row) {
  util::ReaderLock lock(mutex_);
  return state_->delta->delete_row(row);
}

std::uint64_t MutableShardedIndex::live_rows() const {
  return current_state()->delta->live_rows();
}

index::DeltaStats MutableShardedIndex::delta_stats() const {
  const auto state = current_state();
  index::DeltaStats stats;
  stats.generation = state->generation;
  stats.delta_rows = state->delta->delta_rows();
  stats.tombstones = state->delta->tombstones();
  stats.superseded = state->delta->superseded();
  stats.mutations_since_seal = state->delta->mutations();
  stats.delta_capacity = config_.delta_capacity;
  stats.compact_threshold = config_.compact_threshold;
  return stats;
}

// ---- SimilarityIndex surface ---------------------------------------------

index::QueryResult MutableShardedIndex::annotate(
    index::QueryResult result, const State& state,
    const index::DeltaIndex::Scan& scan) const {
  index::MutableTierStats stats;
  if (const auto* shard =
          std::get_if<index::ShardStats>(&result.stats.backend)) {
    stats.shard = *shard;
  }
  stats.generation = state.generation;
  stats.delta_scanned = scan.scanned;
  stats.delta_candidates = static_cast<std::uint64_t>(scan.entries.size());
  stats.masked_rows = static_cast<std::uint64_t>(scan.masked.size());
  result.stats.rows_scanned += scan.scanned;
  result.stats.backend = stats;
  return result;
}

index::QueryResult MutableShardedIndex::query(
    std::span<const float> x, int top_k,
    const index::QueryOptions& options) const {
  validate_query(x, top_k);
  return std::move(serve({&x, 1}, top_k, options).front());
}

std::vector<index::QueryResult> MutableShardedIndex::query_batch(
    const std::vector<std::vector<float>>& queries, int top_k,
    const index::QueryOptions& options) const {
  validate_batch(queries, top_k);
  const std::vector<std::span<const float>> views(queries.begin(),
                                                  queries.end());
  return serve(views, top_k, options);
}

std::vector<index::QueryResult> MutableShardedIndex::serve(
    std::span<const std::span<const float>> queries, int top_k,
    const index::QueryOptions& options) const {
  // One state copy per call: the generation serving these queries
  // stays alive (shared_ptr) across the scan + scatter even if a
  // compaction swaps mid-flight, and the scans + overlays come from
  // the same delta, so every query sees one consistent logical matrix.
  const auto state = current_state();
  std::vector<index::DeltaIndex::Scan> scans;
  scans.reserve(queries.size());
  std::vector<ShardedIndex::DeltaOverlay> overlays;
  overlays.reserve(queries.size());
  {
    telemetry::SpanTimer span("delta-scan", "mutable");
    std::uint64_t scanned = 0;
    std::uint64_t masked = 0;
    for (const std::span<const float> x : queries) {
      scans.push_back(state->delta->scan(x, top_k));
      overlays.push_back(ShardedIndex::DeltaOverlay{scans.back().entries,
                                                    scans.back().masked});
      scanned += scans.back().scanned;
      masked += static_cast<std::uint64_t>(scans.back().masked.size());
    }
    if (span.active()) {
      span.add_arg(telemetry::arg("queries",
                                  static_cast<std::uint64_t>(queries.size())));
      span.add_arg(telemetry::arg("scanned", scanned));
      span.add_arg(telemetry::arg("masked", masked));
    }
  }
  std::vector<index::QueryResult> results =
      state->base->query_with_delta(queries, top_k, overlays, options);
  for (std::size_t q = 0; q < results.size(); ++q) {
    results[q] = annotate(std::move(results[q]), *state, scans[q]);
  }
  return results;
}

std::uint32_t MutableShardedIndex::rows() const noexcept {
  return current_state()->delta->rows();
}

std::uint32_t MutableShardedIndex::cols() const noexcept {
  return current_state()->base->cols();
}

int MutableShardedIndex::max_top_k() const noexcept {
  return current_state()->base->max_top_k();
}

index::IndexDescription MutableShardedIndex::describe() const {
  const auto state = current_state();
  const index::IndexDescription base = state->base->describe();
  index::IndexDescription description;
  description.backend = config_.label;
  description.detail = "generation " + std::to_string(state->generation) +
                       ": " + base.detail + " + delta (" +
                       std::to_string(state->delta->delta_rows()) +
                       " live rows, " +
                       std::to_string(state->delta->tombstones()) +
                       " tombstones)";
  description.exact = base.exact;  // the delta scan is always exact
  description.rows = state->delta->rows();
  description.cols = base.cols;
  description.max_top_k = base.max_top_k;
  description.memory_bytes = base.memory_bytes + state->delta->memory_bytes();
  return description;
}

std::shared_ptr<const ShardedIndex> MutableShardedIndex::base() const {
  return current_state()->base;
}

// ---- compaction protocol -------------------------------------------------

std::optional<MutableShardedIndex::CompactionTicket>
MutableShardedIndex::begin_compaction() {
  util::WallTimer timer;
  CompactionTicket ticket;
  std::shared_ptr<const State> state;
  {
    // The exclusive section only claims the guard; the O(delta)
    // snapshot copy runs below with queries and mutations flowing.
    util::WriterLock lock(mutex_);
    if (compacting_) {
      throw std::logic_error(config_.label +
                             ": a compaction is already in flight");
    }
    if (state_->delta->mutations() == 0) {
      return std::nullopt;  // empty-delta no-op; the guard stays free
    }
    if (!state_->base_matrix) {
      throw std::runtime_error(
          config_.label +
          ": no host copy of the base matrix to fold against (an fpga-sim "
          "warm load serves its quantised device image only — rebuild cold "
          "to compact)");
    }
    compacting_ = true;
    state = state_;
  }
  // The claimed guard pins this generation: no other compaction can
  // swap state_ until finish/abort, so the snapshot below is of the
  // live delta.  Mutations landing during the copy get sequence
  // numbers above the snapshot watermark and ride over as residuals.
  ticket.generation = state->generation;
  ticket.snapshot = state->delta->snapshot();
  ticket.base_matrix = state->base_matrix;
  ticket.recipe = recipe_;
  ticket.snapshot_seconds = timer.seconds();
  return ticket;
}

MutableShardedIndex::FoldedMatrix MutableShardedIndex::fold(
    const CompactionTicket& ticket) {
  const index::DeltaIndex::Snapshot& snap = ticket.snapshot;
  const sparse::Csr& base = *ticket.base_matrix;
  FoldedMatrix out;
  std::vector<std::uint64_t> row_ptr;
  row_ptr.reserve(static_cast<std::size_t>(snap.next_id) + 1);
  row_ptr.push_back(0);
  std::vector<std::uint32_t> col_idx;
  std::vector<float> values;

  auto version_it = snap.versions.begin();
  auto inherited_it = snap.inherited.begin();
  for (std::uint32_t id = 0; id < snap.next_id; ++id) {
    const index::DeltaVersion* version = nullptr;
    if (version_it != snap.versions.end() && version_it->first == id) {
      version = &version_it->second;
      ++version_it;
    }
    while (inherited_it != snap.inherited.end() && *inherited_it < id) {
      ++inherited_it;
    }
    const bool inherited =
        inherited_it != snap.inherited.end() && *inherited_it == id;
    if (version != nullptr && !version->tombstone) {
      col_idx.insert(col_idx.end(), version->columns.begin(),
                     version->columns.end());
      values.insert(values.end(), version->values.begin(),
                    version->values.end());
    } else if (version == nullptr && id < snap.base_rows && !inherited) {
      const auto cols = base.row_cols(id);
      const auto vals = base.row_values(id);
      col_idx.insert(col_idx.end(), cols.begin(), cols.end());
      values.insert(values.end(), vals.begin(), vals.end());
    } else {
      // Tombstoned, inherited, or (defensively) an appended id with no
      // version: folded as an empty row that the next generation's
      // inherited set keeps masked forever.
      out.retired.push_back(id);
    }
    row_ptr.push_back(static_cast<std::uint64_t>(col_idx.size()));
  }
  out.matrix = sparse::Csr::from_parts(snap.next_id, base.cols(),
                                       std::move(row_ptr), std::move(col_idx),
                                       std::move(values));
  return out;
}

double MutableShardedIndex::finish_compaction(
    const CompactionTicket& ticket,
    std::shared_ptr<const ShardedIndex> next_base,
    std::shared_ptr<const sparse::Csr> next_matrix,
    std::vector<std::uint32_t> retired) {
  if (!next_base || !next_matrix) {
    throw std::invalid_argument(config_.label +
                                ": null next generation handed to "
                                "finish_compaction");
  }
  if (next_base->rows() != ticket.snapshot.next_id ||
      next_matrix->rows() != ticket.snapshot.next_id) {
    throw std::invalid_argument(
        config_.label + ": next generation rows (" +
        std::to_string(next_base->rows()) +
        ") disagree with the folded id space (" +
        std::to_string(ticket.snapshot.next_id) + ")");
  }
  util::WallTimer timer;
  util::WriterLock lock(mutex_);
  if (!compacting_ || state_->generation != ticket.generation) {
    throw std::logic_error(config_.label +
                           ": finish_compaction without a matching "
                           "begin_compaction");
  }
  // Mutations are blocked right now (they hold mutex_ shared), so the
  // residual split is exact: everything folded has seq <= the snapshot
  // watermark, everything newer moves into the fresh delta verbatim.
  index::DeltaIndex::Snapshot current = state_->delta->snapshot();
  std::map<std::uint32_t, index::DeltaVersion> residual;
  for (auto& [id, version] : current.versions) {
    if (version.seq > ticket.snapshot.seq) {
      residual.emplace(id, std::move(version));
    }
  }
  auto state = std::make_shared<State>();
  state->delta = std::make_shared<index::DeltaIndex>(
      ticket.snapshot.next_id, current.next_id, next_matrix->cols(),
      config_.delta_capacity, std::move(retired), std::move(residual),
      current.seq);
  state->base = std::move(next_base);
  state->base_matrix = std::move(next_matrix);
  state->generation = ticket.generation + 1;
  state_ = std::move(state);
  compacting_ = false;
  return timer.seconds();
}

void MutableShardedIndex::abort_compaction() noexcept {
  util::WriterLock lock(mutex_);
  compacting_ = false;
}

}  // namespace topk::shard
