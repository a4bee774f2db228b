#include "shard/sharded_index.hpp"

#include <algorithm>
#include <cstdint>
#include <exception>
#include <limits>
#include <queue>
#include <stdexcept>
#include <utility>

#include "index/registry.hpp"
#include "telemetry/trace.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace topk::shard {

namespace {

/// EWMA smoothing for observed per-call wall time: heavy enough on
/// history to ride out scheduler noise, responsive enough that a
/// replica going slow is visible within a few calls.
constexpr double kEwmaAlpha = 0.2;

/// Every kProbeInterval-th pick on a shard with both healthy and
/// unhealthy replicas routes to an unhealthy one: a transiently failed
/// replica must get a chance to succeed and rejoin, or one blip would
/// drain its traffic forever.  The cost of a probe that still fails is
/// one absorbed failover.
constexpr std::uint64_t kProbeInterval = 16;

// Process-wide aggregates over every ShardedIndex instance; the
// per-replica telemetry::Counter cells in ReplicaState stay the
// fine-grained view (replica_stats()).
telemetry::Counter& cells_metric() {
  static telemetry::Counter& c = telemetry::registry().counter(
      "topk_shard_cells_total", {},
      "(query, shard) cells served by a replica.");
  return c;
}

telemetry::Histogram& cell_seconds_metric() {
  static telemetry::Histogram& h = telemetry::registry().histogram(
      "topk_shard_cell_seconds", telemetry::Histogram::latency_buckets(), {},
      "Wall time of one (query, shard) replica call in seconds.");
  return h;
}

telemetry::Counter& failovers_metric() {
  static telemetry::Counter& c = telemetry::registry().counter(
      "topk_shard_failovers_total", {},
      "Replica call failures (absorbed by failover while another "
      "replica remains).");
  return c;
}

telemetry::Counter& probes_metric() {
  static telemetry::Counter& c = telemetry::registry().counter(
      "topk_shard_probes_total", {},
      "Recovery probes routed to unhealthy replicas.");
  return c;
}

telemetry::Counter& gather_candidates_metric() {
  static telemetry::Counter& c = telemetry::registry().counter(
      "topk_shard_gather_candidates_total", {},
      "Candidates entering the k-way gather merge.");
  return c;
}

telemetry::Gauge& slowest_metric() {
  static telemetry::Gauge& g = telemetry::registry().gauge(
      "topk_shard_slowest_seconds", {},
      "Critical-path shard time of the most recent gather.");
  return g;
}

}  // namespace

std::string to_string(RoutingPolicy policy) {
  switch (policy) {
    case RoutingPolicy::kRoundRobin:
      return "round-robin";
    case RoutingPolicy::kLeastLoaded:
      return "least-loaded";
  }
  return "unknown";
}

ShardedIndex::ShardedIndex(std::vector<Shard> shards, std::string backend_label,
                           RoutingPolicy routing)
    : shards_(std::move(shards)),
      label_(std::move(backend_label)),
      routing_(routing) {
  if (shards_.empty()) {
    throw std::invalid_argument(label_ + ": no shards");
  }
  std::uint32_t expected_begin = 0;
  bool any_uncapped = false;
  std::int64_t cap_sum = 0;
  shard_caps_.reserve(shards_.size());
  state_.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = shards_[s];
    const std::string tag = label_ + " shard " + std::to_string(s);
    if (shard.replicas.empty()) {
      throw std::invalid_argument(tag + ": no replicas");
    }
    if (shard.range.row_end <= shard.range.row_begin) {
      throw std::invalid_argument(tag + ": empty row range");
    }
    if (shard.range.row_begin != expected_begin) {
      throw std::invalid_argument(tag + ": row ranges are not contiguous");
    }
    // Every replica must be interchangeable with the others: same row
    // range, same column space.  The shard's top_k cap is the smallest
    // replica cap, so a clamped request is valid on whichever replica
    // ends up serving it.
    int shard_cap = 0;
    for (std::size_t r = 0; r < shard.replicas.size(); ++r) {
      const auto& replica = shard.replicas[r];
      const std::string replica_tag = tag + " replica " + std::to_string(r);
      if (!replica) {
        throw std::invalid_argument(replica_tag + ": null inner index");
      }
      if (replica->rows() != shard.range.rows()) {
        throw std::invalid_argument(replica_tag +
                                    ": inner rows() does not match range");
      }
      if (s == 0 && r == 0) {
        cols_ = replica->cols();
      } else if (replica->cols() != cols_) {
        throw std::invalid_argument(replica_tag + ": column count mismatch");
      }
      const int cap = replica->max_top_k();
      if (cap > 0) {
        shard_cap = shard_cap == 0 ? cap : std::min(shard_cap, cap);
      }
    }
    shard_caps_.push_back(shard_cap);
    if (shard_cap <= 0) {
      any_uncapped = true;
    } else {
      cap_sum += shard_cap;
    }
    max_replicas_ =
        std::max(max_replicas_, static_cast<int>(shard.replicas.size()));
    std::vector<std::unique_ptr<ReplicaState>> shard_state;
    shard_state.reserve(shard.replicas.size());
    for (std::size_t r = 0; r < shard.replicas.size(); ++r) {
      shard_state.push_back(std::make_unique<ReplicaState>());
    }
    state_.push_back(std::move(shard_state));
    expected_begin = shard.range.row_end;
  }
  rows_ = expected_begin;
  max_top_k_ = any_uncapped
                   ? 0
                   : static_cast<int>(std::min<std::int64_t>(
                         cap_sum, std::numeric_limits<int>::max()));
  round_robin_ = std::vector<std::atomic<std::uint64_t>>(shards_.size());
}

std::vector<index::ReplicaStats> ShardedIndex::replica_stats(
    std::size_t i) const {
  const auto& states = state_.at(i);
  std::vector<index::ReplicaStats> out;
  out.reserve(states.size());
  for (const auto& state : states) {
    index::ReplicaStats stats;
    // relaxed: an advisory snapshot — each counter is independently
    // coherent (atomic), and no cross-field consistency is promised to
    // readers, so there is nothing for a fence to order.
    stats.queries = state->queries.value();
    stats.failures = state->failures.value();
    stats.inflight = state->inflight.load(std::memory_order_relaxed);
    stats.ewma_seconds = state->ewma_seconds.load(std::memory_order_relaxed);
    stats.healthy = state->healthy.load(std::memory_order_relaxed);
    {
      util::MutexLock lock(state->error_mutex);
      stats.last_error = state->last_error;
      stats.last_error_seconds = state->last_error_seconds;
    }
    out.push_back(std::move(stats));
  }
  return out;
}

std::size_t ShardedIndex::pick_replica(std::size_t s) const {
  const auto& states = state_[s];
  const std::size_t count = states.size();
  if (count == 1) {
    return 0;
  }
  // Health-first routing without materialising candidate lists (this
  // runs once per (query, shard) cell on the scatter hot path):
  // replicas whose last call failed are skipped while any healthy one
  // remains, except for a periodic recovery probe — without it a
  // transient one-off failure would exclude a replica forever (nothing
  // else ever retries it once the healthy replicas stop throwing).
  // Health bits may flip between the passes below; a stale pick is
  // harmless (failover corrects it), so the scans fall back to
  // replica 0 rather than synchronise.
  // relaxed health reads throughout: the bit is a routing hint — a
  // stale value mis-routes one cell and failover absorbs it.
  std::size_t healthy_count = 0;
  for (std::size_t r = 0; r < count; ++r) {
    healthy_count += states[r]->healthy.load(std::memory_order_relaxed) ? 1 : 0;
  }
  const std::size_t unhealthy_count = count - healthy_count;
  const auto nth_matching = [&](std::size_t n, bool want_healthy) {
    for (std::size_t r = 0; r < count; ++r) {
      if (states[r]->healthy.load(std::memory_order_relaxed) == want_healthy &&
          n-- == 0) {
        return r;
      }
    }
    return std::size_t{0};  // a health bit flipped mid-scan
  };
  // One ticket per pick for both policies: the round-robin cursor and
  // the probe clock.  relaxed: only atomicity (distinct tickets) is
  // needed — ticket order across threads is immaterial to fairness.
  const std::uint64_t ticket =
      round_robin_[s].fetch_add(1, std::memory_order_relaxed);
  if (healthy_count > 0 && unhealthy_count > 0 &&
      ticket % kProbeInterval == kProbeInterval - 1) {
    probes_metric().inc();
    return nth_matching(
        static_cast<std::size_t>((ticket / kProbeInterval) % unhealthy_count),
        false);
  }
  // All-unhealthy degrades to routing over everything (want_healthy =
  // false then matches every replica).
  const bool want_healthy = healthy_count > 0;
  const std::size_t pool = want_healthy ? healthy_count : count;
  if (routing_ == RoutingPolicy::kRoundRobin) {
    return nth_matching(static_cast<std::size_t>(ticket % pool), want_healthy);
  }
  // Least-loaded: fewest in-flight calls, ties by the lower wall-time
  // EWMA (0 = unmeasured, explored first), then by the lower id — the
  // deterministic tie chain keeps serial traffic reproducible.
  std::size_t best = 0;
  bool found = false;
  int best_inflight = std::numeric_limits<int>::max();
  double best_ewma = std::numeric_limits<double>::max();
  for (std::size_t r = 0; r < count; ++r) {
    if (states[r]->healthy.load(std::memory_order_relaxed) != want_healthy) {
      continue;
    }
    // relaxed: load hints — a pick made on values one call stale costs
    // at most one sub-optimal route, never correctness.
    const int inflight = states[r]->inflight.load(std::memory_order_relaxed);
    const double ewma =
        states[r]->ewma_seconds.load(std::memory_order_relaxed);
    if (!found || inflight < best_inflight ||
        (inflight == best_inflight && ewma < best_ewma)) {
      best = r;
      found = true;
      best_inflight = inflight;
      best_ewma = ewma;
    }
  }
  return best;
}

ShardedIndex::ShardCall ShardedIndex::query_shard(std::size_t s,
                                                  std::span<const float> x,
                                                  int top_k) const {
  const Shard& shard = shards_[s];
  const auto& states = state_[s];
  const std::size_t count = shard.replicas.size();
  const int cap = shard_caps_[s];
  const int shard_top_k = cap > 0 ? std::min(top_k, cap) : top_k;
  index::QueryOptions sequential;
  sequential.threads = 1;  // parallelism lives in the scatter

  const std::size_t start = pick_replica(s);
  std::exception_ptr last_error;
  // Lock-free EWMA update; a lost race just re-blends with the
  // concurrent writer's value.  relaxed CAS: the EWMA is a scalar load
  // hint — the CAS loop already gives per-update atomicity, and no
  // other location's visibility hangs on this write.
  const auto feed_ewma = [](ReplicaState& state, double seconds) {
    double previous = state.ewma_seconds.load(std::memory_order_relaxed);
    double next = 0.0;
    do {
      next = previous == 0.0
                 ? seconds
                 : kEwmaAlpha * seconds + (1.0 - kEwmaAlpha) * previous;
    } while (!state.ewma_seconds.compare_exchange_weak(
        previous, next, std::memory_order_relaxed));
  };
  // A failed call is wall-timed like a successful one and feeds the
  // EWMA before the replica is marked unhealthy: without it the EWMA
  // freezes at the pre-failure latency, and once the replica recovers
  // the least-loaded policy keeps ranking it by stale history (slow
  // failures — timeouts — would even look attractive).
  // relaxed counter updates below (inflight/queries/failures/healthy):
  // each is an independent monotonic or last-writer-wins hint; nothing
  // reads them expecting to observe other memory ordered against them.
  const auto record_failure = [&](ReplicaState& state, double seconds,
                                  const char* message) {
    state.inflight.fetch_sub(1, std::memory_order_relaxed);
    state.failures.inc();
    failovers_metric().inc();
    feed_ewma(state, seconds);
    state.healthy.store(false, std::memory_order_relaxed);
    // Truncate before storing: a replica failing in a tight loop must
    // not grow memory with ever-longer exception payloads.
    std::string error(message);
    if (error.size() > kMaxErrorLength) {
      error.resize(kMaxErrorLength);
    }
    util::MutexLock lock(state.error_mutex);
    state.last_error = std::move(error);
    state.last_error_seconds = telemetry::now_seconds();
  };
  for (std::size_t attempt = 0; attempt < count; ++attempt) {
    const std::size_t r = (start + attempt) % count;
    ReplicaState& state = *states[r];
    // One span per attempt, so a failover leaves a visible failed cell
    // next to the succeeding one in the trace.
    telemetry::SpanTimer span("cell", "shard");
    if (span.active()) {
      span.add_arg(telemetry::arg("shard", static_cast<std::uint64_t>(s)));
      span.add_arg(telemetry::arg("replica", static_cast<std::uint64_t>(r)));
      span.add_arg(
          telemetry::arg("failovers", static_cast<std::uint64_t>(attempt)));
    }
    state.inflight.fetch_add(1, std::memory_order_relaxed);
    util::WallTimer timer;
    try {
      ShardCall call;
      call.result = shard.replicas[r]->query(x, shard_top_k, sequential);
      const double seconds = timer.seconds();
      state.inflight.fetch_sub(1, std::memory_order_relaxed);
      state.queries.inc();
      cells_metric().inc();
      cell_seconds_metric().observe(seconds);
      state.healthy.store(true, std::memory_order_relaxed);
      feed_ewma(state, seconds);
      call.measured_seconds = seconds;
      call.failovers = attempt;
      span.add_arg(telemetry::arg("ok", true));
      return call;
    } catch (const std::exception& error) {
      record_failure(state, timer.seconds(), error.what());
      last_error = std::current_exception();
    } catch (...) {
      record_failure(state, timer.seconds(), "unknown error");
      last_error = std::current_exception();
    }
    span.add_arg(telemetry::arg("ok", false));
  }
  // Every replica failed: the shard is down, surface the last error to
  // the caller (the scatter propagates it out of query/query_batch).
  std::rethrow_exception(last_error);
}

index::QueryResult ShardedIndex::gather(std::span<const ShardCall> per_shard,
                                        int top_k,
                                        const DeltaOverlay& overlay) const {
  telemetry::SpanTimer span("gather", "shard");
  index::QueryResult out;
  index::ShardStats gathered;
  gathered.shards = static_cast<int>(shards_.size());
  gathered.replicas = max_replicas_;
  double slowest_seconds = -1.0;
  for (std::size_t s = 0; s < per_shard.size(); ++s) {
    const index::QueryStats& stats = per_shard[s].result.stats;
    out.stats.rows_scanned += stats.rows_scanned;
    out.stats.modelled_seconds =
        std::max(out.stats.modelled_seconds, stats.modelled_seconds);
    // The load signal: the shard's modelled device time when it
    // reports one, its measured wall time otherwise — so cpu-heap and
    // exact-sort shards drive the slowest-shard signal too instead of
    // leaving it at -1.
    const double shard_seconds = stats.modelled_seconds > 0.0
                                     ? stats.modelled_seconds
                                     : per_shard[s].measured_seconds;
    if (shard_seconds > slowest_seconds) {
      slowest_seconds = shard_seconds;
      gathered.slowest_shard = static_cast<int>(s);
      gathered.slowest_seconds = shard_seconds;
    }
    gathered.failovers += per_shard[s].failovers;
    gathered.gathered_candidates +=
        static_cast<std::uint64_t>(per_shard[s].result.entries.size());
  }
  gathered.gathered_candidates +=
      static_cast<std::uint64_t>(overlay.entries.size());
  gather_candidates_metric().add(gathered.gathered_candidates);
  if (slowest_seconds >= 0.0) {
    slowest_metric().set(slowest_seconds);
  }
  if (span.active()) {
    span.add_arg(telemetry::arg("candidates", gathered.gathered_candidates));
    span.add_arg(telemetry::arg("top_k", static_cast<std::int64_t>(top_k)));
    span.add_arg(telemetry::arg("slowest_shard",
                                static_cast<std::int64_t>(gathered.slowest_shard)));
  }

  // Deterministic k-way heap merge on the repo-wide Top-K order.  Each
  // shard's list is already sorted by (value desc, row asc) and the
  // local -> global remap adds a per-shard constant, so advancing the
  // per-shard heads in canonical order yields the globally sorted cut.
  // The delta overlay joins as one extra pre-sorted source (already in
  // global ids); masked global ids are skipped as the shard heads
  // advance, before they can enter the heap.
  struct Head {
    std::size_t shard;
    std::size_t pos;
  };
  const std::size_t delta_source = per_shard.size();
  const auto source_entries = [&](std::size_t source) {
    return source == delta_source
               ? overlay.entries
               : std::span<const core::TopKEntry>(
                     per_shard[source].result.entries);
  };
  const auto global_entry = [&](const Head& head) {
    core::TopKEntry entry = source_entries(head.shard)[head.pos];
    if (head.shard != delta_source) {
      entry.index += shards_[head.shard].range.row_begin;
    }
    return entry;
  };
  const auto heap_after = [&](const Head& a, const Head& b) {
    return core::topk_entry_before(global_entry(b), global_entry(a));
  };
  std::priority_queue<Head, std::vector<Head>, decltype(heap_after)> heads(
      heap_after);
  const auto push_head = [&](Head head) {
    const std::size_t size = source_entries(head.shard).size();
    if (head.shard != delta_source) {
      while (head.pos < size &&
             std::binary_search(overlay.masked.begin(), overlay.masked.end(),
                                global_entry(head).index)) {
        ++head.pos;
      }
    }
    if (head.pos < size) {
      heads.push(head);
    }
  };
  // The overlay is the last source; an empty one never enters.
  for (std::size_t source = 0; source <= delta_source; ++source) {
    push_head(Head{source, 0});
  }
  const auto wanted = static_cast<std::uint64_t>(top_k);
  out.entries.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(wanted, gathered.gathered_candidates)));
  while (!heads.empty() && out.entries.size() < wanted) {
    Head head = heads.top();
    heads.pop();
    out.entries.push_back(global_entry(head));
    ++head.pos;
    push_head(head);
  }
  out.stats.backend = gathered;
  return out;
}

index::QueryResult ShardedIndex::query(std::span<const float> x, int top_k,
                                       const index::QueryOptions& options) const {
  validate_query(x, top_k);
  return std::move(scatter({&x, 1}, top_k, {}, options).front());
}

std::vector<index::QueryResult> ShardedIndex::query_batch(
    const std::vector<std::vector<float>>& queries, int top_k,
    const index::QueryOptions& options) const {
  validate_batch(queries, top_k);
  const std::vector<std::span<const float>> views(queries.begin(),
                                                  queries.end());
  return scatter(views, top_k, {}, options);
}

std::vector<index::QueryResult> ShardedIndex::query_with_delta(
    std::span<const std::span<const float>> queries, int top_k,
    std::span<const DeltaOverlay> overlays,
    const index::QueryOptions& options) const {
  for (const std::span<const float> x : queries) {
    validate_query(x, top_k);
  }
  if (!overlays.empty() && overlays.size() != queries.size()) {
    throw std::invalid_argument(label_ + ": " + std::to_string(queries.size()) +
                                " queries but " +
                                std::to_string(overlays.size()) +
                                " delta overlays");
  }
  return scatter(queries, top_k, overlays, options);
}

std::vector<index::QueryResult> ShardedIndex::scatter(
    std::span<const std::span<const float>> queries, int top_k,
    std::span<const DeltaOverlay> overlays,
    const index::QueryOptions& options) const {
  std::vector<index::QueryResult> results(queries.size());
  if (queries.empty()) {
    return results;
  }
  const DeltaOverlay sealed{};
  const auto overlay_of = [&](std::size_t q) -> const DeltaOverlay& {
    return overlays.empty() ? sealed : overlays[q];
  };

  // Scatter the full (query, shard) grid: with more workers than
  // queries the shards of a single query still run in parallel, and
  // dynamic claiming keeps a slow shard from stalling a whole batch.
  const std::size_t width = shards_.size();
  const std::size_t grid = queries.size() * width;
  const int threads = util::resolve_fanout_threads(options.threads, grid);
  std::vector<ShardCall> partial(grid);
  // Pool threads have their own (empty) trace context: capture the
  // caller's id before the fan-out and re-establish it per cell so
  // every cell span lands on the caller's trace.
  const std::uint64_t trace = telemetry::current_trace_id();
  const auto run_cell = [&, trace](std::size_t cell) {
    telemetry::TraceContextScope scope(trace);
    const std::size_t q = cell / width;
    const std::size_t s = cell % width;
    // Over-ask the shard by the masked ids in its own row range: at
    // most that many of its top entries can be skipped at the merge,
    // so >= top_k live candidates survive per shard and the global cut
    // is exact.  Saturates on int.
    const std::span<const std::uint32_t> masked = overlay_of(q).masked;
    const auto first = std::lower_bound(masked.begin(), masked.end(),
                                        shards_[s].range.row_begin);
    const auto last =
        std::lower_bound(first, masked.end(), shards_[s].range.row_end);
    const int shard_k = static_cast<int>(std::min<std::uint64_t>(
        static_cast<std::uint64_t>(top_k) +
            static_cast<std::uint64_t>(last - first),
        static_cast<std::uint64_t>(std::numeric_limits<int>::max())));
    partial[cell] = query_shard(s, queries[q], shard_k);
  };
  {
    telemetry::SpanTimer span("scatter", "shard");
    if (span.active()) {
      span.add_arg(telemetry::arg("grid", static_cast<std::uint64_t>(grid)));
    }
    util::shared_pool().parallel_for(grid, threads, run_cell);
  }
  for (std::size_t q = 0; q < queries.size(); ++q) {
    results[q] =
        gather({partial.data() + q * width, width}, top_k, overlay_of(q));
  }
  return results;
}

std::uint32_t ShardedIndex::rows() const noexcept { return rows_; }

std::uint32_t ShardedIndex::cols() const noexcept { return cols_; }

int ShardedIndex::max_top_k() const noexcept { return max_top_k_; }

index::IndexDescription ShardedIndex::describe() const {
  index::IndexDescription description;
  description.backend = label_;

  // Summarise the inner mix in first-seen order: "cpu-heap x4" or
  // "fpga-sim x3 + cpu-heap x1"; the mix names shards, not replicas.
  // The footprint dedupes storage shared between replicas: the builder
  // and the deployment loader hand every CSR-backed replica of a shard
  // the same slice, so counting each would overstate resident bytes
  // R-fold, while fpga-sim replicas each own a device image and count
  // individually (unknown backends count per replica — an upper
  // bound).
  const auto storage_key =
      [](const index::SimilarityIndex& replica) -> const void* {
    if (const auto* heap = dynamic_cast<const index::CpuHeapIndex*>(&replica)) {
      return &heap->matrix();
    }
    if (const auto* sort =
            dynamic_cast<const index::ExactSortIndex*>(&replica)) {
      return &sort->matrix();
    }
    if (const auto* gpu = dynamic_cast<const index::GpuModelIndex*>(&replica)) {
      return &gpu->matrix();
    }
    return &replica;
  };
  std::vector<std::pair<std::string, int>> mix;
  std::vector<const void*> counted_storage;
  bool exact = true;
  std::uint64_t bytes = 0;
  for (const Shard& shard : shards_) {
    const index::IndexDescription primary = shard.primary().describe();
    const auto seen =
        std::find_if(mix.begin(), mix.end(),
                     [&](const auto& entry) { return entry.first == primary.backend; });
    if (seen == mix.end()) {
      mix.emplace_back(primary.backend, 1);
    } else {
      ++seen->second;
    }
    for (const auto& replica : shard.replicas) {
      const index::IndexDescription inner = replica->describe();
      exact = exact && inner.exact;
      const void* key = storage_key(*replica);
      if (std::find(counted_storage.begin(), counted_storage.end(), key) ==
          counted_storage.end()) {
        counted_storage.push_back(key);
        bytes += inner.memory_bytes;
      }
    }
  }
  description.detail = std::to_string(shards_.size()) + " row-range shards (";
  for (std::size_t i = 0; i < mix.size(); ++i) {
    if (i > 0) {
      description.detail += " + ";
    }
    description.detail += mix[i].first + " x" + std::to_string(mix[i].second);
  }
  description.detail += ")";
  if (max_replicas_ > 1) {
    description.detail += " x" + std::to_string(max_replicas_) +
                          " replicas, " + to_string(routing_) + " routing";
  }
  description.detail += ", k-way gather";
  description.exact = exact;
  description.rows = rows_;
  description.cols = cols_;
  description.max_top_k = max_top_k_;
  description.memory_bytes = bytes;
  return description;
}

// ------------------------------------------------------ ShardedIndexBuilder

ShardedIndexBuilder& ShardedIndexBuilder::matrix(
    std::shared_ptr<const sparse::Csr> matrix) {
  matrix_ = std::move(matrix);
  return *this;
}

ShardedIndexBuilder& ShardedIndexBuilder::shards(int count) {
  shards_ = count;
  return *this;
}

ShardedIndexBuilder& ShardedIndexBuilder::policy(ShardPolicy policy) {
  policy_ = policy;
  return *this;
}

ShardedIndexBuilder& ShardedIndexBuilder::replicas(int count) {
  replicas_ = count;
  return *this;
}

ShardedIndexBuilder& ShardedIndexBuilder::routing(RoutingPolicy policy) {
  routing_ = policy;
  return *this;
}

ShardedIndexBuilder& ShardedIndexBuilder::inner_backend(std::string name) {
  inner_backend_ = std::move(name);
  return *this;
}

ShardedIndexBuilder& ShardedIndexBuilder::inner_options(
    const index::IndexOptions& options) {
  inner_options_ = options;
  return *this;
}

ShardedIndexBuilder& ShardedIndexBuilder::shard_backend(int shard,
                                                        std::string name) {
  overrides_.emplace_back(shard, std::move(name));
  return *this;
}

ShardedIndexBuilder& ShardedIndexBuilder::label(std::string label) {
  label_ = std::move(label);
  return *this;
}

std::shared_ptr<ShardedIndex> ShardedIndexBuilder::build() const {
  if (!matrix_) {
    throw std::invalid_argument("ShardedIndexBuilder: no matrix set");
  }
  if (replicas_ < 1) {
    throw std::invalid_argument("ShardedIndexBuilder: replicas(" +
                                std::to_string(replicas_) +
                                ") must be at least 1");
  }
  for (std::size_t i = 0; i < overrides_.size(); ++i) {
    const auto& [shard, name] = overrides_[i];
    if (shard < 0 || shard >= shards_) {
      throw std::invalid_argument("ShardedIndexBuilder: shard_backend(" +
                                  std::to_string(shard) +
                                  ") outside [0, " + std::to_string(shards_) +
                                  ")");
    }
    // A duplicate override is a config bug (e.g. a deployment script
    // editing the wrong line) — silent last-wins would hide it.
    for (std::size_t j = i + 1; j < overrides_.size(); ++j) {
      if (overrides_[j].first == shard) {
        throw std::invalid_argument(
            "ShardedIndexBuilder: duplicate shard_backend override for shard " +
            std::to_string(shard) + " ('" + name + "' and '" +
            overrides_[j].second + "')");
      }
    }
  }
  const ShardPlan plan = ShardPlanner(policy_).plan(*matrix_, shards_);

  std::vector<Shard> built;
  built.reserve(plan.size());
  for (std::size_t s = 0; s < plan.size(); ++s) {
    std::string backend = inner_backend_;
    for (const auto& [shard, name] : overrides_) {
      if (static_cast<std::size_t>(shard) == s) {
        backend = name;
      }
    }
    // One slice shared by every replica of the shard; each replica is
    // its own registry-built index over it (for CSR-backed backends
    // the replicas share the slice's memory, for fpga-sim each encodes
    // its own — deterministic, hence byte-identical — device image).
    const auto slice = std::make_shared<const sparse::Csr>(
        matrix_->slice_rows(plan[s].row_begin, plan[s].row_end));
    std::vector<std::shared_ptr<const index::SimilarityIndex>> replicas;
    replicas.reserve(static_cast<std::size_t>(replicas_));
    for (int r = 0; r < replicas_; ++r) {
      replicas.push_back(index::make_index(backend, slice, inner_options_));
    }
    built.push_back(Shard{plan[s], std::move(replicas)});
  }
  std::string label = label_;
  if (label.empty()) {
    label = overrides_.empty() ? "sharded-" + inner_backend_ : "sharded";
  }
  return std::make_shared<ShardedIndex>(std::move(built), std::move(label),
                                        routing_);
}

}  // namespace topk::shard
