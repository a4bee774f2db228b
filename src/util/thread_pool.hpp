// Persistent worker pool — foundation-layer concurrency infrastructure.
//
// The seed's TopKAccelerator spawned and joined raw std::threads on
// every query() / query_batch() call and split work with static block
// partitioning.  This pool replaces both costs: workers are created
// once and reused across calls, and parallel_for() hands out items one
// at a time through an atomic counter, so a skewed item (a long core
// stream, an expensive query) never stalls a whole static block —
// the dynamic-scheduling argument of the all-pairs-similarity serving
// literature (see PAPERS.md).
//
// Deadlock-free nesting: the thread that calls parallel_for() always
// participates in the loop, so every job completes even if no pool
// worker is free.  Pool workers may therefore call parallel_for()
// themselves (the async serving path does) without risk.
//
// The pool lives in util/ (not serve/) because every compute layer —
// core's batch quantisation, the CPU baselines, the SIMD kernels, the
// shard scatter — parallelises on it: the architecture manifest
// (tools/analysis/layers.toml) forbids those layers from reaching up
// into the serving tier.  Telemetry is therefore not a dependency
// here; the serving layer observes the pool through the
// PoolInstrumentation hooks below instead.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/sync.hpp"

namespace topk::util {

/// Observation hooks the serving layer installs to publish pool
/// activity into its metrics registry (util/ itself must stay ignorant
/// of the telemetry vocabulary — see tools/analysis/layers.toml).
/// Plain function pointers so the hot-path read is one lock-free
/// atomic load and a null check.
struct PoolInstrumentation {
  /// Called with the new thread count after the pool grows.
  void (*workers)(double) = nullptr;
  /// Called with +1 / -1 around every task a pool worker executes.
  void (*busy_delta)(double) = nullptr;
  /// Called once per task a pool worker executes.
  void (*task)() = nullptr;
};

class ThreadPool {
 public:
  /// Spawns `workers` persistent threads.  0 is valid: the pool then
  /// starts empty and grows on the first parallel_for that asks for
  /// helpers (concurrency and item count both above 1).  Throws
  /// std::invalid_argument for negative counts.
  explicit ThreadPool(int workers = 0);

  /// Drains queued tasks, then stops and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Current persistent worker count.
  [[nodiscard]] int workers() const;

  /// Grows the pool to at least `workers` threads (never shrinks).
  /// Counts above kMaxWorkers are clamped.
  void ensure_workers(int workers);

  /// Runs fn(i) for every i in [0, n).  The calling thread participates
  /// and up to min(n, concurrency) - 1 pool workers help, each claiming
  /// items dynamically from a shared atomic counter; total concurrency
  /// is therefore at most `concurrency` (values < 1 mean "calling
  /// thread only", which runs inline without touching the pool's
  /// lock).  The pool first grows to that helper count (clamped to
  /// kMaxWorkers), so callers never size it themselves.  Blocks until
  /// all n items finished; if any invocation threw, the first
  /// exception is rethrown here.  Item-to-thread assignment is
  /// nondeterministic, so callers must make fn(i) write only to slot i
  /// of preallocated storage for deterministic results.
  void parallel_for(std::size_t n, int concurrency,
                    const std::function<void(std::size_t)>& fn);

  /// Enqueues a fire-and-forget task.  With zero workers the task runs
  /// inline.  Never blocks (the queue is unbounded; bounded admission
  /// is the QueryEngine's job).
  void post(std::function<void()> task);

  /// Installs the process-wide observation hooks (affects every pool,
  /// shared or private).  `hooks` must point at storage with static
  /// duration; pass nullptr to detach.  Typically installed once by
  /// the serving layer before traffic; late installation only misses
  /// events, never tears state.
  static void set_instrumentation(const PoolInstrumentation* hooks) noexcept;

  /// Upper bound on pool size (ensure_workers() and parallel_for()'s
  /// growth both clamp to it).
  static constexpr int kMaxWorkers = 256;

 private:
  void worker_loop();
  /// Spawns threads until the pool holds min(target, kMaxWorkers);
  /// returns the new size if it grew, 0 otherwise.
  std::size_t grow_locked(int target) TOPK_REQUIRES(mutex_);

  mutable util::Mutex mutex_;
  util::CondVar work_available_;
  std::deque<std::function<void()>> tasks_ TOPK_GUARDED_BY(mutex_);
  /// Guarded for growth (ensure_workers); the destructor joins with the
  /// lock released, which is safe because workers are never removed
  /// while the pool lives.
  std::vector<std::thread> threads_ TOPK_GUARDED_BY(mutex_);
  bool stopping_ TOPK_GUARDED_BY(mutex_) = false;
};

/// Process-wide pool every fan-out in the library runs on: the
/// accelerator's core streams, the CPU and SIMD kernels' row ranges,
/// the shard scatter, the default batch path and every QueryEngine.
/// Lazily constructed; grows on demand up to ThreadPool::kMaxWorkers.
[[nodiscard]] ThreadPool& shared_pool();

/// Resolves a requested fan-out width into the concurrency one
/// parallel_for over `work_items` items gets: 0 means
/// default_thread_count(), and the result is clamped to
/// max(1, work_items) in std::size_t space (a uint32 row count cast
/// to int first goes negative for >= 2^31; regression:
/// CpuTopK.ThreadClampStaysPositive).  Throws std::invalid_argument
/// for negative counts.  The one definition of the thread-count rule:
/// every tier's `threads` / `workers` option resolves through it.
[[nodiscard]] int resolve_fanout_threads(int requested,
                                         std::size_t work_items);

}  // namespace topk::util
