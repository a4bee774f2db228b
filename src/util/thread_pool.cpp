#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <stdexcept>

#include "util/cpu_features.hpp"
#include "util/sync.hpp"

namespace topk::util {

namespace {

/// Process-wide hook table.  release store / acquire load: an observer
/// installed before traffic is visible to every worker, and the
/// pointed-at storage is required to be static, so a stale null read
/// only drops an event.
std::atomic<const PoolInstrumentation*> instrumentation{nullptr};

const PoolInstrumentation* hooks() noexcept {
  return instrumentation.load(std::memory_order_acquire);
}

/// Shared state of one parallel_for call.  Helpers posted to the task
/// queue hold a shared_ptr, so the job outlives the caller's stack
/// frame even if a helper wakes up after the loop already finished.
struct ParallelJob {
  /// relaxed: the ticket counter only hands out distinct indices; the
  /// work itself synchronises through `completed` below.
  std::atomic<std::size_t> next{0};
  /// acq_rel increments / acquire reads: the final increment's release
  /// publishes every fn(i) write to the caller that observes
  /// completed == n (with or without the condvar round trip).
  std::atomic<std::size_t> completed{0};
  std::size_t n = 0;
  const std::function<void(std::size_t)>* fn = nullptr;

  util::Mutex mutex;
  util::CondVar done;
  std::exception_ptr first_exception TOPK_GUARDED_BY(mutex);

  /// Claims items until the counter runs out.  Exceptions do not cancel
  /// remaining items (every index runs exactly once regardless); only
  /// the first one is kept for the caller to rethrow.
  void run() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) {
        return;
      }
      try {
        (*fn)(i);
      } catch (...) {
        util::MutexLock lock(mutex);
        if (!first_exception) {
          first_exception = std::current_exception();
        }
      }
      if (completed.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
        util::MutexLock lock(mutex);
        done.notify_all();
      }
    }
  }
};

}  // namespace

void ThreadPool::set_instrumentation(
    const PoolInstrumentation* new_hooks) noexcept {
  instrumentation.store(new_hooks, std::memory_order_release);
}

ThreadPool::ThreadPool(int workers) {
  if (workers < 0) {
    throw std::invalid_argument("ThreadPool: negative worker count");
  }
  ensure_workers(workers);
}

ThreadPool::~ThreadPool() {
  {
    util::MutexLock lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  // Joining reads threads_ without the lock: safe because workers are
  // only ever added, never removed, and stopping_ stops additions (the
  // analysis is silent in destructors — no concurrent access remains).
  for (std::thread& thread : threads_) {
    thread.join();
  }
}

int ThreadPool::workers() const {
  util::MutexLock lock(mutex_);
  return static_cast<int>(threads_.size());
}

std::size_t ThreadPool::grow_locked(int target) {
  const std::size_t before = threads_.size();
  while (static_cast<int>(threads_.size()) < std::min(target, kMaxWorkers)) {
    threads_.emplace_back([this] { worker_loop(); });
  }
  return threads_.size() == before ? 0 : threads_.size();
}

void ThreadPool::ensure_workers(int workers) {
  std::size_t count = 0;
  {
    util::MutexLock lock(mutex_);
    grow_locked(workers);
    count = threads_.size();
  }
  if (const PoolInstrumentation* h = hooks(); h != nullptr && h->workers) {
    h->workers(static_cast<double>(count));
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      util::MutexLock lock(mutex_);
      while (!stopping_ && tasks_.empty()) {
        work_available_.wait(mutex_);
      }
      if (tasks_.empty()) {
        return;  // stopping_ and drained
      }
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    // Utilization bookkeeping brackets the task: the installed hooks
    // (telemetry gauge/counter cells in the serving build) are
    // lock-free, so this stays off the pool mutex.
    const PoolInstrumentation* h = hooks();
    if (h != nullptr && h->busy_delta) {
      h->busy_delta(1.0);
    }
    if (h != nullptr && h->task) {
      h->task();
    }
    task();
    if (h != nullptr && h->busy_delta) {
      h->busy_delta(-1.0);
    }
  }
}

void ThreadPool::post(std::function<void()> task) {
  {
    util::MutexLock lock(mutex_);
    if (!stopping_ && !threads_.empty()) {
      tasks_.push_back(std::move(task));
      work_available_.notify_one();
      return;
    }
  }
  task();  // no workers (or shutting down): run inline
}

void ThreadPool::parallel_for(std::size_t n, int concurrency,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) {
    return;
  }
  const int helper_budget =
      static_cast<int>(std::min<std::size_t>(
          n - 1, concurrency > 1 ? static_cast<std::size_t>(concurrency - 1) : 0));
  if (helper_budget == 0) {
    for (std::size_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }

  auto job = std::make_shared<ParallelJob>();
  job->n = n;
  job->fn = &fn;

  std::size_t grown_to = 0;
  {
    util::MutexLock lock(mutex_);
    if (!stopping_) {
      grown_to = grow_locked(helper_budget);
      const int helpers =
          std::min(helper_budget, static_cast<int>(threads_.size()));
      for (int h = 0; h < helpers; ++h) {
        tasks_.push_back([job] { job->run(); });
      }
      if (helpers == 1) {
        work_available_.notify_one();
      } else if (helpers > 1) {
        work_available_.notify_all();
      }
    }
  }
  if (const PoolInstrumentation* h = hooks();
      grown_to != 0 && h != nullptr && h->workers) {
    h->workers(static_cast<double>(grown_to));
  }

  job->run();  // caller participates: progress is guaranteed

  util::MutexLock lock(job->mutex);
  while (job->completed.load(std::memory_order_acquire) != job->n) {
    job->done.wait(job->mutex);
  }
  if (job->first_exception) {
    std::rethrow_exception(job->first_exception);
  }
}

ThreadPool& shared_pool() {
  static ThreadPool pool(0);
  return pool;
}

int resolve_fanout_threads(int requested, std::size_t work_items) {
  if (requested < 0) {
    throw std::invalid_argument(
        "resolve_fanout_threads: negative thread count");
  }
  const int threads = requested == 0 ? default_thread_count() : requested;
  return static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(threads),
                            std::max<std::size_t>(1, work_items)));
}

}  // namespace topk::util
