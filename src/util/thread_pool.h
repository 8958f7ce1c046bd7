#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace adavp::util {

/// Fixed-size worker pool with a blocking `parallel_for`, built for the
/// vision kernels on the tracking hot path (see docs/PERFORMANCE.md).
///
/// Design points:
///  * **Lazy shared pool.** `ThreadPool::shared()` starts
///    `default_concurrency() - 1` workers on first use; code that never asks
///    for parallelism never spawns a thread. `shared_if_started()` lets
///    telemetry peek at pool stats without forcing startup.
///  * **Caller participates.** `parallel_for` splits the index range into
///    chunks pulled from a shared atomic cursor; the calling thread drains
///    chunks alongside the workers, so a pool of N-1 workers yields N-way
///    parallelism and a `max_parallelism` of 1 never touches the queue.
///  * **Nested calls degrade to serial.** A `parallel_for` (or `submit`)
///    issued from inside a worker runs the body inline instead of
///    re-entering the queue, so kernels may freely call other kernels
///    without deadlocking the pool.
///  * **Exceptions propagate.** The first exception thrown by any chunk is
///    captured, remaining chunks are abandoned, and the exception is
///    rethrown on the calling thread once in-flight chunks retire.
class ThreadPool {
 public:
  /// Starts `num_workers` worker threads (0 is allowed: every call runs
  /// inline on the caller).
  explicit ThreadPool(int num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Process-wide pool shared by all vision kernels. Lazily constructed
  /// with `default_concurrency() - 1` workers on first call.
  static ThreadPool& shared();

  /// The shared pool if some call already started it, else nullptr. Never
  /// triggers construction — safe for stats/telemetry probes.
  static ThreadPool* shared_if_started();

  /// `std::thread::hardware_concurrency()` clamped to at least 1.
  static int default_concurrency();

  /// True when the calling thread is one of this pool's workers.
  bool on_worker_thread() const;

  int worker_count() const { return static_cast<int>(workers_.size()); }

  /// Runs `body(chunk_begin, chunk_end)` over disjoint chunks covering
  /// [begin, end), on up to `max_parallelism` threads (caller included;
  /// <= 0 means caller + all workers). Chunks hold at least `grain`
  /// indices. Blocks until the whole range is processed and rethrows the
  /// first chunk exception. Ranges too small to split, parallelism of 1,
  /// and nested calls all run serially inline — same arithmetic, no queue.
  void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                    int max_parallelism,
                    const std::function<void(std::int64_t, std::int64_t)>& body);

  /// Enqueues an arbitrary task. From a worker thread the task runs inline
  /// (nested-submit safety). The future carries the task's exception, if
  /// any.
  template <typename F>
  std::future<std::invoke_result_t<F>> submit(F&& fn) {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    if (worker_count() == 0 || on_worker_thread()) {
      (*task)();
      return fut;
    }
    enqueue([task] { (*task)(); });
    return fut;
  }

  /// Point-in-time pool statistics (all monotonically updated atomics; safe
  /// from any thread). Exposed so the obs layer can publish them as gauges
  /// without util depending on obs.
  struct Stats {
    int workers = 0;
    std::uint64_t parallel_regions = 0;  ///< parallel_for calls that split
    std::uint64_t chunks_executed = 0;   ///< chunks run across all regions
    std::size_t queue_depth = 0;         ///< tasks currently enqueued
    std::size_t peak_queue_depth = 0;    ///< high-water mark of the queue
  };
  Stats stats() const;

 private:
  void enqueue(std::function<void()> task);
  void worker_loop();

  std::vector<std::thread> workers_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  // A ring of `queue_size_` tasks from `queue_head_` over `queue_`'s slots.
  // It grows only when full, so steady-state enqueues do not allocate.
  std::vector<std::function<void()>> queue_;  // guarded by mutex_
  std::size_t queue_head_ = 0;                // guarded by mutex_
  std::size_t queue_size_ = 0;                // guarded by mutex_
  bool stopping_ = false;

  std::size_t peak_queue_depth_ = 0;  // guarded by mutex_
  std::atomic<std::uint64_t> parallel_regions_{0};
  std::atomic<std::uint64_t> chunks_executed_{0};
};

}  // namespace adavp::util
