#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

#include "util/thread_id.h"

namespace adavp::util {

namespace {

/// Set while the thread is executing inside a pool worker loop; lets
/// nested parallel_for/submit calls detect re-entrancy without a lookup.
thread_local const ThreadPool* t_worker_pool = nullptr;

std::atomic<ThreadPool*> g_shared_pool{nullptr};

}  // namespace

ThreadPool::ThreadPool(int num_workers) {
  num_workers = std::max(0, num_workers);
  workers_.reserve(static_cast<std::size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

ThreadPool& ThreadPool::shared() {
  // Function-local static => lazy, thread-safe construction; the atomic
  // pointer only mirrors it so shared_if_started() can probe without
  // triggering construction.
  static ThreadPool pool(default_concurrency() - 1);
  g_shared_pool.store(&pool, std::memory_order_release);
  return pool;
}

ThreadPool* ThreadPool::shared_if_started() {
  return g_shared_pool.load(std::memory_order_acquire);
}

int ThreadPool::default_concurrency() {
  return std::max(1u, std::thread::hardware_concurrency());
}

bool ThreadPool::on_worker_thread() const { return t_worker_pool == this; }

void ThreadPool::enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (queue_size_ == queue_.size()) {
      std::vector<std::function<void()>> grown(
          std::max<std::size_t>(8, 2 * queue_size_));
      for (std::size_t i = 0; i < queue_size_; ++i) {
        grown[i] = std::move(queue_[(queue_head_ + i) % queue_.size()]);
      }
      queue_ = std::move(grown);
      queue_head_ = 0;
    }
    queue_[(queue_head_ + queue_size_) % queue_.size()] = std::move(task);
    ++queue_size_;
    peak_queue_depth_ = std::max(peak_queue_depth_, queue_size_);
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  t_worker_pool = this;
  set_thread_name("pool-" + std::to_string(compact_thread_id()));
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || queue_size_ > 0; });
      if (queue_size_ == 0) return;  // stopping_ and drained
      task = std::move(queue_[queue_head_]);
      // A moved-from std::function may still hold its captures.
      queue_[queue_head_] = nullptr;
      queue_head_ = (queue_head_ + 1) % queue_.size();
      --queue_size_;
    }
    task();
  }
}

void ThreadPool::parallel_for(
    std::int64_t begin, std::int64_t end, std::int64_t grain,
    int max_parallelism,
    const std::function<void(std::int64_t, std::int64_t)>& body) {
  if (end <= begin) return;
  grain = std::max<std::int64_t>(1, grain);
  const std::int64_t n = end - begin;

  int threads = max_parallelism <= 0 ? worker_count() + 1
                                     : std::min(max_parallelism, worker_count() + 1);
  // Serial fast path: explicit request, nothing to split against, a range
  // too small to cover two grains, or a nested call from a worker.
  if (threads <= 1 || n <= grain || on_worker_thread()) {
    body(begin, end);
    return;
  }

  const std::int64_t chunks = std::min<std::int64_t>(
      (n + grain - 1) / grain, static_cast<std::int64_t>(threads) * 4);
  const std::int64_t chunk = (n + chunks - 1) / chunks;

  // Helper tasks capture only `&region`, which fits std::function's small
  // buffer, so enqueueing a helper does not allocate.
  struct Region {
    ThreadPool* pool;
    std::atomic<std::int64_t> cursor;
    std::int64_t end;
    std::int64_t chunk;
    const std::function<void(std::int64_t, std::int64_t)>* body;
    std::atomic<bool> failed{false};
    std::mutex error_mutex;
    std::exception_ptr error;
    std::mutex done_mutex;
    std::condition_variable done_cv;
    int helpers_active = 0;  // guarded by done_mutex

    void drain() {
      for (;;) {
        if (failed.load(std::memory_order_relaxed)) return;
        const std::int64_t lo = cursor.fetch_add(chunk, std::memory_order_relaxed);
        if (lo >= end) return;
        const std::int64_t hi = std::min(lo + chunk, end);
        try {
          (*body)(lo, hi);
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (!error) error = std::current_exception();
          failed.store(true, std::memory_order_relaxed);
          return;
        }
        pool->chunks_executed_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  Region region;
  region.pool = this;
  region.cursor.store(begin, std::memory_order_relaxed);
  region.end = end;
  region.chunk = chunk;
  region.body = &body;

  const int helpers =
      static_cast<int>(std::min<std::int64_t>(threads - 1, chunks - 1));
  {
    std::lock_guard<std::mutex> lock(region.done_mutex);
    region.helpers_active = helpers;
  }
  parallel_regions_.fetch_add(1, std::memory_order_relaxed);
  for (int i = 0; i < helpers; ++i) {
    enqueue([&region] {
      region.drain();
      // Notify while holding the lock: `region` is destroyed as soon as
      // the caller observes helpers_active == 0, and the caller cannot
      // re-acquire done_mutex (and thus return) until this unlock — so
      // the cv is never signalled after destruction.
      std::lock_guard<std::mutex> lock(region.done_mutex);
      --region.helpers_active;
      region.done_cv.notify_one();
    });
  }

  region.drain();  // the caller works too

  // `region` lives on this stack frame: wait for every helper task to
  // retire before returning (they hold references into it).
  std::unique_lock<std::mutex> lock(region.done_mutex);
  region.done_cv.wait(lock, [&region] { return region.helpers_active == 0; });
  lock.unlock();

  if (region.error) std::rethrow_exception(region.error);
}

ThreadPool::Stats ThreadPool::stats() const {
  Stats s;
  s.workers = worker_count();
  s.parallel_regions = parallel_regions_.load(std::memory_order_relaxed);
  s.chunks_executed = chunks_executed_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    s.queue_depth = queue_size_;
    s.peak_queue_depth = peak_queue_depth_;
  }
  return s;
}

}  // namespace adavp::util
