#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <future>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/scratch_arena.h"
#include "util/thread_pool.h"

namespace adavp::util {
namespace {

// -------------------------------------------------------- thread pool ----

TEST(ThreadPool, StartupAndShutdown) {
  for (int workers : {0, 1, 3}) {
    ThreadPool pool(workers);
    EXPECT_EQ(pool.worker_count(), workers);
    // Destructor joins cleanly with an idle queue.
  }
}

TEST(ThreadPool, SubmitRunsTaskAndReturnsValue) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, SubmitWithZeroWorkersRunsInline) {
  ThreadPool pool(0);
  std::atomic<int> ran{0};
  pool.submit([&] { ran = 1; }).get();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(3);
  constexpr int kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(0, kN, /*grain=*/64, /*max_parallelism=*/0,
                    [&](std::int64_t lo, std::int64_t hi) {
                      for (std::int64_t i = lo; i < hi; ++i) {
                        hits[static_cast<std::size_t>(i)].fetch_add(1);
                      }
                    });
  for (int i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForEmptyAndSerialRanges) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(5, 5, 1, 0, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // max_parallelism = 1 => single inline call covering the whole range.
  std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
  pool.parallel_for(0, 100, 1, 1, [&](std::int64_t lo, std::int64_t hi) {
    chunks.push_back({lo, hi});
  });
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].first, 0);
  EXPECT_EQ(chunks[0].second, 100);
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.parallel_for(0, 1000, 1, 0,
                        [](std::int64_t lo, std::int64_t) {
                          if (lo >= 0) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool survives and stays usable after a failed region.
  std::atomic<int> count{0};
  pool.parallel_for(0, 100, 1, 0, [&](std::int64_t lo, std::int64_t hi) {
    count += static_cast<int>(hi - lo);
  });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, SubmitExceptionArrivesViaFuture) {
  ThreadPool pool(1);
  auto fut = pool.submit([]() -> int { throw std::logic_error("bad"); });
  EXPECT_THROW(fut.get(), std::logic_error);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  pool.parallel_for(0, 8, 1, 0, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      // A nested call from a worker (or the caller) must not re-enter the
      // queue and deadlock; it degrades to a serial inline run.
      pool.parallel_for(0, 10, 1, 0, [&](std::int64_t l2, std::int64_t h2) {
        inner_total += static_cast<int>(h2 - l2);
      });
    }
  });
  EXPECT_EQ(inner_total.load(), 80);
}

TEST(ThreadPool, NestedSubmitFromWorkerCompletes) {
  ThreadPool pool(1);  // single worker: a queued nested task would deadlock
  auto fut = pool.submit([&] {
    auto inner = pool.submit([] { return 7; });
    return inner.get() + 1;
  });
  EXPECT_EQ(fut.get(), 8);
}

TEST(ThreadPool, StatsCountRegionsAndChunks) {
  ThreadPool pool(2);
  pool.parallel_for(0, 1024, 8, 0, [](std::int64_t, std::int64_t) {});
  const ThreadPool::Stats s = pool.stats();
  EXPECT_EQ(s.workers, 2);
  EXPECT_GE(s.parallel_regions, 1u);
  EXPECT_GE(s.chunks_executed, 2u);
  EXPECT_EQ(s.queue_depth, 0u);  // drained
}

// The queue is a ring that grows only when full. Tasks queued behind a
// busy worker run once each and in order, across wrap-arounds of the ring
// (the second batch) and growth while it is wrapped (the third).
TEST(ThreadPool, QueuedTasksRunInOrderAcrossRingGrowth) {
  ThreadPool pool(1);
  std::vector<int> order;  // appended to by the one worker only
  for (const int batch : {100, 100, 200}) {
    std::promise<void> gate;
    pool.submit([open = gate.get_future().share()] { open.wait(); });
    std::vector<std::future<void>> done;
    for (int i = 0; i < batch; ++i) {
      done.push_back(pool.submit([&order, i] { order.push_back(i); }));
    }
    gate.set_value();
    for (std::future<void>& f : done) f.get();
    std::vector<int> expected(static_cast<std::size_t>(batch));
    std::iota(expected.begin(), expected.end(), 0);
    EXPECT_EQ(order, expected) << "batch of " << batch;
    order.clear();
  }
  const ThreadPool::Stats s = pool.stats();
  EXPECT_GE(s.peak_queue_depth, 200u);
  EXPECT_EQ(s.queue_depth, 0u);
}

TEST(ThreadPool, SharedPoolIsLazyThenSticky) {
  // shared_if_started() may or may not be null depending on test order,
  // but after shared() it must return the same object.
  ThreadPool& pool = ThreadPool::shared();
  EXPECT_EQ(ThreadPool::shared_if_started(), &pool);
  EXPECT_EQ(&ThreadPool::shared(), &pool);
  EXPECT_EQ(pool.worker_count(), ThreadPool::default_concurrency() - 1);
}

// ------------------------------------------------------ scratch arena ----

TEST(ScratchArena, BumpAllocationsAreDisjointAndAligned) {
  ScratchArena arena(128);
  float* a = arena.alloc<float>(10);
  double* b = arena.alloc<double>(5);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % alignof(float), 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % alignof(double), 0u);
  std::memset(a, 0xAB, 10 * sizeof(float));
  std::memset(b, 0xCD, 5 * sizeof(double));
  EXPECT_EQ(reinterpret_cast<unsigned char*>(a)[0], 0xAB);  // no overlap
}

TEST(ScratchArena, GrowthKeepsExistingPointersValid) {
  ScratchArena arena(64);
  int* small = arena.alloc<int>(4);
  small[0] = 1234;
  // Force growth past the first block several times over.
  for (int i = 0; i < 10; ++i) arena.alloc<char>(256);
  EXPECT_EQ(small[0], 1234);  // block chaining, not reallocation
}

TEST(ScratchArena, ScopeRewindReusesMemory) {
  ScratchArena arena(1024);
  void* first = nullptr;
  {
    ScratchArena::Scope scope(arena);
    first = arena.alloc_bytes(100, 8);
  }
  {
    ScratchArena::Scope scope(arena);
    void* second = arena.alloc_bytes(100, 8);
    EXPECT_EQ(first, second);  // same bytes handed out again
  }
  const std::size_t cap = arena.capacity();
  {
    ScratchArena::Scope scope(arena);
    arena.alloc_bytes(100, 8);
  }
  EXPECT_EQ(arena.capacity(), cap);  // steady state: no further growth
}

TEST(ScratchArena, AllocAlignedHonorsOveralignment) {
  ScratchArena arena(256);
  // Perturb the cursor so a naive bump would land misaligned.
  arena.alloc<char>(3);
  for (const std::size_t align : {16u, 32u, 64u}) {
    float* p = arena.alloc_aligned<float>(9, align);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u)
        << "alignment " << align;
    arena.alloc<char>(1);  // re-perturb before the next request
  }
  // Alignment below alignof(T) is promoted, never demoted.
  double* d = arena.alloc_aligned<double>(2, 1);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d) % alignof(double), 0u);
}

TEST(ScratchArena, AllocAlignedPointersSurviveGrowth) {
  // The stable-pointer guarantee must hold for over-aligned allocations
  // too: growing chains a new block, it never moves old ones.
  ScratchArena arena(64);
  float* v = arena.alloc_aligned<float>(8, 32);
  for (int i = 0; i < 8; ++i) v[i] = static_cast<float>(i);
  for (int i = 0; i < 16; ++i) arena.alloc_aligned<float>(64, 32);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(v[i], static_cast<float>(i));
  }
}

TEST(ScratchArena, ThreadLocalArenasAreIndependent) {
  ScratchArena& mine = ScratchArena::thread_local_arena();
  ScratchArena* theirs = nullptr;
  std::thread t([&] { theirs = &ScratchArena::thread_local_arena(); });
  t.join();
  EXPECT_NE(&mine, theirs);
}

}  // namespace
}  // namespace adavp::util
