#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "core/baselines.h"
#include "core/mpdt_pipeline.h"
#include "video/frame_store.h"
#include "video/scene.h"

// Global operator new/delete replacements local to this test binary: every
// heap allocation on any thread, the shared pool's render workers included,
// bumps the counter, so a loop's delta is its real allocation traffic.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace adavp::video {
namespace {

std::uint64_t allocations() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

SceneConfig small_config(std::uint64_t seed = 5, int frames = 24) {
  SceneConfig cfg;
  cfg.width = 160;
  cfg.height = 120;
  cfg.frame_count = frames;
  cfg.seed = seed;
  cfg.initial_objects = 3;
  return cfg;
}

// ----------------------------------------------------------- rendering ---

TEST(FrameStoreTest, GetMatchesDirectRender) {
  SyntheticVideo video(small_config(3, 8));
  FrameStore store(video);
  for (int f = 0; f < 8; ++f) {
    const FrameRef ref = store.get(f);
    ASSERT_TRUE(ref.valid());
    EXPECT_EQ(ref.index, f);
    EXPECT_DOUBLE_EQ(ref.timestamp_ms, video.timestamp_ms(f));
    EXPECT_EQ(ref.image().pixels(), video.render(f).pixels()) << "frame " << f;
  }
  const FrameStoreStats stats = store.stats();
  EXPECT_EQ(stats.renders, 8u);
  EXPECT_EQ(stats.re_renders, 0u);
}

TEST(FrameStoreTest, RepeatGetSharesPixelsWithoutRerender) {
  SyntheticVideo video(small_config(5, 6));
  FrameStore store(video);
  const FrameRef first = store.get(2);
  const FrameRef second = store.get(2);
  // Same raster, by reference: copying a FrameRef never copies pixels.
  EXPECT_EQ(first.image_ptr.get(), second.image_ptr.get());
  const FrameStoreStats stats = store.stats();
  EXPECT_EQ(stats.renders, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(FrameStoreTest, PrecachedVideoIsAliasedNotCopied) {
  SyntheticVideo video(small_config(7, 6));
  video.precache();
  FrameStore store(video);
  for (int f = 0; f < 6; ++f) {
    const FrameRef ref = store.get(f);
    // The ref points INTO the precache: zero-copy, zero-allocation.
    EXPECT_EQ(ref.image_ptr.get(), video.cached_frame(f)) << "frame " << f;
  }
  const FrameStoreStats stats = store.stats();
  EXPECT_EQ(stats.renders, 0u);
  EXPECT_EQ(stats.precache_hits, 6u);
  EXPECT_EQ(stats.pool_allocs, 0u);
  // Aliases are owned by the video, so the store holds no resident bytes.
  EXPECT_EQ(stats.resident_bytes, 0u);
}

// ---------------------------------------------------------- concurrency ---

// N threads hammer overlapping frame ranges; the per-slot latch must make
// every frame render exactly once, and every consumer must observe pixels
// identical to a serial render. Runs under TSan via the `concurrency` label.
TEST(FrameStoreTest, ConcurrentGetsRenderEachFrameOnce) {
  const int kFrames = 16;
  const int kThreads = 4;
  SceneConfig cfg = small_config(11, kFrames);
  SyntheticVideo video(cfg);
  SyntheticVideo reference(cfg);

  FrameStoreOptions opt;
  opt.window = kFrames;  // nothing may evict: any re-render is a bug
  FrameStore store(video, opt);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks the whole video from a different start, so slots
      // see simultaneous first requests from several threads.
      for (int k = 0; k < kFrames; ++k) {
        const int f = (k + t * 3) % kFrames;
        const FrameRef ref = store.get(f);
        if (ref.image().pixels() != reference.render(f).pixels()) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(mismatches.load(), 0);
  const FrameStoreStats stats = store.stats();
  EXPECT_EQ(stats.renders, static_cast<std::uint64_t>(kFrames));
  EXPECT_EQ(stats.re_renders, 0u);
  // Every get terminates in exactly one render or one hit (waiters become
  // hits once the rendering thread publishes).
  EXPECT_EQ(stats.hits + stats.renders,
            static_cast<std::uint64_t>(kFrames * kThreads));
}

// ----------------------------------------------------- pool / retention ---

TEST(FrameStoreTest, PoolRecyclesBuffersInSteadyState) {
  const int kFrames = 64;
  SyntheticVideo video(small_config(13, kFrames));
  FrameStoreOptions opt;
  opt.window = 4;
  opt.pool_buffers = 16;
  FrameStore store(video, opt);

  std::uint64_t allocs_mid = 0;
  for (int f = 0; f < kFrames; ++f) {
    store.trim_below(f - opt.window);
    (void)store.get(f);
    if (f == kFrames / 2) allocs_mid = store.stats().pool_allocs;
  }
  const FrameStoreStats stats = store.stats();
  EXPECT_EQ(stats.renders, static_cast<std::uint64_t>(kFrames));
  EXPECT_GT(stats.pool_reuses, 0u);
  // Once the pool is warm, streaming allocates nothing: the second half of
  // the video must be served entirely by recycled buffers.
  EXPECT_EQ(stats.pool_allocs, allocs_mid);
  EXPECT_LE(stats.resident_frames, static_cast<std::size_t>(opt.window + 1));
}

// The process-wide form of the pool test above: once the pool is warm, a
// `get` behind a sliding trim performs no heap allocation anywhere, not in
// the store, the pool, the render, or the shared pool the render splits
// on. 256x144 = 36,864 pixels is above the render's split grain, so every
// render here runs as a parallel region; a per-region allocation in the
// thread pool shows up as a nonzero count.
TEST(FrameStoreTest, SteadyStateStreamingMakesNoHeapAllocations) {
  SceneConfig cfg;
  cfg.width = 256;
  cfg.height = 144;
  cfg.frame_count = 48;
  cfg.seed = 77;
  cfg.initial_objects = 4;
  cfg.speed_mean = 1.2;
  SyntheticVideo video(cfg);
  FrameStoreOptions opt;
  opt.window = 8;
  opt.pool_buffers = 16;
  FrameStore store(video, opt);

  const int half = cfg.frame_count / 2;
  std::uint64_t at_half = 0;
  bool all_valid = true;
  for (int f = 0; f < cfg.frame_count; ++f) {
    if (f == half) at_half = allocations();
    store.trim_below(f - opt.window);
    all_valid = store.get(f).valid() && all_valid;
  }
  const std::uint64_t steady_allocs = allocations() - at_half;

  EXPECT_TRUE(all_valid);
  EXPECT_EQ(steady_allocs, 0u)
      << "heap allocations over the last " << cfg.frame_count - half
      << " frames of a warm stream";
}

TEST(FrameStoreTest, TrimReleasesResidency) {
  SyntheticVideo video(small_config(17, 12));
  FrameStore store(video);
  for (int f = 0; f < 12; ++f) (void)store.get(f);
  const std::size_t before = store.stats().resident_bytes;
  EXPECT_GT(before, 0u);
  store.trim_below(12);  // everything is done
  const FrameStoreStats stats = store.stats();
  EXPECT_EQ(stats.resident_frames, 0u);
  EXPECT_EQ(stats.resident_bytes, 0u);
}

TEST(FrameStoreTest, DegenerateModeReproducesPreStoreCosts) {
  SyntheticVideo video(small_config(19, 6));
  FrameStoreOptions opt;
  opt.window = 0;       // retain nothing behind the newest request
  opt.pool_buffers = 0; // never recycle
  FrameStore store(video, opt);
  (void)store.get(0);
  (void)store.get(1);  // evicts slot 0
  const FrameRef again = store.get(0);  // must re-render, like the old code
  EXPECT_EQ(again.image().pixels(), video.render(0).pixels());
  const FrameStoreStats stats = store.stats();
  EXPECT_EQ(stats.renders, 3u);
  EXPECT_EQ(stats.re_renders, 1u);
  EXPECT_EQ(stats.pool_reuses, 0u);
  EXPECT_EQ(stats.pool_allocs, 3u);
}

TEST(FrameStoreTest, OutstandingRefSurvivesEviction) {
  SyntheticVideo video(small_config(23, 8));
  FrameStoreOptions opt;
  opt.window = 0;
  FrameStore store(video, opt);
  const FrameRef kept = store.get(0);
  const std::vector<std::uint8_t> pixels_before = kept.image().pixels();
  for (int f = 1; f < 8; ++f) (void)store.get(f);  // slot 0 long evicted
  // The ref shares ownership: eviction releases the STORE's reference, the
  // pixels live on (and cannot have been recycled underneath the holder).
  EXPECT_EQ(kept.image().pixels(), pixels_before);
}

// ------------------------------------------------- pipeline equivalence ---

/// Bit-exact comparison of two deterministic (virtual-time) runs.
void expect_same(const core::RunResult& a, const core::RunResult& b) {
  ASSERT_EQ(a.frames.size(), b.frames.size());
  for (std::size_t i = 0; i < a.frames.size(); ++i) {
    const auto& fa = a.frames[i];
    const auto& fb = b.frames[i];
    EXPECT_EQ(fa.source, fb.source) << "frame " << i;
    ASSERT_EQ(fa.boxes.size(), fb.boxes.size()) << "frame " << i;
    for (std::size_t j = 0; j < fa.boxes.size(); ++j) {
      EXPECT_EQ(fa.boxes[j].cls, fb.boxes[j].cls);
      EXPECT_EQ(fa.boxes[j].box.left, fb.boxes[j].box.left);
      EXPECT_EQ(fa.boxes[j].box.top, fb.boxes[j].box.top);
      EXPECT_EQ(fa.boxes[j].box.width, fb.boxes[j].box.width);
      EXPECT_EQ(fa.boxes[j].box.height, fb.boxes[j].box.height);
    }
  }
  ASSERT_EQ(a.cycles.size(), b.cycles.size());
  for (std::size_t i = 0; i < a.cycles.size(); ++i) {
    EXPECT_EQ(a.cycles[i].detected_frame, b.cycles[i].detected_frame);
    EXPECT_EQ(a.cycles[i].frames_tracked, b.cycles[i].frames_tracked);
    EXPECT_DOUBLE_EQ(a.cycles[i].end_ms, b.cycles[i].end_ms);
  }
}

// The FrameRef conversion must not change pipeline outputs: rendering is
// deterministic, so runs through the shared store and over a precached
// video must produce bit-identical boxes and cycle schedules.
TEST(FrameStoreTest, MpdtOutputsIdenticalAcrossStoreModes) {
  const SceneConfig cfg = small_config(29, 60);
  const core::MpdtOptions options{};

  SyntheticVideo video_a(cfg);
  const core::RunResult shared_run = core::run_mpdt(video_a, options);
  SyntheticVideo video_b(cfg);
  video_b.precache();
  const core::RunResult precached_run = core::run_mpdt(video_b, options);

  expect_same(shared_run, precached_run);

  // And the two paths behaved differently under the hood: the shared
  // store rendered each frame at most once, the precached run not at all.
  EXPECT_EQ(shared_run.frame_store.re_renders, 0u);
  EXPECT_EQ(precached_run.frame_store.renders, 0u);
  EXPECT_GT(precached_run.frame_store.precache_hits, 0u);
}

TEST(FrameStoreTest, MarlinOutputsIdenticalAcrossStoreModes) {
  const SceneConfig cfg = small_config(31, 60);
  const core::MarlinOptions options{};
  SyntheticVideo video_a(cfg);
  const core::RunResult shared_run = core::run_marlin(video_a, options);
  SyntheticVideo video_b(cfg);
  video_b.precache();
  const core::RunResult precached_run = core::run_marlin(video_b, options);
  expect_same(shared_run, precached_run);
  EXPECT_EQ(precached_run.frame_store.renders, 0u);
}

// run_realtime is wall-clock scheduled, so two runs are not comparable
// frame-by-frame even in the same store mode; its FrameRef-conversion
// equivalence rests on GetMatchesDirectRender (store pixels == direct
// render, bit-exact) plus test_realtime's NoFrameRendersTwiceThroughTheStore
// (the conversion only removed redundant renders, never changed pixels).

}  // namespace
}  // namespace adavp::video
