#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iterator>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "util/thread_pool.h"
#include "video/camera.h"
#include "video/frame_buffer.h"
#include "video/frame_store.h"
#include "video/object_class.h"
#include "video/profiles.h"
#include "video/scene.h"
#include "vision/image_ops.h"
#include "vision/kernel_config.h"
#include "vision/simd/dispatch.h"

namespace adavp::video {
namespace {

SceneConfig small_config(std::uint64_t seed = 5, int frames = 40) {
  SceneConfig cfg;
  cfg.width = 160;
  cfg.height = 120;
  cfg.frame_count = frames;
  cfg.seed = seed;
  cfg.initial_objects = 3;
  return cfg;
}

// --------------------------------------------------------- ObjectClass ---

TEST(ObjectClassTest, NamesAreDistinct) {
  std::set<std::string_view> names;
  for (int i = 0; i < kNumObjectClasses; ++i) {
    names.insert(class_name(static_cast<ObjectClass>(i)));
  }
  EXPECT_EQ(names.size(), static_cast<std::size_t>(kNumObjectClasses));
}

TEST(ObjectClassTest, ConfusablePairsAreSymmetricForVehicles) {
  EXPECT_EQ(confusable_class(ObjectClass::kCar), ObjectClass::kTruck);
  EXPECT_EQ(confusable_class(ObjectClass::kTruck), ObjectClass::kCar);
  // A person has no confusable peer.
  EXPECT_EQ(confusable_class(ObjectClass::kPerson), ObjectClass::kPerson);
}

// ------------------------------------------------------- SyntheticVideo --

TEST(SyntheticVideoTest, DeterministicRendering) {
  const SceneConfig cfg = small_config();
  SyntheticVideo a(cfg);
  SyntheticVideo b(cfg);
  for (int f : {0, 10, 39}) {
    EXPECT_EQ(a.render(f).pixels(), b.render(f).pixels()) << "frame " << f;
    ASSERT_EQ(a.ground_truth(f).size(), b.ground_truth(f).size());
  }
}

TEST(SyntheticVideoTest, DifferentSeedsDiffer) {
  SceneConfig cfg = small_config(1);
  SyntheticVideo a(cfg);
  cfg.seed = 2;
  SyntheticVideo b(cfg);
  EXPECT_NE(a.render(5).pixels(), b.render(5).pixels());
}

TEST(SyntheticVideoTest, GroundTruthBoxesInsideFrame) {
  SyntheticVideo video(small_config(7, 60));
  for (int f = 0; f < video.frame_count(); ++f) {
    for (const auto& gt : video.ground_truth(f)) {
      EXPECT_GE(gt.box.left, 0.0f);
      EXPECT_GE(gt.box.top, 0.0f);
      EXPECT_LE(gt.box.right(), 160.0f + 1e-3f);
      EXPECT_LE(gt.box.bottom(), 120.0f + 1e-3f);
      EXPECT_FALSE(gt.box.empty());
    }
  }
}

TEST(SyntheticVideoTest, SceneNeverEmpty) {
  SceneConfig cfg = small_config(11, 120);
  cfg.initial_objects = 1;
  cfg.max_objects = 2;
  cfg.speed_mean = 3.0;  // objects exit quickly, respawn must kick in
  SyntheticVideo video(cfg);
  int empty_frames = 0;
  for (int f = 0; f < video.frame_count(); ++f) {
    if (video.ground_truth(f).empty()) ++empty_frames;
  }
  // Brief gaps are allowed while a respawned object enters the viewport,
  // but the scene must repopulate.
  EXPECT_LT(empty_frames, video.frame_count() / 2);
}

TEST(SyntheticVideoTest, ObjectsActuallyMove) {
  SceneConfig cfg = small_config(13, 30);
  cfg.speed_mean = 2.0;
  SyntheticVideo video(cfg);
  const auto& first = video.ground_truth(0);
  const auto& later = video.ground_truth(20);
  ASSERT_FALSE(first.empty());
  // Find a persistent object and check it moved.
  for (const auto& a : first) {
    for (const auto& b : later) {
      if (a.object_id == b.object_id) {
        EXPECT_GT((b.box.center() - a.box.center()).norm(), 1.0f);
        return;
      }
    }
  }
  GTEST_SKIP() << "no persistent object across 20 frames";
}

TEST(SyntheticVideoTest, FasterConfigHasHigherTrueSpeed) {
  SceneConfig slow = small_config(17, 60);
  slow.speed_mean = 0.3;
  slow.camera_pan = 0.0;
  SceneConfig fast = small_config(17, 60);
  fast.speed_mean = 2.5;
  fast.camera_pan = 1.5;
  EXPECT_GT(SyntheticVideo(fast).mean_true_speed(),
            SyntheticVideo(slow).mean_true_speed() * 2.0);
}

TEST(SyntheticVideoTest, ConsecutiveFramesAreSimilarButNotIdentical) {
  SyntheticVideo video(small_config(19, 10));
  const auto f0 = video.render(0);
  const auto f1 = video.render(1);
  const double diff = vision::mean_abs_diff(f0, f1);
  EXPECT_GT(diff, 0.01);   // something moved
  EXPECT_LT(diff, 30.0);   // temporal coherence (paper's premise for LK)
}

TEST(SyntheticVideoTest, CameraPanShiftsBackground) {
  SceneConfig cfg = small_config(23, 10);
  cfg.camera_pan = 3.0;
  cfg.initial_objects = 0;
  cfg.max_objects = 0;
  cfg.spawn_per_second = 0.0;
  cfg.noise_sigma = 0.0;
  SyntheticVideo video(cfg);
  const auto f0 = video.render(0);
  const auto f1 = video.render(1);
  // Background at frame 1, column x should equal frame 0 at column x+pan.
  // (Spot-check away from any respawn-inserted object.)
  int matches = 0;
  int checks = 0;
  for (int y = 10; y < 110; y += 13) {
    for (int x = 10; x < 140; x += 17) {
      ++checks;
      if (std::abs(static_cast<int>(f1.at(x, y)) -
                   static_cast<int>(f0.at_clamped(x + 3, y))) <= 2) {
        ++matches;
      }
    }
  }
  EXPECT_GT(matches, checks * 7 / 10);
}

// precache renders its frames in parallel on the pool; a video that is not
// precached renders each one serially in `render`, the reference.
TEST(SyntheticVideoTest, ParallelPrecacheBitIdenticalToSerial) {
  const SceneConfig cfg = small_config(37, 24);
  const SyntheticVideo serial(cfg);
  SyntheticVideo parallel(cfg);
  parallel.precache();
  ASSERT_FALSE(serial.is_precached());
  ASSERT_TRUE(parallel.is_precached());
  for (int f = 0; f < cfg.frame_count; ++f) {
    ASSERT_NE(parallel.cached_frame(f), nullptr);
    EXPECT_EQ(serial.render(f).pixels(), parallel.cached_frame(f)->pixels())
        << "frame " << f;
  }
}

// A default 720p render_into splits its rows on the shared pool, and one
// called from inside a pool task is a nested call and renders serially.
// Both must equal the serial render byte for byte, and so must the three
// passes run one uneven row range at a time.
TEST(SyntheticVideoTest, RowParallelRenderBitIdenticalToSerial) {
  SyntheticVideo video(scaled_to_720p(small_config(41, 4)));
  util::ThreadPool& pool = util::ThreadPool::shared();
  for (int f = 0; f < 4; ++f) {
    const vision::ImageU8 serial = video.render(f);
    vision::ImageU8 split;
    video.render_into(f, split);
    EXPECT_EQ(serial.pixels(), split.pixels()) << "frame " << f;
    vision::ImageU8 nested;
    const std::uint64_t regions = pool.stats().parallel_regions;
    pool.submit([&] {
          EXPECT_EQ(pool.on_worker_thread(), pool.worker_count() > 0);
          video.render_into(f, nested);
        }).get();
    EXPECT_EQ(pool.stats().parallel_regions, regions) << "frame " << f;
    EXPECT_EQ(serial.pixels(), nested.pixels()) << "frame " << f;
    vision::ImageU8 passes(serial.width(), serial.height());
    const int cuts[] = {0, 250, 251, serial.height()};
    for (std::size_t i = 0; i + 1 < std::size(cuts); ++i) {
      for (const auto pass : {SyntheticVideo::RenderPass::kBackground,
                              SyntheticVideo::RenderPass::kObjects,
                              SyntheticVideo::RenderPass::kSensorNoise}) {
        video.render_pass(f, pass, passes, cuts[i], cuts[i + 1]);
      }
    }
    EXPECT_EQ(serial.pixels(), passes.pixels()) << "frame " << f;
  }
  vision::ImageU8 unsized;
  EXPECT_THROW(video.render_pass(0, SyntheticVideo::RenderPass::kBackground,
                                 unsized, 0, 1),
               std::invalid_argument);
}

// render_into splits only a frame large enough to gain: a 160x120 render
// opens no parallel region on the shared pool, a 384x216 and a 1280x720
// one each open one.
TEST(SyntheticVideoTest, RenderSplitsOnlyLargeFrames) {
  util::ThreadPool& pool = util::ThreadPool::shared();
  vision::ImageU8 img;
  std::uint64_t regions = pool.stats().parallel_regions;
  SyntheticVideo(small_config()).render_into(1, img);
  EXPECT_EQ(pool.stats().parallel_regions, regions);
  if (pool.worker_count() == 0) GTEST_SKIP() << "no pool workers to split on";
  const SceneConfig base = make_scene(scenario_library()[0], 7, 2, 1.0);
  ASSERT_EQ(base.width, 384);
  ASSERT_EQ(base.height, 216);
  for (const SceneConfig& cfg : {base, scaled_to_720p(base)}) {
    SyntheticVideo(cfg).render_into(1, img);
    EXPECT_EQ(pool.stats().parallel_regions, regions + 1) << cfg.width;
    regions = pool.stats().parallel_regions;
  }
}

/// FNV-1a 64 over each frame's size and pixels.
class PixelDigest {
 public:
  void add(const vision::ImageU8& img) {
    const int dims[2] = {img.width(), img.height()};
    mix(dims, sizeof(dims));
    mix(img.pixels().data(), img.pixels().size());
  }
  std::uint64_t value() const { return hash_; }

 private:
  void mix(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001B3ULL;
    }
  }
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

/// The digest of the golden render set, rendered on whatever tier the
/// dispatcher resolves: all 14 scenarios at 384x216 and 1280x720 (scaled
/// as bench_e2e scales them), negative pans with edge-straddling objects,
/// and a row-sliced render.
std::uint64_t golden_render_digest() {
  PixelDigest digest;
  const auto& library = scenario_library();
  for (std::size_t i = 0; i < library.size(); ++i) {
    const SceneConfig base = make_scene(library[i], 2020 + i, 30, 1.0);
    for (const SceneConfig& cfg : {base, scaled_to_720p(base)}) {
      SyntheticVideo video(cfg);
      digest.add(video.render(0));
      digest.add(video.render(29));
    }
  }

  // Negative pans with large, fast objects: the background lattice index
  // goes negative, and objects straddle the left and top edges (object
  // lattice coordinates start inside the object, not at its box).
  bool left_edge = false;
  bool top_edge = false;
  for (const double pan : {-2.7, -5.4}) {
    SceneConfig cfg;
    cfg.width = 320;
    cfg.height = 180;
    cfg.frame_count = 60;
    cfg.seed = 77;
    cfg.camera_pan = pan;
    cfg.speed_mean = 4.0;
    cfg.initial_objects = 8;
    cfg.max_objects = 12;
    cfg.spawn_per_second = 6.0;
    cfg.min_obj_size = 40.0;
    cfg.max_obj_size = 90.0;
    cfg.noise_sigma = pan < -3.0 ? 0.0 : 1.5;
    SyntheticVideo video(cfg);
    for (int f = 0; f < cfg.frame_count; ++f) {
      digest.add(video.render(f));
      for (const auto& gt : video.ground_truth(f)) {
        left_edge = left_edge || gt.box.left == 0.0f;
        top_edge = top_edge || gt.box.top == 0.0f;
      }
    }
  }
  EXPECT_TRUE(left_edge) << "no object straddled the left edge";
  EXPECT_TRUE(top_edge) << "no object straddled the top edge";

  // A row-sliced render: slices start mid lattice cell.
  SyntheticVideo video(scaled_to_720p(make_scene(library[13], 99, 10, 1.0)));
  vision::ImageU8 sliced;
  video.render_into(9, sliced);
  digest.add(sliced);
  return digest.value();
}

// Pins the rendered pixels themselves; the engine goldens see them only
// through the tracker. The constant was captured from the per-pixel
// value-noise renderer, so any renderer rewrite must stay bit-identical.
// Every tier this host and build run is forced in turn through
// ADAVP_FORCE_ISA, the way the camera resolves its kernels; the variable
// is restored afterwards.
TEST(SyntheticVideoTest, RenderedPixelsMatchGoldenDigest) {
  constexpr std::uint64_t kGoldenPixels = 0x5401CD8E93FBCBEAULL;
  const char* env = std::getenv("ADAVP_FORCE_ISA");
  const std::optional<std::string> saved =
      env != nullptr ? std::optional<std::string>(env) : std::nullopt;
  int tiers_run = 0;
  for (const vision::simd::Isa isa :
       {vision::simd::Isa::kScalar, vision::simd::Isa::kSse2,
        vision::simd::Isa::kAvx2}) {
    if (vision::simd::ops_for_isa(isa).isa != isa) continue;  // not here
    EXPECT_EQ(setenv("ADAVP_FORCE_ISA", vision::simd::isa_name(isa), 1), 0);
    vision::simd::refresh_env_for_testing();
    EXPECT_EQ(vision::simd::resolve_isa(vision::KernelConfig{}), isa);
    const std::uint64_t digest = golden_render_digest();
    EXPECT_EQ(digest, kGoldenPixels)
        << vision::simd::isa_name(isa) << ": digest 0x" << std::hex << digest;
    ++tiers_run;
  }
  if (saved) {
    EXPECT_EQ(setenv("ADAVP_FORCE_ISA", saved->c_str(), 1), 0);
  } else {
    EXPECT_EQ(unsetenv("ADAVP_FORCE_ISA"), 0);
  }
  vision::simd::refresh_env_for_testing();
  EXPECT_GE(tiers_run, 1);
}

TEST(SyntheticVideoTest, TimestampsFollowFps) {
  SyntheticVideo video(small_config());
  EXPECT_DOUBLE_EQ(video.timestamp_ms(0), 0.0);
  EXPECT_NEAR(video.timestamp_ms(30), 1000.0, 1e-9);
  EXPECT_NEAR(video.frame_interval_ms(), 1000.0 / 30.0, 1e-12);
}

// ------------------------------------------------------------ Profiles ---

TEST(Profiles, LibraryHasFourteenScenarios) {
  EXPECT_EQ(scenario_library().size(), 14u);
}

TEST(Profiles, TrainingAndTestSetsAreDisjointSeeds) {
  const auto train = make_training_set(1, 60);
  const auto test = make_test_set(1, 60);
  EXPECT_EQ(train.size(), 28u);
  EXPECT_EQ(test.size(), 14u);
  std::set<std::uint64_t> seeds;
  for (const auto& cfg : train) seeds.insert(cfg.seed);
  for (const auto& cfg : test) {
    EXPECT_EQ(seeds.count(cfg.seed), 0u) << cfg.name;
  }
}

TEST(Profiles, ScenariosSpanSlowAndFastContent) {
  double min_speed = 1e9;
  double max_speed = 0.0;
  for (const auto& s : scenario_library()) {
    const double apparent = s.speed_mean + s.camera_pan;
    min_speed = std::min(min_speed, apparent);
    max_speed = std::max(max_speed, apparent);
  }
  EXPECT_LT(min_speed, 0.5);  // meeting-room-like
  EXPECT_GT(max_speed, 3.0);  // racetrack / car-mounted
}

TEST(Profiles, MakeSceneAppliesScale) {
  const auto& scenario = scenario_library()[0];
  const SceneConfig base = make_scene(scenario, 1, 100, 1.0);
  const SceneConfig scaled = make_scene(scenario, 1, 100, 2.0);
  EXPECT_NEAR(scaled.speed_mean, base.speed_mean * 2.0, 1e-12);
  EXPECT_NEAR(scaled.camera_pan, base.camera_pan * 2.0, 1e-12);
  EXPECT_EQ(scaled.frame_count, 100);
}

// --------------------------------------------------------- FrameBuffer ---

FrameRef make_frame(int index) {
  FrameRef f;
  f.index = index;
  f.timestamp_ms = index * 33.3;
  f.image_ptr = std::make_shared<const vision::ImageU8>(4, 4);
  return f;
}

TEST(FrameBufferTest, NewestReturnsLatest) {
  FrameBuffer buffer;
  buffer.push(make_frame(0));
  buffer.push(make_frame(1));
  buffer.push(make_frame(2));
  const auto newest = buffer.wait_newest();
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(newest->index, 2);
  EXPECT_EQ(buffer.size(), 3u);  // non-destructive
}

TEST(FrameBufferTest, DrainRemovesPrefix) {
  FrameBuffer buffer;
  for (int i = 0; i < 5; ++i) buffer.push(make_frame(i));
  const auto drained = buffer.drain_up_to(2);
  ASSERT_EQ(drained.size(), 3u);
  EXPECT_EQ(drained[0].index, 0);
  EXPECT_EQ(drained[2].index, 2);
  EXPECT_EQ(buffer.size(), 2u);
}

TEST(FrameBufferTest, CapacityDropsOldest) {
  FrameBuffer buffer(3);
  for (int i = 0; i < 5; ++i) buffer.push(make_frame(i));
  EXPECT_EQ(buffer.size(), 3u);
  EXPECT_EQ(buffer.dropped(), 2u);
  const auto drained = buffer.drain_up_to(100);
  EXPECT_EQ(drained.front().index, 2);
}

TEST(FrameBufferTest, CloseWakesWaiters) {
  FrameBuffer buffer;
  std::thread waiter([&] {
    const auto frame = buffer.wait_newest();
    EXPECT_FALSE(frame.has_value());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  buffer.close();
  waiter.join();
  EXPECT_TRUE(buffer.closed());
}

TEST(FrameBufferTest, WaitNewerBlocksUntilNewerFrame) {
  FrameBuffer buffer;
  buffer.push(make_frame(0));
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    buffer.push(make_frame(1));
  });
  const auto frame = buffer.wait_newer(0);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->index, 1);
  producer.join();
}

TEST(FrameBufferTest, WaitNewerReturnsNulloptWhenClosedStale) {
  FrameBuffer buffer;
  buffer.push(make_frame(3));
  buffer.close();
  EXPECT_FALSE(buffer.wait_newer(3).has_value());
  EXPECT_TRUE(buffer.wait_newer(2).has_value());
}

// -------------------------------------------------------- CameraSource ---

TEST(CameraSourceTest, PushesAllFramesAndCloses) {
  SceneConfig cfg = small_config(29, 12);
  SyntheticVideo video(cfg);
  FrameStore store(video);
  FrameBuffer buffer(64);
  CameraSource camera(store, buffer, /*time_scale=*/100.0);
  camera.start();
  while (!buffer.closed()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  camera.stop();
  EXPECT_EQ(camera.frames_captured(), 12);
  EXPECT_TRUE(buffer.closed());
  const auto frames = buffer.drain_up_to(1000);
  EXPECT_EQ(frames.size(), 12u);
  EXPECT_EQ(frames.back().index, 11);
}

// ------------------------------------------- FrameBuffer shutdown path ---
// A mid-run stop must wake every blocked consumer and never hang — the
// supervisor's abort path closes the buffer from another thread while the
// detector is parked in wait_newer.

TEST(FrameBufferShutdownTest, CloseWakesABlockedWaiter) {
  FrameBuffer buffer;
  std::atomic<bool> woke{false};
  std::thread waiter([&] {
    EXPECT_FALSE(buffer.wait_newest().has_value());
    // Once closed-and-empty, later waits return immediately too.
    EXPECT_FALSE(buffer.wait_newer(100).has_value());
    woke.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(woke.load());  // genuinely parked, not spinning through
  buffer.close();
  waiter.join();
  EXPECT_TRUE(woke.load());
}

TEST(FrameBufferShutdownTest, PushAfterCloseIsSilentlyDropped) {
  SyntheticVideo video(small_config(33, 4));
  FrameStore store(video);
  FrameBuffer buffer(8);
  buffer.push(store.get(0));
  buffer.push(store.get(1));
  buffer.close();
  buffer.push(store.get(2));  // producer racing the shutdown
  EXPECT_EQ(buffer.size(), 2u);
  EXPECT_EQ(buffer.dropped(), 0u);  // a shutdown race is not an overflow
  // What was queued before the close still drains.
  EXPECT_EQ(buffer.drain_up_to(10).size(), 2u);
}

TEST(FrameBufferShutdownTest, CloseDuringProductionUnblocksConsumer) {
  SyntheticVideo video(small_config(35, 60));
  FrameStore store(video);
  FrameBuffer buffer(64);
  std::thread consumer([&] {
    int last = -1;
    while (true) {
      const auto frame = buffer.wait_newer(last);
      if (!frame.has_value()) break;
      last = frame->index;
    }
    EXPECT_FALSE(buffer.wait_newer(last).has_value());
  });
  for (int i = 0; i < 30; ++i) buffer.push(store.get(i));
  buffer.close();
  consumer.join();  // hangs here if a wakeup was lost
  EXPECT_TRUE(buffer.closed());
}

TEST(CameraSourceTest, StopInterruptsEarly) {
  SceneConfig cfg = small_config(31, 3000);
  SyntheticVideo video(cfg);
  FrameStore store(video);
  FrameBuffer buffer(16);
  CameraSource camera(store, buffer, /*time_scale=*/1.0);  // 100 s of video
  camera.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  camera.stop();
  EXPECT_LT(camera.frames_captured(), 3000);
  EXPECT_TRUE(buffer.closed());
}

// Regression for the fleet-era multi-consumer audit: wait_newer waiters
// have *per-waiter* predicates (each waits for its own after_index), so
// push must broadcast. Under the old notify_one, a push of frame 1 could
// wake only the waiter parked on after_index=100 — which re-sleeps — while
// the waiter the push actually satisfied (after_index=0) slept forever.
TEST(FrameBufferShutdownTest, MultipleWaitersWithDistinctPredicatesAllWake) {
  for (int iteration = 0; iteration < 20; ++iteration) {
    FrameBuffer buffer;
    std::atomic<bool> satisfied_woke{false};
    // Parked first so a FIFO condition variable would hand it the wakeup:
    // a waiter whose predicate (index > 100) the push does NOT satisfy.
    std::thread stale_waiter([&] {
      const auto frame = buffer.wait_newer(100);
      EXPECT_FALSE(frame.has_value());  // only close() releases it
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    // Parked second: the waiter the push satisfies.
    std::thread fresh_waiter([&] {
      const auto frame = buffer.wait_newer(0);
      ASSERT_TRUE(frame.has_value());
      EXPECT_EQ(frame->index, 1);
      satisfied_woke.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    buffer.push(make_frame(1));
    // The satisfied waiter must wake from the push alone — before close()
    // broadcasts — or the bug is back.
    for (int spins = 0; spins < 2000 && !satisfied_woke.load(); ++spins) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(satisfied_woke.load()) << "iteration " << iteration;
    buffer.close();
    stale_waiter.join();
    fresh_waiter.join();
  }
}

}  // namespace
}  // namespace adavp::video
