#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <future>
#include <new>
#include <thread>
#include <tuple>
#include <vector>

#include "util/rng.h"
#include "util/thread_pool.h"
#include "vision/image_ops.h"
#include "vision/optical_flow.h"

// Global operator new/delete replacements local to this test binary: every
// heap allocation on any thread, the shared pool's workers included, bumps
// the counter, so a loop's delta is its real allocation traffic.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

// Not inlined: GCC would otherwise see through them to malloc and free
// inside gtest's own new/delete pairs and warn of mismatched ones.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new[](std::size_t size) {
  return operator new(size);
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace adavp::vision {
namespace {

/// Clamped separable [1 4 6 4 1]/16 blur: rows, then columns, each output
/// accumulated tap by tap in kernel order.
ImageF32 blur5(const ImageF32& img) {
  static const float kKernel[5] = {1.0f, 4.0f, 6.0f, 4.0f, 1.0f};
  const int w = img.width();
  const int h = img.height();
  ImageF32 rows(w, h);
  ImageF32 out(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      float acc = 0.0f;
      for (int k = -2; k <= 2; ++k) acc += kKernel[k + 2] * img.at_clamped(x + k, y);
      rows.at(x, y) = acc / 16.0f;
    }
  }
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      float acc = 0.0f;
      for (int k = -2; k <= 2; ++k) acc += kKernel[k + 2] * rows.at_clamped(x, y + k);
      out.at(x, y) = acc / 16.0f;
    }
  }
  return out;
}

/// Smooth random texture so Lucas-Kanade has gradients everywhere.
ImageF32 smooth_texture(int w, int h, std::uint64_t seed) {
  util::Rng rng(seed);
  ImageF32 img(w, h);
  for (auto& px : img.pixels()) {
    px = static_cast<float>(rng.uniform(0.0, 255.0));
  }
  // Heavy smoothing turns white noise into trackable blobs.
  return blur5(blur5(blur5(img)));
}

/// Shifts an image by (dx, dy) with bilinear resampling.
ImageU8 shift_image(const ImageF32& src, float dx, float dy) {
  ImageF32 out(src.width(), src.height());
  for (int y = 0; y < src.height(); ++y) {
    for (int x = 0; x < src.width(); ++x) {
      out.at(x, y) = sample_bilinear(src, static_cast<float>(x) - dx,
                                     static_cast<float>(y) - dy);
    }
  }
  return to_u8(out);
}

std::vector<geometry::Point2f> grid_points(int w, int h, int margin, int step) {
  std::vector<geometry::Point2f> pts;
  for (int y = margin; y < h - margin; y += step) {
    for (int x = margin; x < w - margin; x += step) {
      pts.push_back({static_cast<float>(x), static_cast<float>(y)});
    }
  }
  return pts;
}

TEST(OpticalFlow, ZeroMotionStaysPut) {
  const ImageF32 tex = smooth_texture(64, 64, 5);
  const ImageU8 frame = to_u8(tex);
  const ImagePyramid pyr(frame, 3);
  const auto pts = grid_points(64, 64, 16, 12);
  std::vector<geometry::Point2f> out;
  std::vector<FlowStatus> status;
  calc_optical_flow_pyr_lk(pyr, pyr, pts, out, status);
  ASSERT_EQ(out.size(), pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_TRUE(status[i].tracked);
    EXPECT_NEAR((out[i] - pts[i]).norm(), 0.0f, 0.05f);
  }
}

TEST(OpticalFlow, EmptyInputsHandled) {
  std::vector<geometry::Point2f> out;
  std::vector<FlowStatus> status;
  calc_optical_flow_pyr_lk(ImagePyramid{}, ImagePyramid{}, {{1.0f, 1.0f}}, out,
                           status);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FALSE(status[0].tracked);
}

TEST(OpticalFlow, TexturelessWindowRejected) {
  const ImageU8 flat(64, 64, 128);
  const ImagePyramid pyr(flat, 3);
  std::vector<geometry::Point2f> out;
  std::vector<FlowStatus> status;
  calc_optical_flow_pyr_lk(pyr, pyr, {{32.0f, 32.0f}}, out, status);
  EXPECT_FALSE(status[0].tracked);
}

TEST(OpticalFlow, LargeMotionNeedsPyramid) {
  const ImageF32 tex = smooth_texture(96, 96, 17);
  const ImageU8 a = to_u8(tex);
  const ImageU8 b = shift_image(tex, 11.0f, -7.0f);
  const auto pts = grid_points(96, 96, 24, 16);

  // Single-level LK fails for an 11-pixel shift (window radius 7) ...
  {
    const ImagePyramid pa(a, 1);
    const ImagePyramid pb(b, 1);
    std::vector<geometry::Point2f> out;
    std::vector<FlowStatus> status;
    calc_optical_flow_pyr_lk(pa, pb, pts, out, status);
    int recovered = 0;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      const geometry::Point2f d = out[i] - pts[i];
      if (status[i].tracked && std::abs(d.x - 11.0f) < 1.0f &&
          std::abs(d.y + 7.0f) < 1.0f) {
        ++recovered;
      }
    }
    EXPECT_LT(recovered, static_cast<int>(pts.size()) / 2);
  }
  // ... but the 4-level pyramid recovers it.
  {
    const ImagePyramid pa(a, 4);
    const ImagePyramid pb(b, 4);
    std::vector<geometry::Point2f> out;
    std::vector<FlowStatus> status;
    calc_optical_flow_pyr_lk(pa, pb, pts, out, status);
    int recovered = 0;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      const geometry::Point2f d = out[i] - pts[i];
      if (status[i].tracked && std::abs(d.x - 11.0f) < 1.0f &&
          std::abs(d.y + 7.0f) < 1.0f) {
        ++recovered;
      }
    }
    EXPECT_GT(recovered, static_cast<int>(pts.size()) * 3 / 4);
  }
}

// Property sweep: pyramidal LK recovers translations over a grid of
// sub-pixel and multi-pixel shifts.
class FlowShiftTest
    : public ::testing::TestWithParam<std::tuple<float, float>> {};

TEST_P(FlowShiftTest, RecoversTranslation) {
  const auto [dx, dy] = GetParam();
  const ImageF32 tex = smooth_texture(80, 80, 23);
  const ImageU8 a = to_u8(tex);
  const ImageU8 b = shift_image(tex, dx, dy);
  const ImagePyramid pa(a, 3);
  const ImagePyramid pb(b, 3);
  const auto pts = grid_points(80, 80, 20, 13);

  std::vector<geometry::Point2f> out;
  std::vector<FlowStatus> status;
  calc_optical_flow_pyr_lk(pa, pb, pts, out, status);

  int tracked = 0;
  double err = 0.0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (!status[i].tracked) continue;
    const geometry::Point2f d = out[i] - pts[i];
    err += std::hypot(d.x - dx, d.y - dy);
    ++tracked;
  }
  ASSERT_GT(tracked, static_cast<int>(pts.size()) * 2 / 3);
  // Accuracy degrades gracefully with shift magnitude (coarse pyramid
  // levels contribute quantization error on big displacements).
  const double tolerance = 0.25 + 0.04 * std::hypot(dx, dy);
  EXPECT_LT(err / tracked, tolerance) << "dx=" << dx << " dy=" << dy;
}

INSTANTIATE_TEST_SUITE_P(
    ShiftGrid, FlowShiftTest,
    ::testing::Values(std::make_tuple(0.5f, 0.0f), std::make_tuple(0.0f, 0.5f),
                      std::make_tuple(0.25f, -0.75f), std::make_tuple(1.5f, 1.0f),
                      std::make_tuple(-2.0f, 3.0f), std::make_tuple(4.0f, -4.0f),
                      std::make_tuple(6.5f, 2.5f), std::make_tuple(-8.0f, -5.0f)));

// With warm pyramids and reused output vectors, LK takes its scratch from
// each thread's arena and hands its body to the pool by reference: a call
// allocates nothing, inline or split.
TEST(OpticalFlow, WarmCallMakesNoHeapAllocations) {
  const ImageF32 tex = smooth_texture(1280, 720, 29);
  const ImagePyramid prev(to_u8(tex), 3);
  const ImagePyramid next(shift_image(tex, 2.5f, -1.5f), 3);
  const auto pts = grid_points(1280, 720, 40, 150);
  const KernelConfig serial{.num_threads = 1};

  // Every pool worker tracks once on a thread of its own (the tasks wait
  // for each other, so no worker runs two), which builds the tiles and
  // warms each worker's arena before anything is counted.
  util::ThreadPool& pool = util::ThreadPool::shared();
  std::atomic<int> arrived{0};
  std::vector<std::future<void>> warm;
  for (int k = 0; k < pool.worker_count(); ++k) {
    warm.push_back(pool.submit([&] {
      arrived.fetch_add(1);
      while (arrived.load() < pool.worker_count()) std::this_thread::yield();
      std::vector<geometry::Point2f> out;
      std::vector<FlowStatus> status;
      calc_optical_flow_pyr_lk(prev, next, pts, out, status, {}, serial);
    }));
  }
  for (std::future<void>& f : warm) f.wait();  // all done before any rethrows
  for (std::future<void>& f : warm) f.get();

  std::vector<geometry::Point2f> out;
  std::vector<FlowStatus> status;
  for (const KernelConfig& kernels : {serial, KernelConfig{.num_threads = 4}}) {
    calc_optical_flow_pyr_lk(prev, next, pts, out, status, {}, kernels);
    int tracked = 0;
    for (const FlowStatus& st : status) tracked += st.tracked ? 1 : 0;
    EXPECT_GT(tracked, static_cast<int>(pts.size()) * 3 / 4);
    const std::uint64_t before = g_alloc_count.load();
    for (int call = 0; call < 100; ++call) {
      calc_optical_flow_pyr_lk(prev, next, pts, out, status, {}, kernels);
    }
    EXPECT_EQ(g_alloc_count.load() - before, 0u)
        << kernels.num_threads << " thread(s)";
  }
}

}  // namespace
}  // namespace adavp::vision
