// Parallel-vs-serial equivalence of the vision kernel engine.
//
// Every kernel on the tracking hot path is row- or point-parallel with no
// cross-chunk reductions, so `num_threads = 1` and `num_threads = 4` must
// produce bit-identical images, flow vectors, and tracker boxes. These
// tests pin that invariant (and the fused downsample2 against a literal
// transcription of the historical smooth3-then-decimate formulation) so a
// future kernel change that breaks reproducibility fails loudly.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "detect/detection.h"
#include "track/tracker.h"
#include "video/scene.h"
#include "vision/good_features.h"
#include "vision/image_ops.h"
#include "vision/optical_flow.h"
#include "vision/pyramid.h"
#include "vision/simd/dispatch.h"
#include "vision/simd/kernels_ref.h"

namespace adavp::vision {
namespace {

KernelConfig serial() { return {.num_threads = 1}; }
KernelConfig parallel4() {
  // Force splitting even on the small test images: four threads, tiny
  // grains, so chunk boundaries land in the middle of rows/points.
  KernelConfig cfg;
  cfg.num_threads = 4;
  cfg.min_rows_per_task = 4;
  cfg.min_points_per_task = 1;
  return cfg;
}

ImageU8 test_frame(int w, int h, std::uint32_t seed) {
  ImageU8 img(w, h);
  std::uint32_t s = seed;
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      s = s * 1664525u + 1013904223u;
      img.at(x, y) = static_cast<std::uint8_t>(
          (x * 5 + y * 3 + static_cast<int>((s >> 24) & 63)) % 256);
    }
  }
  return img;
}

template <typename T>
void expect_identical(const Image<T>& a, const Image<T>& b) {
  ASSERT_EQ(a.width(), b.width());
  ASSERT_EQ(a.height(), b.height());
  // operator== on the pixel vectors is an exact byte comparison.
  EXPECT_TRUE(a.pixels() == b.pixels());
}

/// Level `l` of `pyr` as a float image, every tile built first; level 0
/// reads as `to_float` of its bytes.
ImageF32 level_image(const ImagePyramid& pyr, int l) {
  const geometry::Size size = pyr.level_size(l);
  ImageF32 out(size.width, size.height);
  pyr.materialize_all();
  for (std::size_t k = 0; k < out.pixels().size(); ++k) {
    out.pixels()[k] = l == 0 ? static_cast<float>(pyr.base_pixels()[k])
                             : pyr.level_pixels(l)[k];
  }
  return out;
}

TEST(KernelEquivalence, RowParallelKernelsAreBitExact) {
  // Odd dimensions on one of the images exercise the clamped border taps.
  for (const auto& frame : {test_frame(128, 96, 1), test_frame(131, 77, 2)}) {
    const ImageF32 fs = to_float(frame, serial());
    const ImageF32 fp = to_float(frame, parallel4());
    expect_identical(fs, fp);

    expect_identical(smooth3(fs, serial()), smooth3(fs, parallel4()));
    expect_identical(smooth5(fs, serial()), smooth5(fs, parallel4()));
    expect_identical(downsample2(fs, serial()), downsample2(fs, parallel4()));

    ImageF32 gxs, gys, gxp, gyp;
    sobel(fs, gxs, gys, serial());
    sobel(fs, gxp, gyp, parallel4());
    expect_identical(gxs, gxp);
    expect_identical(gys, gyp);

    expect_identical(min_eigenvalue_map(fs, 3, serial()),
                     min_eigenvalue_map(fs, 3, parallel4()));
  }
}

/// Literal transcription of the pre-engine downsample2 (full smooth3 pass,
/// then 2x2 mean) — the reference the fused kernel must match bit for bit.
ImageF32 reference_downsample2(const ImageF32& img) {
  if (img.width() < 2 || img.height() < 2) return img;
  const ImageF32 smoothed = smooth3(img, KernelConfig{.num_threads = 1});
  const int w = (img.width() + 1) / 2;
  const int h = (img.height() + 1) / 2;
  ImageF32 out(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const int sx = 2 * x;
      const int sy = 2 * y;
      const float sum = smoothed.at_clamped(sx, sy) +
                        smoothed.at_clamped(sx + 1, sy) +
                        smoothed.at_clamped(sx, sy + 1) +
                        smoothed.at_clamped(sx + 1, sy + 1);
      out.at(x, y) = sum / 4.0f;
    }
  }
  return out;
}

TEST(KernelEquivalence, FusedDownsampleMatchesUnfusedReference) {
  const std::pair<int, int> sizes[] = {{128, 96}, {131, 77}, {33, 34}, {2, 2}};
  for (const auto& [w, h] : sizes) {
    const ImageF32 img = to_float(test_frame(w, h, 7u));
    expect_identical(reference_downsample2(img), downsample2(img, serial()));
    expect_identical(reference_downsample2(img), downsample2(img, parallel4()));
  }
}

TEST(KernelEquivalence, PyramidAndFlowAreBitExactAcrossThreadCounts) {
  const ImageU8 a = test_frame(160, 120, 11);
  ImageU8 b = test_frame(160, 120, 11);
  // Shift a patch so the flow has something to chase.
  for (int y = 20; y < 60; ++y) {
    for (int x = 20; x < 60; ++x) {
      b.at(x + 3, y + 2) = a.at(x, y);
    }
  }
  const ImagePyramid pas(a, 3, 16, serial());
  const ImagePyramid pap(a, 3, 16, parallel4());
  ASSERT_EQ(pas.levels(), pap.levels());
  for (int l = 0; l < pas.levels(); ++l) {
    expect_identical(level_image(pas, l), level_image(pap, l));
  }

  const ImagePyramid pbs(b, 3, 16, serial());
  std::vector<geometry::Point2f> pts;
  for (int i = 0; i < 30; ++i) {
    pts.push_back({6.0f + static_cast<float>(i % 6) * 28.0f,
                   8.0f + static_cast<float>(i / 6) * 22.0f});
  }
  pts.push_back({0.5f, 0.5f});       // border window: clamped path
  pts.push_back({158.5f, 118.5f});   // border window: clamped path

  std::vector<geometry::Point2f> out_s, out_p;
  std::vector<FlowStatus> st_s, st_p;
  calc_optical_flow_pyr_lk(pas, pbs, pts, out_s, st_s, {}, serial());
  calc_optical_flow_pyr_lk(pas, pbs, pts, out_p, st_p, {}, parallel4());
  ASSERT_EQ(out_s.size(), out_p.size());
  for (std::size_t i = 0; i < out_s.size(); ++i) {
    EXPECT_EQ(out_s[i].x, out_p[i].x) << "point " << i;
    EXPECT_EQ(out_s[i].y, out_p[i].y) << "point " << i;
    EXPECT_EQ(st_s[i].tracked, st_p[i].tracked) << "point " << i;
    EXPECT_EQ(st_s[i].error, st_p[i].error) << "point " << i;
  }
}

TEST(KernelEquivalence, TrackerOutputsAreIdenticalSerialVsParallel) {
  video::SceneConfig cfg;
  cfg.width = 256;
  cfg.height = 160;
  cfg.frame_count = 24;
  cfg.seed = 3;
  cfg.initial_objects = 3;
  cfg.max_objects = 4;
  cfg.speed_mean = 1.2;
  cfg.speed_jitter = 0.05;
  const video::SyntheticVideo video(cfg);

  auto run = [&](const KernelConfig& kernels) {
    track::TrackerParams params;
    params.kernels = kernels;
    track::ObjectTracker tracker(params);
    std::vector<detect::Detection> dets;
    for (const auto& gt : video.ground_truth(0)) {
      dets.push_back({gt.box, gt.cls, 1.0f});
    }
    tracker.set_reference(video.render(0), dets);
    std::vector<metrics::LabeledBox> boxes;
    for (int f = 1; f < cfg.frame_count; ++f) {
      tracker.track_to(video.render(f), 1);
      for (const auto& lb : tracker.current_boxes()) boxes.push_back(lb);
    }
    return boxes;
  };

  const auto serial_boxes = run(serial());
  const auto parallel_boxes = run(parallel4());
  ASSERT_EQ(serial_boxes.size(), parallel_boxes.size());
  for (std::size_t i = 0; i < serial_boxes.size(); ++i) {
    EXPECT_EQ(serial_boxes[i].box.left, parallel_boxes[i].box.left);
    EXPECT_EQ(serial_boxes[i].box.top, parallel_boxes[i].box.top);
    EXPECT_EQ(serial_boxes[i].box.width, parallel_boxes[i].box.width);
    EXPECT_EQ(serial_boxes[i].box.height, parallel_boxes[i].box.height);
    EXPECT_EQ(serial_boxes[i].cls, parallel_boxes[i].cls);
  }
}

// ------------------------------------------------------- ISA matrix ----
//
// The SIMD tiers (DESIGN.md §14) promise bit-exactness with the scalar
// reference, per ISA, per thread count, including every border/tail case:
// odd widths, images narrower than one vector, windows straddling the
// interior/clamped split. Tiers the host CPU (or the build) lacks are
// skipped with a logged notice rather than failed, so the same test binary
// is meaningful on any x86 or non-x86 machine.

KernelConfig with_isa(KernelConfig base, simd::Isa isa) {
  base.isa = isa;
  return base;
}

/// True when forcing `isa` actually runs that tier (the dispatcher clamps
/// unsupported requests down, which would make the comparison vacuous).
bool tier_available(simd::Isa isa) {
  return simd::ops_for_isa(isa).isa == isa;
}

const simd::Isa kSimdTiers[] = {simd::Isa::kSse2, simd::Isa::kAvx2};

TEST(KernelIsaMatrix, RowKernelsMatchScalarBitForBit) {
  // Widths chosen to hit: multiple full vectors + tail (131), exactly the
  // SSE2 width (4), below every vector width (3), and a single column (1).
  const std::pair<int, int> sizes[] = {
      {128, 96}, {131, 77}, {33, 34}, {9, 31}, {4, 6}, {3, 3}, {1, 5}};
  for (const simd::Isa isa : kSimdTiers) {
    if (!tier_available(isa)) {
      std::cout << "[ NOTICE  ] tier " << simd::isa_name(isa)
                << " unavailable on this host/build; skipping\n";
      continue;
    }
    for (const KernelConfig& threads : {serial(), parallel4()}) {
      const KernelConfig ref = with_isa(serial(), simd::Isa::kScalar);
      const KernelConfig tier = with_isa(threads, isa);
      for (const auto& [w, h] : sizes) {
        SCOPED_TRACE(std::string(simd::isa_name(isa)) + " " +
                     std::to_string(threads.num_threads) + "t " +
                     std::to_string(w) + "x" + std::to_string(h));
        const ImageF32 img = to_float(test_frame(w, h, 5u));
        expect_identical(smooth3(img, ref), smooth3(img, tier));
        expect_identical(smooth5(img, ref), smooth5(img, tier));
        expect_identical(downsample2(img, ref), downsample2(img, tier));

        ImageF32 gxs, gys, gxv, gyv;
        sobel(img, gxs, gys, ref);
        sobel(img, gxv, gyv, tier);
        expect_identical(gxs, gxv);
        expect_identical(gys, gyv);

        expect_identical(min_eigenvalue_map(img, 3, ref),
                         min_eigenvalue_map(img, 3, tier));
      }
    }
  }
}

TEST(KernelIsaMatrix, OpticalFlowMatchesScalarBitForBit) {
  const ImageU8 a = test_frame(160, 120, 31);
  ImageU8 b = test_frame(160, 120, 31);
  for (int y = 30; y < 70; ++y) {
    for (int x = 30; x < 70; ++x) {
      b.at(x + 2, y + 3) = a.at(x, y);
    }
  }
  // Interior grid plus window positions that straddle or cross the image
  // border — those take the clamped path on every tier, the rest exercise
  // the gathered samplers.
  std::vector<geometry::Point2f> pts;
  for (int i = 0; i < 24; ++i) {
    pts.push_back({12.0f + static_cast<float>(i % 6) * 26.0f,
                   14.0f + static_cast<float>(i / 6) * 24.0f});
  }
  pts.push_back({1.0f, 1.0f});
  pts.push_back({158.0f, 2.0f});
  pts.push_back({9.5f, 110.7f});   // near the interior/clamped boundary
  pts.push_back({159.0f, 119.0f});

  // Default radius 7 (unrolled fast path) and 4 (generic-radius path).
  LucasKanadeParams params_list[2];
  params_list[1].window_radius = 4;

  const KernelConfig ref = with_isa(serial(), simd::Isa::kScalar);
  const ImagePyramid pa(a, 3, 16, ref);
  const ImagePyramid pb(b, 3, 16, ref);
  for (const simd::Isa isa : kSimdTiers) {
    if (!tier_available(isa)) {
      std::cout << "[ NOTICE  ] tier " << simd::isa_name(isa)
                << " unavailable on this host/build; skipping\n";
      continue;
    }
    for (const KernelConfig& threads : {serial(), parallel4()}) {
      for (const LucasKanadeParams& params : params_list) {
        SCOPED_TRACE(std::string(simd::isa_name(isa)) + " " +
                     std::to_string(threads.num_threads) + "t r=" +
                     std::to_string(params.window_radius));
        std::vector<geometry::Point2f> out_s, out_v;
        std::vector<FlowStatus> st_s, st_v;
        calc_optical_flow_pyr_lk(pa, pb, pts, out_s, st_s, params, ref);
        calc_optical_flow_pyr_lk(pa, pb, pts, out_v, st_v, params,
                                 with_isa(threads, isa));
        ASSERT_EQ(out_s.size(), out_v.size());
        for (std::size_t i = 0; i < out_s.size(); ++i) {
          EXPECT_EQ(out_s[i].x, out_v[i].x) << "point " << i;
          EXPECT_EQ(out_s[i].y, out_v[i].y) << "point " << i;
          EXPECT_EQ(st_s[i].tracked, st_v[i].tracked) << "point " << i;
          EXPECT_EQ(st_s[i].error, st_v[i].error) << "point " << i;
        }
      }
    }
  }
}

TEST(KernelIsaMatrix, EnvOverrideForcesTierAndAutoRestores) {
  ASSERT_EQ(setenv("ADAVP_FORCE_ISA", "scalar", 1), 0);
  simd::refresh_env_for_testing();
  EXPECT_EQ(simd::resolve_isa(KernelConfig{}), simd::Isa::kScalar);
  // An explicit config.isa outranks the environment.
  EXPECT_EQ(simd::resolve_isa(with_isa(KernelConfig{}, simd::detected_isa())),
            simd::detected_isa());
  ASSERT_EQ(unsetenv("ADAVP_FORCE_ISA"), 0);
  simd::refresh_env_for_testing();
  EXPECT_EQ(simd::resolve_isa(KernelConfig{}), simd::detected_isa());
}

TEST(KernelIsaMatrix, ForcedTiersClampToHostSupport) {
  // Requesting more than the host/build supports must degrade, not fault.
  const simd::Isa detected = simd::detected_isa();
  EXPECT_LE(simd::resolve_isa(with_isa(KernelConfig{}, simd::Isa::kAvx2)),
            detected);
  EXPECT_LE(simd::ops_for_isa(simd::Isa::kAvx2).isa, detected);
  // The scalar tier always exists and is always honored.
  EXPECT_EQ(simd::resolve_isa(with_isa(KernelConfig{}, simd::Isa::kScalar)),
            simd::Isa::kScalar);
  EXPECT_EQ(simd::ops_for_isa(simd::Isa::kScalar).isa, simd::Isa::kScalar);
}

// The camera's hash row: every tier against the per-element reference,
// bit for bit, over lattice coordinates that exercise the 64-bit multiply
// (negative and near +-2^40) and lengths around the 4-lane vector and the
// 720p frame width, with a guard element past the end.
TEST(SimdHash, HashUnitRowMatchesScalar) {
  constexpr std::int64_t k40 = std::int64_t{1} << 40;
  const std::int64_t coords[] = {0,       1,        -1,       -7,
                                 12345,   -98765,   k40 - 3,  k40 + 2,
                                 -k40 - 2, -k40 + 5, 0x7FFFFFFF, -0x80000000LL};
  const int lengths[] = {0, 1, 3, 4, 5, 7, 8, 1280, 1283};
  const simd::Isa tiers[] = {simd::Isa::kScalar, simd::Isa::kSse2,
                             simd::Isa::kAvx2};
  std::uint64_t rng = 0x5EED5EEDULL;
  auto next = [&rng] {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return rng ^ (rng >> 29);
  };
  constexpr float kGuard = -1.0f;
  for (const simd::Isa isa : tiers) {
    if (!tier_available(isa)) {
      std::cout << "[ NOTICE  ] tier " << simd::isa_name(isa)
                << " unavailable on this host/build; skipping\n";
      continue;
    }
    const simd::SimdOps& ops = simd::ops_for_isa(isa);
    for (int trial = 0; trial < 4; ++trial) {
      const std::uint64_t seed = next();
      for (const std::int64_t a0 : coords) {
        for (const std::int64_t b : coords) {
          for (const int n : lengths) {
            SCOPED_TRACE(std::string(simd::isa_name(isa)) + " seed " +
                         std::to_string(seed) + " a0 " + std::to_string(a0) +
                         " b " + std::to_string(b) + " n " +
                         std::to_string(n));
            std::vector<float> out(static_cast<std::size_t>(n) + 1, kGuard);
            ops.hash_unit_row(seed, a0, b, n, out.data());
            int mismatches = 0;
            for (int k = 0; k < n; ++k) {
              const float want = simd::ref::hash_unit(seed, a0 + k, b);
              std::uint32_t got_bits = 0;
              std::uint32_t want_bits = 0;
              std::memcpy(&got_bits, &out[static_cast<std::size_t>(k)], 4);
              std::memcpy(&want_bits, &want, 4);
              if (got_bits != want_bits && ++mismatches <= 3) {
                ADD_FAILURE() << "k " << k << ": got " << out[k] << " want "
                              << want;
              }
            }
            EXPECT_EQ(mismatches, 0);
            EXPECT_EQ(out.back(), kGuard) << "wrote past n";
          }
        }
      }
    }
  }
}

// The camera's pixel rows: every tier against the scalar reference, byte
// for byte, at widths around the 8-lane vector and the 720p row, with a
// guard byte past n. Shaded values reach below 0 and above 255, past 2^31
// too (where an unclamped cvttps would wrap), and the inputs include NaN
// and infinities, so the operand order of every min and max that decides
// a pixel is observable. Object rows cover border pixels on all four
// sides; noise rows use seeds, columns and rows near +-2^40.
TEST(SimdRender, RowKernelsMatchReference) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  constexpr std::int64_t k40 = std::int64_t{1} << 40;
  constexpr std::uint8_t kGuard = 0xA5;
  const int widths[] = {0, 1, 7, 8, 9, 383, 384, 1280, 1283};
  constexpr int kMaxWidth = 1283;
  std::uint64_t rng = 0xC0FFEEULL;
  auto next = [&rng] {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return rng ^ (rng >> 29);
  };
  auto uniform = [&next](float lo, float hi) {
    return lo + (hi - lo) * static_cast<float>(next() >> 40) * 0x1.0p-24f;
  };

  // Texture inputs mostly in [-7, 8], so 120 + 45 * tex spans about
  // [-300, 560]; every 17th column takes a special value.
  const float specials[] = {1e30f, -1e30f, kInf, -kInf, kNaN, 3e9f, -0.0f};
  std::vector<float> lattice[4];
  for (int r = 0; r < 4; ++r) {
    for (int i = 0; i < kMaxWidth; ++i) {
      lattice[r].push_back(i % 17 == 5 ? specials[(i / 17 + r) % 7]
                                       : uniform(-7.0f, 8.0f));
    }
  }
  const simd::TextureRow tex{lattice[0].data(), lattice[1].data(), 0.37f,
                             lattice[2].data(), lattice[3].data(), 0.81f};

  std::vector<std::uint8_t> canvas(kMaxWidth);
  for (auto& px : canvas) px = static_cast<std::uint8_t>(next() >> 56);
  canvas[0] = 0;
  canvas[1] = 255;

  std::vector<std::uint8_t> want;
  std::vector<std::uint8_t> got;
  // Both rows start as `canvas` (the noise adds to it) plus a guard byte.
  auto reset = [&](int n) {
    want.assign(canvas.begin(), canvas.begin() + n);
    want.push_back(kGuard);
    got = want;
  };
  auto expect_same = [&](int n) {
    int mismatches = 0;
    for (int i = 0; i < n; ++i) {
      if (got[static_cast<std::size_t>(i)] != want[static_cast<std::size_t>(i)] &&
          ++mismatches <= 3) {
        ADD_FAILURE() << "pixel " << i << ": got " << int{got[i]} << " want "
                      << int{want[i]};
      }
    }
    EXPECT_EQ(mismatches, 0);
    EXPECT_EQ(got[static_cast<std::size_t>(n)], kGuard) << "wrote past n";
  };

  const simd::Isa tiers[] = {simd::Isa::kScalar, simd::Isa::kSse2,
                             simd::Isa::kAvx2};
  for (const simd::Isa isa : tiers) {
    if (!tier_available(isa)) {
      std::cout << "[ NOTICE  ] tier " << simd::isa_name(isa)
                << " unavailable on this host/build; skipping\n";
      continue;
    }
    const simd::SimdOps& ops = simd::ops_for_isa(isa);
    for (const int n : widths) {
      {
        SCOPED_TRACE(std::string(simd::isa_name(isa)) + " background n " +
                     std::to_string(n));
        reset(n);
        simd::ref::background_row(tex, n, want.data());
        ops.background_row(tex, n, got.data());
        expect_same(n);
      }

      // A run starting 0.3 px inside the box's left edge and ending 0.2 px
      // short of its right edge, on rows along the top edge, inside, and
      // along the bottom edge; then non-finite geometry.
      simd::ObjectRowShade shade{};
      shade.x0 = 200;
      shade.left = 199.7f;
      shade.width = static_cast<float>(n) + 0.1f;
      shade.height = 30.0f;
      shade.base = 130.0f;
      shade.contrast = 40.0f;
      std::vector<simd::ObjectRowShade> shades;
      for (const float ly : {0.0f, 1.3f, 12.0f, 28.9f, 29.99f, kNaN}) {
        shade.ly = ly;
        shades.push_back(shade);
      }
      shade.ly = 1.0f;
      for (const float left : {kNaN, -kInf}) {
        simd::ObjectRowShade odd = shade;
        odd.left = left;
        shades.push_back(odd);
      }
      shade.width = kNaN;
      shades.push_back(shade);
      for (std::size_t k = 0; k < shades.size(); ++k) {
        SCOPED_TRACE(std::string(simd::isa_name(isa)) + " object n " +
                     std::to_string(n) + " case " + std::to_string(k));
        reset(n);
        simd::ref::object_row(tex, shades[k], n, want.data());
        ops.object_row(tex, shades[k], n, got.data());
        expect_same(n);
      }

      for (int trial = 0; trial < 2; ++trial) {
        const std::uint64_t seed = next();
        for (const std::int64_t a0 : {std::int64_t{0}, std::int64_t{-3}, k40 - 5}) {
          for (const std::int64_t b : {std::int64_t{0}, std::int64_t{719},
                                       k40 - 1, k40 + 3, -k40, -k40 + 2}) {
            for (const float amp : {0.0f, 5.1f, 600.0f, 1e12f, kNaN}) {
              SCOPED_TRACE(std::string(simd::isa_name(isa)) + " noise n " +
                           std::to_string(n) + " seed " + std::to_string(seed) +
                           " a0 " + std::to_string(a0) + " b " +
                           std::to_string(b) + " amp " + std::to_string(amp));
              reset(n);
              simd::ref::noise_row(seed, a0, b, n, amp, want.data());
              ops.noise_row(seed, a0, b, n, amp, got.data());
              expect_same(n);
            }
          }
        }
      }
    }
  }
}

// Taking the frame just tracked as the new reference must behave exactly
// like a fresh tracker given that frame: set_reference copies the frame
// into a new reference pyramid whatever the tracker held before.
TEST(KernelEquivalence, ReferenceOnTrackedFrameMatchesFreshTracker) {
  video::SceneConfig cfg;
  cfg.width = 256;
  cfg.height = 160;
  cfg.frame_count = 8;
  cfg.seed = 5;
  cfg.initial_objects = 3;
  cfg.max_objects = 4;
  cfg.speed_mean = 2.0;
  const video::SyntheticVideo video(cfg);
  auto detections = [&](int f) {
    std::vector<detect::Detection> dets;
    for (const auto& gt : video.ground_truth(f)) dets.push_back({gt.box, gt.cls, 1.0f});
    return dets;
  };

  track::ObjectTracker tracker;
  tracker.set_reference(video.render(0), detections(0));
  tracker.track_to(video.render(1), 1);
  tracker.track_to(video.render(2), 1);
  tracker.set_reference(video.render(2), detections(2));
  track::ObjectTracker fresh;
  fresh.set_reference(video.render(2), detections(2));

  for (int f = 3; f < cfg.frame_count; ++f) {
    SCOPED_TRACE("frame " + std::to_string(f));
    const track::TrackStepStats a = tracker.track_to(video.render(f), 1);
    const track::TrackStepStats b = fresh.track_to(video.render(f), 1);
    EXPECT_EQ(a.features_attempted, b.features_attempted);
    EXPECT_EQ(a.features_tracked, b.features_tracked);
    EXPECT_EQ(a.displacement_sum, b.displacement_sum);
    EXPECT_EQ(a.live_objects, b.live_objects);
    const auto boxes_a = tracker.current_boxes();
    const auto boxes_b = fresh.current_boxes();
    ASSERT_EQ(boxes_a.size(), boxes_b.size());
    for (std::size_t i = 0; i < boxes_a.size(); ++i) {
      EXPECT_EQ(boxes_a[i].box, boxes_b[i].box) << "box " << i;
      EXPECT_EQ(boxes_a[i].cls, boxes_b[i].cls) << "box " << i;
    }
  }
  EXPECT_GT(tracker.live_feature_count(), 0);
}

// ------------------------------------------------------- lazy pyramid ----
//
// ImagePyramid builds its upper levels tile by tile, only where LK reads
// them (DESIGN.md §7). The oracle is the whole-frame chain the eager
// pyramid was: to_float, then downsample2 per level.

std::vector<ImageF32> whole_frame_levels(const ImageU8& frame, int levels,
                                         int min_dimension) {
  std::vector<ImageF32> out{to_float(frame, serial())};
  while (static_cast<int>(out.size()) < levels &&
         out.back().width() / 2 >= min_dimension &&
         out.back().height() / 2 >= min_dimension) {
    out.push_back(downsample2(out.back(), serial()));
  }
  return out;
}

/// Number of values of level `l` in columns [x0, x1] and rows [y0, y1]
/// (clamped) that differ, bit for bit, from the oracle.
int count_mismatches(const ImagePyramid& pyr, const ImageF32& oracle, int l,
                     int x0, int y0, int x1, int y1) {
  const int w = oracle.width();
  x0 = std::max(x0, 0);
  y0 = std::max(y0, 0);
  x1 = std::min(x1, w - 1);
  y1 = std::min(y1, oracle.height() - 1);
  int mismatches = 0;
  for (int y = y0; y <= y1; ++y) {
    for (int x = x0; x <= x1; ++x) {
      const float got = pyr.level_pixels(l)[static_cast<std::size_t>(y) * w + x];
      if (std::memcmp(&got, &oracle.at(x, y), sizeof(float)) != 0) ++mismatches;
    }
  }
  return mismatches;
}

/// A lazy pyramid over `frame` whose storage was first filled, every
/// tile, from another frame of the same size: a read of a tile nobody
/// built then sees wrong values instead of, by luck, right ones.
ImagePyramid stale_pyramid(const ImageU8& frame, int levels, int min_dimension,
                           const KernelConfig& cfg) {
  ImageU8 other = frame;
  for (std::uint8_t& px : other.pixels()) px = static_cast<std::uint8_t>(255 - px);
  ImagePyramid pyr(other, levels, min_dimension, cfg);
  pyr.materialize_all();
  pyr.rebuild(frame, levels, min_dimension, cfg);
  return pyr;
}

std::vector<simd::Isa> available_tiers() {
  std::vector<simd::Isa> tiers;
  for (const simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kSse2, simd::Isa::kAvx2}) {
    if (tier_available(isa)) {
      tiers.push_back(isa);
    } else {
      std::cout << "[ NOTICE  ] tier " << simd::isa_name(isa)
                << " unavailable on this host/build; skipping\n";
    }
  }
  return tiers;
}

TEST(LazyPyramid, MaterializedValuesMatchWholeFrameChain) {
  struct Case {
    int w, h, levels, min_dimension;
  };
  // Odd sizes, sizes below one tile, one row of tiles, and the 720p frame
  // plus one on each side.
  const Case cases[] = {{131, 77, 4, 4},  {257, 131, 3, 16}, {65, 17, 4, 2},
                        {33, 35, 5, 1},   {1281, 719, 3, 16}, {200, 3, 3, 1}};
  std::uint64_t rng = 0x9E3779B9ULL;
  auto next = [&rng](int n) {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<int>((rng >> 33) % static_cast<std::uint64_t>(n));
  };
  for (const simd::Isa isa : available_tiers()) {
    for (const Case& c : cases) {
      SCOPED_TRACE(std::string(simd::isa_name(isa)) + " " + std::to_string(c.w) +
                   "x" + std::to_string(c.h));
      const ImageU8 frame = test_frame(c.w, c.h, static_cast<std::uint32_t>(c.w * c.h));
      const std::vector<ImageF32> oracle =
          whole_frame_levels(frame, c.levels, c.min_dimension);
      const ImagePyramid pyr =
          stale_pyramid(frame, c.levels, c.min_dimension, with_isa(serial(), isa));
      ASSERT_EQ(pyr.levels(), static_cast<int>(oracle.size()));
      EXPECT_EQ(std::memcmp(pyr.base_pixels(), frame.pixels().data(),
                            frame.pixels().size()), 0);
      if (pyr.levels() < 2) continue;
      // Random rectangles, some past the level's edges, on random levels:
      // everything a call asked for must be the oracle's.
      for (int k = 0; k < 60; ++k) {
        const int l = 1 + next(pyr.levels() - 1);
        const ImageF32& level = oracle[static_cast<std::size_t>(l)];
        const int x0 = next(level.width() + 10) - 5;
        const int y0 = next(level.height() + 10) - 5;
        const int x1 = x0 + next(30);
        const int y1 = y0 + next(30);
        pyr.materialize(l, x0, y0, x1, y1);
        EXPECT_EQ(count_mismatches(pyr, level, l, x0, y0, x1, y1), 0)
            << "level " << l << " [" << x0 << ", " << x1 << "] x [" << y0
            << ", " << y1 << "]";
      }
      pyr.materialize_all();
      for (int l = 1; l < pyr.levels(); ++l) {
        const ImageF32& level = oracle[static_cast<std::size_t>(l)];
        EXPECT_EQ(count_mismatches(pyr, level, l, 0, 0, level.width() - 1,
                                   level.height() - 1), 0)
            << "level " << l;
      }
    }
  }
}

/// LK through `prev`/`next` forward, then back from where it landed, the
/// tracker's forward-backward check.
struct RoundTrip {
  std::vector<geometry::Point2f> fwd, back;
  std::vector<FlowStatus> fwd_status, back_status;
};

RoundTrip round_trip(const ImagePyramid& prev, const ImagePyramid& next,
                     const std::vector<geometry::Point2f>& pts,
                     const LucasKanadeParams& params, const KernelConfig& cfg) {
  RoundTrip t;
  calc_optical_flow_pyr_lk(prev, next, pts, t.fwd, t.fwd_status, params, cfg);
  calc_optical_flow_pyr_lk(next, prev, t.fwd, t.back, t.back_status, params, cfg);
  return t;
}

int count_flow_mismatches(const RoundTrip& a, const RoundTrip& b) {
  int mismatches = 0;
  auto same = [](const std::vector<geometry::Point2f>& p,
                 const std::vector<FlowStatus>& s,
                 const std::vector<geometry::Point2f>& q,
                 const std::vector<FlowStatus>& t, std::size_t i) {
    return std::memcmp(&p[i].x, &q[i].x, sizeof(float)) == 0 &&
           std::memcmp(&p[i].y, &q[i].y, sizeof(float)) == 0 &&
           s[i].tracked == t[i].tracked &&
           std::memcmp(&s[i].error, &t[i].error, sizeof(float)) == 0;
  };
  for (std::size_t i = 0; i < a.fwd.size(); ++i) {
    if (!same(a.fwd, a.fwd_status, b.fwd, b.fwd_status, i) ||
        !same(a.back, a.back_status, b.back, b.back_status, i)) {
      if (++mismatches <= 3) ADD_FAILURE() << "point " << i;
    }
  }
  return mismatches;
}

/// `frame` with a block of it moved by (6, 4) px and the rest replaced:
/// the guesses move, so Newton windows leave the tiles the first window
/// built.
ImageU8 moved_block(const ImageU8& frame, std::uint32_t seed) {
  ImageU8 out = test_frame(frame.width(), frame.height(), seed);
  for (int y = frame.height() / 8; y < frame.height() * 3 / 4; ++y) {
    for (int x = frame.width() / 8; x < frame.width() * 3 / 4; ++x) {
      out.at(x + 6, y + 4) = frame.at(x, y);
    }
  }
  return out;
}

TEST(LazyPyramid, FlowMatchesFullyMaterializedPyramids) {
  std::uint64_t rng = 0xC0DEULL;
  auto uniform = [&rng](float lo, float hi) {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return lo + (hi - lo) * static_cast<float>(rng >> 40) * 0x1.0p-24f;
  };
  auto check = [&](const ImageU8& a, const std::vector<geometry::Point2f>& pts) {
    const ImageU8 b = moved_block(a, 43);
    for (const int levels : {1, 2, 3, 4}) {
      for (const int radius : {3, 5, 7, 9}) {
        LucasKanadeParams params;
        params.window_radius = radius;
        const KernelConfig ref = with_isa(serial(), simd::Isa::kScalar);
        const ImagePyramid full_a(a, levels, 8, ref);
        const ImagePyramid full_b(b, levels, 8, ref);
        full_a.materialize_all();
        full_b.materialize_all();
        ASSERT_EQ(full_a.levels(), levels);
        const RoundTrip want = round_trip(full_a, full_b, pts, params, ref);
        for (const simd::Isa isa : available_tiers()) {
          for (const KernelConfig& threads : {serial(), parallel4()}) {
            SCOPED_TRACE(std::to_string(a.width()) + "x" + std::to_string(a.height()) +
                         " " + simd::isa_name(isa) + " " +
                         std::to_string(threads.num_threads) + "t levels " +
                         std::to_string(levels) + " r " + std::to_string(radius));
            const KernelConfig cfg = with_isa(threads, isa);
            const ImagePyramid lazy_a = stale_pyramid(a, levels, 8, cfg);
            const ImagePyramid lazy_b = stale_pyramid(b, levels, 8, cfg);
            EXPECT_EQ(count_flow_mismatches(
                          round_trip(lazy_a, lazy_b, pts, params, cfg), want),
                      0);
          }
        }
      }
    }
  };

  // A small frame: points over it and up to 40 px past its edges, a
  // cluster whose windows share tiles, and two far off the frame.
  {
    const ImageU8 a = test_frame(203, 157, 41);
    std::vector<geometry::Point2f> pts;
    for (int i = 0; i < 70; ++i) {
      pts.push_back({uniform(-40.0f, 243.0f), uniform(-40.0f, 197.0f)});
    }
    for (int i = 0; i < 20; ++i) {
      pts.push_back({uniform(60.0f, 75.0f), uniform(50.0f, 62.0f)});
    }
    pts.push_back({-500.0f, 30.0f});
    pts.push_back({30.0f, 1e6f});
    check(a, pts);
  }
  // A larger frame with few points: most tiles stay unbuilt, so a window
  // reading one pixel past what it materialized meets a tile nobody built.
  {
    const ImageU8 a = test_frame(640, 360, 47);
    std::vector<geometry::Point2f> pts;
    for (int i = 0; i < 24; ++i) {
      pts.push_back({uniform(0.0f, 640.0f), uniform(0.0f, 360.0f)});
    }
    check(a, pts);
  }
}

// Many threads asking at once for the same unbuilt tiles: one builds each
// tile, the others wait for it, and every value is the oracle's. Labelled
// `concurrency` (with the whole binary) so the TSan job runs it.
TEST(LazyPyramid, ConcurrentMissesOnSharedTilesAreExact) {
  const ImageU8 a = test_frame(320, 240, 51);
  ImageU8 b = test_frame(320, 240, 53);
  for (int y = 60; y < 180; ++y) {
    for (int x = 60; x < 260; ++x) b.at(x + 3, y + 2) = a.at(x, y);
  }
  const std::vector<ImageF32> oracle = whole_frame_levels(a, 4, 8);

  // Threads of their own, released together, each walking the same
  // rectangles at the top level in its own order.
  for (int round = 0; round < 8; ++round) {
    const ImagePyramid pyr = stale_pyramid(a, 4, 8, {});
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&pyr, &go, t] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        for (int k = 0; k < 6; ++k) {
          const int j = (k + t) % 6;
          pyr.materialize(3, 5 * j, 2 * j, 5 * j + 12, 2 * j + 10);
        }
      });
    }
    go.store(true, std::memory_order_release);
    for (std::thread& th : threads) th.join();
    for (int j = 0; j < 6; ++j) {
      EXPECT_EQ(count_mismatches(pyr, oracle[3], 3, 5 * j, 2 * j, 5 * j + 12, 2 * j + 10), 0)
          << "round " << round << " rectangle " << j;
    }
  }

  // LK on the pool: a few hundred points in one small area, so the
  // workers miss into the same tiles of fresh pyramids at every level.
  std::vector<geometry::Point2f> pts;
  for (int i = 0; i < 240; ++i) {
    pts.push_back({100.0f + static_cast<float>(i % 16) * 1.7f,
                   90.0f + static_cast<float>(i / 16) * 1.3f});
  }
  const ImagePyramid full_a(a, 4, 8);
  const ImagePyramid full_b(b, 4, 8);
  full_a.materialize_all();
  full_b.materialize_all();
  const RoundTrip want = round_trip(full_a, full_b, pts, {}, serial());
  for (int round = 0; round < 4; ++round) {
    const ImagePyramid lazy_a = stale_pyramid(a, 4, 8, {});
    const ImagePyramid lazy_b = stale_pyramid(b, 4, 8, {});
    EXPECT_EQ(count_flow_mismatches(round_trip(lazy_a, lazy_b, pts, {}, parallel4()),
                                    want), 0)
        << "round " << round;
  }
}

// The byte-plane LK samplers against the float ones run on float(frame),
// bit for bit, on every tier. The byte plane is allocated with exactly the
// kLkByteOverread bytes past its end that the samplers may read, and the
// windows reach its last column and row, so a sanitizer build catches a
// gather reading further.
TEST(SimdLk, U8SamplersMatchFloatSamplers) {
  const int w = 37;
  const int h = 23;
  const ImageU8 frame = test_frame(w, h, 61);
  std::vector<std::uint8_t> bytes(frame.pixels().begin(), frame.pixels().end());
  bytes.resize(bytes.size() + simd::kLkByteOverread, 0xEE);
  const ImageF32 floats = to_float(frame);
  const std::uint8_t* pix8 = bytes.data();
  const float* pixf = floats.pixels().data();

  constexpr int kMaxRadius = 9;
  constexpr std::size_t kMax = (2 * kMaxRadius + 1) * (2 * kMaxRadius + 1);
  alignas(32) float want[3][kMax];
  alignas(32) float got[3][kMax];
  auto expect_same = [&](std::size_t n, int arrays) {
    for (int k = 0; k < arrays; ++k) {
      EXPECT_EQ(std::memcmp(want[k], got[k], n * sizeof(float)), 0) << "array " << k;
    }
  };
  for (const simd::Isa isa : available_tiers()) {
    const simd::SimdOps& ops = simd::ops_for_isa(isa);
    for (int r = 1; r <= kMaxRadius; ++r) {
      const std::size_t n = static_cast<std::size_t>((2 * r + 1) * (2 * r + 1));
      // Window centres from the top-left interior corner to the
      // bottom-right one, where the +1 gradient taps read the last column
      // and row; fractions near 0 and 1. A centre p keeps every tap in
      // the plane while r + 1 <= p < w - r - 2.
      const float lo = static_cast<float>(r + 1);
      const float hi_x = static_cast<float>(w - r - 3);
      const float hi_y = static_cast<float>(h - r - 3);
      if (hi_x < lo || hi_y < lo) continue;
      for (const float fx : {0.0f, 0.25f, 0.999f}) {
        for (const float fy : {0.0f, 0.5f, 0.999f}) {
          for (const auto& [px, py] :
               {std::pair{lo + fx, lo + fy}, std::pair{hi_x + fx, hi_y + fy},
                std::pair{lo + fx, hi_y + fy}, std::pair{hi_x + fx, lo + fy}}) {
            SCOPED_TRACE(std::string(simd::isa_name(isa)) + " r " +
                         std::to_string(r) + " at " + std::to_string(px) + ", " +
                         std::to_string(py));
            ops.lk_sample_window(pixf, w, px, py, r, want[0], want[1], want[2]);
            ops.lk_sample_window_u8(pix8, w, px, py, r, got[0], got[1], got[2]);
            expect_same(n, 3);
            simd::ref::lk_sample_window(pixf, w, px, py, r, got[0], got[1], got[2]);
            expect_same(n, 3);
            // The patch sampler's taps reach one column and row further.
            ops.lk_sample_patch(pixf, w, px + 1.0f, py + 1.0f, r, want[0]);
            ops.lk_sample_patch_u8(pix8, w, px + 1.0f, py + 1.0f, r, got[0]);
            expect_same(n, 1);
          }
        }
      }
    }
  }

  // Border windows: the clamped sampler on bytes and on floats, around
  // and past every edge.
  int mismatches = 0;
  for (float y = -3.5f; y <= static_cast<float>(h) + 3.0f; y += 0.75f) {
    for (float x = -3.25f; x <= static_cast<float>(w) + 3.0f; x += 0.625f) {
      const float a = sample_bilinear(frame, x, y);
      const float b = sample_bilinear(floats, x, y);
      if (std::memcmp(&a, &b, sizeof(float)) != 0 && ++mismatches <= 3) {
        ADD_FAILURE() << "at " << x << ", " << y << ": " << a << " vs " << b;
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

}  // namespace
}  // namespace adavp::vision
