// Parallel-vs-serial equivalence of the vision kernel engine.
//
// Every kernel on the tracking hot path is row- or point-parallel with no
// cross-chunk reductions, so `num_threads = 1` and `num_threads = 4` must
// produce bit-identical images, flow vectors, and tracker boxes. These
// tests pin that invariant (and the fused downsample2 against a literal
// transcription of the historical smooth3-then-decimate formulation) so a
// future kernel change that breaks reproducibility fails loudly.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>
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
    expect_identical(pas.level(l), pap.level(l));
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

TEST(KernelEquivalence, TrackerReusesPyramidForRepeatedReferenceFrame) {
  const ImageU8 frame = test_frame(160, 120, 21);
  track::TrackerParams params;
  track::ObjectTracker tracker(params);
  std::vector<detect::Detection> dets;
  detect::Detection d;
  d.box = {30.0f, 30.0f, 40.0f, 40.0f};
  dets.push_back(d);
  tracker.set_reference(frame, dets);
  // Same frame again: the stored pyramid must be reused; behaviour (boxes,
  // features) is unchanged either way.
  tracker.set_reference(frame, dets);
  EXPECT_TRUE(tracker.has_reference());
  const auto boxes = tracker.current_boxes();
  ASSERT_EQ(boxes.size(), 1u);
}

}  // namespace
}  // namespace adavp::vision
