#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "util/rng.h"
#include "vision/good_features.h"
#include "vision/image_ops.h"
#include "vision/simd/dispatch.h"

namespace adavp::vision {
namespace {

/// A bright square on dark background: its 4 corners are ideal Shi-Tomasi
/// features.
ImageU8 square_image(int size, int left, int top, int side) {
  ImageU8 img(size, size, 20);
  for (int y = top; y < top + side; ++y) {
    for (int x = left; x < left + side; ++x) img.at(x, y) = 220;
  }
  return img;
}

bool near_any_corner(const geometry::Point2f& p, int left, int top, int side,
                     float tol) {
  const float xs[] = {static_cast<float>(left), static_cast<float>(left + side)};
  const float ys[] = {static_cast<float>(top), static_cast<float>(top + side)};
  for (float cx : xs) {
    for (float cy : ys) {
      if (std::abs(p.x - cx) <= tol && std::abs(p.y - cy) <= tol) return true;
    }
  }
  return false;
}

TEST(MinEigenvalue, FlatImageIsZero) {
  const ImageF32 img(16, 16, 50.0f);
  const ImageF32 scores = min_eigenvalue_map(img, 3);
  for (int y = 0; y < 16; ++y) {
    for (int x = 0; x < 16; ++x) EXPECT_NEAR(scores.at(x, y), 0.0f, 1e-4f);
  }
}

TEST(MinEigenvalue, EdgeScoresLowCornerScoresHigh) {
  // A vertical step edge has strong Ix but no Iy: min eigenvalue ~ 0.
  ImageF32 edge(16, 16, 0.0f);
  for (int y = 0; y < 16; ++y) {
    for (int x = 8; x < 16; ++x) edge.at(x, y) = 100.0f;
  }
  const ImageF32 edge_scores = min_eigenvalue_map(edge, 3);
  EXPECT_NEAR(edge_scores.at(8, 8), 0.0f, 1e-2f);

  // A corner (quarter-plane) has both gradients: min eigenvalue >> 0.
  ImageF32 corner(16, 16, 0.0f);
  for (int y = 8; y < 16; ++y) {
    for (int x = 8; x < 16; ++x) corner.at(x, y) = 100.0f;
  }
  const ImageF32 corner_scores = min_eigenvalue_map(corner, 3);
  EXPECT_GT(corner_scores.at(8, 8), 10.0f);
}

TEST(GoodFeatures, FindsSquareCorners) {
  const ImageU8 img = square_image(40, 10, 12, 16);
  GoodFeaturesParams params;
  params.max_corners = 8;
  params.quality_level = 0.2;
  params.min_distance = 4.0;
  const auto corners = good_features_to_track(img, params);
  ASSERT_GE(corners.size(), 4u);
  int near_corners = 0;
  for (const auto& c : corners) {
    if (near_any_corner(c, 10, 12, 16, 2.5f)) ++near_corners;
  }
  EXPECT_GE(near_corners, 4);
}

TEST(GoodFeatures, RespectsMaxCorners) {
  util::Rng rng(3);
  ImageU8 img(64, 64);
  for (auto& px : img.pixels()) {
    px = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  GoodFeaturesParams params;
  params.max_corners = 10;
  params.quality_level = 0.01;
  const auto corners = good_features_to_track(img, params);
  EXPECT_LE(corners.size(), 10u);
  EXPECT_GT(corners.size(), 0u);
}

TEST(GoodFeatures, MinDistanceEnforced) {
  util::Rng rng(4);
  ImageU8 img(64, 64);
  for (auto& px : img.pixels()) {
    px = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  GoodFeaturesParams params;
  params.max_corners = 50;
  params.min_distance = 8.0;
  const auto corners = good_features_to_track(img, params);
  for (std::size_t i = 0; i < corners.size(); ++i) {
    for (std::size_t j = i + 1; j < corners.size(); ++j) {
      EXPECT_GE((corners[i] - corners[j]).norm(), 8.0f);
    }
  }
}

TEST(GoodFeatures, MaskRestrictsDetection) {
  // Two squares; mask covers only the left one.
  ImageU8 img = square_image(64, 8, 8, 12);
  for (int y = 40; y < 52; ++y) {
    for (int x = 40; x < 52; ++x) img.at(x, y) = 220;
  }
  const ImageU8 mask = boxes_mask({64, 64}, {{4, 4, 22, 22}});
  GoodFeaturesParams params;
  params.max_corners = 20;
  params.quality_level = 0.1;
  const auto corners = good_features_to_track(img, params, &mask);
  ASSERT_FALSE(corners.empty());
  for (const auto& c : corners) {
    EXPECT_LT(c.x, 30.0f);
    EXPECT_LT(c.y, 30.0f);
  }
}

/// The whole-frame masked Shi-Tomasi detector, kept verbatim as the oracle
/// for the tiled one: score every pixel, then scan the frame row-major.
std::vector<geometry::Point2f> whole_frame_good_features(
    const ImageU8& img, const GoodFeaturesParams& params, const ImageU8* mask) {
  std::vector<geometry::Point2f> corners;
  if (img.empty() || params.max_corners <= 0) return corners;
  const ImageF32 scores =
      min_eigenvalue_map(to_float(img), params.block_size, params.kernels);
  float best = 0.0f;
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x) {
      if (mask != nullptr && mask->at(x, y) == 0) continue;
      best = std::max(best, scores.at(x, y));
    }
  }
  if (best <= 0.0f) return corners;
  const float threshold = static_cast<float>(params.quality_level) * best;
  struct Candidate {
    float score;
    int x;
    int y;
  };
  std::vector<Candidate> candidates;
  for (int y = 1; y < img.height() - 1; ++y) {
    for (int x = 1; x < img.width() - 1; ++x) {
      if (mask != nullptr && mask->at(x, y) == 0) continue;
      const float s = scores.at(x, y);
      if (s < threshold) continue;
      bool is_max = true;
      for (int dy = -1; dy <= 1 && is_max; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          if (dx == 0 && dy == 0) continue;
          if (scores.at_clamped(x + dx, y + dy) > s) {
            is_max = false;
            break;
          }
        }
      }
      if (is_max) candidates.push_back({s, x, y});
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) { return a.score > b.score; });
  const float min_dist2 =
      static_cast<float>(params.min_distance * params.min_distance);
  for (const Candidate& c : candidates) {
    if (static_cast<int>(corners.size()) >= params.max_corners) break;
    bool ok = true;
    const geometry::Point2f p(static_cast<float>(c.x), static_cast<float>(c.y));
    for (const auto& kept : corners) {
      const geometry::Point2f d = kept - p;
      if (d.x * d.x + d.y * d.y < min_dist2) {
        ok = false;
        break;
      }
    }
    if (ok) corners.push_back(p);
  }
  return corners;
}

/// Noise over a periodic pattern: the pattern repeats scores exactly, so
/// the score sort sees many ties and the candidate order matters.
ImageU8 textured_frame(int w, int h, std::uint64_t seed) {
  util::Rng rng(seed);
  ImageU8 img(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const bool patterned = ((x / 16) + (y / 16)) % 2 == 0;
      const bool bright = ((x % 8) < 4) == ((y % 8) < 4);
      img.at(x, y) = static_cast<std::uint8_t>(
          patterned ? (bright ? 200 : 40) : rng.uniform_int(0, 255));
    }
  }
  return img;
}

/// 0-6 random boxes, some hanging over an edge, some 1 px, some emptied
/// by the shrink, plus one box flush with a chosen frame edge.
std::vector<geometry::BoundingBox> random_boxes(util::Rng& rng, int w, int h,
                                                int edge) {
  std::vector<geometry::BoundingBox> boxes;
  const int n = rng.uniform_int(0, 6);
  for (int i = 0; i < n; ++i) {
    switch (rng.uniform_int(0, 3)) {
      case 0:  // 1x1 pixel
        boxes.push_back({static_cast<float>(rng.uniform_int(0, w - 1)),
                         static_cast<float>(rng.uniform_int(0, h - 1)), 1.0f,
                         1.0f});
        break;
      case 1:  // thin: empty once shrunk by 2
        boxes.push_back({static_cast<float>(rng.uniform(0, w)),
                         static_cast<float>(rng.uniform(0, h)), 3.0f,
                         static_cast<float>(rng.uniform(1, h / 2))});
        break;
      default:  // anywhere, possibly over an edge, possibly overlapping
        boxes.push_back({static_cast<float>(rng.uniform(-0.3 * w, w)),
                         static_cast<float>(rng.uniform(-0.3 * h, h)),
                         static_cast<float>(rng.uniform(1, 0.6 * w)),
                         static_cast<float>(rng.uniform(1, 0.6 * h))});
    }
  }
  const float bw = static_cast<float>(rng.uniform(2, w / 3));
  const float bh = static_cast<float>(rng.uniform(2, h / 3));
  const float x = static_cast<float>(rng.uniform(0, w - bw));
  const float y = static_cast<float>(rng.uniform(0, h - bh));
  switch (edge) {
    case 0: boxes.push_back({0.0f, y, bw, bh}); break;                  // left
    case 1: boxes.push_back({x, 0.0f, bw, bh}); break;                  // top
    case 2: boxes.push_back({static_cast<float>(w) - bw, y, bw, bh}); break;
    case 3: boxes.push_back({x, static_cast<float>(h) - bh, bw, bh}); break;
    default: boxes.push_back({-4.0f, -4.0f, bw + 8.0f, bh + 8.0f}); break;
  }
  return boxes;
}

TEST(GoodFeatures, TiledMatchesFullFrameReference) {
  std::vector<KernelConfig> configs;
  for (const simd::Isa isa :
       {simd::Isa::kScalar, simd::Isa::kSse2, simd::Isa::kAvx2}) {
    if (simd::ops_for_isa(isa).isa != isa) continue;  // not on this host
    configs.push_back({.isa = isa});
  }
  const std::pair<int, int> sizes[] = {{96, 64}, {131, 77}, {40, 23}};
  util::Rng rng(22);
  int compared = 0;
  int with_corners = 0;
  for (const auto& [w, h] : sizes) {
    const ImageU8 img = textured_frame(w, h, static_cast<std::uint64_t>(w * h));
    const ImageU8 all(w, h, 255);
    for (int trial = 0; trial < 12; ++trial) {
      const float shrink = trial % 3 == 0 ? 0.0f : 2.0f;
      const ImageU8 mask =
          boxes_mask({w, h}, random_boxes(rng, w, h, trial % 5), shrink);
      GoodFeaturesParams params;
      params.max_corners = 1000;
      params.min_distance = trial % 2 == 0 ? 0.0 : 3.0;
      params.quality_level = trial % 4 == 0 ? 0.0 : 0.02;
      params.block_size = 3 + 2 * (trial % 3);
      for (const ImageU8* m : {&mask, &all, static_cast<const ImageU8*>(nullptr)}) {
        for (const KernelConfig& cfg : configs) {
          SCOPED_TRACE(std::to_string(w) + "x" + std::to_string(h) + " trial " +
                       std::to_string(trial) + " " + simd::isa_name(cfg.isa) +
                       (m == nullptr ? " null mask" : m == &all ? " full mask" : ""));
          params.kernels = cfg;
          const auto expected = whole_frame_good_features(img, params, m);
          const auto actual = good_features_to_track(img, params, m);
          ASSERT_EQ(actual.size(), expected.size());
          EXPECT_TRUE(actual == expected);
          ++compared;
          if (!expected.empty()) ++with_corners;
        }
      }
    }
  }
  EXPECT_GT(with_corners, compared / 2);  // the comparison is not vacuous
}

TEST(GoodFeatures, EmptyImageOrZeroBudget) {
  EXPECT_TRUE(good_features_to_track(ImageU8{}, {}).empty());
  GoodFeaturesParams params;
  params.max_corners = 0;
  EXPECT_TRUE(good_features_to_track(square_image(32, 8, 8, 10), params).empty());
}

TEST(GoodFeatures, FlatImageHasNoFeatures) {
  const ImageU8 img(32, 32, 128);
  EXPECT_TRUE(good_features_to_track(img, {}).empty());
}

TEST(BoxesMask, MarksInteriorOnly) {
  const ImageU8 mask = boxes_mask({20, 20}, {{5, 5, 6, 6}});
  EXPECT_EQ(mask.at(7, 7), 255);
  EXPECT_EQ(mask.at(4, 4), 0);
  EXPECT_EQ(mask.at(12, 7), 0);
}

TEST(BoxesMask, ShrinkInsetsBox) {
  const ImageU8 mask = boxes_mask({20, 20}, {{5, 5, 8, 8}}, 2.0f);
  EXPECT_EQ(mask.at(9, 9), 255);   // deep interior
  EXPECT_EQ(mask.at(5, 5), 0);     // original border now outside
  EXPECT_EQ(mask.at(6, 6), 0);     // within shrink margin
}

TEST(BoxesMask, ClampsToImage) {
  const ImageU8 mask = boxes_mask({10, 10}, {{-5, -5, 10, 10}});
  EXPECT_EQ(mask.at(0, 0), 255);
  EXPECT_EQ(mask.at(6, 6), 0);
}

TEST(BoxesMask, MultipleBoxesUnion) {
  const ImageU8 mask = boxes_mask({30, 30}, {{2, 2, 5, 5}, {20, 20, 5, 5}});
  EXPECT_EQ(mask.at(4, 4), 255);
  EXPECT_EQ(mask.at(22, 22), 255);
  EXPECT_EQ(mask.at(12, 12), 0);
}

}  // namespace
}  // namespace adavp::vision
