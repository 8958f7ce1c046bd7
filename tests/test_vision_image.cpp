#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <utility>

#include "vision/drawing.h"
#include "vision/image.h"
#include "vision/image_ops.h"
#include "vision/pgm.h"
#include "vision/pyramid.h"

namespace adavp::vision {
namespace {

TEST(ImageTest, ConstructionAndAccess) {
  ImageU8 img(4, 3, 7);
  EXPECT_EQ(img.width(), 4);
  EXPECT_EQ(img.height(), 3);
  EXPECT_FALSE(img.empty());
  EXPECT_EQ(img.at(0, 0), 7);
  img.at(2, 1) = 42;
  EXPECT_EQ(img.at(2, 1), 42);
  EXPECT_EQ(img.pixels().size(), 12u);
}

TEST(ImageTest, DefaultIsEmpty) {
  ImageU8 img;
  EXPECT_TRUE(img.empty());
  EXPECT_EQ(img.width(), 0);
}

TEST(ImageTest, ClampedAccessReplicatesBorder) {
  ImageU8 img(2, 2);
  img.at(0, 0) = 1;
  img.at(1, 0) = 2;
  img.at(0, 1) = 3;
  img.at(1, 1) = 4;
  EXPECT_EQ(img.at_clamped(-5, -5), 1);
  EXPECT_EQ(img.at_clamped(10, 0), 2);
  EXPECT_EQ(img.at_clamped(0, 10), 3);
  EXPECT_EQ(img.at_clamped(10, 10), 4);
}

TEST(ImageTest, FillSetsAllPixels) {
  ImageF32 img(3, 3, 1.0f);
  img.fill(2.5f);
  for (int y = 0; y < 3; ++y) {
    for (int x = 0; x < 3; ++x) EXPECT_FLOAT_EQ(img.at(x, y), 2.5f);
  }
}

TEST(Bilinear, ExactAtIntegerCoordinates) {
  ImageF32 img(3, 3);
  img.at(1, 1) = 10.0f;
  EXPECT_FLOAT_EQ(sample_bilinear(img, 1.0f, 1.0f), 10.0f);
}

TEST(Bilinear, MidpointInterpolates) {
  ImageF32 img(2, 1);
  img.at(0, 0) = 0.0f;
  img.at(1, 0) = 10.0f;
  EXPECT_FLOAT_EQ(sample_bilinear(img, 0.5f, 0.0f), 5.0f);
  EXPECT_FLOAT_EQ(sample_bilinear(img, 0.25f, 0.0f), 2.5f);
}

TEST(Bilinear, TwoDimensionalBlend) {
  ImageF32 img(2, 2);
  img.at(0, 0) = 0.0f;
  img.at(1, 0) = 10.0f;
  img.at(0, 1) = 20.0f;
  img.at(1, 1) = 30.0f;
  EXPECT_FLOAT_EQ(sample_bilinear(img, 0.5f, 0.5f), 15.0f);
}

TEST(Convert, RoundTripU8Float) {
  ImageU8 img(2, 2);
  img.at(0, 0) = 5;
  img.at(1, 1) = 250;
  const ImageU8 back = to_u8(to_float(img));
  EXPECT_EQ(back.at(0, 0), 5);
  EXPECT_EQ(back.at(1, 1), 250);
}

TEST(Convert, ToU8Clamps) {
  ImageF32 img(2, 1);
  img.at(0, 0) = -10.0f;
  img.at(1, 0) = 300.0f;
  const ImageU8 out = to_u8(img);
  EXPECT_EQ(out.at(0, 0), 0);
  EXPECT_EQ(out.at(1, 0), 255);
}

TEST(Smooth, PreservesConstantImage) {
  ImageF32 img(8, 8, 42.0f);
  const ImageF32 s3 = smooth3(img);
  const ImageF32 s5 = smooth5(img);
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      EXPECT_NEAR(s3.at(x, y), 42.0f, 1e-4f);
      EXPECT_NEAR(s5.at(x, y), 42.0f, 1e-4f);
    }
  }
}

TEST(Smooth, ReducesImpulseEnergy) {
  ImageF32 img(9, 9, 0.0f);
  img.at(4, 4) = 16.0f;
  const ImageF32 s = smooth3(img);
  EXPECT_NEAR(s.at(4, 4), 4.0f, 1e-4f);      // center weight (2*2)/16
  EXPECT_NEAR(s.at(3, 4), 2.0f, 1e-4f);      // edge weight (1*2)/16
  EXPECT_NEAR(s.at(3, 3), 1.0f, 1e-4f);      // corner weight (1*1)/16
}

TEST(Sobel, UnitRampHasUnitGradient) {
  ImageF32 img(8, 8);
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) img.at(x, y) = static_cast<float>(x);
  }
  ImageF32 gx;
  ImageF32 gy;
  sobel(img, gx, gy);
  // Interior pixels: d/dx = 1, d/dy = 0.
  for (int y = 2; y < 6; ++y) {
    for (int x = 2; x < 6; ++x) {
      EXPECT_NEAR(gx.at(x, y), 1.0f, 1e-4f);
      EXPECT_NEAR(gy.at(x, y), 0.0f, 1e-4f);
    }
  }
}

TEST(Sobel, VerticalRamp) {
  ImageF32 img(8, 8);
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) img.at(x, y) = 2.0f * static_cast<float>(y);
  }
  ImageF32 gx;
  ImageF32 gy;
  sobel(img, gx, gy);
  EXPECT_NEAR(gy.at(4, 4), 2.0f, 1e-4f);
  EXPECT_NEAR(gx.at(4, 4), 0.0f, 1e-4f);
}

TEST(Downsample, HalvesDimensions) {
  ImageF32 img(10, 6, 3.0f);
  const ImageF32 half = downsample2(img);
  EXPECT_EQ(half.width(), 5);
  EXPECT_EQ(half.height(), 3);
  EXPECT_NEAR(half.at(2, 1), 3.0f, 1e-4f);
}

TEST(Downsample, TinyImageUnchanged) {
  ImageF32 img(1, 1, 9.0f);
  const ImageF32 out = downsample2(img);
  EXPECT_EQ(out.width(), 1);
  EXPECT_FLOAT_EQ(out.at(0, 0), 9.0f);
}

TEST(MeanAbsDiff, IdenticalImagesZero) {
  ImageU8 a(4, 4, 10);
  EXPECT_DOUBLE_EQ(mean_abs_diff(a, a), 0.0);
}

TEST(MeanAbsDiff, KnownDifference) {
  ImageU8 a(2, 2, 10);
  ImageU8 b(2, 2, 13);
  EXPECT_DOUBLE_EQ(mean_abs_diff(a, b), 3.0);
}

TEST(MeanAbsDiff, MismatchedSizesReturnZero) {
  ImageU8 a(2, 2);
  ImageU8 b(3, 3);
  EXPECT_DOUBLE_EQ(mean_abs_diff(a, b), 0.0);
}

TEST(Pyramid, LevelDimensionsHalve) {
  ImageU8 base(64, 48);
  ImagePyramid pyr(base, 3, /*min_dimension=*/8);
  ASSERT_EQ(pyr.levels(), 3);
  EXPECT_EQ(pyr.level_size(0).width, 64);
  EXPECT_EQ(pyr.level_size(1).width, 32);
  EXPECT_EQ(pyr.level_size(2).width, 16);
  EXPECT_EQ(pyr.level_size(2).height, 12);
}

TEST(Pyramid, StopsAtMinDimension) {
  ImageU8 base(40, 40);
  ImagePyramid pyr(base, 8, 16);
  // 40 -> 20 (>=16), 20/2=10 < 16 stops.
  EXPECT_EQ(pyr.levels(), 2);
}

TEST(ImagePyramid, RebuildIntoReusedLevelsMatchesFresh) {
  // Grows, shrinks, grows to odd sizes, then drops to a single level.
  const std::pair<int, int> sizes[] = {{1280, 720}, {384, 216}, {1281, 719}, {20, 20}};
  ImagePyramid reused;
  for (const auto& [w, h] : sizes) {
    ImageU8 base(w, h);
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        base.at(x, y) = static_cast<std::uint8_t>((x * 7 + y * 13 + x * y) % 251);
      }
    }
    reused.rebuild(base, 3, 16);
    reused.materialize_all();
    const ImagePyramid fresh(base, 3, 16);
    fresh.materialize_all();
    SCOPED_TRACE(std::to_string(w) + "x" + std::to_string(h));
    ASSERT_EQ(reused.levels(), fresh.levels());
    EXPECT_EQ(std::memcmp(reused.base_pixels(), fresh.base_pixels(),
                          static_cast<std::size_t>(w) * h), 0);
    for (int l = 1; l < fresh.levels(); ++l) {
      const geometry::Size size = fresh.level_size(l);
      ASSERT_EQ(reused.level_size(l), size);
      EXPECT_EQ(std::memcmp(reused.level_pixels(l), fresh.level_pixels(l),
                            sizeof(float) * static_cast<std::size_t>(size.width) *
                                static_cast<std::size_t>(size.height)), 0);
    }
  }
  EXPECT_EQ(reused.levels(), 1);  // 20x20: a 10x10 level is below 16
  reused.rebuild(ImageU8{}, 3, 16);
  EXPECT_TRUE(reused.empty());
}

TEST(Pyramid, EmptyInput) {
  ImagePyramid pyr(ImageU8{}, 3);
  EXPECT_TRUE(pyr.empty());
}

TEST(Pyramid, MovedFromIsEmpty) {
  ImagePyramid a(ImageU8(40, 40, 7), 2, 8);
  ImagePyramid b(std::move(a));
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): the state under test
  EXPECT_EQ(b.levels(), 2);
  ImagePyramid c;
  c = std::move(b);
  EXPECT_TRUE(b.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(c.levels(), 2);
  EXPECT_EQ(c.base_pixels()[0], 7);
}

TEST(Drawing, BoxOutline) {
  ImageU8 img(10, 10, 0);
  draw_box(img, {2, 3, 4, 4}, 200);
  EXPECT_EQ(img.at(2, 3), 200);   // top-left corner
  EXPECT_EQ(img.at(6, 3), 200);   // top-right
  EXPECT_EQ(img.at(2, 7), 200);   // bottom-left
  EXPECT_EQ(img.at(4, 5), 0);     // interior untouched
}

TEST(Drawing, MarkerCross) {
  ImageU8 img(9, 9, 0);
  draw_marker(img, {4.0f, 4.0f}, 255, 2);
  EXPECT_EQ(img.at(4, 4), 255);
  EXPECT_EQ(img.at(6, 4), 255);
  EXPECT_EQ(img.at(4, 2), 255);
  EXPECT_EQ(img.at(5, 5), 0);
}

TEST(Drawing, OverlayDoesNotMutateInput) {
  ImageU8 frame(10, 10, 0);
  const ImageU8 out = overlay_boxes(frame, {{1, 1, 5, 5}});
  EXPECT_EQ(frame.at(1, 1), 0);
  EXPECT_EQ(out.at(1, 1), 255);
}

TEST(Pgm, RoundTrip) {
  ImageU8 img(5, 4);
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 5; ++x) {
      img.at(x, y) = static_cast<std::uint8_t>(y * 5 + x);
    }
  }
  const std::string path = ::testing::TempDir() + "/adavp_pgm_test.pgm";
  ASSERT_TRUE(write_pgm(img, path));
  const ImageU8 back = read_pgm(path);
  ASSERT_EQ(back.width(), 5);
  ASSERT_EQ(back.height(), 4);
  EXPECT_EQ(back.pixels(), img.pixels());
  std::remove(path.c_str());
}

TEST(Pgm, MissingFileReturnsEmpty) {
  EXPECT_TRUE(read_pgm("/nonexistent/definitely_missing.pgm").empty());
}

}  // namespace
}  // namespace adavp::vision
