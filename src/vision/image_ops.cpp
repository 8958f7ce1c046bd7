#include "vision/image_ops.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <type_traits>

#include "util/scratch_arena.h"
#include "vision/simd/dispatch.h"

namespace adavp::vision {

namespace {

template <typename T>
float sample_bilinear_impl(const T* pix, int w, int h, float x, float y) {
  // Every tap left of -1 or right of w reads the edge pixel, so clamping
  // the coordinates to +-2^24 first changes no sample on any plane
  // narrower than that, and keeps the int conversion defined however far
  // off the plane (x, y) lies. NaN reads as -2^24. The bounds are
  // constants: this runs per tap on LK's border windows.
  constexpr float kFar = 16777216.0f;
  x = x > -kFar ? std::min(x, kFar) : -kFar;
  y = y > -kFar ? std::min(y, kFar) : -kFar;
  const int x0 = static_cast<int>(std::floor(x));
  const int y0 = static_cast<int>(std::floor(y));
  const float fx = x - static_cast<float>(x0);
  const float fy = y - static_cast<float>(y0);
  const std::size_t r0 = static_cast<std::size_t>(std::clamp(y0, 0, h - 1)) * w;
  const std::size_t r1 = static_cast<std::size_t>(std::clamp(y0 + 1, 0, h - 1)) * w;
  const int c0 = std::clamp(x0, 0, w - 1);
  const int c1 = std::clamp(x0 + 1, 0, w - 1);
  const float p00 = static_cast<float>(pix[r0 + c0]);
  const float p10 = static_cast<float>(pix[r0 + c1]);
  const float p01 = static_cast<float>(pix[r1 + c0]);
  const float p11 = static_cast<float>(pix[r1 + c1]);
  const float top = p00 + fx * (p10 - p00);
  const float bot = p01 + fx * (p11 - p01);
  return top + fy * (bot - top);
}

/// Columns [x_begin, x_end) of one row of the horizontal filter pass:
/// `dst[x] = sum_k kernel[k] * src[clamp(x+k)] / norm`, reading `src` only
/// within one radius of the range. Interior columns (where no clamp can
/// fire) go through the dispatched SIMD tier (one lane per x, per-lane
/// accumulation order identical to the clamped loop), so the split
/// changes nothing but speed, and a range computes the values the whole
/// row would.
void filter_row_horizontal(const float* src, float* dst, int w, int x_begin,
                           int x_end, const float* kernel, int radius,
                           float norm, const simd::SimdOps& ops) {
  const int interior_begin = std::min(radius, w);
  const int interior_end = std::max(interior_begin, w - radius);
  auto clamped = [&](int from, int to) {
    for (int x = from; x < to; ++x) {
      float acc = 0.0f;
      for (int k = -radius; k <= radius; ++k) {
        acc += kernel[k + radius] * src[std::clamp(x + k, 0, w - 1)];
      }
      dst[x] = acc / norm;
    }
  };
  clamped(x_begin, std::min(x_end, interior_begin));
  const int mid_begin = std::max(x_begin, interior_begin);
  const int mid_end = std::min(x_end, interior_end);
  if (mid_begin < mid_end) {
    ops.filter_row(src, dst, mid_begin, mid_end, kernel, radius, norm);
  }
  clamped(std::max(x_begin, interior_end), x_end);
}

/// dst[i] = float(src[i]) for i in [0, n). The restrict qualifiers tell
/// the compiler the float stores cannot change the bytes, so it
/// vectorizes the loop.
void bytes_to_floats(const std::uint8_t* __restrict src, float* __restrict dst,
                     int n) {
  for (int i = 0; i < n; ++i) dst[i] = static_cast<float>(src[i]);
}

/// The fused downsample of a rectangle of the output (see the header).
/// A byte source row is converted to floats, over the columns the filter
/// reads, before the horizontal pass.
template <typename T>
void downsample2_rect_impl(const T* src, int w, int h, float* dst, int x0,
                           int y0, int x1, int y1, const simd::SimdOps& ops) {
  const int w2 = (w + 1) / 2;
  static const float kKernel[3] = {1.0f, 2.0f, 1.0f};
  // Columns of the filtered rows the output reads (sx, and sx + 1 clamped)
  // and of the source rows the filter reads.
  const int fx0 = 2 * x0;
  const int fx1 = std::min(2 * x1, w);
  const int cx0 = std::max(fx0 - 1, 0);
  const int cx1 = std::min(fx1 + 1, w);
  // Columns where sx+1 never clamps; the rest (at most the last output
  // column, odd widths) keeps the clamped scalar loop.
  const int x_vec_end = std::min(x1, w / 2);

  // Rolling window of horizontally-filtered input rows. Consecutive
  // output rows advance the input cursor by two, so two of the four
  // rows are reused; tags track which absolute row each slot holds.
  util::ScratchArena& arena = util::ScratchArena::thread_local_arena();
  util::ScratchArena::Scope scope(arena);
  float* slots[4];
  int tags[4] = {-1, -1, -1, -1};
  for (int s = 0; s < 4; ++s) {
    slots[s] = arena.alloc<float>(static_cast<std::size_t>(w));
  }
  float* converted = nullptr;
  if constexpr (!std::is_same_v<T, float>) {
    converted = arena.alloc<float>(static_cast<std::size_t>(w));
  }
  auto tmp_row = [&](int r) -> const float* {
    const int s = r & 3;
    if (tags[s] != r) {
      const T* row = src + static_cast<std::size_t>(r) * w;
      const float* in = nullptr;
      if constexpr (std::is_same_v<T, float>) {
        in = row;
      } else {
        bytes_to_floats(row + cx0, converted + cx0, cx1 - cx0);
        in = converted;
      }
      filter_row_horizontal(in, slots[s], w, fx0, fx1, kKernel, 1, 4.0f, ops);
      tags[s] = r;
    }
    return slots[s];
  };

  for (int y = y0; y < y1; ++y) {
    const int sy = 2 * y;
    const float* ta = tmp_row(std::max(sy - 1, 0));
    const float* tb = tmp_row(sy);
    const float* tc = tmp_row(std::min(sy + 1, h - 1));
    // Bottom smoothed row: when sy+1 clamps to sy (odd height, last
    // row), its vertical window is the same as the top row's.
    const bool has_bot = sy + 1 <= h - 1;
    const float* b0 = has_bot ? tb : ta;
    const float* b1 = has_bot ? tc : tb;
    const float* b2 = has_bot ? tmp_row(std::min(sy + 2, h - 1)) : tc;

    float* drow = dst + static_cast<std::size_t>(y) * w2;
    if (x0 < x_vec_end) {
      ops.downsample_row(ta + fx0, tb + fx0, tc + fx0, b0 + fx0, b1 + fx0,
                         b2 + fx0, drow + x0, x_vec_end - x0);
    }
    for (int x = std::max(x0, x_vec_end); x < x1; ++x) {
      const int sx = 2 * x;
      const int sxp = std::min(sx + 1, w - 1);
      const float s00 = (ta[sx] + 2.0f * tb[sx] + tc[sx]) / 4.0f;
      const float s10 = (ta[sxp] + 2.0f * tb[sxp] + tc[sxp]) / 4.0f;
      const float s01 = (b0[sx] + 2.0f * b1[sx] + b2[sx]) / 4.0f;
      const float s11 = (b0[sxp] + 2.0f * b1[sxp] + b2[sxp]) / 4.0f;
      drow[x] = (s00 + s10 + s01 + s11) / 4.0f;
    }
  }
}

}  // namespace

float sample_bilinear(const ImageF32& img, float x, float y) {
  return sample_bilinear_impl(img.pixels().data(), img.width(), img.height(), x, y);
}

float sample_bilinear(const ImageU8& img, float x, float y) {
  return sample_bilinear_impl(img.pixels().data(), img.width(), img.height(), x, y);
}

float sample_bilinear(const float* pix, int w, int h, float x, float y) {
  return sample_bilinear_impl(pix, w, h, x, y);
}

float sample_bilinear(const std::uint8_t* pix, int w, int h, float x, float y) {
  return sample_bilinear_impl(pix, w, h, x, y);
}

ImageF32 to_float(const ImageU8& img) {
  ImageF32 out(img.width(), img.height());
  bytes_to_floats(img.pixels().data(), out.pixels().data(),
                  static_cast<int>(img.pixels().size()));
  return out;
}

ImageU8 to_u8(const ImageF32& img) {
  ImageU8 out(img.width(), img.height());
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x) {
      const float v = std::clamp(img.at(x, y), 0.0f, 255.0f);
      out.at(x, y) = static_cast<std::uint8_t>(std::lround(v));
    }
  }
  return out;
}

void sobel(const ImageF32& img, ImageF32& grad_x, ImageF32& grad_y,
           const KernelConfig& config) {
  grad_x.reset(img.width(), img.height());
  grad_y.reset(img.width(), img.height());
  sobel_plane(img.pixels().data(), img.width(), img.height(),
              grad_x.pixels().data(), grad_y.pixels().data(), config);
}

void sobel_plane(const float* src, int w, int h, float* gx, float* gy,
                 const KernelConfig& config) {
  auto clamped_pixel = [&](int x, int y) {
    return src[static_cast<std::size_t>(std::clamp(y, 0, h - 1)) * w +
               std::clamp(x, 0, w - 1)];
  };
  auto border_pixel_pair = [&](int x, int y) {
    const float tl = clamped_pixel(x - 1, y - 1);
    const float tc = clamped_pixel(x, y - 1);
    const float tr = clamped_pixel(x + 1, y - 1);
    const float ml = clamped_pixel(x - 1, y);
    const float mr = clamped_pixel(x + 1, y);
    const float bl = clamped_pixel(x - 1, y + 1);
    const float bc = clamped_pixel(x, y + 1);
    const float br = clamped_pixel(x + 1, y + 1);
    const std::size_t i = static_cast<std::size_t>(y) * w + x;
    gx[i] = ((tr + 2.0f * mr + br) - (tl + 2.0f * ml + bl)) / 8.0f;
    gy[i] = ((bl + 2.0f * bc + br) - (tl + 2.0f * tc + tr)) / 8.0f;
  };

  const simd::SimdOps& ops = simd::ops_for(config);
  for (int y = 0; y < h; ++y) {
    if (y == 0 || y == h - 1 || w < 3) {
      for (int x = 0; x < w; ++x) border_pixel_pair(x, y);
      continue;
    }
    border_pixel_pair(0, y);
    // Interior: three raw row pointers, no bounds checks, dispatched to
    // the SIMD tier. Same per-element operand order as the clamped
    // expression => identical floats.
    const float* rm = src + static_cast<std::size_t>(y - 1) * w;
    const float* rc = src + static_cast<std::size_t>(y) * w;
    const float* rp = src + static_cast<std::size_t>(y + 1) * w;
    float* gxr = gx + static_cast<std::size_t>(y) * w;
    float* gyr = gy + static_cast<std::size_t>(y) * w;
    ops.sobel_row(rm, rc, rp, gxr, gyr, w);
    border_pixel_pair(w - 1, y);
  }
}

ImageF32 downsample2(const ImageF32& img, const KernelConfig& config) {
  if (img.width() < 2 || img.height() < 2) return img;
  const int w = img.width();
  const int h = img.height();
  const int w2 = (w + 1) / 2;
  const int h2 = (h + 1) / 2;
  ImageF32 out(w2, h2);
  downsample2_rect_impl(img.pixels().data(), w, h, out.pixels().data(), 0, 0,
                        w2, h2, simd::ops_for(config));
  return out;
}

void downsample2_rect(const float* src, int w, int h, float* dst, int x0,
                      int y0, int x1, int y1, const simd::SimdOps& ops) {
  downsample2_rect_impl(src, w, h, dst, x0, y0, x1, y1, ops);
}

void downsample2_rect(const std::uint8_t* src, int w, int h, float* dst, int x0,
                      int y0, int x1, int y1, const simd::SimdOps& ops) {
  downsample2_rect_impl(src, w, h, dst, x0, y0, x1, y1, ops);
}

double mean_abs_diff(const ImageU8& a, const ImageU8& b) {
  if (a.width() != b.width() || a.height() != b.height() || a.empty()) {
    return 0.0;
  }
  double acc = 0.0;
  const auto& pa = a.pixels();
  const auto& pb = b.pixels();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    acc += std::abs(static_cast<int>(pa[i]) - static_cast<int>(pb[i]));
  }
  return acc / static_cast<double>(pa.size());
}

}  // namespace adavp::vision
