#include "vision/image_ops.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/scratch_arena.h"
#include "vision/simd/dispatch.h"

namespace adavp::vision {

namespace {

template <typename T>
float sample_bilinear_impl(const Image<T>& img, float x, float y) {
  const int x0 = static_cast<int>(std::floor(x));
  const int y0 = static_cast<int>(std::floor(y));
  const float fx = x - static_cast<float>(x0);
  const float fy = y - static_cast<float>(y0);
  const float p00 = static_cast<float>(img.at_clamped(x0, y0));
  const float p10 = static_cast<float>(img.at_clamped(x0 + 1, y0));
  const float p01 = static_cast<float>(img.at_clamped(x0, y0 + 1));
  const float p11 = static_cast<float>(img.at_clamped(x0 + 1, y0 + 1));
  const float top = p00 + fx * (p10 - p00);
  const float bot = p01 + fx * (p11 - p01);
  return top + fy * (bot - top);
}

/// One row of the horizontal filter pass: `dst[x] = sum_k kernel[k] *
/// src[clamp(x+k)] / norm`. Interior columns (where no clamp can fire) go
/// through the dispatched SIMD tier (one lane per x, per-lane accumulation
/// order identical to the clamped loop), so the split changes nothing but
/// speed.
void filter_row_horizontal(const float* src, float* dst, int w,
                           const float* kernel, int radius, float norm,
                           const simd::SimdOps& ops) {
  const int interior_begin = std::min(radius, w);
  const int interior_end = std::max(interior_begin, w - radius);
  for (int x = 0; x < interior_begin; ++x) {
    float acc = 0.0f;
    for (int k = -radius; k <= radius; ++k) {
      acc += kernel[k + radius] * src[std::clamp(x + k, 0, w - 1)];
    }
    dst[x] = acc / norm;
  }
  ops.filter_row(src, dst, interior_begin, interior_end, kernel, radius, norm);
  for (int x = interior_end; x < w; ++x) {
    float acc = 0.0f;
    for (int k = -radius; k <= radius; ++k) {
      acc += kernel[k + radius] * src[std::clamp(x + k, 0, w - 1)];
    }
    dst[x] = acc / norm;
  }
}

/// Separable smoothing with a symmetric odd kernel normalized by `norm`.
/// Both passes are row-parallel; rows are independent, so every thread
/// count produces bit-identical output.
ImageF32 separable(const ImageF32& img, const float* kernel, int radius,
                   float norm, const KernelConfig& config) {
  const int w = img.width();
  const int h = img.height();
  const simd::SimdOps& ops = simd::ops_for(config);
  ImageF32 tmp(w, h);
  const float* src = img.pixels().data();
  float* mid = tmp.pixels().data();
  parallel_rows(h, config, [&](int y0, int y1) {
    for (int y = y0; y < y1; ++y) {
      filter_row_horizontal(src + static_cast<std::size_t>(y) * w,
                            mid + static_cast<std::size_t>(y) * w, w, kernel,
                            radius, norm, ops);
    }
  });

  ImageF32 out(w, h);
  float* dst = out.pixels().data();
  parallel_rows(h, config, [&](int y0, int y1) {
    for (int y = y0; y < y1; ++y) {
      float* drow = dst + static_cast<std::size_t>(y) * w;
      if (y >= radius && y < h - radius) {
        // Interior rows: the vertical window never clamps.
        ops.filter_col(mid + static_cast<std::size_t>(y) * w, w, drow, w,
                       kernel, radius, norm);
      } else {
        for (int x = 0; x < w; ++x) {
          float acc = 0.0f;
          for (int k = -radius; k <= radius; ++k) {
            const int yy = std::clamp(y + k, 0, h - 1);
            acc += kernel[k + radius] * mid[static_cast<std::size_t>(yy) * w + x];
          }
          drow[x] = acc / norm;
        }
      }
    }
  });
  return out;
}

}  // namespace

float sample_bilinear(const ImageF32& img, float x, float y) {
  return sample_bilinear_impl(img, x, y);
}

float sample_bilinear(const ImageU8& img, float x, float y) {
  return sample_bilinear_impl(img, x, y);
}

void to_float_into(const ImageU8& img, ImageF32& out,
                   const KernelConfig& config) {
  const int w = img.width();
  const int h = img.height();
  out.reset(w, h);
  const std::uint8_t* src = img.pixels().data();
  float* dst = out.pixels().data();
  parallel_rows(h, config, [&](int y0, int y1) {
    const std::size_t begin = static_cast<std::size_t>(y0) * w;
    const std::size_t end = static_cast<std::size_t>(y1) * w;
    for (std::size_t i = begin; i < end; ++i) {
      dst[i] = static_cast<float>(src[i]);
    }
  });
}

ImageF32 to_float(const ImageU8& img, const KernelConfig& config) {
  ImageF32 out;
  to_float_into(img, out, config);
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

ImageF32 smooth3(const ImageF32& img, const KernelConfig& config) {
  static const float kKernel[3] = {1.0f, 2.0f, 1.0f};
  return separable(img, kKernel, 1, 4.0f, config);
}

ImageF32 smooth5(const ImageF32& img, const KernelConfig& config) {
  static const float kKernel[5] = {1.0f, 4.0f, 6.0f, 4.0f, 1.0f};
  return separable(img, kKernel, 2, 16.0f, config);
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
  parallel_rows(h, config, [&](int y0, int y1) {
    for (int y = y0; y < y1; ++y) {
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
  });
}

ImageF32 downsample2(const ImageF32& img, const KernelConfig& config) {
  ImageF32 out;
  downsample2_into(img, out, config);
  return out;
}

void downsample2_into(const ImageF32& img, ImageF32& out,
                      const KernelConfig& config) {
  assert(&img != &out);
  if (img.width() < 2 || img.height() < 2) {
    out = img;  // copy-assignment keeps out's storage when it suffices
    return;
  }
  const int w = img.width();
  const int h = img.height();
  const int w2 = (w + 1) / 2;
  const int h2 = (h + 1) / 2;
  out.reset(w2, h2);
  const float* src = img.pixels().data();
  float* dst = out.pixels().data();
  static const float kKernel[3] = {1.0f, 2.0f, 1.0f};
  const simd::SimdOps& ops = simd::ops_for(config);
  // Columns where sx+1 never clamps; the rest (at most the last output
  // column, odd widths) keeps the clamped scalar loop.
  const int x_vec_end = std::min(w2, w / 2);

  parallel_rows(h2, config, [&](int oy0, int oy1) {
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
    auto tmp_row = [&](int r) -> const float* {
      const int s = r & 3;
      if (tags[s] != r) {
        filter_row_horizontal(src + static_cast<std::size_t>(r) * w, slots[s],
                              w, kKernel, 1, 4.0f, ops);
        tags[s] = r;
      }
      return slots[s];
    };

    for (int y = oy0; y < oy1; ++y) {
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
      ops.downsample_row(ta, tb, tc, b0, b1, b2, drow, x_vec_end);
      for (int x = x_vec_end; x < w2; ++x) {
        const int sx = 2 * x;
        const int sxp = std::min(sx + 1, w - 1);
        const float s00 = (ta[sx] + 2.0f * tb[sx] + tc[sx]) / 4.0f;
        const float s10 = (ta[sxp] + 2.0f * tb[sxp] + tc[sxp]) / 4.0f;
        const float s01 = (b0[sx] + 2.0f * b1[sx] + b2[sx]) / 4.0f;
        const float s11 = (b0[sxp] + 2.0f * b1[sxp] + b2[sxp]) / 4.0f;
        drow[x] = (s00 + s10 + s01 + s11) / 4.0f;
      }
    }
  });
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
