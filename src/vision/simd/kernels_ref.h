#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "vision/simd/kernels.h"

namespace adavp::vision::simd::ref {

// The scalar reference loops, verbatim from the historical kernels. They
// are the ground truth every SIMD tier must match bit for bit: the scalar
// dispatch table points straight at them, and the SSE2/AVX2 kernels run
// them for borders and sub-vector tails. Header-inline so each per-ISA
// translation unit inlines its own copy — FP semantics are unchanged by
// the ISA -m flags because none of these loops carries a reorderable
// reduction across elements and every TU builds with contraction off.

inline void filter_row(const float* src, float* dst, int x0, int x1,
                       const float* kernel, int radius, float norm) {
  for (int x = x0; x < x1; ++x) {
    float acc = 0.0f;
    for (int k = -radius; k <= radius; ++k) {
      acc += kernel[k + radius] * src[x + k];
    }
    dst[x] = acc / norm;
  }
}

inline void sobel_row(const float* rm, const float* rc, const float* rp,
                      float* gx, float* gy, int w) {
  for (int x = 1; x < w - 1; ++x) {
    const float tl = rm[x - 1];
    const float tc = rm[x];
    const float tr = rm[x + 1];
    const float ml = rc[x - 1];
    const float mr = rc[x + 1];
    const float bl = rp[x - 1];
    const float bc = rp[x];
    const float br = rp[x + 1];
    gx[x] = ((tr + 2.0f * mr + br) - (tl + 2.0f * ml + bl)) / 8.0f;
    gy[x] = ((bl + 2.0f * bc + br) - (tl + 2.0f * tc + tr)) / 8.0f;
  }
}

inline void downsample_row(const float* ta, const float* tb, const float* tc,
                           const float* b0, const float* b1, const float* b2,
                           float* dst, int x_end) {
  for (int x = 0; x < x_end; ++x) {
    const int sx = 2 * x;
    const int sxp = sx + 1;
    const float s00 = (ta[sx] + 2.0f * tb[sx] + tc[sx]) / 4.0f;
    const float s10 = (ta[sxp] + 2.0f * tb[sxp] + tc[sxp]) / 4.0f;
    const float s01 = (b0[sx] + 2.0f * b1[sx] + b2[sx]) / 4.0f;
    const float s11 = (b0[sxp] + 2.0f * b1[sxp] + b2[sxp]) / 4.0f;
    dst[x] = (s00 + s10 + s01 + s11) / 4.0f;
  }
}

/// Smaller eigenvalue of [[sxx, sxy], [sxy, syy]], exactly as the
/// historical min_eigenvalue_map computed it.
inline float min_eig_from_tensor(float sxx, float sxy, float syy) {
  const float tr = 0.5f * (sxx + syy);
  const float det = sxx * syy - sxy * sxy;
  const float disc = std::sqrt(std::max(0.0f, tr * tr - det));
  return tr - disc;
}

inline void min_eig_row(const float* gxp, const float* gyp, int w, int y,
                        int radius, float* dst, int x0, int x1) {
  for (int x = x0; x < x1; ++x) {
    float sxx = 0.0f;
    float sxy = 0.0f;
    float syy = 0.0f;
    for (int dy = -radius; dy <= radius; ++dy) {
      const std::size_t row = static_cast<std::size_t>(y + dy) * w;
      for (int dx = -radius; dx <= radius; ++dx) {
        const float ix = gxp[row + x + dx];
        const float iy = gyp[row + x + dx];
        sxx += ix * ix;
        sxy += ix * iy;
        syy += iy * iy;
      }
    }
    dst[static_cast<std::size_t>(y) * w + x] = min_eig_from_tensor(sxx, sxy, syy);
  }
}

/// float(v) of every byte: a byte tap is one load like a float tap, where
/// an int-to-float conversion per tap made the byte samplers 70% slower.
struct ByteFloats {
  float value[256];
  constexpr ByteFloats() : value() {
    for (int i = 0; i < 256; ++i) value[i] = static_cast<float>(i);
  }
};
inline constexpr ByteFloats kByteFloats{};

inline float pixel_value(float v) { return v; }
inline float pixel_value(std::uint8_t v) { return kByteFloats.value[v]; }

/// Bilinear sample with no clamping. Precondition: 0 <= x < w-1 and
/// 0 <= y < h-1, so all four taps are in bounds and truncation equals
/// floor. Operand order matches `sample_bilinear` exactly => identical
/// floats on interior coordinates. A byte plane reads as float(pixel),
/// which is exact, so it samples the same floats as its float copy.
template <typename T>
inline float bilinear_unchecked(const T* pix, int w, float x, float y) {
  const int x0 = static_cast<int>(x);
  const int y0 = static_cast<int>(y);
  const float fx = x - static_cast<float>(x0);
  const float fy = y - static_cast<float>(y0);
  const T* p = pix + static_cast<std::size_t>(y0) * w + x0;
  const float p00 = pixel_value(p[0]);
  const float p10 = pixel_value(p[1]);
  const float p01 = pixel_value(p[w]);
  const float p11 = pixel_value(p[w + 1]);
  const float top = p00 + fx * (p10 - p00);
  const float bot = p01 + fx * (p11 - p01);
  return top + fy * (bot - top);
}

template <typename T>
inline void gradient_unchecked(const T* pix, int w, float x, float y,
                               float& dx, float& dy) {
  dx = (bilinear_unchecked(pix, w, x + 1.0f, y) -
        bilinear_unchecked(pix, w, x - 1.0f, y)) * 0.5f;
  dy = (bilinear_unchecked(pix, w, x, y + 1.0f) -
        bilinear_unchecked(pix, w, x, y - 1.0f)) * 0.5f;
}

template <typename T>
inline void lk_sample_window(const T* pix, int w, float px, float py, int r,
                             float* ivals, float* ixs, float* iys) {
  std::size_t idx = 0;
  for (int wy = -r; wy <= r; ++wy) {
    for (int wx = -r; wx <= r; ++wx, ++idx) {
      const float sx = px + static_cast<float>(wx);
      const float sy = py + static_cast<float>(wy);
      float ix = 0.0f;
      float iy = 0.0f;
      gradient_unchecked(pix, w, sx, sy, ix, iy);
      ivals[idx] = bilinear_unchecked(pix, w, sx, sy);
      ixs[idx] = ix;
      iys[idx] = iy;
    }
  }
}

template <typename T>
inline void lk_sample_patch(const T* pix, int w, float base_x, float base_y,
                            int r, float* jvals) {
  std::size_t idx = 0;
  for (int wy = -r; wy <= r; ++wy) {
    for (int wx = -r; wx <= r; ++wx, ++idx) {
      const float jx = base_x + static_cast<float>(wx);
      const float jy = base_y + static_cast<float>(wy);
      jvals[idx] = bilinear_unchecked(pix, w, jx, jy);
    }
  }
}

/// The synthetic camera's integer hash of a lattice point (a, b): the
/// SplitMix64 finalizer over `seed ^ a*kHashA ^ b*kHashB`. The renderer
/// derives its per-frame and per-object seeds from it as well, so it lives
/// here once, next to the row kernel every tier must match.
constexpr std::uint64_t kHashA = 0x9E3779B97F4A7C15ULL;
constexpr std::uint64_t kHashB = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kMix1 = 0xBF58476D1CE4E5B9ULL;
constexpr std::uint64_t kMix2 = 0x94D049BB133111EBULL;

inline std::uint64_t hash3(std::uint64_t seed, std::int64_t a, std::int64_t b) {
  std::uint64_t x = seed ^ (static_cast<std::uint64_t>(a) * kHashA) ^
                    (static_cast<std::uint64_t>(b) * kHashB);
  x = (x ^ (x >> 30)) * kMix1;
  x = (x ^ (x >> 27)) * kMix2;
  return x ^ (x >> 31);
}

/// The top 53 bits of `hash3` as a uniform float in [0, 1).
inline float hash_unit(std::uint64_t seed, std::int64_t a, std::int64_t b) {
  return static_cast<float>((hash3(seed, a, b) >> 11) * 0x1.0p-53);
}

inline void hash_unit_row(std::uint64_t seed, std::int64_t a0, std::int64_t b,
                          int n, float* out) {
  for (int k = 0; k < n; ++k) out[k] = hash_unit(seed, a0 + k, b);
}

/// The camera's narrowing of a shaded value: clamp to [0, 255], truncate.
/// max before min, 0 as max's first operand: NaN reads as 0.
inline std::uint8_t to_pixel(float v) {
  return static_cast<std::uint8_t>(std::min(255.0f, std::max(0.0f, v)));
}

/// One column of TextureRow's formula, from its six inputs.
inline float texture_value(float coarse_top, float coarse_bot, float coarse_fy,
                           float fine_top, float fine_bot, float fine_fy) {
  const float coarse = (coarse_top + coarse_fy * (coarse_bot - coarse_top)) - 0.5f;
  const float fine = (fine_top + fine_fy * (fine_bot - fine_top)) - 0.5f;
  return coarse * 0.7f + fine * 0.5f;
}

// The pixel rows copy the row pointers into `__restrict` locals: a
// `uint8_t` store may alias anything, so through the structs the compiler
// would reload every pointer per pixel and vectorize nothing.

inline void background_row(const TextureRow& tex, int n, std::uint8_t* dst) {
  const float* __restrict ct = tex.coarse_top;
  const float* __restrict cb = tex.coarse_bot;
  const float* __restrict ft = tex.fine_top;
  const float* __restrict fb = tex.fine_bot;
  const float cfy = tex.coarse_fy;
  const float ffy = tex.fine_fy;
  std::uint8_t* __restrict out = dst;
  for (int x = 0; x < n; ++x) {
    out[x] = to_pixel(
        120.0f + 45.0f * texture_value(ct[x], cb[x], cfy, ft[x], fb[x], ffy));
  }
}

inline void object_row(const TextureRow& tex, const ObjectRowShade& shade,
                       int n, std::uint8_t* dst) {
  const float* __restrict ct = tex.coarse_top;
  const float* __restrict cb = tex.coarse_bot;
  const float* __restrict ft = tex.fine_top;
  const float* __restrict fb = tex.fine_bot;
  const float cfy = tex.coarse_fy;
  const float ffy = tex.fine_fy;
  const ObjectRowShade s = shade;
  std::uint8_t* __restrict out = dst;
  for (int i = 0; i < n; ++i) {
    const float lx = static_cast<float>(s.x0 + i) - s.left;
    const float v = s.base + s.contrast * texture_value(ct[i], cb[i], cfy,
                                                        ft[i], fb[i], ffy);
    // Darken a thin border so the object silhouette has strong edges. The
    // darkening 45 * (2 - edge) / 2 is positive exactly when edge < 2
    // (edge >= 0 inside the box), so the min is the darkened value inside
    // the border and v elsewhere: the branch without a branch.
    const float edge = std::min(std::min(lx, s.ly),
                                std::min(s.width - lx, s.height - s.ly));
    out[i] = to_pixel(std::min(v, v - 45.0f * (2.0f - edge) / 2.0f));
  }
}

inline void noise_row(std::uint64_t seed, std::int64_t a0, std::int64_t b,
                      int n, float amp, std::uint8_t* dst) {
  // The hash stays scalar; staged in blocks, it leaves the add, clamp and
  // narrowing a plain loop the compiler vectorizes.
  constexpr int kBlock = 64;
  float u[kBlock];
  for (int k0 = 0; k0 < n; k0 += kBlock) {
    const int m = std::min(kBlock, n - k0);
    hash_unit_row(seed, a0 + k0, b, m, u);
    std::uint8_t* __restrict out = dst + k0;
    for (int k = 0; k < m; ++k) {
      out[k] = to_pixel(static_cast<float>(out[k]) + amp * (u[k] - 0.5f));
    }
  }
}

}  // namespace adavp::vision::simd::ref
