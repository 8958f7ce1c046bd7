#pragma once

#include <cstddef>
#include <cstdint>

#include "vision/simd/isa.h"

namespace adavp::vision::simd {

/// One row of the synthetic camera's two-octave texture (DESIGN.md §8):
/// each octave's two bracketing lattice rows, already lerped across the
/// columns, and the row's vertical smoothstep weight. Column i reads
///   tex[i] = (lerp(coarse, i) - 0.5) * 0.7 + (lerp(fine, i) - 0.5) * 0.5
/// with lerp(o, i) = o_top[i] + o_fy * (o_bot[i] - o_top[i]).
struct TextureRow {
  const float* coarse_top;
  const float* coarse_bot;
  float coarse_fy;
  const float* fine_top;
  const float* fine_bot;
  float fine_fy;
};

/// Where a run of object pixels sits in the object's own coordinates, and
/// the object's tone.
struct ObjectRowShade {
  int x0;          ///< image column of the run's first pixel
  float left;      ///< object box in image columns
  float width;
  float height;
  float ly;        ///< object-local y of the row
  float base;      ///< tone: base + contrast * tex
  float contrast;
};

/// Function table of the vectorized interior kernels (DESIGN.md §14).
///
/// Every entry covers only the *interior* of its loop — the span where the
/// scalar reference performs no border clamping — and must produce floats
/// (or, for the camera's pixel rows, bytes) bit-identical to that reference: per output element the same operations
/// in the same order, one SIMD lane per element, with loop-carried
/// reductions left to the (scalar) caller. Border columns/rows and
/// sub-vector tails run the shared reference loops in `kernels_ref.h`.
struct SimdOps {
  Isa isa;

  /// Horizontal convolution, no clamping: for x in [x0, x1)
  ///   dst[x] = (sum_k kernel[k + radius] * src[x + k]) / norm,  k in [-r, r].
  /// Precondition: x0 >= radius and x1 + radius <= row width.
  void (*filter_row)(const float* src, float* dst, int x0, int x1,
                     const float* kernel, int radius, float norm);

  /// Sobel interior row (x in [1, w - 1)), rm/rc/rp = rows y-1, y, y+1.
  void (*sobel_row)(const float* rm, const float* rc, const float* rp,
                    float* gx, float* gy, int w);

  /// Fused pyramid-downsample output row: for x in [0, x_end)
  /// (x_end chosen by the caller so that 2x + 1 is always in bounds)
  ///   dst[x] = (s(ta,tb,tc)[2x] + s(ta,tb,tc)[2x+1]
  ///           + s(b0,b1,b2)[2x] + s(b0,b1,b2)[2x+1]) / 4
  /// with s(a,b,c)[i] = (a[i] + 2*b[i] + c[i]) / 4.
  void (*downsample_row)(const float* ta, const float* tb, const float* tc,
                         const float* b0, const float* b1, const float* b2,
                         float* dst, int x_end);

  /// Shi-Tomasi min-eigenvalue scores on an interior row: for x in [x0, x1)
  /// accumulate the structure tensor over the (2*radius+1)^2 block of
  /// gx/gy (row-major, width w, centered on (x, y)) in (dy, dx) order and
  /// write the smaller eigenvalue into dst[x].
  void (*min_eig_row)(const float* gxp, const float* gyp, int w, int y,
                      int radius, float* dst, int x0, int x1);

  /// LK structure-tensor sampling (interior windows only): fills the
  /// (2r+1)^2 arrays with the bilinear value and central-difference
  /// gradients of `pix` at (px + wx, py + wy), wy/wx in [-r, r] raster
  /// order. The gxx/gxy/gyy reduction stays with the caller so its
  /// accumulation order is untouched.
  void (*lk_sample_window)(const float* pix, int w, float px, float py, int r,
                           float* ivals, float* ixs, float* iys);

  /// LK iteration sampling (interior windows only): fills jvals with the
  /// bilinear value of `pix` at (base_x + wx, base_y + wy), raster order.
  void (*lk_sample_patch)(const float* pix, int w, float base_x, float base_y,
                          int r, float* jvals);

  /// The two LK samplers on a byte plane (ImagePyramid's level 0): the
  /// floats the float entries produce on float(pix), which is exact, bit
  /// for bit. The AVX2 tier reads past the taps (32-bit gathers at byte
  /// addresses, eight-byte loads on partial groups), so the plane must
  /// stay readable for kLkByteOverread bytes past its last pixel.
  void (*lk_sample_window_u8)(const std::uint8_t* pix, int w, float px,
                              float py, int r, float* ivals, float* ixs,
                              float* iys);
  void (*lk_sample_patch_u8)(const std::uint8_t* pix, int w, float base_x,
                             float base_y, int r, float* jvals);

  /// A row of the synthetic camera's hash noise: for k in [0, n)
  ///   out[k] = ref::hash_unit(seed, a0 + k, b),
  /// a uniform float in [0, 1). Integer lanes are exact on every tier and
  /// the final u64 -> double -> float conversion is exact up to the one
  /// rounding the reference does, so every tier is bit-identical.
  void (*hash_unit_row)(std::uint64_t seed, std::int64_t a0, std::int64_t b,
                        int n, float* out);

  /// The camera's pixel rows. Each shades a float per pixel and narrows it
  /// with pixel(v) = uint8(min(255, max(0, v))), NaN reading as 0.
  ///
  /// Background: for x in [0, n)  dst[x] = pixel(120 + 45 * tex[x]).
  void (*background_row)(const TextureRow& tex, int n, std::uint8_t* dst);

  /// An object's run of n pixels, darkened along its border: for i in
  /// [0, n), with lx = float(x0 + i) - left and v = base + contrast * tex[i],
  ///   edge = min(min(lx, ly), min(width - lx, height - ly)),
  ///   dst[i] = pixel(min(v, v - 45 * (2 - edge) / 2)).
  void (*object_row)(const TextureRow& tex, const ObjectRowShade& shade, int n,
                     std::uint8_t* dst);

  /// Sensor noise added in place: for k in [0, n)
  ///   dst[k] = pixel(dst[k] + amp * (ref::hash_unit(seed, a0 + k, b) - 0.5)).
  void (*noise_row)(std::uint64_t seed, std::int64_t a0, std::int64_t b, int n,
                    float amp, std::uint8_t* dst);
};

/// Bytes past a byte plane's last pixel that `lk_sample_window_u8` and
/// `lk_sample_patch_u8` may read: a 32-bit gather at the last tap reads
/// three more, and the eight-byte loads of a window row's partial group
/// (one live lane at least) reach seven past its last live tap.
constexpr int kLkByteOverread = 7;

/// Tables provided by the per-ISA translation units. `sse2_ops` /
/// `avx2_ops` return nullptr when the build lacks that tier (non-x86
/// target or a compiler without the -m flag).
const SimdOps* scalar_ops();
const SimdOps* sse2_ops();
const SimdOps* avx2_ops();

}  // namespace adavp::vision::simd
