#pragma once

#include <cstddef>
#include <cstdint>

#include "vision/simd/isa.h"

namespace adavp::vision::simd {

/// Function table of the vectorized interior kernels (DESIGN.md §14).
///
/// Every entry covers only the *interior* of its loop — the span where the
/// scalar reference performs no border clamping — and must produce floats
/// bit-identical to that reference: per output element the same operations
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

  /// Vertical convolution on interior rows: for x in [0, w)
  ///   dst[x] = (sum_k kernel[k + radius] * center[k * stride + x]) / norm.
  /// `center` points at the middle tap's row; all taps must be in bounds.
  void (*filter_col)(const float* center, std::ptrdiff_t stride, float* dst,
                     int w, const float* kernel, int radius, float norm);

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

  /// A row of the synthetic camera's hash noise: for k in [0, n)
  ///   out[k] = ref::hash_unit(seed, a0 + k, b),
  /// a uniform float in [0, 1). Integer lanes are exact on every tier and
  /// the final u64 -> double -> float conversion is exact up to the one
  /// rounding the reference does, so every tier is bit-identical.
  void (*hash_unit_row)(std::uint64_t seed, std::int64_t a0, std::int64_t b,
                        int n, float* out);
};

/// Tables provided by the per-ISA translation units. `sse2_ops` /
/// `avx2_ops` return nullptr when the build lacks that tier (non-x86
/// target or a compiler without the -m flag).
const SimdOps* scalar_ops();
const SimdOps* sse2_ops();
const SimdOps* avx2_ops();

}  // namespace adavp::vision::simd
