// SSE2 tier: 4-wide vectorization of the row-oriented interior kernels.
// One lane per output element, per-lane operation order mirroring the
// scalar reference exactly (kernels_ref.h), so results are bit-identical.
// The LK sampling entries stay on the reference loops — without gathers
// the bilinear taps would be assembled from scalar loads anyway, and the
// SSE2 tier exists as a correctness fallback more than a speed tier. The
// camera's hash row stays on the reference too: with two 64-bit lanes and
// a 64-bit multiply built from three 32-bit ones it is no faster than the
// scalar `imul` loop.
//
// Built with -msse2 -ffp-contract=off (see src/vision/CMakeLists.txt); on
// targets where that flag is unavailable this file compiles to the
// nullptr stub at the bottom.

#include "vision/simd/kernels.h"

#if defined(__SSE2__)

#include <emmintrin.h>

#include "vision/simd/kernels_ref.h"

namespace adavp::vision::simd {
namespace {

inline __m128 smooth_combine(const float* a, const float* b, const float* c,
                             int i, __m128 two, __m128 four) {
  // (a[i] + 2*b[i] + c[i]) / 4, lane order == scalar operand order.
  const __m128 av = _mm_loadu_ps(a + i);
  const __m128 bv = _mm_loadu_ps(b + i);
  const __m128 cv = _mm_loadu_ps(c + i);
  return _mm_div_ps(_mm_add_ps(_mm_add_ps(av, _mm_mul_ps(two, bv)), cv), four);
}

void filter_row_sse2(const float* src, float* dst, int x0, int x1,
                     const float* kernel, int radius, float norm) {
  const __m128 vnorm = _mm_set1_ps(norm);
  int x = x0;
  for (; x + 4 <= x1; x += 4) {
    __m128 acc = _mm_setzero_ps();
    for (int k = -radius; k <= radius; ++k) {
      const __m128 kv = _mm_set1_ps(kernel[k + radius]);
      acc = _mm_add_ps(acc, _mm_mul_ps(kv, _mm_loadu_ps(src + x + k)));
    }
    _mm_storeu_ps(dst + x, _mm_div_ps(acc, vnorm));
  }
  ref::filter_row(src, dst, x, x1, kernel, radius, norm);
}

void filter_col_sse2(const float* center, std::ptrdiff_t stride, float* dst,
                     int w, const float* kernel, int radius, float norm) {
  const __m128 vnorm = _mm_set1_ps(norm);
  int x = 0;
  for (; x + 4 <= w; x += 4) {
    __m128 acc = _mm_setzero_ps();
    for (int k = -radius; k <= radius; ++k) {
      const __m128 kv = _mm_set1_ps(kernel[k + radius]);
      acc = _mm_add_ps(acc, _mm_mul_ps(kv, _mm_loadu_ps(center + k * stride + x)));
    }
    _mm_storeu_ps(dst + x, _mm_div_ps(acc, vnorm));
  }
  ref::filter_col(center + x, stride, dst + x, w - x, kernel, radius, norm);
}

void sobel_row_sse2(const float* rm, const float* rc, const float* rp,
                    float* gx, float* gy, int w) {
  const __m128 two = _mm_set1_ps(2.0f);
  const __m128 eight = _mm_set1_ps(8.0f);
  int x = 1;
  for (; x + 4 <= w - 1; x += 4) {
    const __m128 tl = _mm_loadu_ps(rm + x - 1);
    const __m128 tc = _mm_loadu_ps(rm + x);
    const __m128 tr = _mm_loadu_ps(rm + x + 1);
    const __m128 ml = _mm_loadu_ps(rc + x - 1);
    const __m128 mr = _mm_loadu_ps(rc + x + 1);
    const __m128 bl = _mm_loadu_ps(rp + x - 1);
    const __m128 bc = _mm_loadu_ps(rp + x);
    const __m128 br = _mm_loadu_ps(rp + x + 1);
    const __m128 gxp = _mm_add_ps(_mm_add_ps(tr, _mm_mul_ps(two, mr)), br);
    const __m128 gxn = _mm_add_ps(_mm_add_ps(tl, _mm_mul_ps(two, ml)), bl);
    const __m128 gyp = _mm_add_ps(_mm_add_ps(bl, _mm_mul_ps(two, bc)), br);
    const __m128 gyn = _mm_add_ps(_mm_add_ps(tl, _mm_mul_ps(two, tc)), tr);
    _mm_storeu_ps(gx + x, _mm_div_ps(_mm_sub_ps(gxp, gxn), eight));
    _mm_storeu_ps(gy + x, _mm_div_ps(_mm_sub_ps(gyp, gyn), eight));
  }
  for (; x < w - 1; ++x) {
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

void downsample_row_sse2(const float* ta, const float* tb, const float* tc,
                         const float* b0, const float* b1, const float* b2,
                         float* dst, int x_end) {
  const __m128 two = _mm_set1_ps(2.0f);
  const __m128 four = _mm_set1_ps(4.0f);
  int x = 0;
  for (; x + 4 <= x_end; x += 4) {
    const int sx = 2 * x;
    // Smoothed top/bottom rows over 8 consecutive source columns, then
    // deinterleaved into even (s00/s01) and odd (s10/s11) lanes.
    const __m128 t_lo = smooth_combine(ta, tb, tc, sx, two, four);
    const __m128 t_hi = smooth_combine(ta, tb, tc, sx + 4, two, four);
    const __m128 u_lo = smooth_combine(b0, b1, b2, sx, two, four);
    const __m128 u_hi = smooth_combine(b0, b1, b2, sx + 4, two, four);
    const __m128 s00 = _mm_shuffle_ps(t_lo, t_hi, _MM_SHUFFLE(2, 0, 2, 0));
    const __m128 s10 = _mm_shuffle_ps(t_lo, t_hi, _MM_SHUFFLE(3, 1, 3, 1));
    const __m128 s01 = _mm_shuffle_ps(u_lo, u_hi, _MM_SHUFFLE(2, 0, 2, 0));
    const __m128 s11 = _mm_shuffle_ps(u_lo, u_hi, _MM_SHUFFLE(3, 1, 3, 1));
    const __m128 sum =
        _mm_add_ps(_mm_add_ps(_mm_add_ps(s00, s10), s01), s11);
    _mm_storeu_ps(dst + x, _mm_div_ps(sum, four));
  }
  // Tail: the reference indexes sources at 2*x relative to its own x=0.
  ref::downsample_row(ta + 2 * x, tb + 2 * x, tc + 2 * x, b0 + 2 * x,
                      b1 + 2 * x, b2 + 2 * x, dst + x, x_end - x);
}

void min_eig_row_sse2(const float* gxp, const float* gyp, int w, int y,
                      int radius, float* dst, int x0, int x1) {
  const __m128 half = _mm_set1_ps(0.5f);
  const __m128 zero = _mm_setzero_ps();
  float* drow = dst + static_cast<std::size_t>(y) * w;
  int x = x0;
  for (; x + 4 <= x1; x += 4) {
    __m128 sxx = zero;
    __m128 sxy = zero;
    __m128 syy = zero;
    for (int dy = -radius; dy <= radius; ++dy) {
      const std::size_t row = static_cast<std::size_t>(y + dy) * w;
      for (int dx = -radius; dx <= radius; ++dx) {
        const __m128 ix = _mm_loadu_ps(gxp + row + x + dx);
        const __m128 iy = _mm_loadu_ps(gyp + row + x + dx);
        sxx = _mm_add_ps(sxx, _mm_mul_ps(ix, ix));
        sxy = _mm_add_ps(sxy, _mm_mul_ps(ix, iy));
        syy = _mm_add_ps(syy, _mm_mul_ps(iy, iy));
      }
    }
    const __m128 tr = _mm_mul_ps(half, _mm_add_ps(sxx, syy));
    const __m128 det = _mm_sub_ps(_mm_mul_ps(sxx, syy), _mm_mul_ps(sxy, sxy));
    // max(x, 0) with x as the first operand returns 0 for NaN, matching
    // std::max(0.0f, x); sqrtps is correctly rounded like std::sqrt.
    const __m128 disc =
        _mm_sqrt_ps(_mm_max_ps(_mm_sub_ps(_mm_mul_ps(tr, tr), det), zero));
    _mm_storeu_ps(drow + x, _mm_sub_ps(tr, disc));
  }
  ref::min_eig_row(gxp, gyp, w, y, radius, dst, x, x1);
}

}  // namespace

const SimdOps* sse2_ops() {
  static const SimdOps ops = {
      Isa::kSse2,          filter_row_sse2,  filter_col_sse2,
      sobel_row_sse2,      downsample_row_sse2, min_eig_row_sse2,
      ref::lk_sample_window<float>, ref::lk_sample_patch<float>,
      ref::lk_sample_window<std::uint8_t>, ref::lk_sample_patch<std::uint8_t>,
      ref::hash_unit_row,
      ref::background_row, ref::object_row,   ref::noise_row,
  };
  return &ops;
}

}  // namespace adavp::vision::simd

#else  // !defined(__SSE2__)

namespace adavp::vision::simd {
const SimdOps* sse2_ops() { return nullptr; }
}  // namespace adavp::vision::simd

#endif
