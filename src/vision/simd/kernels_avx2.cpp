// AVX2 tier: 8-wide vectorization of the interior kernels, one lane per
// output element, plus gathered bilinear sampling for the two LK hot
// loops (on float planes and on ImagePyramid's byte level 0), and the
// synthetic camera's rows: a 4 x u64 hash row and the fused
// shade-clamp-narrow pixel rows. Per-lane operation order mirrors
// the scalar reference exactly (kernels_ref.h), and all loop-carried
// reductions (LK's gxx/bx/residual accumulations) stay with the scalar
// caller, so every result is bit-identical to the reference — see
// DESIGN.md §14 for the lane-reduction rules. Sub-vector window tails use
// masked gathers and masked stores rather than scalar cleanup: masked-off
// lanes never touch memory, and live lanes compute the same floats either
// way.
//
// Built with -mavx2 -ffp-contract=off (never -mfma): contraction would
// fuse the mul/add chains into FMAs and change the low bits. On targets
// without AVX2 support this file compiles to the nullptr stub.

#include "vision/simd/kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <bit>
#include <cstdint>
#include <type_traits>

#include "vision/simd/kernels_ref.h"

namespace adavp::vision::simd {
namespace {

// Division by a power of two and multiplication by its reciprocal give
// the same correctly rounded float, and the multiply is several times
// cheaper, so the kernels below multiply wherever the reference divides
// by a power of two.

inline __m256 smooth_combine(const float* a, const float* b, const float* c,
                             int i, __m256 two, __m256 quarter) {
  const __m256 av = _mm256_loadu_ps(a + i);
  const __m256 bv = _mm256_loadu_ps(b + i);
  const __m256 cv = _mm256_loadu_ps(c + i);
  return _mm256_mul_ps(
      _mm256_add_ps(_mm256_add_ps(av, _mm256_mul_ps(two, bv)), cv), quarter);
}

/// x / norm on eight lanes: a multiply when norm is a normal power of two
/// (no mantissa bits, exponent neither 0 nor 255), whose reciprocal is
/// exact. Tested on the bits, since the kernels run it per row.
class Normalize {
 public:
  explicit Normalize(float norm)
      : exact_(is_power_of_two(norm)),
        factor_(_mm256_set1_ps(exact_ ? 1.0f / norm : norm)) {}
  __m256 operator()(__m256 x) const {
    return exact_ ? _mm256_mul_ps(x, factor_) : _mm256_div_ps(x, factor_);
  }

 private:
  static bool is_power_of_two(float v) {
    const std::uint32_t bits = std::bit_cast<std::uint32_t>(v);
    const std::uint32_t exponent = (bits >> 23) & 0xFF;
    return (bits & 0x7FFFFF) == 0 && exponent != 0 && exponent != 0xFF;
  }

  bool exact_;
  __m256 factor_;
};

void filter_row_avx2(const float* src, float* dst, int x0, int x1,
                     const float* kernel, int radius, float norm) {
  const Normalize normalize(norm);
  int x = x0;
  for (; x + 8 <= x1; x += 8) {
    __m256 acc = _mm256_setzero_ps();
    for (int k = -radius; k <= radius; ++k) {
      const __m256 kv = _mm256_set1_ps(kernel[k + radius]);
      acc = _mm256_add_ps(acc, _mm256_mul_ps(kv, _mm256_loadu_ps(src + x + k)));
    }
    _mm256_storeu_ps(dst + x, normalize(acc));
  }
  ref::filter_row(src, dst, x, x1, kernel, radius, norm);
}

void sobel_row_avx2(const float* rm, const float* rc, const float* rp,
                    float* gx, float* gy, int w) {
  const __m256 two = _mm256_set1_ps(2.0f);
  const __m256 eighth = _mm256_set1_ps(0.125f);
  int x = 1;
  for (; x + 8 <= w - 1; x += 8) {
    const __m256 tl = _mm256_loadu_ps(rm + x - 1);
    const __m256 tc = _mm256_loadu_ps(rm + x);
    const __m256 tr = _mm256_loadu_ps(rm + x + 1);
    const __m256 ml = _mm256_loadu_ps(rc + x - 1);
    const __m256 mr = _mm256_loadu_ps(rc + x + 1);
    const __m256 bl = _mm256_loadu_ps(rp + x - 1);
    const __m256 bc = _mm256_loadu_ps(rp + x);
    const __m256 br = _mm256_loadu_ps(rp + x + 1);
    const __m256 gxp = _mm256_add_ps(_mm256_add_ps(tr, _mm256_mul_ps(two, mr)), br);
    const __m256 gxn = _mm256_add_ps(_mm256_add_ps(tl, _mm256_mul_ps(two, ml)), bl);
    const __m256 gyp = _mm256_add_ps(_mm256_add_ps(bl, _mm256_mul_ps(two, bc)), br);
    const __m256 gyn = _mm256_add_ps(_mm256_add_ps(tl, _mm256_mul_ps(two, tc)), tr);
    _mm256_storeu_ps(gx + x, _mm256_mul_ps(_mm256_sub_ps(gxp, gxn), eighth));
    _mm256_storeu_ps(gy + x, _mm256_mul_ps(_mm256_sub_ps(gyp, gyn), eighth));
  }
  if (x < w - 1) {
    ref::sobel_row(rm + x - 1, rc + x - 1, rp + x - 1, gx + x - 1, gy + x - 1,
                   w - x + 1);
  }
}

void downsample_row_avx2(const float* ta, const float* tb, const float* tc,
                         const float* b0, const float* b1, const float* b2,
                         float* dst, int x_end) {
  const __m256 two = _mm256_set1_ps(2.0f);
  const __m256 quarter = _mm256_set1_ps(0.25f);
  // After shuffle_ps(lo, hi, 0x88/0xDD) the even/odd source columns sit in
  // 128-bit-lane-interleaved order; this permute restores ascending order.
  const __m256i fix = _mm256_setr_epi32(0, 1, 4, 5, 2, 3, 6, 7);
  int x = 0;
  for (; x + 8 <= x_end; x += 8) {
    const int sx = 2 * x;
    const __m256 t_lo = smooth_combine(ta, tb, tc, sx, two, quarter);
    const __m256 t_hi = smooth_combine(ta, tb, tc, sx + 8, two, quarter);
    const __m256 u_lo = smooth_combine(b0, b1, b2, sx, two, quarter);
    const __m256 u_hi = smooth_combine(b0, b1, b2, sx + 8, two, quarter);
    const __m256 s00 = _mm256_permutevar8x32_ps(
        _mm256_shuffle_ps(t_lo, t_hi, _MM_SHUFFLE(2, 0, 2, 0)), fix);
    const __m256 s10 = _mm256_permutevar8x32_ps(
        _mm256_shuffle_ps(t_lo, t_hi, _MM_SHUFFLE(3, 1, 3, 1)), fix);
    const __m256 s01 = _mm256_permutevar8x32_ps(
        _mm256_shuffle_ps(u_lo, u_hi, _MM_SHUFFLE(2, 0, 2, 0)), fix);
    const __m256 s11 = _mm256_permutevar8x32_ps(
        _mm256_shuffle_ps(u_lo, u_hi, _MM_SHUFFLE(3, 1, 3, 1)), fix);
    const __m256 sum =
        _mm256_add_ps(_mm256_add_ps(_mm256_add_ps(s00, s10), s01), s11);
    _mm256_storeu_ps(dst + x, _mm256_mul_ps(sum, quarter));
  }
  ref::downsample_row(ta + 2 * x, tb + 2 * x, tc + 2 * x, b0 + 2 * x,
                      b1 + 2 * x, b2 + 2 * x, dst + x, x_end - x);
}

void min_eig_row_avx2(const float* gxp, const float* gyp, int w, int y,
                      int radius, float* dst, int x0, int x1) {
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 zero = _mm256_setzero_ps();
  float* drow = dst + static_cast<std::size_t>(y) * w;
  int x = x0;
  for (; x + 8 <= x1; x += 8) {
    __m256 sxx = zero;
    __m256 sxy = zero;
    __m256 syy = zero;
    for (int dy = -radius; dy <= radius; ++dy) {
      const std::size_t row = static_cast<std::size_t>(y + dy) * w;
      for (int dx = -radius; dx <= radius; ++dx) {
        const __m256 ix = _mm256_loadu_ps(gxp + row + x + dx);
        const __m256 iy = _mm256_loadu_ps(gyp + row + x + dx);
        sxx = _mm256_add_ps(sxx, _mm256_mul_ps(ix, ix));
        sxy = _mm256_add_ps(sxy, _mm256_mul_ps(ix, iy));
        syy = _mm256_add_ps(syy, _mm256_mul_ps(iy, iy));
      }
    }
    const __m256 tr = _mm256_mul_ps(half, _mm256_add_ps(sxx, syy));
    const __m256 det =
        _mm256_sub_ps(_mm256_mul_ps(sxx, syy), _mm256_mul_ps(sxy, sxy));
    // max(s, 0) with s first returns +0 for NaN or negative s, matching
    // std::max(0.0f, s); sqrtps is correctly rounded like std::sqrt.
    const __m256 disc = _mm256_sqrt_ps(
        _mm256_max_ps(_mm256_sub_ps(_mm256_mul_ps(tr, tr), det), zero));
    _mm256_storeu_ps(drow + x, _mm256_sub_ps(tr, disc));
  }
  ref::min_eig_row(gxp, gyp, w, y, radius, dst, x, x1);
}

// ---- LK sampling ---------------------------------------------------------

/// Lane indices 0..7. Function-local so no AVX2 instruction ever runs in a
/// static initializer on hosts whose CPU lacks AVX2 (the whole TU is built
/// with -mavx2; only the dispatcher may decide to call into it).
inline __m256i lane_index() {
  return _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
}

/// Shared tail of the bilinear sample: per-lane lerp in the exact operand
/// order of ref::bilinear_unchecked, so identical corner values + identical
/// fx/fy give identical bits no matter how the corners were fetched.
inline __m256 bilerp8(__m256 p00, __m256 p10, __m256 p01, __m256 p11,
                      __m256 fx, float fy) {
  const __m256 top = _mm256_add_ps(p00, _mm256_mul_ps(fx, _mm256_sub_ps(p10, p00)));
  const __m256 bot = _mm256_add_ps(p01, _mm256_mul_ps(fx, _mm256_sub_ps(p11, p01)));
  return _mm256_add_ps(
      top, _mm256_mul_ps(_mm256_set1_ps(fy), _mm256_sub_ps(bot, top)));
}

/// The four bilinear corners of up to 8 lanes, gathered at element
/// indices `base`, `base + 1`, `base + w` and `base + w + 1`. Lanes that
/// `mask` turns off never gather (no memory access) and read 0.
struct Corners {
  __m256 p00, p10, p01, p11;
};

inline Corners gather_corners(const float* pix, int w, __m256i base,
                              __m256i mask) {
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i basew = _mm256_add_epi32(base, _mm256_set1_epi32(w));
  const __m256 zero = _mm256_setzero_ps();
  const __m256 m = _mm256_castsi256_ps(mask);
  return {_mm256_mask_i32gather_ps(zero, pix, base, m, 4),
          _mm256_mask_i32gather_ps(zero, pix, _mm256_add_epi32(base, one), m, 4),
          _mm256_mask_i32gather_ps(zero, pix, basew, m, 4),
          _mm256_mask_i32gather_ps(zero, pix, _mm256_add_epi32(basew, one), m, 4)};
}

/// A byte plane has no byte gather: gather the 32-bit word at each byte
/// address (scale 1) and keep its low byte. The word reaches three bytes
/// past the tap, which kLkByteOverread tells the caller to keep readable.
inline __m256 gather_byte(const std::uint8_t* pix, __m256i index, __m256i mask) {
  const __m256i words = _mm256_mask_i32gather_epi32(
      _mm256_setzero_si256(), reinterpret_cast<const int*>(pix), index, mask, 1);
  return _mm256_cvtepi32_ps(_mm256_and_si256(words, _mm256_set1_epi32(0xFF)));
}

inline Corners gather_corners(const std::uint8_t* pix, int w, __m256i base,
                              __m256i mask) {
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i basew = _mm256_add_epi32(base, _mm256_set1_epi32(w));
  return {gather_byte(pix, base, mask),
          gather_byte(pix, _mm256_add_epi32(base, one), mask),
          gather_byte(pix, basew, mask),
          gather_byte(pix, _mm256_add_epi32(basew, one), mask)};
}

/// Eight consecutive pixels from `p` as floats.
inline __m256 load8(const float* p) { return _mm256_loadu_ps(p); }
inline __m256 load8(const std::uint8_t* p) {
  return _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p))));
}

/// Bilinear sample of up to 8 x-positions sharing one y coordinate.
/// Mirrors ref::bilinear_unchecked per lane: truncation == floor because
/// interior coordinates are non-negative, and the lerp operand order is
/// identical. `mask` lanes that are off never gather (no memory access).
template <typename T>
inline __m256 bilinear8(const T* pix, int w, __m256 xv, float y, __m256i mask) {
  const __m256i x0i = _mm256_cvttps_epi32(xv);
  const int y0 = static_cast<int>(y);
  const __m256 fx = _mm256_sub_ps(xv, _mm256_cvtepi32_ps(x0i));
  const float fy = y - static_cast<float>(y0);
  const __m256i base = _mm256_add_epi32(x0i, _mm256_set1_epi32(y0 * w));
  const Corners c = gather_corners(pix, w, base, mask);
  return bilerp8(c.p00, c.p10, c.p01, c.p11, fx, fy);
}

/// The bilinear sample of eight lanes whose truncated columns are
/// `first`, first + 1, ..., first + 7: four unaligned loads of eight
/// consecutive pixels instead of four (slow) gathers.
template <typename T>
inline __m256 bilinear8_loads(const T* pix, int w, __m256 xv, __m256i x0i,
                              int first, float y) {
  const int y0 = static_cast<int>(y);
  const __m256 fx = _mm256_sub_ps(xv, _mm256_cvtepi32_ps(x0i));
  const float fy = y - static_cast<float>(y0);
  const T* base = pix + static_cast<std::ptrdiff_t>(y0) * w + first;
  return bilerp8(load8(base), load8(base + 1), load8(base + w),
                 load8(base + w + 1), fx, fy);
}

/// True when the lanes' truncated columns are consecutive; `first` is
/// lane 0's.
inline bool consecutive(__m256i x0i, int& first) {
  first = _mm_cvtsi128_si32(_mm256_castsi256_si128(x0i));
  const __m256i consec = _mm256_cmpeq_epi32(
      x0i, _mm256_add_epi32(_mm256_set1_epi32(first), lane_index()));
  return _mm256_movemask_ps(_mm256_castsi256_ps(consec)) == 0xFF;
}

/// Full-group (8 live lanes) bilinear sample. The lanes' x coordinates are
/// px plus eight consecutive integers, so after truncation the fetch
/// columns are *usually* x0, x0+1, ..., x0+7 — loads instead of gathers.
/// "Usually" because float rounding of px + k near an integer boundary
/// can make adjacent lanes truncate non-consecutively; the check catches
/// that and falls back to the gather path, keeping the fetched addresses
/// — and therefore the bits — exactly what the scalar reference touches.
/// fx/fy come from the same per-lane arithmetic on either path.
template <typename T>
inline __m256 bilinear8_full(const T* pix, int w, __m256 xv, float y) {
  const __m256i x0i = _mm256_cvttps_epi32(xv);
  int first = 0;
  if (consecutive(x0i, first)) return bilinear8_loads(pix, w, xv, x0i, first, y);
  return bilinear8(pix, w, xv, y, _mm256_set1_epi32(-1));
}

/// A window row's last, partial group (`mask` = its live lanes). A float
/// plane gathers the live lanes only. A byte plane loads eight lanes when
/// they are consecutive, as full groups do: the dead lanes' loads stay
/// within kLkByteOverread bytes past the plane (their values are never
/// stored), and a load is much cheaper than a gather.
template <typename T>
inline __m256 bilinear8_tail(const T* pix, int w, __m256 xv, float y,
                             __m256i mask) {
  if constexpr (std::is_same_v<T, std::uint8_t>) {
    const __m256i x0i = _mm256_cvttps_epi32(xv);
    int first = 0;
    if (consecutive(x0i, first)) return bilinear8_loads(pix, w, xv, x0i, first, y);
  }
  return bilinear8(pix, w, xv, y, mask);
}

template <typename T>
void lk_sample_window_avx2(const T* pix, int w, float px, float py, int r,
                           float* ivals, float* ixs, float* iys) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256i lane = lane_index();
  std::size_t idx = 0;
  for (int wy = -r; wy <= r; ++wy) {
    const float sy = py + static_cast<float>(wy);
    for (int wx = -r; wx <= r; wx += 8, idx += 8) {
      const int live = (r - wx) + 1;  // lanes wx..min(wx+7, r)
      // sx per lane = px + (float)(wx + lane), the same int->float cast
      // and single add as the scalar loop.
      const __m256 xv = _mm256_add_ps(
          _mm256_set1_ps(px),
          _mm256_cvtepi32_ps(_mm256_add_epi32(_mm256_set1_epi32(wx), lane)));
      if (live >= 8) {
        const __m256 v = bilinear8_full(pix, w, xv, sy);
        const __m256 ix = _mm256_mul_ps(
            _mm256_sub_ps(bilinear8_full(pix, w, _mm256_add_ps(xv, one), sy),
                          bilinear8_full(pix, w, _mm256_sub_ps(xv, one), sy)),
            half);
        const __m256 iy =
            _mm256_mul_ps(_mm256_sub_ps(bilinear8_full(pix, w, xv, sy + 1.0f),
                                        bilinear8_full(pix, w, xv, sy - 1.0f)),
                          half);
        _mm256_storeu_ps(ivals + idx, v);
        _mm256_storeu_ps(ixs + idx, ix);
        _mm256_storeu_ps(iys + idx, iy);
        continue;
      }
      const __m256i mask = _mm256_cmpgt_epi32(_mm256_set1_epi32(live), lane);
      const __m256 v = bilinear8_tail(pix, w, xv, sy, mask);
      const __m256 ix = _mm256_mul_ps(
          _mm256_sub_ps(bilinear8_tail(pix, w, _mm256_add_ps(xv, one), sy, mask),
                        bilinear8_tail(pix, w, _mm256_sub_ps(xv, one), sy, mask)),
          half);
      const __m256 iy = _mm256_mul_ps(
          _mm256_sub_ps(bilinear8_tail(pix, w, xv, sy + 1.0f, mask),
                        bilinear8_tail(pix, w, xv, sy - 1.0f, mask)),
          half);
      _mm256_maskstore_ps(ivals + idx, mask, v);
      _mm256_maskstore_ps(ixs + idx, mask, ix);
      _mm256_maskstore_ps(iys + idx, mask, iy);
      idx -= 8 - static_cast<std::size_t>(live);
    }
  }
}

template <typename T>
void lk_sample_patch_avx2(const T* pix, int w, float base_x, float base_y,
                          int r, float* jvals) {
  const __m256i lane = lane_index();
  std::size_t idx = 0;
  for (int wy = -r; wy <= r; ++wy) {
    const float jy = base_y + static_cast<float>(wy);
    for (int wx = -r; wx <= r; wx += 8, idx += 8) {
      const int live = (r - wx) + 1;
      const __m256 xv = _mm256_add_ps(
          _mm256_set1_ps(base_x),
          _mm256_cvtepi32_ps(_mm256_add_epi32(_mm256_set1_epi32(wx), lane)));
      if (live >= 8) {
        _mm256_storeu_ps(jvals + idx, bilinear8_full(pix, w, xv, jy));
        continue;
      }
      const __m256i mask = _mm256_cmpgt_epi32(_mm256_set1_epi32(live), lane);
      _mm256_maskstore_ps(jvals + idx, mask, bilinear8_tail(pix, w, xv, jy, mask));
      idx -= 8 - static_cast<std::size_t>(live);
    }
  }
}

/// Low 64 bits of the lane-wise product x * c, with c split into its
/// 32-bit halves: lo(x)lo(c) + (hi(x)lo(c) + lo(x)hi(c)) << 32. AVX2 has
/// no 64-bit multiply, and the hi(x)hi(c) term only reaches bits >= 64.
inline __m256i mul_lo64(__m256i x, __m256i c_lo, __m256i c_hi) {
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(x, 32), c_lo),
                       _mm256_mul_epu32(x, c_hi));
  return _mm256_add_epi64(_mm256_mul_epu32(x, c_lo),
                          _mm256_slli_epi64(cross, 32));
}

/// One SplitMix64 finalizer step: (x ^ (x >> shift)) * c.
template <int kShift>
inline __m256i mix_step(__m256i x, __m256i c_lo, __m256i c_hi) {
  return mul_lo64(_mm256_xor_si256(x, _mm256_srli_epi64(x, kShift)), c_lo,
                  c_hi);
}

inline __m256i split_const(std::uint64_t c, bool high) {
  return _mm256_set1_epi64x(static_cast<long long>(high ? c >> 32 : c));
}

/// ref::hash_unit over a run of lattice points (a0 + k, b), four u64 lanes
/// at a time: `next()` returns the floats of the next four points.
class HashLanes {
 public:
  HashLanes(std::uint64_t seed, std::int64_t a0, std::int64_t b)
      : mix1_lo_(split_const(ref::kMix1, false)),
        mix1_hi_(split_const(ref::kMix1, true)),
        mix2_lo_(split_const(ref::kMix2, false)),
        mix2_hi_(split_const(ref::kMix2, true)),
        // seed ^ a*kHashA ^ b*kHashB: the b term is fixed for the row, and
        // a*kHashA steps by 4*kHashA per vector (all mod 2^64, as in the
        // scalar code).
        base_(_mm256_set1_epi64x(static_cast<long long>(
            seed ^ (static_cast<std::uint64_t>(b) * ref::kHashB)))),
        a_step_(_mm256_set1_epi64x(static_cast<long long>(4 * ref::kHashA))) {
    const std::uint64_t a_hash = static_cast<std::uint64_t>(a0) * ref::kHashA;
    a_lanes_ = _mm256_set_epi64x(static_cast<long long>(a_hash + 3 * ref::kHashA),
                                 static_cast<long long>(a_hash + 2 * ref::kHashA),
                                 static_cast<long long>(a_hash + ref::kHashA),
                                 static_cast<long long>(a_hash));
  }

  __m128 next() {
    __m256i x = _mm256_xor_si256(base_, a_lanes_);
    a_lanes_ = _mm256_add_epi64(a_lanes_, a_step_);
    x = mix_step<30>(x, mix1_lo_, mix1_hi_);
    x = mix_step<27>(x, mix2_lo_, mix2_hi_);
    x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 31));
    // h >> 11 < 2^53 converts exactly: its low 32 bits under the exponent
    // of 2^52 and its high bits under the exponent of 2^84 are two exact
    // doubles, and (hi - 2^84 - 2^52) + lo is their exact sum.
    const __m256i v = _mm256_srli_epi64(x, 11);
    const __m256d lo = _mm256_castsi256_pd(
        _mm256_blend_epi32(v, _mm256_set1_epi64x(0x4330000000000000LL), 0xAA));
    const __m256d hi = _mm256_castsi256_pd(_mm256_or_si256(
        _mm256_srli_epi64(v, 32), _mm256_set1_epi64x(0x4530000000000000LL)));
    const __m256d d =
        _mm256_add_pd(_mm256_sub_pd(hi, _mm256_set1_pd(0x1.0p84 + 0x1.0p52)), lo);
    return _mm256_cvtpd_ps(_mm256_mul_pd(d, _mm256_set1_pd(0x1.0p-53)));
  }

 private:
  __m256i mix1_lo_;
  __m256i mix1_hi_;
  __m256i mix2_lo_;
  __m256i mix2_hi_;
  __m256i base_;
  __m256i a_step_;
  __m256i a_lanes_;
};

void hash_unit_row_avx2(std::uint64_t seed, std::int64_t a0, std::int64_t b,
                        int n, float* out) {
  HashLanes hash(seed, a0, b);
  int k = 0;
  for (; k + 4 <= n; k += 4) _mm_storeu_ps(out + k, hash.next());
  ref::hash_unit_row(seed, a0 + k, b, n - k, out + k);
}

// ---- The camera's pixel rows ---------------------------------------------

/// ref::texture_value on eight columns, in the same operand order. The row
/// pointers are copied out of the TextureRow once: the byte stores may
/// alias anything, so reading them through it would reload them per
/// vector.
class Texture8 {
 public:
  explicit Texture8(const TextureRow& t)
      : ct_(t.coarse_top), cb_(t.coarse_bot), ft_(t.fine_top),
        fb_(t.fine_bot), cfy_(_mm256_set1_ps(t.coarse_fy)),
        ffy_(_mm256_set1_ps(t.fine_fy)) {}

  __m256 at(int i) const {
    const __m256 half = _mm256_set1_ps(0.5f);
    const __m256 coarse = _mm256_sub_ps(lerp(ct_ + i, cb_ + i, cfy_), half);
    const __m256 fine = _mm256_sub_ps(lerp(ft_ + i, fb_ + i, ffy_), half);
    return _mm256_add_ps(_mm256_mul_ps(coarse, _mm256_set1_ps(0.7f)),
                         _mm256_mul_ps(fine, _mm256_set1_ps(0.5f)));
  }

 private:
  static __m256 lerp(const float* top, const float* bot, __m256 fy) {
    const __m256 t = _mm256_loadu_ps(top);
    return _mm256_add_ps(t, _mm256_mul_ps(fy, _mm256_sub_ps(_mm256_loadu_ps(bot), t)));
  }

  const float* ct_;
  const float* cb_;
  const float* ft_;
  const float* fb_;
  __m256 cfy_;
  __m256 ffy_;
};

/// The TextureRow whose column 0 is column k of `t`, for the scalar tails.
TextureRow advanced(const TextureRow& t, int k) {
  return {t.coarse_top + k, t.coarse_bot + k, t.coarse_fy,
          t.fine_top + k,   t.fine_bot + k,   t.fine_fy};
}

/// ref::to_pixel on eight lanes, stored as eight bytes. max(v, 0) then
/// min(., 255) in the reference's operand order (maxps returns its second
/// operand when either is NaN, so NaN reads as 0, as std::max(0.0f, NaN)
/// does); truncation by cvttps equals the scalar cast on [0, 255], where
/// the signed and unsigned saturating packs change nothing.
inline void store_pixels8(std::uint8_t* dst, __m256 v) {
  const __m256i q = _mm256_cvttps_epi32(_mm256_min_ps(
      _mm256_max_ps(v, _mm256_setzero_ps()), _mm256_set1_ps(255.0f)));
  const __m128i words = _mm_packs_epi32(_mm256_castsi256_si128(q),
                                        _mm256_extracti128_si256(q, 1));
  _mm_storel_epi64(reinterpret_cast<__m128i*>(dst),
                   _mm_packus_epi16(words, words));
}

void background_row_avx2(const TextureRow& tex, int n, std::uint8_t* dst) {
  const Texture8 texture(tex);
  const __m256 offset = _mm256_set1_ps(120.0f);
  const __m256 gain = _mm256_set1_ps(45.0f);
  int x = 0;
  for (; x + 8 <= n; x += 8) {
    store_pixels8(dst + x,
                  _mm256_add_ps(offset, _mm256_mul_ps(gain, texture.at(x))));
  }
  ref::background_row(advanced(tex, x), n - x, dst + x);
}

void object_row_avx2(const TextureRow& tex, const ObjectRowShade& shade, int n,
                     std::uint8_t* dst) {
  const Texture8 texture(tex);
  const __m256 left = _mm256_set1_ps(shade.left);
  const __m256 width = _mm256_set1_ps(shade.width);
  const __m256 ly = _mm256_set1_ps(shade.ly);
  const __m256 height_ly = _mm256_set1_ps(shade.height - shade.ly);
  const __m256 base = _mm256_set1_ps(shade.base);
  const __m256 contrast = _mm256_set1_ps(shade.contrast);
  const __m256 two = _mm256_set1_ps(2.0f);
  const __m256 darken = _mm256_set1_ps(45.0f);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256i lane = lane_index();
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 lx = _mm256_sub_ps(
        _mm256_cvtepi32_ps(_mm256_add_epi32(_mm256_set1_epi32(shade.x0 + i), lane)),
        left);
    const __m256 v = _mm256_add_ps(base, _mm256_mul_ps(contrast, texture.at(i)));
    // std::min(a, b) is (b < a) ? b : a, which is minps(b, a).
    const __m256 edge =
        _mm256_min_ps(_mm256_min_ps(height_ly, _mm256_sub_ps(width, lx)),
                      _mm256_min_ps(ly, lx));
    // x / 2 and x * 0.5 are the same correctly rounded float.
    const __m256 dark = _mm256_sub_ps(
        v, _mm256_mul_ps(_mm256_mul_ps(darken, _mm256_sub_ps(two, edge)), half));
    store_pixels8(dst + i, _mm256_min_ps(dark, v));
  }
  ObjectRowShade rest = shade;
  rest.x0 += i;
  ref::object_row(advanced(tex, i), rest, n - i, dst + i);
}

void noise_row_avx2(std::uint64_t seed, std::int64_t a0, std::int64_t b, int n,
                    float amp, std::uint8_t* dst) {
  HashLanes hash(seed, a0, b);
  const __m256 vamp = _mm256_set1_ps(amp);
  const __m256 half = _mm256_set1_ps(0.5f);
  int k = 0;
  for (; k + 8 <= n; k += 8) {
    const __m128 u_lo = hash.next();
    const __m256 u = _mm256_insertf128_ps(_mm256_castps128_ps256(u_lo),
                                          hash.next(), 1);
    const __m256 pixel = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(dst + k))));
    store_pixels8(dst + k, _mm256_add_ps(pixel, _mm256_mul_ps(
                                                    vamp, _mm256_sub_ps(u, half))));
  }
  ref::noise_row(seed, a0 + k, b, n - k, amp, dst + k);
}

}  // namespace

const SimdOps* avx2_ops() {
  static const SimdOps ops = {
      Isa::kAvx2,          filter_row_avx2,
      sobel_row_avx2,      downsample_row_avx2, min_eig_row_avx2,
      lk_sample_window_avx2<float>, lk_sample_patch_avx2<float>,
      lk_sample_window_avx2<std::uint8_t>, lk_sample_patch_avx2<std::uint8_t>,
      hash_unit_row_avx2,
      background_row_avx2, object_row_avx2, noise_row_avx2,
  };
  return &ops;
}

}  // namespace adavp::vision::simd

#else  // !defined(__AVX2__)

namespace adavp::vision::simd {
const SimdOps* avx2_ops() { return nullptr; }
}  // namespace adavp::vision::simd

#endif
