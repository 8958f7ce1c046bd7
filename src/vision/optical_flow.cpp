#include "vision/optical_flow.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>

#include "obs/telemetry.h"
#include "util/scratch_arena.h"
#include "util/thread_pool.h"
#include "vision/image_ops.h"
#include "vision/simd/dispatch.h"
#include "vision/simd/kernels_ref.h"

namespace adavp::vision {

namespace {

/// LK's splitting grain: a point costs a whole pyramid descent with up to
/// `max_iterations` Newton steps per level, so each one is worth a chunk.
constexpr std::int64_t kPointsPerChunk = 1;

struct GradientWindow {
  // Spatial gradient (structure tensor) accumulated over the window.
  float gxx = 0.0f;
  float gxy = 0.0f;
  float gyy = 0.0f;
};

/// One pyramid level as LK reads it: level 0 is the frame's bytes, the
/// levels above are float planes.
template <typename T>
struct Plane {
  const T* pix;
  int w;
  int h;
};

Plane<std::uint8_t> base_plane(const ImagePyramid& pyr) {
  const geometry::Size size = pyr.level_size(0);
  return {pyr.base_pixels(), size.width, size.height};
}

Plane<float> float_plane(const ImagePyramid& pyr, int level) {
  const geometry::Size size = pyr.level_size(level);
  return {pyr.level_pixels(level), size.width, size.height};
}

inline void sample_window(const simd::SimdOps& ops, const float* pix, int w,
                          float px, float py, int r, float* ivals, float* ixs,
                          float* iys) {
  ops.lk_sample_window(pix, w, px, py, r, ivals, ixs, iys);
}
inline void sample_window(const simd::SimdOps& ops, const std::uint8_t* pix,
                          int w, float px, float py, int r, float* ivals,
                          float* ixs, float* iys) {
  ops.lk_sample_window_u8(pix, w, px, py, r, ivals, ixs, iys);
}
inline void sample_patch(const simd::SimdOps& ops, const float* pix, int w,
                         float x, float y, int r, float* jvals) {
  ops.lk_sample_patch(pix, w, x, y, r, jvals);
}
inline void sample_patch(const simd::SimdOps& ops, const std::uint8_t* pix,
                         int w, float x, float y, int r, float* jvals) {
  ops.lk_sample_patch_u8(pix, w, x, y, r, jvals);
}

/// Central-difference derivative of `img` sampled bilinearly at (x, y).
template <typename T>
inline void sample_gradient(const Plane<T>& img, float x, float y, float& dx,
                            float& dy) {
  dx = (sample_bilinear(img.pix, img.w, img.h, x + 1.0f, y) -
        sample_bilinear(img.pix, img.w, img.h, x - 1.0f, y)) * 0.5f;
  dy = (sample_bilinear(img.pix, img.w, img.h, x, y + 1.0f) -
        sample_bilinear(img.pix, img.w, img.h, x, y - 1.0f)) * 0.5f;
}

/// True when every bilinear tap within `margin` of (x, y) is strictly
/// interior. Conservative by one extra pixel so float rounding in the
/// callers' coordinate arithmetic can never escape the unchecked window.
inline bool window_interior(float x, float y, float margin, int w, int h) {
  return x - margin >= 0.0f && y - margin >= 0.0f &&
         x + margin <= static_cast<float>(w - 2) &&
         y + margin <= static_cast<float>(h - 2);
}

/// floor(v) clamped to [0, n - 1]; NaN gives 0.
inline int clamped_floor(float v, int n) {
  if (!(v > 0.0f)) return 0;
  if (v >= static_cast<float>(n - 1)) return n - 1;
  return static_cast<int>(v);
}

/// Columns [x0, x1] and rows [y0, y1] of a pyramid level, inclusive.
struct Span {
  int x0 = 0;
  int y0 = 0;
  int x1 = -1;
  int y1 = -1;
  bool contains(const Span& o) const {
    return x0 <= o.x0 && y0 <= o.y0 && o.x1 <= x1 && o.y1 <= y1;
  }
};

/// Materializes the part of `img`, level `level` of `pyr`, that a
/// radius-`r` window around (cx, cy) reads, interior or clamped: the
/// window, one pixel for the gradient, one for the bilinear taps and one
/// for the float rounding of the sample coordinates. `ready` remembers the
/// whole tiles under the last span materialized, so a Newton step that
/// stays inside them costs no more than the compare.
template <typename T>
inline void materialize_window(const ImagePyramid& pyr, int level,
                               const Plane<T>& img, float cx, float cy, int r,
                               Span& ready) {
  if (level == 0) return;  // the frame's bytes: always readable
  const float reach = static_cast<float>(r + 3);
  const Span need{clamped_floor(cx - reach, img.w), clamped_floor(cy - reach, img.h),
                  clamped_floor(cx + reach, img.w), clamped_floor(cy + reach, img.h)};
  if (ready.contains(need)) return;
  pyr.materialize(level, need.x0, need.y0, need.x1, need.y1);
  constexpr int kW = ImagePyramid::kTileWidth;
  constexpr int kH = ImagePyramid::kTileHeight;
  ready = {need.x0 / kW * kW, need.y0 / kH * kH,
           std::min((need.x1 / kW + 1) * kW, img.w) - 1,
           std::min((need.y1 / kH + 1) * kH, img.h) - 1};
}

/// Tracks one point through the pyramid. `kRadius >= 0` is the
/// compile-time fixed-radius fast path (fully unrolled window loops for
/// the default radius); `kRadius == -1` reads the radius from `params`.
/// `ivals`/`ixs`/`iys`/`jvals` are caller-provided scratch of (2r+1)^2
/// floats (32-byte aligned for the SIMD samplers).
///
/// Interior windows sample through `ops` (value + gradient arrays filled
/// one lane per pixel, bit-identical floats to the scalar reference); the
/// gxx/gxy/gyy and bx/by/residual reductions below always run scalar in
/// raster order, so the accumulated sums are bit-identical across every
/// ISA tier (DESIGN.md §14). Border windows keep the historical clamped
/// loops verbatim. Level 0 samples the frame's bytes, the levels above
/// float planes; every window is materialized just before it is read.
template <int kRadius>
void track_point(const ImagePyramid& prev, const ImagePyramid& next, int levels,
                 const LucasKanadeParams& params, const simd::SimdOps& ops,
                 const geometry::Point2f& p0, float* ivals, float* ixs,
                 float* iys, float* jvals, geometry::Point2f& out_point,
                 FlowStatus& out_status) {
  const int r = kRadius >= 0 ? kRadius : params.window_radius;
  const float window_count = static_cast<float>((2 * r + 1) * (2 * r + 1));
  const std::size_t window_pixels = static_cast<std::size_t>((2 * r + 1)) *
                                    static_cast<std::size_t>(2 * r + 1);

  geometry::Point2f g{0.0f, 0.0f};  // flow guess carried across levels
  bool ok = true;
  float residual = 0.0f;

  // One level: the structure tensor of `I` around p, then the Newton
  // refinement of the flow against `J`. False when the window is
  // ill-conditioned.
  auto track_level = [&](int level, const auto& I, const auto& J) {
    const float scale = 1.0f / static_cast<float>(1 << level);
    const geometry::Point2f p{p0.x * scale, p0.y * scale};

    // Structure tensor of the previous image around p, plus per-pixel
    // gradients cached for the iterative update.
    Span ready_i;
    materialize_window(prev, level, I, p.x, p.y, r, ready_i);
    GradientWindow gw;
    std::size_t idx = 0;
    if (window_interior(p.x, p.y, static_cast<float>(r + 2), I.w, I.h)) {
      sample_window(ops, I.pix, I.w, p.x, p.y, r, ivals, ixs, iys);
      for (idx = 0; idx < window_pixels; ++idx) {
        const float ix = ixs[idx];
        const float iy = iys[idx];
        gw.gxx += ix * ix;
        gw.gxy += ix * iy;
        gw.gyy += iy * iy;
      }
    } else {
      for (int wy = -r; wy <= r; ++wy) {
        for (int wx = -r; wx <= r; ++wx, ++idx) {
          const float sx = p.x + static_cast<float>(wx);
          const float sy = p.y + static_cast<float>(wy);
          float ix = 0.0f;
          float iy = 0.0f;
          sample_gradient(I, sx, sy, ix, iy);
          ivals[idx] = sample_bilinear(I.pix, I.w, I.h, sx, sy);
          ixs[idx] = ix;
          iys[idx] = iy;
          gw.gxx += ix * ix;
          gw.gxy += ix * iy;
          gw.gyy += iy * iy;
        }
      }
    }
    const float tr = 0.5f * (gw.gxx + gw.gyy);
    const float det = gw.gxx * gw.gyy - gw.gxy * gw.gxy;
    const float min_eig =
        (tr - std::sqrt(std::max(0.0f, tr * tr - det))) / window_count;
    if (min_eig < params.min_eigen_threshold || det <= 0.0f) return false;

    // Iterative Newton refinement of the flow at this level.
    geometry::Point2f nu{0.0f, 0.0f};
    Span ready_j;
    for (int iter = 0; iter < params.max_iterations; ++iter) {
      float bx = 0.0f;
      float by = 0.0f;
      residual = 0.0f;
      const float base_x = p.x + g.x + nu.x;
      const float base_y = p.y + g.y + nu.y;
      materialize_window(next, level, J, base_x, base_y, r, ready_j);
      idx = 0;
      if (window_interior(base_x, base_y, static_cast<float>(r + 1), J.w, J.h)) {
        sample_patch(ops, J.pix, J.w, base_x, base_y, r, jvals);
        for (idx = 0; idx < window_pixels; ++idx) {
          const float diff = ivals[idx] - jvals[idx];
          bx += diff * ixs[idx];
          by += diff * iys[idx];
          residual += std::abs(diff);
        }
      } else {
        for (int wy = -r; wy <= r; ++wy) {
          for (int wx = -r; wx <= r; ++wx, ++idx) {
            const float jx = p.x + g.x + nu.x + static_cast<float>(wx);
            const float jy = p.y + g.y + nu.y + static_cast<float>(wy);
            const float diff =
                ivals[idx] - sample_bilinear(J.pix, J.w, J.h, jx, jy);
            bx += diff * ixs[idx];
            by += diff * iys[idx];
            residual += std::abs(diff);
          }
        }
      }
      const float vx = (gw.gyy * bx - gw.gxy * by) / det;
      const float vy = (gw.gxx * by - gw.gxy * bx) / det;
      nu += {vx, vy};
      if (std::sqrt(vx * vx + vy * vy) < params.epsilon) break;
    }

    if (level > 0) {
      g = (g + nu) * 2.0f;
    } else {
      g += nu;
    }
    return true;
  };

  for (int level = levels - 1; level >= 1 && ok; --level) {
    ok = track_level(level, float_plane(prev, level), float_plane(next, level));
  }
  if (ok) ok = track_level(0, base_plane(prev), base_plane(next));

  geometry::Point2f result = p0 + g;
  const geometry::Size base = next.level_size(0);
  const bool inside = result.x >= 0.0f && result.y >= 0.0f &&
                      result.x < static_cast<float>(base.width) &&
                      result.y < static_cast<float>(base.height);
  out_point = result;
  out_status.tracked = ok && inside;
  out_status.error = residual / window_count;
}

using TrackPointFn = void (*)(const ImagePyramid&, const ImagePyramid&, int,
                              const LucasKanadeParams&, const simd::SimdOps&,
                              const geometry::Point2f&, float*, float*, float*,
                              float*, geometry::Point2f&, FlowStatus&);

TrackPointFn select_track_fn(int radius) {
  switch (radius) {
    case 3:
      return &track_point<3>;
    case 5:
      return &track_point<5>;
    case 7:  // the default window — fully unrolled fast path
      return &track_point<7>;
    default:
      return &track_point<-1>;
  }
}

}  // namespace

void calc_optical_flow_pyr_lk(const ImagePyramid& prev, const ImagePyramid& next,
                              const std::vector<geometry::Point2f>& points,
                              std::vector<geometry::Point2f>& out_points,
                              std::vector<FlowStatus>& out_status,
                              const LucasKanadeParams& params,
                              const KernelConfig& kernels) {
  out_points.assign(points.size(), {});
  out_status.assign(points.size(), {});
  if (prev.empty() || next.empty()) return;

  obs::ScopedSpan span("lk_flow", "vision",
                       static_cast<std::int64_t>(points.size()), "points");
  const int levels = std::min(prev.levels(), next.levels());
  const std::size_t window_count = static_cast<std::size_t>(
      (2 * params.window_radius + 1) * (2 * params.window_radius + 1));
  const TrackPointFn track = select_track_fn(params.window_radius);
  const simd::SimdOps& ops = simd::ops_for(kernels);

  const auto track_range = [&](std::int64_t i0, std::int64_t i1) {
    // Per-thread gradient caches, reused across every point and level in
    // the chunk — the hot loop never touches the heap. 32-byte aligned so
    // the AVX2 samplers store full vectors.
    util::ScratchArena& arena = util::ScratchArena::thread_local_arena();
    util::ScratchArena::Scope scope(arena);
    float* ivals = arena.alloc_aligned<float>(window_count, 32);
    float* ixs = arena.alloc_aligned<float>(window_count, 32);
    float* iys = arena.alloc_aligned<float>(window_count, 32);
    float* jvals = arena.alloc_aligned<float>(window_count, 32);
    for (std::int64_t i = i0; i < i1; ++i) {
      const auto k = static_cast<std::size_t>(i);
      track(prev, next, levels, params, ops, points[k], ivals, ixs, iys, jvals,
            out_points[k], out_status[k]);
    }
  };
  const auto count = static_cast<std::int64_t>(points.size());
  if (kernels.num_threads == 1 || count <= kPointsPerChunk) {
    track_range(0, count);
  } else {
    // By reference: std::function then holds the body without allocating.
    util::ThreadPool::shared().parallel_for(0, count, kPointsPerChunk,
                                            kernels.num_threads,
                                            std::cref(track_range));
  }
  publish_pool_metrics();
}

}  // namespace adavp::vision
