#include "vision/good_features.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "util/scratch_arena.h"
#include "vision/image_ops.h"
#include "vision/simd/dispatch.h"

namespace adavp::vision {

namespace {

/// Clamped (border) Shi-Tomasi score for one pixel — the reference loop
/// for every position whose block window touches an image edge.
float min_eig_clamped(const float* gxp, const float* gyp, int w, int h, int x,
                      int y, int radius) {
  float sxx = 0.0f;
  float sxy = 0.0f;
  float syy = 0.0f;
  for (int dy = -radius; dy <= radius; ++dy) {
    const std::size_t row =
        static_cast<std::size_t>(std::clamp(y + dy, 0, h - 1)) * w;
    for (int dx = -radius; dx <= radius; ++dx) {
      const std::size_t i = row + std::clamp(x + dx, 0, w - 1);
      const float ix = gxp[i];
      const float iy = gyp[i];
      sxx += ix * ix;
      sxy += ix * iy;
      syy += iy * iy;
    }
  }
  // Smaller eigenvalue of [[sxx, sxy], [sxy, syy]].
  const float tr = 0.5f * (sxx + syy);
  const float det = sxx * syy - sxy * sxy;
  const float disc = std::sqrt(std::max(0.0f, tr * tr - det));
  return tr - disc;
}

/// Shi-Tomasi scores of a `w` x `h` gradient plane into `dst` (same shape).
/// Like Sobel, the block window clamps at the plane's own edges.
void min_eig_plane(const float* gxp, const float* gyp, int w, int h,
                   int radius, float* dst, const KernelConfig& config) {
  const simd::SimdOps& ops = simd::ops_for(config);
  const int x_interior_begin = std::min(radius, w);
  const int x_interior_end = std::max(x_interior_begin, w - radius);
  for (int y = 0; y < h; ++y) {
    float* drow = dst + static_cast<std::size_t>(y) * w;
    const bool row_interior = y >= radius && y < h - radius;
    if (row_interior) {
      // Interior: the block never clamps => dispatched row-pointer walks.
      for (int x = 0; x < x_interior_begin; ++x) {
        drow[x] = min_eig_clamped(gxp, gyp, w, h, x, y, radius);
      }
      ops.min_eig_row(gxp, gyp, w, y, radius, dst, x_interior_begin,
                      x_interior_end);
      for (int x = x_interior_end; x < w; ++x) {
        drow[x] = min_eig_clamped(gxp, gyp, w, h, x, y, radius);
      }
    } else {
      for (int x = 0; x < w; ++x) {
        drow[x] = min_eig_clamped(gxp, gyp, w, h, x, y, radius);
      }
    }
  }
}

/// Half-open pixel rectangle [x0, x1) x [y0, y1) in frame coordinates.
struct Rect {
  int x0, y0, x1, y1;
};

/// Appends the runs of non-zero pixels in `row` to `runs` as x0, x1 pairs
/// (half-open, ascending).
void row_runs(const std::uint8_t* row, int w, std::vector<int>& runs) {
  for (int x = 0; x < w;) {
    if (row[x] == 0) {
      ++x;
      continue;
    }
    const int begin = x;
    while (x < w && row[x] != 0) ++x;
    runs.push_back(begin);
    runs.push_back(x);
  }
}

/// Rectangles that cover `mask`'s non-zero pixels exactly once: each row's
/// runs, with a run that repeats the previous row's run extending that
/// rectangle downwards (a row equal to the previous one extends them all
/// without a scan). A null mask is the whole frame.
std::vector<Rect> mask_rects(const ImageU8* mask, int w, int h) {
  if (mask == nullptr) return {{0, 0, w, h}};
  std::vector<Rect> rects;
  std::vector<int> prev_runs;
  std::vector<int> runs;
  std::vector<std::size_t> prev_open;  // rect of each run in prev_runs
  std::vector<std::size_t> open;
  const std::uint8_t* pixels = mask->pixels().data();
  for (int y = 0; y < h; ++y) {
    const std::uint8_t* row = pixels + static_cast<std::size_t>(y) * w;
    if (y > 0 && std::memcmp(row, row - w, static_cast<std::size_t>(w)) == 0) {
      for (std::size_t r : prev_open) rects[r].y1 = y + 1;
      continue;
    }
    runs.clear();
    row_runs(row, w, runs);
    open.clear();
    std::size_t p = 0;  // both run lists ascend in x: merge-walk them
    for (std::size_t i = 0; i < runs.size(); i += 2) {
      while (p < prev_runs.size() && prev_runs[p] < runs[i]) p += 2;
      if (p < prev_runs.size() && prev_runs[p] == runs[i] &&
          prev_runs[p + 1] == runs[i + 1]) {
        const std::size_t r = prev_open[p / 2];
        rects[r].y1 = y + 1;
        open.push_back(r);
      } else {
        open.push_back(rects.size());
        rects.push_back({runs[i], y, runs[i + 1], y + 1});
      }
    }
    std::swap(prev_runs, runs);
    std::swap(prev_open, open);
  }
  return rects;
}

}  // namespace

ImageF32 min_eigenvalue_map(const ImageF32& img, int block_size,
                            const KernelConfig& config) {
  ImageF32 gx;
  ImageF32 gy;
  sobel(img, gx, gy, config);
  ImageF32 out(img.width(), img.height());
  min_eig_plane(gx.pixels().data(), gy.pixels().data(), img.width(),
                img.height(), std::max(1, block_size / 2), out.pixels().data(),
                config);
  return out;
}

std::vector<geometry::Point2f> good_features_to_track(
    const ImageU8& img, const GoodFeaturesParams& params, const ImageU8* mask) {
  std::vector<geometry::Point2f> corners;
  if (img.empty() || params.max_corners <= 0) return corners;
  assert(mask == nullptr || (mask->width() == img.width() &&
                             mask->height() == img.height()));
  const int w = img.width();
  const int h = img.height();
  const int radius = std::max(1, params.block_size / 2);
  // Sobel reach, block window, the 3x3 local-maximum test, one spare: a
  // score read below is then at least radius + 1 pixels inside any tile
  // edge that is not a frame edge, so neither stencil ever clamps there
  // and every such score equals the full-frame one bit for bit.
  const int halo = 1 + radius + 1 + 1;

  struct Tile {
    Rect core;      ///< masked pixels this tile owns
    Rect frame;     ///< core grown by the halo, clamped to the frame
    float* scores;  ///< one per frame pixel, row stride frame width
  };
  std::vector<Tile> tiles;
  for (const Rect& core : mask_rects(mask, w, h)) {
    tiles.push_back({core,
                     {std::max(0, core.x0 - halo), std::max(0, core.y0 - halo),
                      std::min(w, core.x1 + halo), std::min(h, core.y1 + halo)},
                     nullptr});
  }

  util::ScratchArena& arena = util::ScratchArena::thread_local_arena();
  const util::ScratchArena::Scope scope(arena);
  float best = 0.0f;
  for (Tile& t : tiles) {
    const int tw = t.frame.x1 - t.frame.x0;
    const int th = t.frame.y1 - t.frame.y0;
    const std::size_t n = static_cast<std::size_t>(tw) * th;
    t.scores = arena.alloc<float>(n);
    {
      const util::ScratchArena::Scope tile_scope(arena);
      float* f = arena.alloc<float>(n);
      float* gx = arena.alloc<float>(n);
      float* gy = arena.alloc<float>(n);
      for (int y = 0; y < th; ++y) {
        const std::uint8_t* src = &img.at(t.frame.x0, t.frame.y0 + y);
        float* dst = f + static_cast<std::size_t>(y) * tw;
        for (int x = 0; x < tw; ++x) dst[x] = static_cast<float>(src[x]);
      }
      sobel_plane(f, tw, th, gx, gy, params.kernels);
      min_eig_plane(gx, gy, tw, th, radius, t.scores, params.kernels);
    }
    for (int y = t.core.y0; y < t.core.y1; ++y) {
      const float* srow =
          t.scores + static_cast<std::size_t>(y - t.frame.y0) * tw;
      for (int x = t.core.x0; x < t.core.x1; ++x) {
        best = std::max(best, srow[x - t.frame.x0]);
      }
    }
  }
  if (best <= 0.0f) return corners;
  const float threshold = static_cast<float>(params.quality_level) * best;

  // Local-maximum candidates above the quality threshold.
  struct Candidate {
    float score;
    int x;
    int y;
  };
  std::vector<Candidate> candidates;
  for (const Tile& t : tiles) {
    const int tw = t.frame.x1 - t.frame.x0;
    for (int y = std::max(t.core.y0, 1); y < std::min(t.core.y1, h - 1); ++y) {
      const float* srow =
          t.scores + static_cast<std::size_t>(y - t.frame.y0) * tw;
      for (int x = std::max(t.core.x0, 1); x < std::min(t.core.x1, w - 1); ++x) {
        const int tx = x - t.frame.x0;
        const float s = srow[tx];
        if (s < threshold) continue;
        bool is_max = true;
        for (int dy = -1; dy <= 1 && is_max; ++dy) {
          const float* nrow = srow + static_cast<std::ptrdiff_t>(dy) * tw;
          for (int dx = -1; dx <= 1; ++dx) {
            if (dx == 0 && dy == 0) continue;
            if (nrow[tx + dx] > s) {
              is_max = false;
              break;
            }
          }
        }
        if (is_max) candidates.push_back({s, x, y});
      }
    }
  }
  // std::sort is not stable: hand it the candidates in the frame's
  // row-major order, as a whole-frame scan would, so ties break the same.
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.y != b.y ? a.y < b.y : a.x < b.x;
            });
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) { return a.score > b.score; });

  // Greedy min-distance suppression, strongest first.
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

ImageU8 boxes_mask(const geometry::Size& size,
                   const std::vector<geometry::BoundingBox>& boxes,
                   float shrink) {
  ImageU8 mask;
  boxes_mask_into(size, boxes, shrink, mask);
  return mask;
}

void boxes_mask_into(const geometry::Size& size,
                     const std::vector<geometry::BoundingBox>& boxes,
                     float shrink, ImageU8& out) {
  out.reset(size.width, size.height);
  out.fill(0);
  for (const auto& raw : boxes) {
    geometry::BoundingBox box = raw;
    if (shrink > 0.0f) {
      box = {box.left + shrink, box.top + shrink,
             box.width - 2.0f * shrink, box.height - 2.0f * shrink};
    }
    box = geometry::clamp_to(box, size);
    if (box.empty()) continue;
    const int x0 = std::max(static_cast<int>(std::ceil(box.left)), 0);
    const int y0 = std::max(static_cast<int>(std::ceil(box.top)), 0);
    const int x1 = std::min(static_cast<int>(std::floor(box.right())), size.width);
    const int y1 = std::min(static_cast<int>(std::floor(box.bottom())), size.height);
    if (x0 >= x1) continue;
    for (int y = y0; y < y1; ++y) {
      std::fill_n(&out.at(x0, y), x1 - x0, std::uint8_t{255});
    }
  }
}

}  // namespace adavp::vision
