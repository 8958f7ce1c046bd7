#include "video/scene.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <utility>

#include "util/scratch_arena.h"
#include "util/thread_pool.h"
#include "vision/kernel_config.h"
#include "vision/simd/dispatch.h"
#include "vision/simd/kernels_ref.h"

namespace adavp::video {

namespace {

using vision::simd::ref::hash3;
using vision::simd::ref::hash_unit;

float smoothstep(float t) { return t * t * (3.0f - 2.0f * t); }

// The two-octave texture: a coarse and a fine lattice of value noise,
// combined as (coarse - 0.5) * 0.7 + (fine - 0.5) * 0.5, centred on 0 with
// unit-ish amplitude.
constexpr float kCoarseCell = 9.0f;
constexpr float kFineCell = 3.5f;
constexpr std::uint64_t kFineSeedMix = 0xABCDEF1234567890ULL;

// The fewest pixels render_into hands to one thread of the shared pool, so
// the row grain is ceil(kMinPixelsPerChunk / width) and a frame of no more
// rows than one grain renders serially. Measured on 4 cores, split renders
// ran about 1.9x faster than serial at 384x216 (3 chunks) and 2.8x at
// 1280x720; at 384x216 smaller chunks gained less and chunks of 96 Ki
// pixels or more leave it serial (docs/PERFORMANCE.md, "Splitting a
// render across the pool").
constexpr std::int64_t kMinPixelsPerChunk = 32 * 1024;

/// One octave of smooth value noise in [0,1] over a run of `n` columns.
///
/// Sampling value noise per pixel hashes the four lattice corners around
/// every pixel, yet a whole lattice row of pixels shares the same corners.
/// So the column's lattice index and smoothstep weight are computed once
/// per column, the two corner rows bracketing lattice row `iy` are hashed
/// once per lattice row (one `hash_unit_row` kernel call each) and lerped
/// horizontally into `top_`/`bot_`, and a pixel only does the vertical
/// lerp. The float operations are the ones of the per-pixel formulation,
/// in the same order, so the noise is bit-identical to it. All tables live
/// in `arena` (the caller's Scope).
class NoiseOctave {
 public:
  /// `column(i)` is the lattice-space coordinate (before division by
  /// `cell`) of column i; it must not decrease with i.
  template <typename Column>
  NoiseOctave(const vision::simd::SimdOps& ops, util::ScratchArena& arena,
              int n, std::uint64_t seed, float cell, Column column)
      : ops_(ops), n_(n), seed_(seed), cell_(cell) {
    const auto count = static_cast<std::size_t>(n);
    col_ = arena.alloc<std::int32_t>(count);
    fx_ = arena.alloc<float>(count);
    top_ = arena.alloc<float>(count);
    bot_ = arena.alloc<float>(count);
    // Lattice indices are rebased on the first column in 64 bits before
    // narrowing, so a large camera pan cannot overflow the table index.
    std::int64_t last = 0;
    for (int i = 0; i < n; ++i) {
      const float gx = column(i) / cell;
      const auto ix = static_cast<std::int64_t>(std::floor(gx));
      if (i == 0) ix0_ = ix;
      last = ix;
      col_[i] = static_cast<std::int32_t>(ix - ix0_);
      fx_[i] = smoothstep(gx - static_cast<float>(ix));
    }
    span_ = static_cast<int>(last - ix0_) + 2;  // corners ix0 .. last+1
    corners_top_ = arena.alloc<float>(static_cast<std::size_t>(span_));
    corners_bot_ = arena.alloc<float>(static_cast<std::size_t>(span_));
  }

  /// Moves to the lattice row under `y` (rehashing only when it changed)
  /// and returns the row's vertical smoothstep weight.
  float select_row(float y) {
    const float gy = y / cell_;
    const auto iy = static_cast<std::int64_t>(std::floor(gy));
    if (!has_row_ || iy != iy_) load_row(iy);
    return smoothstep(gy - static_cast<float>(iy));
  }

  /// The selected row lerped across the columns: row iy and row iy + 1.
  const float* top() const { return top_; }
  const float* bot() const { return bot_; }

 private:
  void load_row(std::int64_t iy) {
    if (has_row_ && iy == iy_ + 1) {
      // Stepping down one lattice row: the old bottom row is the new top.
      std::swap(corners_top_, corners_bot_);
      std::swap(top_, bot_);
    } else {
      ops_.hash_unit_row(seed_, ix0_, iy, span_, corners_top_);
      lerp_columns(top_, corners_top_);
    }
    ops_.hash_unit_row(seed_, ix0_, iy + 1, span_, corners_bot_);
    lerp_columns(bot_, corners_bot_);
    iy_ = iy;
    has_row_ = true;
  }

  void lerp_columns(float* __restrict out,
                    const float* __restrict corners) const {
    const std::int32_t* __restrict col = col_;
    const float* __restrict fx = fx_;
    for (int i = 0; i < n_; ++i) {
      const float v0 = corners[col[i]];
      const float v1 = corners[col[i] + 1];
      out[i] = v0 + fx[i] * (v1 - v0);
    }
  }

  const vision::simd::SimdOps& ops_;
  int n_;
  std::uint64_t seed_;
  float cell_;
  std::int64_t ix0_ = 0;
  int span_ = 0;
  std::int32_t* col_ = nullptr;  ///< lattice index of each column, minus ix0_
  float* fx_ = nullptr;          ///< horizontal smoothstep weight of each column
  float* top_ = nullptr;         ///< row iy_ lerped across the columns
  float* bot_ = nullptr;         ///< row iy_ + 1 lerped across the columns
  float* corners_top_ = nullptr;
  float* corners_bot_ = nullptr;
  std::int64_t iy_ = 0;
  bool has_row_ = false;
};

/// The two-octave texture over a run of columns; see NoiseOctave.
class Texture {
 public:
  template <typename Column>
  Texture(const vision::simd::SimdOps& ops, util::ScratchArena& arena, int n,
          std::uint64_t seed, Column column)
      : coarse_(ops, arena, n, seed, kCoarseCell, column),
        fine_(ops, arena, n, seed ^ kFineSeedMix, kFineCell, column) {}

  /// The lattice rows and weights of the texture at row `y`, for the
  /// SimdOps pixel-row kernels.
  vision::simd::TextureRow row_at(float y) {
    const float coarse_fy = coarse_.select_row(y);
    const float fine_fy = fine_.select_row(y);
    return {coarse_.top(), coarse_.bot(), coarse_fy,
            fine_.top(),   fine_.bot(),   fine_fy};
  }

 private:
  NoiseOctave coarse_;
  NoiseOctave fine_;
};

}  // namespace

SyntheticVideo::SyntheticVideo(const SceneConfig& config) : config_(config) {
  background_seed_ = hash3(config_.seed, 0x6261636B, 0);  // "back"
  precompute_trajectories();
}

void SyntheticVideo::precompute_trajectories() {
  struct LiveObject {
    int object_id;
    ObjectClass cls;
    float x;  // world-coordinate left
    float y;  // top
    float w;
    float h;
    float vx;
    float vy;
    std::uint64_t texture_seed;
  };

  util::Rng rng(config_.seed);
  std::vector<LiveObject> live;
  int next_id = 0;

  const auto fw = static_cast<float>(config_.width);
  const auto fh = static_cast<float>(config_.height);

  auto random_class = [&]() {
    if (config_.classes.empty()) return ObjectClass::kCar;
    return config_.classes[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(config_.classes.size()) - 1))];
  };

  auto random_speed = [&]() {
    const double lo = std::max(0.15, 0.5 * config_.speed_mean);
    const double hi = 1.5 * config_.speed_mean + 0.1;
    return rng.uniform(lo, hi);
  };

  auto make_object = [&](bool initial, double pan_x) {
    LiveObject obj{};
    obj.object_id = next_id++;
    obj.cls = random_class();
    obj.w = static_cast<float>(rng.uniform(config_.min_obj_size, config_.max_obj_size));
    obj.h = static_cast<float>(obj.w * rng.uniform(0.6, 1.1));
    obj.texture_seed = hash3(config_.seed, 0x6F626A, obj.object_id);
    const double speed = random_speed();
    if (initial) {
      obj.x = static_cast<float>(pan_x + rng.uniform(0.05, 0.75) * fw);
      obj.y = static_cast<float>(rng.uniform(0.05, 0.75) * fh);
      const double angle = rng.uniform(0.0, 2.0 * 3.14159265358979);
      obj.vx = static_cast<float>(speed * std::cos(angle));
      obj.vy = static_cast<float>(speed * std::sin(angle));
    } else {
      // Enter from the left or right edge, heading inward with a small
      // vertical component.
      const bool from_left = rng.chance(0.5);
      obj.y = static_cast<float>(rng.uniform(0.05, 0.7) * fh);
      const double vy = speed * rng.uniform(-0.3, 0.3);
      if (from_left) {
        obj.x = static_cast<float>(pan_x - obj.w + 2.0f);
        obj.vx = static_cast<float>(speed);
      } else {
        obj.x = static_cast<float>(pan_x + fw - 2.0f);
        obj.vx = static_cast<float>(-speed);
      }
      obj.vy = static_cast<float>(vy);
    }
    return obj;
  };

  double pan = 0.0;
  for (int i = 0; i < config_.initial_objects; ++i) {
    live.push_back(make_object(/*initial=*/true, pan));
  }

  // Per-episode global speed multiplier (see SceneConfig).
  const int episode_frames = std::max(
      1, static_cast<int>(config_.episode_seconds * config_.fps));
  util::Rng episode_rng = rng.fork(0xEB150DE5ULL);
  double episode_multiplier = 1.0;

  frames_.resize(static_cast<std::size_t>(config_.frame_count));
  truth_.resize(static_cast<std::size_t>(config_.frame_count));
  pan_offset_.resize(static_cast<std::size_t>(config_.frame_count));

  double speed_accum = 0.0;
  std::size_t speed_samples = 0;

  for (int f = 0; f < config_.frame_count; ++f) {
    if (f % episode_frames == 0) {
      episode_multiplier = episode_rng.uniform(config_.episode_speed_min,
                                               config_.episode_speed_max);
    }
    pan_offset_[static_cast<std::size_t>(f)] = pan;

    // Record snapshots (screen coordinates) and ground truth.
    auto& snaps = frames_[static_cast<std::size_t>(f)];
    auto& gt = truth_[static_cast<std::size_t>(f)];
    for (const LiveObject& obj : live) {
      ObjectSnapshot s{};
      s.object_id = obj.object_id;
      s.cls = obj.cls;
      s.left = static_cast<float>(obj.x - pan);
      s.top = obj.y;
      s.width = obj.w;
      s.height = obj.h;
      s.texture_seed = obj.texture_seed;
      snaps.push_back(s);

      const geometry::BoundingBox raw{s.left, s.top, s.width, s.height};
      const geometry::BoundingBox clamped =
          geometry::clamp_to(raw, {config_.width, config_.height});
      // Only objects with a meaningful visible part are ground truth.
      if (!clamped.empty() && clamped.area() >= 0.25f * raw.area()) {
        gt.push_back({s.object_id, s.cls, clamped});
      }
    }

    // Advance world state to the next frame.
    const auto em = static_cast<float>(episode_multiplier);
    for (LiveObject& obj : live) {
      obj.x += obj.vx * em;
      obj.y += obj.vy * em;
      obj.vx += static_cast<float>(rng.gaussian(0.0, config_.speed_jitter));
      obj.vy += static_cast<float>(rng.gaussian(0.0, config_.speed_jitter * 0.6));
      // Keep speed within a sane band around the configured mean.
      const float speed = std::sqrt(obj.vx * obj.vx + obj.vy * obj.vy);
      const auto max_speed = static_cast<float>(2.0 * config_.speed_mean + 0.5);
      if (speed > max_speed && speed > 0.0f) {
        obj.vx *= max_speed / speed;
        obj.vy *= max_speed / speed;
      }
      // Bounce softly off top/bottom so objects linger in view.
      if (obj.y < -obj.h * 0.5f) obj.vy = std::abs(obj.vy);
      if (obj.y + obj.h * 0.5f > fh) obj.vy = -std::abs(obj.vy);
      speed_accum += (std::sqrt(obj.vx * obj.vx + obj.vy * obj.vy) +
                      std::abs(config_.camera_pan)) *
                     episode_multiplier;
      ++speed_samples;
    }
    pan += config_.camera_pan * episode_multiplier;

    // Despawn objects fully outside the (panned) viewport by a margin.
    const float margin = 8.0f;
    std::erase_if(live, [&](const LiveObject& obj) {
      const float sl = static_cast<float>(obj.x - pan);
      return sl + obj.w < -margin || sl > fw + margin ||
             obj.y + obj.h < -margin || obj.y > fh + margin;
    });

    // Spawn new objects entering the scene.
    if (static_cast<int>(live.size()) < config_.max_objects &&
        rng.chance(config_.spawn_per_second / config_.fps)) {
      live.push_back(make_object(/*initial=*/false, pan));
    }
    // Never let the scene go empty: respawn immediately.
    if (live.empty()) {
      live.push_back(make_object(/*initial=*/true, pan));
    }
  }

  mean_true_speed_ =
      speed_samples > 0 ? speed_accum / static_cast<double>(speed_samples) : 0.0;
}

void SyntheticVideo::rasterize_object_rows(vision::ImageU8& img,
                                           const ObjectSnapshot& obj,
                                           int row_begin, int row_end,
                                           const vision::simd::SimdOps& ops) const {
  const geometry::BoundingBox box{obj.left, obj.top, obj.width, obj.height};
  const geometry::BoundingBox visible = geometry::clamp_to(box, img.size());
  if (visible.empty()) return;
  const int x0 = static_cast<int>(std::floor(visible.left));
  const int y0 =
      std::max(static_cast<int>(std::floor(visible.top)), row_begin);
  const int x1 = static_cast<int>(std::ceil(visible.right()));
  const int y1 = std::min(
      {static_cast<int>(std::ceil(visible.bottom())), row_end, img.height()});
  if (y0 >= y1) return;

  // Texture is sampled in object-local coordinates so it moves rigidly
  // (sub-pixel) with the object. Local coordinates grow with x and y, so
  // the pixels inside the object are one run of columns [xa, xb) and one
  // run of rows.
  int xa = std::max(x0, 0);
  int xb = std::min(x1, img.width());
  while (xa < xb && static_cast<float>(xa) - obj.left < 0.0f) ++xa;
  while (xb > xa && static_cast<float>(xb - 1) - obj.left >= obj.width) --xb;
  if (xa >= xb) return;

  util::ScratchArena& arena = util::ScratchArena::thread_local_arena();
  util::ScratchArena::Scope scope(arena);
  Texture texture(ops, arena, xb - xa, obj.texture_seed, [&](int i) {
    return static_cast<float>(xa + i) - obj.left;
  });

  vision::simd::ObjectRowShade shade{};
  shade.x0 = xa;
  shade.left = obj.left;
  shade.width = obj.width;
  shade.height = obj.height;
  // Base tone per object so objects stand out from each other and from the
  // background.
  shade.base = 90.0f + 110.0f * hash_unit(obj.texture_seed, 17, 23);
  shade.contrast = static_cast<float>(config_.texture_contrast);

  std::uint8_t* pixels = img.pixels().data();
  for (int y = std::max(y0, 0); y < y1; ++y) {
    shade.ly = static_cast<float>(y) - obj.top;
    if (shade.ly < 0.0f || shade.ly >= obj.height) continue;
    ops.object_row(texture.row_at(shade.ly), shade, xb - xa,
                   pixels + static_cast<std::size_t>(y) * img.width() + xa);
  }
}

vision::ImageU8 SyntheticVideo::render(int index) const {
  if (!cache_.empty()) return cache_.at(static_cast<std::size_t>(index));
  return rasterize(index);
}

void SyntheticVideo::render_into(int index, vision::ImageU8& out) const {
  if (!cache_.empty()) {
    out = cache_.at(static_cast<std::size_t>(index));
    return;
  }
  out.reset(config_.width, config_.height);
  // Row-parallel in chunks of at least kMinPixelsPerChunk pixels: every
  // pass is a pure function of (x, y), so slicing the row range is
  // bit-identical to the serial loop. A frame too small for two chunks
  // renders here, without starting the pool.
  const std::int64_t width = std::max(config_.width, 1);
  const std::int64_t grain = (kMinPixelsPerChunk + width - 1) / width;
  if (config_.height <= grain) {
    rasterize_rows(index, out, 0, config_.height);
    return;
  }
  const auto rows = [this, index, &out](std::int64_t row_begin,
                                        std::int64_t row_end) {
    rasterize_rows(index, out, static_cast<int>(row_begin),
                   static_cast<int>(row_end));
  };
  // By reference: std::function then holds the body without allocating.
  util::ThreadPool::shared().parallel_for(
      0, config_.height, grain, /*max_parallelism=*/0, std::cref(rows));
}

void SyntheticVideo::precache() {
  if (!cache_.empty()) return;
  std::vector<vision::ImageU8> cache(static_cast<std::size_t>(config_.frame_count));
  // Frame-parallel: frames are independent lookups into the precomputed
  // trajectories, so any schedule produces bit-identical caches (pinned by
  // SyntheticVideoTest.ParallelPrecacheBitIdenticalToSerial).
  util::ThreadPool::shared().parallel_for(
      0, config_.frame_count, /*grain=*/1, /*max_parallelism=*/0,
      [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t f = begin; f < end; ++f) {
          cache[static_cast<std::size_t>(f)] = rasterize(static_cast<int>(f));
        }
      });
  cache_ = std::move(cache);
}

vision::ImageU8 SyntheticVideo::rasterize(int index) const {
  vision::ImageU8 img(config_.width, config_.height);
  rasterize_rows(index, img, 0, config_.height);
  return img;
}

void SyntheticVideo::render_pass(int index, RenderPass pass,
                                 vision::ImageU8& img, int row_begin,
                                 int row_end, vision::simd::Isa isa) const {
  if (img.width() != config_.width || img.height() != config_.height) {
    throw std::invalid_argument("render_pass: image not sized to the frame");
  }
  if (row_begin < 0 || row_begin > row_end || row_end > config_.height) {
    throw std::invalid_argument("render_pass: rows outside the frame");
  }
  vision::KernelConfig kernels;
  kernels.isa = isa;
  rasterize_pass(index, pass, img, row_begin, row_end,
                 vision::simd::ops_for(kernels));
}

void SyntheticVideo::rasterize_rows(int index, vision::ImageU8& img,
                                    int row_begin, int row_end) const {
  // Resolved per call, so ADAVP_FORCE_ISA reaches the camera too.
  const vision::simd::SimdOps& ops = vision::simd::ops_for(vision::KernelConfig{});
  for (const RenderPass pass :
       {RenderPass::kBackground, RenderPass::kObjects, RenderPass::kSensorNoise}) {
    rasterize_pass(index, pass, img, row_begin, row_end, ops);
  }
}

void SyntheticVideo::rasterize_pass(int index, RenderPass pass,
                                    vision::ImageU8& img, int row_begin,
                                    int row_end,
                                    const vision::simd::SimdOps& ops) const {
  const int width = config_.width;
  const auto row_at = [&](int y) {
    return img.pixels().data() + static_cast<std::size_t>(y) * width;
  };
  switch (pass) {
    case RenderPass::kBackground: {
      // World-anchored noise that scrolls with the camera pan.
      const auto pan =
          static_cast<float>(pan_offset_.at(static_cast<std::size_t>(index)));
      util::ScratchArena& arena = util::ScratchArena::thread_local_arena();
      util::ScratchArena::Scope scope(arena);
      Texture texture(ops, arena, width, background_seed_, [&](int x) {
        return static_cast<float>(x) + pan;
      });
      for (int y = row_begin; y < row_end; ++y) {
        ops.background_row(texture.row_at(static_cast<float>(y)), width,
                           row_at(y));
      }
      break;
    }
    case RenderPass::kObjects:
      for (const auto& obj : frames_.at(static_cast<std::size_t>(index))) {
        rasterize_object_rows(img, obj, row_begin, row_end, ops);
      }
      break;
    case RenderPass::kSensorNoise:
      // Deterministic per-frame sensor noise.
      if (config_.noise_sigma > 0.0) {
        const std::uint64_t noise_seed = hash3(config_.seed, 0x6E6F6973, index);
        const float amp = 3.4f * static_cast<float>(config_.noise_sigma);
        for (int y = row_begin; y < row_end; ++y) {
          ops.noise_row(noise_seed, 0, y, width, amp, row_at(y));
        }
      }
      break;
  }
}

const std::vector<GroundTruthObject>& SyntheticVideo::ground_truth(int index) const {
  return truth_.at(static_cast<std::size_t>(index));
}

}  // namespace adavp::video
