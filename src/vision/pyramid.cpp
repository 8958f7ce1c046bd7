#include "vision/pyramid.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstring>
#include <deque>
#include <thread>
#include <utility>

#include "obs/telemetry.h"
#include "vision/image_ops.h"
#include "vision/simd/dispatch.h"

namespace adavp::vision {

struct ImagePyramid::State {
  /// A tile's life between two rebuilds: unbuilt, claimed by the one
  /// thread that builds it, then ready for every reader.
  enum TileState : std::uint8_t { kUnbuilt = 0, kBuilding = 1, kReady = 2 };

  struct Level {
    int width = 0;
    int height = 0;
    int tiles_x = 0;
    int tiles_y = 0;
    float* plane = nullptr;  ///< levels >= 1, in `storage`
    std::unique_ptr<std::atomic<std::uint8_t>[]> tiles;  ///< TileState
    std::size_t tiles_capacity = 0;
    std::atomic<int> tiles_built{0};
  };

  std::atomic<std::uint8_t>& tile(int i, int tx, int ty) {
    Level& lv = levels[static_cast<std::size_t>(i)];
    return lv.tiles[static_cast<std::size_t>(ty) * lv.tiles_x + tx];
  }

  /// True when this thread claims tile (tx, ty) of level i to build it.
  /// Sets `held` when another thread holds the claim.
  bool claim(int i, int tx, int ty, bool& held) {
    std::atomic<std::uint8_t>& t = tile(i, tx, ty);
    std::uint8_t state = t.load(std::memory_order_acquire);
    if (state == kReady) return false;
    if (state == kUnbuilt &&
        t.compare_exchange_strong(state, kBuilding, std::memory_order_acquire)) {
      return true;
    }
    if (state != kReady) held = true;
    return false;
  }

  /// Builds tiles tx0..tx1 of tile row ty of level `i >= 1`, all claimed by
  /// this thread, in one pass: first the tiles of level i - 1 under the
  /// source rectangle downsample2_rect documents, then the run. A run
  /// shares its halo rows and its per-row kernel calls.
  void build_run(int i, int tx0, int tx1, int ty) {
    Level& lv = levels[static_cast<std::size_t>(i)];
    const Level& src = levels[static_cast<std::size_t>(i - 1)];
    const int x0 = tx0 * kTileWidth;
    const int y0 = ty * kTileHeight;
    const int x1 = std::min((tx1 + 1) * kTileWidth, lv.width);
    const int y1 = std::min(y0 + kTileHeight, lv.height);
    try {
      if (i == 1) {
        downsample2_rect(base, src.width, src.height, lv.plane, x0,
                         y0, x1, y1, *ops);
      } else {
        materialize(i - 1, std::max(2 * x0 - 1, 0), std::max(2 * y0 - 1, 0),
                    std::min(2 * x1, src.width - 1),
                    std::min(2 * y1, src.height - 1));
        downsample2_rect(src.plane, src.width, src.height, lv.plane,
                         x0, y0, x1, y1, *ops);
      }
    } catch (...) {
      // Free the claims, so no thread waits on them forever.
      for (int tx = tx0; tx <= tx1; ++tx) {
        tile(i, tx, ty).store(kUnbuilt, std::memory_order_release);
      }
      throw;
    }
    for (int tx = tx0; tx <= tx1; ++tx) {
      tile(i, tx, ty).store(kReady, std::memory_order_release);
    }
    lv.tiles_built.fetch_add(tx1 - tx0 + 1, std::memory_order_relaxed);
  }

  /// Makes the tiles of level `i >= 1` under the clamped, non-empty
  /// rectangle ready. A thread claims what it can and builds each run of
  /// adjacent claimed tiles in one pass; then it waits for the tiles other
  /// threads hold, and takes over any whose builder gave its claim back.
  /// A thread waits only while it holds no claim, or while building tiles
  /// of the level above, so waits go down a level and cannot form a cycle.
  void materialize(int i, int x0, int y0, int x1, int y1) {
    const int tx0 = x0 / kTileWidth;
    const int tx1 = x1 / kTileWidth;
    const int ty0 = y0 / kTileHeight;
    const int ty1 = y1 / kTileHeight;
    bool held = false;
    for (int ty = ty0; ty <= ty1; ++ty) {
      int run = -1;  // first tile of the current run of claimed tiles
      for (int tx = tx0; tx <= tx1; ++tx) {
        if (claim(i, tx, ty, held)) {
          if (run < 0) run = tx;
        } else if (run >= 0) {
          build_run(i, run, tx - 1, ty);
          run = -1;
        }
      }
      if (run >= 0) build_run(i, run, tx1, ty);
    }
    if (!held) return;
    for (int ty = ty0; ty <= ty1; ++ty) {
      for (int tx = tx0; tx <= tx1; ++tx) {
        while (tile(i, tx, ty).load(std::memory_order_acquire) != kReady) {
          bool unused = false;
          if (claim(i, tx, ty, unused)) {
            build_run(i, tx, tx, ty);
          } else {
            std::this_thread::yield();
          }
        }
      }
    }
  }

  // One block for level 0 (plus the over-read pad) and every float
  // plane, allocated uninitialized, so pages no tile writes stay out of
  // the resident set; grown, never shrunk. One block, not one per level,
  // keeps the allocator's own thresholds where a whole frame-size buffer
  // sets them: freed pyramid-size blocks are reused instead of returned
  // to the system and faulted in again.
  std::unique_ptr<std::byte[]> storage;
  std::size_t storage_capacity = 0;
  std::uint8_t* base = nullptr;
  // Storage for every level ever built. A deque, because it grows without
  // moving the levels (whose atomics cannot move).
  std::deque<Level> levels;
  const simd::SimdOps* ops = nullptr;
};

ImagePyramid::ImagePyramid() = default;
// A moved-from pyramid is empty: it has no storage left to read.
ImagePyramid::ImagePyramid(ImagePyramid&& other) noexcept
    : state_(std::move(other.state_)), built_(std::exchange(other.built_, 0)) {}
ImagePyramid& ImagePyramid::operator=(ImagePyramid&& other) noexcept {
  state_ = std::move(other.state_);
  built_ = std::exchange(other.built_, 0);
  return *this;
}
ImagePyramid::~ImagePyramid() = default;

ImagePyramid::ImagePyramid(const ImageU8& base, int levels, int min_dimension,
                           const KernelConfig& config) {
  rebuild(base, levels, min_dimension, config);
}

void ImagePyramid::rebuild(const ImageU8& base, int levels, int min_dimension,
                           const KernelConfig& config) {
  built_ = 0;
  if (base.empty() || levels <= 0) return;
  obs::ScopedSpan span("pyramid_build", "vision", levels, "levels");
  if (state_ == nullptr) state_ = std::make_unique<State>();
  State& s = *state_;
  s.ops = &simd::ops_for(config);

  if (s.levels.empty()) s.levels.emplace_back();
  s.levels[0].width = base.width();
  s.levels[0].height = base.height();
  built_ = 1;

  const int min_side = std::max(1, min_dimension);
  while (built_ < levels) {
    const State::Level& below = s.levels[static_cast<std::size_t>(built_ - 1)];
    if (below.width / 2 < min_side || below.height / 2 < min_side) break;
    const int w = (below.width + 1) / 2;
    const int h = (below.height + 1) / 2;
    if (s.levels.size() == static_cast<std::size_t>(built_)) s.levels.emplace_back();
    State::Level& lv = s.levels[static_cast<std::size_t>(built_)];
    lv.width = w;
    lv.height = h;
    lv.tiles_x = (w + kTileWidth - 1) / kTileWidth;
    lv.tiles_y = (h + kTileHeight - 1) / kTileHeight;
    const std::size_t tiles = static_cast<std::size_t>(lv.tiles_x) * lv.tiles_y;
    if (lv.tiles_capacity < tiles) {
      lv.tiles.reset(new std::atomic<std::uint8_t>[tiles]);
      lv.tiles_capacity = tiles;
    }
    for (std::size_t k = 0; k < tiles; ++k) {
      lv.tiles[k].store(State::kUnbuilt, std::memory_order_relaxed);
    }
    lv.tiles_built.store(0, std::memory_order_relaxed);
    ++built_;
  }

  // Level 0 and its pad, then each plane at a 64-byte offset.
  auto round_up = [](std::size_t n) { return (n + 63) / 64 * 64; };
  auto plane_bytes = [&](int i) {
    const State::Level& lv = s.levels[static_cast<std::size_t>(i)];
    return round_up(sizeof(float) * static_cast<std::size_t>(lv.width) * lv.height);
  };
  const std::size_t bytes = base.pixels().size();
  const std::size_t base_bytes = round_up(bytes + simd::kLkByteOverread);
  std::size_t total = base_bytes;
  for (int i = 1; i < built_; ++i) total += plane_bytes(i);
  if (s.storage_capacity < total) {
    s.storage.reset(new std::byte[total]);
    s.storage_capacity = total;
  }
  s.base = reinterpret_cast<std::uint8_t*>(s.storage.get());
  std::size_t offset = base_bytes;
  for (int i = 1; i < built_; ++i) {
    s.levels[static_cast<std::size_t>(i)].plane =
        reinterpret_cast<float*>(s.storage.get() + offset);
    offset += plane_bytes(i);
  }
  std::memcpy(s.base, base.pixels().data(), bytes);
  std::memset(s.base + bytes, 0, simd::kLkByteOverread);
  publish_pool_metrics();
}

geometry::Size ImagePyramid::level_size(int i) const {
  assert(i >= 0 && i < built_);
  const State::Level& lv = state_->levels[static_cast<std::size_t>(i)];
  return {lv.width, lv.height};
}

const std::uint8_t* ImagePyramid::base_pixels() const {
  assert(built_ > 0);
  return state_->base;
}

const float* ImagePyramid::level_pixels(int i) const {
  assert(i >= 1 && i < built_);
  return state_->levels[static_cast<std::size_t>(i)].plane;
}

void ImagePyramid::materialize(int i, int x0, int y0, int x1, int y1) const {
  assert(i >= 0 && i < built_);
  if (i == 0) return;
  const State::Level& lv = state_->levels[static_cast<std::size_t>(i)];
  x0 = std::max(x0, 0);
  y0 = std::max(y0, 0);
  x1 = std::min(x1, lv.width - 1);
  y1 = std::min(y1, lv.height - 1);
  if (x0 > x1 || y0 > y1) return;
  state_->materialize(i, x0, y0, x1, y1);
}

int ImagePyramid::take_tiles_built(int i) const {
  assert(i >= 0 && i < built_);
  if (i == 0) return 0;
  return state_->levels[static_cast<std::size_t>(i)].tiles_built.exchange(
      0, std::memory_order_relaxed);
}

void ImagePyramid::materialize_all() const {
  for (int i = 1; i < built_; ++i) {
    const geometry::Size size = level_size(i);
    materialize(i, 0, 0, size.width - 1, size.height - 1);
  }
}

}  // namespace adavp::vision
