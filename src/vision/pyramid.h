#pragma once

#include <cstdint>
#include <memory>

#include "geometry/point.h"
#include "vision/image.h"
#include "vision/kernel_config.h"

namespace adavp::vision {

/// Gaussian image pyramid used by pyramidal Lucas-Kanade optical flow,
/// built only where LK reads it (DESIGN.md §7).
///
/// Level 0 is the pyramid's own copy of the frame's bytes, so a pyramid
/// outlives its frame. Each higher level halves both dimensions: it is
/// `downsample2` of the level below, level 1 reading level 0 as
/// `to_float`. Construction stops early when a level would drop below
/// `min_dimension` (at least 1) pixels on either side.
///
/// Levels 1 and up are whole-size float planes filled lazily, in tiles
/// of `kTileWidth` x `kTileHeight` pixels: `materialize` builds the tiles
/// under a rectangle, and first the tiles of the level below that those
/// read. Every value it makes readable equals the whole-frame value bit
/// for bit. A thread claims an unbuilt tile with a compare-and-swap on its
/// state and publishes it with a release store, so concurrent readers
/// (LK's point-parallel workers) may call `materialize` at will and build
/// different tiles at once; `rebuild` must not race them.
class ImagePyramid {
 public:
  /// Tile shape: 32 floats is a whole number of cache lines and of AVX2
  /// vectors, and adjacent tiles built together share their row kernel
  /// calls. A level-L window pulls in the tiles of level L - 1 under its
  /// tiles, so small tiles keep that spill small: at 720p, LK builds about
  /// 40% of level 1 per step where 64 x 16 tiles built about 63%.
  static constexpr int kTileWidth = 32;
  static constexpr int kTileHeight = 8;

  ImagePyramid();
  ImagePyramid(ImagePyramid&&) noexcept;
  ImagePyramid& operator=(ImagePyramid&&) noexcept;
  ~ImagePyramid();

  /// A pyramid of at most `levels` levels over `base`; see `rebuild`.
  explicit ImagePyramid(const ImageU8& base, int levels, int min_dimension = 16,
                        const KernelConfig& config = {});

  /// Copies `base` into level 0 and marks every tile of the higher levels
  /// unbuilt. A pyramid rebuilt at the same (or a smaller) size allocates
  /// nothing. Tiles are built with `config`'s ISA tier on whichever thread
  /// asks for them; the threads setting does not apply.
  void rebuild(const ImageU8& base, int levels, int min_dimension = 16,
               const KernelConfig& config = {});

  int levels() const { return built_; }
  bool empty() const { return built_ == 0; }
  geometry::Size level_size(int i) const;

  /// Level 0, row-major; `simd::kLkByteOverread` bytes past its last pixel
  /// are readable too.
  const std::uint8_t* base_pixels() const;

  /// Level `i >= 1`, row-major. Only materialized values are defined.
  const float* level_pixels(int i) const;

  /// Makes every value of level `i` in columns [x0, x1] and rows [y0, y1]
  /// (inclusive, clamped to the level) readable. Level 0 always is.
  void materialize(int i, int x0, int y0, int x1, int y1) const;

  /// Tiles of level `i` built since the last call (or `rebuild`).
  int take_tiles_built(int i) const;

  /// Test and bench seam: builds every tile of every level, the work of
  /// an eager whole-frame build.
  void materialize_all() const;

 private:
  struct State;
  std::unique_ptr<State> state_;  ///< storage, kept across rebuilds
  int built_ = 0;
};

}  // namespace adavp::vision
