#pragma once

#include <optional>
#include <vector>

#include "geometry/box.h"
#include "geometry/point.h"
#include "vision/image.h"
#include "vision/kernel_config.h"

namespace adavp::vision {

/// Parameters for the Shi-Tomasi "good features to track" detector
/// (mirrors OpenCV's goodFeaturesToTrack knobs used by the paper).
struct GoodFeaturesParams {
  int max_corners = 100;        ///< keep at most this many corners
  double quality_level = 0.01;  ///< accept score >= quality * best score
  double min_distance = 7.0;    ///< minimum spacing between kept corners
  int block_size = 3;           ///< structure-tensor window radius-ish (3 => 3x3)
  /// ISA tier of the score kernels; `num_threads` does not apply. The box
  /// tiles are scored on the calling thread: dispatching them to the pool
  /// measured slower at 384x216 and at 1280x720.
  KernelConfig kernels;
};

/// Shi-Tomasi corner response: the smaller eigenvalue of the 2x2 structure
/// tensor accumulated over a block around each pixel, on the calling
/// thread with `config`'s ISA tier. The whole-frame oracle the tiled
/// detector is tested against.
ImageF32 min_eigenvalue_map(const ImageF32& img, int block_size,
                            const KernelConfig& config = {});

/// Detects good features to track in `img`.
///
/// When `mask` is provided (same size as `img`), only pixels with
/// mask != 0 are candidates — the paper masks to the interior of detected
/// bounding boxes so that features (and compute) stay on the tracked
/// objects. The scores are computed only on tiles around the mask's
/// rectangles, in per-thread scratch sized to the tiles; the corners are
/// bit-identical to scoring the whole frame. Returned corners are sorted
/// by decreasing corner response and spaced at least `min_distance` apart
/// (greedy non-maximum suppression).
std::vector<geometry::Point2f> good_features_to_track(
    const ImageU8& img, const GoodFeaturesParams& params,
    const ImageU8* mask = nullptr);

/// Builds a mask image that is non-zero exactly inside the given boxes
/// (clamped to the image bounds). `shrink` optionally insets each box by a
/// margin so features stay away from object borders.
ImageU8 boxes_mask(const geometry::Size& size,
                   const std::vector<geometry::BoundingBox>& boxes,
                   float shrink = 0.0f);

/// `boxes_mask` into `out`, reusing its pixel storage: a caller that keeps
/// `out` across frames builds every mask after the first without touching
/// the heap.
void boxes_mask_into(const geometry::Size& size,
                     const std::vector<geometry::BoundingBox>& boxes,
                     float shrink, ImageU8& out);

}  // namespace adavp::vision
