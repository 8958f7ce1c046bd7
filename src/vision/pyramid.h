#pragma once

#include <cassert>
#include <vector>

#include "vision/image.h"
#include "vision/kernel_config.h"

namespace adavp::vision {

/// Gaussian image pyramid used by pyramidal Lucas-Kanade optical flow.
///
/// Level 0 is the full-resolution image (converted to float); each higher
/// level halves both dimensions. Construction stops early when a level
/// would drop below `min_dimension` pixels on either side.
class ImagePyramid {
 public:
  ImagePyramid() = default;

  /// Builds a pyramid with at most `levels` levels. Levels depend on each
  /// other, so parallelism comes from the row-parallel conversion and
  /// downsampling kernels configured by `config`.
  explicit ImagePyramid(const ImageU8& base, int levels, int min_dimension = 16,
                        const KernelConfig& config = {});

  /// Rebuilds the pyramid for `base` into the existing level storage: a
  /// pyramid rebuilt at the same (or a smaller) size allocates nothing.
  /// Same levels, bit for bit, as a freshly constructed pyramid. Storage
  /// of levels beyond the new count is kept for the next rebuild.
  void rebuild(const ImageU8& base, int levels, int min_dimension = 16,
               const KernelConfig& config = {});

  int levels() const { return built_; }
  const ImageF32& level(int i) const {
    assert(i >= 0 && i < built_);
    return levels_.at(static_cast<std::size_t>(i));
  }
  bool empty() const { return built_ == 0; }

 private:
  std::vector<ImageF32> levels_;  ///< storage; only the first built_ are live
  int built_ = 0;
};

}  // namespace adavp::vision
