#include "vision/pyramid.h"

#include "obs/telemetry.h"
#include "vision/image_ops.h"

namespace adavp::vision {

ImagePyramid::ImagePyramid(const ImageU8& base, int levels, int min_dimension,
                           const KernelConfig& config) {
  rebuild(base, levels, min_dimension, config);
}

void ImagePyramid::rebuild(const ImageU8& base, int levels, int min_dimension,
                           const KernelConfig& config) {
  built_ = 0;
  if (base.empty() || levels <= 0) return;
  obs::ScopedSpan span("pyramid_build", "vision", levels, "levels");
  if (levels_.empty()) levels_.emplace_back();
  to_float_into(base, levels_[0], config);
  built_ = 1;
  while (built_ < levels) {
    const ImageF32& prev = levels_[static_cast<std::size_t>(built_ - 1)];
    if (prev.width() / 2 < min_dimension || prev.height() / 2 < min_dimension) {
      break;
    }
    if (levels_.size() == static_cast<std::size_t>(built_)) levels_.emplace_back();
    downsample2_into(levels_[static_cast<std::size_t>(built_ - 1)],
                     levels_[static_cast<std::size_t>(built_)], config);
    ++built_;
  }
  publish_pool_metrics();
}

}  // namespace adavp::vision
