#include "vision/simd/kernels.h"
#include "vision/simd/kernels_ref.h"

namespace adavp::vision::simd {

// The scalar tier IS the reference: every entry is the historical loop.

const SimdOps* scalar_ops() {
  static const SimdOps ops = {
      Isa::kScalar,        ref::filter_row,
      ref::sobel_row,      ref::downsample_row, ref::min_eig_row,
      ref::lk_sample_window<float>, ref::lk_sample_patch<float>,
      ref::lk_sample_window<std::uint8_t>, ref::lk_sample_patch<std::uint8_t>,
      ref::hash_unit_row,
      ref::background_row, ref::object_row,   ref::noise_row,
  };
  return &ops;
}

}  // namespace adavp::vision::simd
