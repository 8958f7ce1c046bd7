#pragma once

#include "vision/image.h"
#include "vision/kernel_config.h"

namespace adavp::vision {

/// Bilinearly samples `img` at sub-pixel position (x, y) with replicate
/// borders. Works for any real coordinates.
float sample_bilinear(const ImageF32& img, float x, float y);
float sample_bilinear(const ImageU8& img, float x, float y);

/// Converts an 8-bit image to float (values keep their 0..255 range).
ImageF32 to_float(const ImageU8& img, const KernelConfig& config = {});

/// `to_float` into `out`, which is reshaped to `img`'s size and keeps its
/// pixel storage when the capacity suffices (no heap traffic on reuse).
void to_float_into(const ImageU8& img, ImageF32& out,
                   const KernelConfig& config = {});

/// Converts a float image back to 8-bit with clamping to [0,255].
ImageU8 to_u8(const ImageF32& img);

/// Separable 3x3 binomial (Gaussian-like, kernel [1 2 1]/4) smoothing.
ImageF32 smooth3(const ImageF32& img, const KernelConfig& config = {});

/// 5x5 Gaussian smoothing (separable [1 4 6 4 1]/16).
ImageF32 smooth5(const ImageF32& img, const KernelConfig& config = {});

/// Horizontal/vertical image derivatives using the 3x3 Sobel operator,
/// scaled by 1/8 so that a unit intensity ramp has unit gradient. The
/// outputs are reshaped in place, reusing their storage.
void sobel(const ImageF32& img, ImageF32& grad_x, ImageF32& grad_y,
           const KernelConfig& config = {});

/// `sobel` over a caller-owned `w` x `h` row-major plane: `grad_x` and
/// `grad_y` each hold `w * h` floats. Borders replicate this plane's own
/// edges, so a tile of a larger image gets the image's values only where
/// the 3x3 stencil stays inside the tile or the tile edge is the image's.
void sobel_plane(const float* src, int w, int h, float* grad_x, float* grad_y,
                 const KernelConfig& config = {});

/// Downsamples by a factor of two (2x2 mean after 3x3 smoothing), as used
/// when building optical-flow pyramids. Output dimensions are
/// ceil(w/2) x ceil(h/2); inputs of dimension < 2 are returned unchanged.
///
/// Smoothing and decimation are fused into one pass over the output rows
/// (rolling 4-row window of the horizontal filter, no full-resolution
/// intermediate image); the arithmetic matches the unfused
/// smooth3-then-average formulation term for term, so results are
/// bit-identical to the historical implementation.
ImageF32 downsample2(const ImageF32& img, const KernelConfig& config = {});

/// `downsample2` into `out` (which must not be `img`), reusing its storage.
void downsample2_into(const ImageF32& img, ImageF32& out,
                      const KernelConfig& config = {});

/// Mean absolute pixel difference between two images of identical size.
/// Used by tests and by the scene-change detector in the MARLIN baseline.
double mean_abs_diff(const ImageU8& a, const ImageU8& b);

}  // namespace adavp::vision
