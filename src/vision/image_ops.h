#pragma once

#include <cstdint>

#include "vision/image.h"
#include "vision/kernel_config.h"

namespace adavp::vision {

namespace simd {
struct SimdOps;
}  // namespace simd

/// Bilinearly samples `img` at sub-pixel position (x, y) with replicate
/// borders. Works for any real coordinates.
float sample_bilinear(const ImageF32& img, float x, float y);
float sample_bilinear(const ImageU8& img, float x, float y);

/// `sample_bilinear` over a caller-owned `w` x `h` row-major plane. A byte
/// plane samples the same floats as its `to_float` copy.
float sample_bilinear(const float* pix, int w, int h, float x, float y);
float sample_bilinear(const std::uint8_t* pix, int w, int h, float x, float y);

/// Converts an 8-bit image to float (values keep their 0..255 range).
ImageF32 to_float(const ImageU8& img, const KernelConfig& config = {});

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

/// Output columns [x0, x1) and rows [y0, y1) of `downsample2` of the
/// `w` x `h` plane `src` (w, h >= 2), written into `dst`, the whole
/// ceil(w/2)-wide output plane; the rest of `dst` is left alone. Reads
/// `src` only in columns [max(2*x0 - 1, 0), min(2*x1, w - 1)] and rows
/// [max(2*y0 - 1, 0), min(2*y1, h - 1)], and each value equals the
/// whole-plane one bit for bit: same kernels, same edge clamps. A byte
/// plane reads as its `to_float` copy. Runs on the calling thread with
/// `ops`' tier; its scratch rows come from the thread's ScratchArena.
void downsample2_rect(const float* src, int w, int h, float* dst, int x0,
                      int y0, int x1, int y1, const simd::SimdOps& ops);
void downsample2_rect(const std::uint8_t* src, int w, int h, float* dst, int x0,
                      int y0, int x1, int y1, const simd::SimdOps& ops);

/// Mean absolute pixel difference between two images of identical size.
/// Used by tests and by the scene-change detector in the MARLIN baseline.
double mean_abs_diff(const ImageU8& a, const ImageU8& b);

}  // namespace adavp::vision
