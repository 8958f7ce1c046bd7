#pragma once

#include <vector>

#include "geometry/point.h"
#include "vision/kernel_config.h"
#include "vision/pyramid.h"

namespace adavp::vision {

/// Parameters of the pyramidal Lucas-Kanade tracker (mirrors OpenCV's
/// calcOpticalFlowPyrLK knobs used by the paper).
struct LucasKanadeParams {
  int window_radius = 7;        ///< integration window is (2r+1)^2 pixels
  int max_iterations = 20;      ///< Newton iterations per pyramid level
  float epsilon = 0.03f;        ///< stop when the update norm drops below this
  float min_eigen_threshold = 1e-4f;  ///< reject ill-conditioned windows
};

/// Per-point tracking outcome.
struct FlowStatus {
  bool tracked = false;   ///< true when the point was followed successfully
  float error = 0.0f;     ///< mean absolute residual over the window
};

/// Tracks `points` (given in full-resolution coordinates of `prev`) into
/// the `next` image using iterative pyramidal Lucas-Kanade.
///
/// Writes one output position and one status per input point. Points whose
/// window drifts outside the image, or whose spatial-gradient matrix is
/// ill-conditioned (textureless window), are flagged `tracked == false`;
/// their output position is the best estimate reached before failure.
///
/// Points are independent: this is the vision layer's one parallel
/// region. `kernels.num_threads` splits them on the shared util::ThreadPool
/// one point per chunk (`1` runs them on the calling thread without
/// touching the pool); every thread count produces bit-identical results.
/// The pyramid tiles a window reads are built by the thread that tracks
/// it. Per-thread gradient caches come from the thread's ScratchArena; a
/// call with warm pyramids and reused output vectors performs no heap
/// allocation.
void calc_optical_flow_pyr_lk(const ImagePyramid& prev, const ImagePyramid& next,
                              const std::vector<geometry::Point2f>& points,
                              std::vector<geometry::Point2f>& out_points,
                              std::vector<FlowStatus>& out_status,
                              const LucasKanadeParams& params = {},
                              const KernelConfig& kernels = {});

}  // namespace adavp::vision
