#pragma once

#include <vector>

#include "detect/detection.h"
#include "metrics/matching.h"
#include "track/tracker_interface.h"
#include "vision/good_features.h"
#include "vision/optical_flow.h"
#include "vision/pyramid.h"

namespace adavp::track {

/// Tuning knobs of the object tracker.
struct TrackerParams {
  int max_features = 80;          ///< global good-feature budget per reference
  int max_features_per_box = 12;  ///< per-object budget
  double quality_level = 0.03;
  double min_feature_distance = 5.0;
  float mask_shrink = 2.0f;       ///< inset of the box mask, pixels
  int pyramid_levels = 3;
  float max_step_displacement = 30.0f;  ///< reject flow jumps beyond this
  /// §V fast path: "for each bounding box, we find one point inside it and
  /// calculate the moving vector of this point to shift the bounding box".
  /// Cheaper but fragile (bench_ablations quantifies the accuracy cost).
  bool single_point_per_box = false;
  /// Forward-backward validation: track each feature back to the previous
  /// frame and drop it when the round trip misses its origin by more than
  /// `fb_threshold` pixels. Extra robustness at ~2x flow cost (extension).
  bool forward_backward_check = false;
  float fb_threshold = 1.0f;
  vision::LucasKanadeParams lk;
  /// Kernel settings of the tracking hot path. The ISA tier applies to
  /// Shi-Tomasi, the pyramid tiles and LK; the thread settings apply to
  /// LK's points, which run on the shared kernel pool at hardware width by
  /// default (`num_threads = 1` runs them on the caller). Shi-Tomasi's box
  /// tiles run on the calling thread, and a pyramid tile is built by the
  /// LK worker that first reads it. Every setting gives bit-identical
  /// results.
  vision::KernelConfig kernels;
};

/// Statistics of one tracking step, consumed by the latency model and by
/// the model-adaptation module (Eq. 3 needs the summed feature motion).
struct TrackStepStats {
  int frame_gap = 1;            ///< frames advanced by this step (j - i)
  int features_attempted = 0;
  int features_tracked = 0;
  double displacement_sum = 0.0;  ///< sum of |feature motion| over the step
  int live_objects = 0;
};

/// The paper's object tracker (§IV-C): good features extracted inside the
/// DNN-detected boxes of the reference frame, then tracked frame-to-frame
/// with pyramidal Lucas-Kanade; each object's box is shifted by the mean
/// motion vector of its own features ("we calculate the moving vector for
/// each object", not a global average).
///
/// Tracking error accumulates naturally: features drift, die off at
/// occlusions/exits, and newly appearing objects are invisible to the
/// tracker until the next detection — exactly the degradation the paper's
/// Fig. 2 measures.
class ObjectTracker : public TrackerInterface {
 public:
  explicit ObjectTracker(TrackerParams params = {});

  /// Re-initializes the tracker from a detected frame: builds the box
  /// mask, extracts good features inside the boxes, and copies the frame
  /// into the reference pyramid, whose upper levels LK builds where it
  /// reads them.
  void set_reference(const vision::ImageU8& frame,
                     const std::vector<detect::Detection>& detections) override;

  /// Tracks all objects into `frame`, which lies `frame_gap` frames after
  /// the previously processed one (frame selection skips frames, so the
  /// gap may exceed 1). Returns per-step stats.
  TrackStepStats track_to(const vision::ImageU8& frame, int frame_gap) override;

  /// Current object boxes + labels (the tracker's per-frame output).
  std::vector<metrics::LabeledBox> current_boxes() const override;

  int object_count() const override { return static_cast<int>(objects_.size()); }
  int live_feature_count() const override;
  bool has_reference() const { return !prev_pyramid_.empty(); }

 private:
  struct TrackedObject {
    video::ObjectClass cls;
    geometry::BoundingBox box;
    std::vector<std::size_t> features;  ///< indices into features_/alive_
    bool lost = false;
  };

  TrackerParams params_;
  std::vector<TrackedObject> objects_;
  std::vector<geometry::Point2f> features_;
  std::vector<bool> alive_;
  vision::ImagePyramid prev_pyramid_;
  vision::ImagePyramid next_pyramid_;  // track_to's target, swapped into prev_
  // set_reference's scratch: the detection boxes and their feature mask.
  std::vector<geometry::BoundingBox> mask_boxes_;
  vision::ImageU8 mask_;
  // track_to's scratch, cleared per call, so a step allocates nothing once
  // the vectors have grown: the live features (indices into features_ and
  // points), LK's forward and backward results, every feature's motion,
  // and one object's motions for their median.
  std::vector<std::size_t> live_idx_;
  std::vector<geometry::Point2f> live_pts_;
  std::vector<geometry::Point2f> next_pts_;
  std::vector<vision::FlowStatus> status_;
  std::vector<geometry::Point2f> back_pts_;
  std::vector<vision::FlowStatus> back_status_;
  std::vector<geometry::Point2f> deltas_;
  std::vector<float> dxs_;
  std::vector<float> dys_;
  geometry::Size frame_size_{};  // of the last processed frame
};

}  // namespace adavp::track
