#pragma once

#include <memory>
#include <vector>

#include "detect/detection.h"
#include "metrics/matching.h"
#include "vision/image.h"

namespace adavp::track {

struct TrackStepStats;  // defined in tracker.h

/// The object tracker as the pipelines drive it. ObjectTracker (good
/// features + Lucas-Kanade, the paper's choice in §IV-C) is the one
/// implementation; FaultyTracker decorates it through this interface.
class TrackerInterface {
 public:
  virtual ~TrackerInterface() = default;

  /// Re-arms the tracker from a detected frame.
  virtual void set_reference(const vision::ImageU8& frame,
                             const std::vector<detect::Detection>& detections) = 0;

  /// Advances all objects into `frame`, `frame_gap` frames ahead.
  virtual TrackStepStats track_to(const vision::ImageU8& frame, int frame_gap) = 0;

  /// Current object boxes + labels.
  virtual std::vector<metrics::LabeledBox> current_boxes() const = 0;

  virtual int object_count() const = 0;
  virtual int live_feature_count() const = 0;
};

}  // namespace adavp::track
