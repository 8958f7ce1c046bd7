#include "track/tracker.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/telemetry.h"

namespace adavp::track {

namespace {

/// True when `pyramid` was built from `frame`. Level 0 is `float(pixel)`
/// of its frame, exactly, so the comparison needs no copy of the frame.
/// Each row is compared as a whole, a loop the compiler vectorizes.
bool built_from(const vision::ImagePyramid& pyramid, const vision::ImageU8& frame) {
  if (pyramid.empty()) return false;
  const vision::ImageF32& base = pyramid.level(0);
  const int w = frame.width();
  if (base.width() != w || base.height() != frame.height()) return false;
  for (int y = 0; y < frame.height(); ++y) {
    const std::uint8_t* pixels = &frame.at(0, y);
    const float* floats = &base.at(0, y);
    int differ = 0;
    for (int x = 0; x < w; ++x) differ |= static_cast<float>(pixels[x]) != floats[x];
    if (differ != 0) return false;
  }
  return true;
}

}  // namespace

ObjectTracker::ObjectTracker(TrackerParams params) : params_(std::move(params)) {}

void ObjectTracker::set_reference(const vision::ImageU8& frame,
                                  const std::vector<detect::Detection>& detections) {
  obs::ScopedSpan span("set_reference", "tracker",
                       static_cast<std::int64_t>(detections.size()), "boxes");
  objects_.clear();
  features_.clear();
  alive_.clear();

  mask_boxes_.clear();
  for (const auto& det : detections) mask_boxes_.push_back(det.box);
  vision::boxes_mask_into(frame.size(), mask_boxes_, params_.mask_shrink, mask_);

  vision::GoodFeaturesParams gf;
  gf.max_corners = params_.max_features;
  gf.quality_level = params_.quality_level;
  gf.min_distance = params_.min_feature_distance;
  gf.kernels = params_.kernels;
  const std::vector<geometry::Point2f> corners =
      vision::good_features_to_track(frame, gf, &mask_);

  objects_.reserve(detections.size());
  for (const auto& det : detections) {
    objects_.push_back({det.cls, det.box, {}, false});
  }

  // Assign each corner to the smallest box containing it (overlapping boxes
  // then prefer the foreground object), honoring the per-box budget.
  // Corners arrive strongest-first, so in single-point mode each box keeps
  // exactly its best corner (§V's latency-saving fast path).
  const int per_box_budget =
      params_.single_point_per_box ? 1 : params_.max_features_per_box;
  for (const auto& corner : corners) {
    int best = -1;
    float best_area = 0.0f;
    for (std::size_t i = 0; i < objects_.size(); ++i) {
      const auto& box = objects_[i].box;
      if (!box.contains(corner)) continue;
      if (static_cast<int>(objects_[i].features.size()) >= per_box_budget) {
        continue;
      }
      if (best < 0 || box.area() < best_area) {
        best = static_cast<int>(i);
        best_area = box.area();
      }
    }
    if (best >= 0) {
      objects_[static_cast<std::size_t>(best)].features.push_back(features_.size());
      features_.push_back(corner);
      alive_.push_back(true);
    }
  }

  // Objects whose box yielded no feature cannot be tracked; they keep their
  // detected box until the next detection (the paper's behaviour for
  // feature-less boxes).
  for (auto& obj : objects_) {
    if (obj.features.empty()) obj.lost = true;
  }

  adopt_reference_pyramid(frame);
  frame_size_ = frame.size();

  if (obs::Telemetry::enabled()) {
    obs::MetricsRegistry& reg = obs::metrics();
    reg.counter("tracker", "references").add();
    reg.gauge("tracker", "live_features")
        .set(static_cast<double>(live_feature_count()));
  }
}

TrackStepStats ObjectTracker::track_to(const vision::ImageU8& frame, int frame_gap) {
  obs::ScopedSpan span("track_to", "tracker", frame_gap, "frame_gap");
  TrackStepStats stats;
  stats.frame_gap = std::max(1, frame_gap);
  stats.live_objects = object_count();
  if (prev_pyramid_.empty() || features_.empty()) return stats;

  next_pyramid_.rebuild(frame, params_.pyramid_levels, /*min_dimension=*/16,
                        params_.kernels);

  // Gather live features for the flow call.
  live_idx_.clear();
  live_pts_.clear();
  for (std::size_t i = 0; i < features_.size(); ++i) {
    if (alive_[i]) {
      live_idx_.push_back(i);
      live_pts_.push_back(features_[i]);
    }
  }
  stats.features_attempted = static_cast<int>(live_pts_.size());

  vision::calc_optical_flow_pyr_lk(prev_pyramid_, next_pyramid_, live_pts_,
                                   next_pts_, status_, params_.lk,
                                   params_.kernels);

  // Forward-backward validation (optional): a correctly tracked feature
  // must come home when tracked back into the previous frame.
  if (params_.forward_backward_check) {
    vision::calc_optical_flow_pyr_lk(next_pyramid_, prev_pyramid_, next_pts_,
                                     back_pts_, back_status_, params_.lk,
                                     params_.kernels);
    for (std::size_t k = 0; k < live_pts_.size(); ++k) {
      if (!back_status_[k].tracked ||
          (back_pts_[k] - live_pts_[k]).norm() > params_.fb_threshold) {
        status_[k].tracked = false;
      }
    }
  }

  // The plausible displacement grows with the number of skipped frames.
  const float max_disp =
      params_.max_step_displacement * static_cast<float>(stats.frame_gap);

  deltas_.assign(features_.size(), {});
  for (std::size_t k = 0; k < live_idx_.size(); ++k) {
    const std::size_t i = live_idx_[k];
    const geometry::Point2f delta = next_pts_[k] - features_[i];
    if (!status_[k].tracked || delta.norm() > max_disp) {
      alive_[i] = false;
      continue;
    }
    deltas_[i] = delta;
    features_[i] = next_pts_[k];
    ++stats.features_tracked;
    stats.displacement_sum += delta.norm();
  }

  // Per-object motion vector: median-filter the per-feature motions first
  // (features of one rigid object must move together; stragglers are LK
  // failures that would corrupt both the box shift and the Eq.-3 velocity),
  // then average the inliers.
  const geometry::Size frame_size = frame.size();
  stats.displacement_sum = 0.0;
  stats.features_tracked = 0;
  for (auto& obj : objects_) {
    dxs_.clear();
    dys_.clear();
    for (std::size_t fi : obj.features) {
      if (!alive_[fi]) continue;
      dxs_.push_back(deltas_[fi].x);
      dys_.push_back(deltas_[fi].y);
    }
    if (dxs_.empty()) {
      obj.lost = true;  // box frozen until the next detection calibrates it
      continue;
    }
    auto median_of = [](std::vector<float>& v) {
      const std::size_t mid = v.size() / 2;
      std::nth_element(v.begin(), v.begin() + static_cast<long>(mid), v.end());
      return v[mid];
    };
    const geometry::Point2f med{median_of(dxs_), median_of(dys_)};
    const float gate = std::max(
        3.0f * static_cast<float>(stats.frame_gap), 0.6f * med.norm() + 2.0f);

    geometry::Point2f motion{0.0f, 0.0f};
    int surviving = 0;
    for (std::size_t fi : obj.features) {
      if (!alive_[fi]) continue;
      if ((deltas_[fi] - med).norm() > gate) {
        alive_[fi] = false;  // outlier: LK latched onto something else
        continue;
      }
      motion += deltas_[fi];
      stats.displacement_sum += deltas_[fi].norm();
      ++stats.features_tracked;
      ++surviving;
    }
    if (surviving == 0) {
      obj.lost = true;
      continue;
    }
    motion = motion * (1.0f / static_cast<float>(surviving));
    obj.box = obj.box.shifted(motion);
    // Objects tracked out of the frame are dropped from the output.
    const geometry::BoundingBox visible = geometry::clamp_to(obj.box, frame_size);
    if (visible.empty() || visible.area() < 0.2f * obj.box.area()) {
      obj.lost = true;
      obj.box = {};  // empty box => excluded from the tracker's output
      for (std::size_t fi : obj.features) alive_[fi] = false;
    }
  }

  std::swap(prev_pyramid_, next_pyramid_);
  frame_size_ = frame_size;

  if (obs::Telemetry::enabled()) {
    obs::MetricsRegistry& reg = obs::metrics();
    reg.counter("tracker", "steps").add();
    reg.gauge("tracker", "live_features")
        .set(static_cast<double>(live_feature_count()));
    if (stats.features_tracked > 0) {
      // Per-step mean feature motion in pixels — the Eq.-3 velocity input.
      reg.histogram("tracker", "step_motion_px",
                    {0.5, 1, 2, 4, 8, 16, 32, 64, 128})
          .record(stats.displacement_sum /
                  static_cast<double>(stats.features_tracked));
    }
  }
  return stats;
}

void ObjectTracker::adopt_reference_pyramid(const vision::ImageU8& frame) {
  // The frame a reference detection ran on has usually just been tracked
  // (track_to moved its pyramid into prev_pyramid_); a compare is much
  // cheaper than rebuilding the pyramid, so probe before recomputing.
  const bool reusable = built_from(prev_pyramid_, frame);
  if (!reusable) {
    prev_pyramid_.rebuild(frame, params_.pyramid_levels, /*min_dimension=*/16,
                          params_.kernels);
  }
  if (obs::Telemetry::enabled()) {
    obs::metrics()
        .counter("tracker", reusable ? "pyramid_reused" : "pyramid_rebuilt")
        .add();
  }
}

std::vector<metrics::LabeledBox> ObjectTracker::current_boxes() const {
  std::vector<metrics::LabeledBox> out;
  out.reserve(objects_.size());
  for (const auto& obj : objects_) {
    // Lost objects keep reporting their last known box (the paper keeps the
    // previous location/label rather than dropping the object); objects
    // tracked out of the frame have an empty box and are excluded. Boxes
    // straddling the border are clamped like the ground truth is.
    if (obj.box.empty()) continue;
    const geometry::BoundingBox visible =
        frame_size_.width > 0 ? geometry::clamp_to(obj.box, frame_size_) : obj.box;
    if (!visible.empty()) out.push_back({visible, obj.cls});
  }
  return out;
}

int ObjectTracker::live_feature_count() const {
  int count = 0;
  for (bool alive : alive_) {
    if (alive) ++count;
  }
  return count;
}

}  // namespace adavp::track
