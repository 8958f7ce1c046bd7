#pragma once

#include <cstdint>

#include "core/run_result.h"
#include "track/tracker.h"
#include "util/fault_plan.h"
#include "video/scene.h"

namespace adavp::core {

/// Options for the MARLIN baseline (the paper's re-implementation of
/// Apicharttrisorn et al., SenSys'19, inside the AdaVP framework: same
/// detector, same tracker, same change detector, but detection and
/// tracking run *sequentially* and the model setting is fixed).
struct MarlinOptions {
  detect::ModelSetting setting = detect::ModelSetting::kYolov3_512;
  /// Scene-change trigger: re-detect when the *cumulative* mean feature
  /// displacement since the last detection exceeds this many pixels (the
  /// scene has drifted significantly from the reference). The paper tunes
  /// the change threshold by sweeping for best accuracy; bench_ablations
  /// reproduces the sweep that justifies this default.
  double displacement_trigger_px = 28.0;
  /// Secondary trigger: re-detect when fewer than this fraction of the
  /// initially extracted features is still alive (objects left / occluded).
  double min_feature_fraction = 0.4;
  /// Guard trigger: re-detect after this long without a detection, even in
  /// a perfectly static scene (keyframe refresh).
  double max_cycle_ms = 3000.0;
  std::uint64_t seed = 1234;
  track::TrackerParams tracker;
  /// Non-null => deterministic fault injection (detector / camera /
  /// tracker channels; see EngineOptions::fault_plan). Must outlive the run.
  const util::FaultPlan* fault_plan = nullptr;
  /// Non-null => per-window SLO evaluation (see EngineOptions::slo).
  const obs::SloSpec* slo = nullptr;
};

/// Runs the sequential MARLIN baseline over a synthetic video.
RunResult run_marlin(const video::SyntheticVideo& video, const MarlinOptions& options);

/// Options for the detector-only baselines.
struct DetectOnlyOptions {
  detect::ModelSetting setting = detect::ModelSetting::kYolov3_512;
  std::uint64_t seed = 1234;
  /// Non-null => fault injection. Only the "detector" channel (and camera
  /// hiccup timing) can matter here: these baselines never touch pixels.
  const util::FaultPlan* fault_plan = nullptr;
  /// Non-null => per-window SLO evaluation (see EngineOptions::slo).
  const obs::SloSpec* slo = nullptr;
};

/// The paper's "Without Tracking" baseline: the DNN always fetches the
/// newest frame; frames skipped between two detections reuse the previous
/// detection's result.
RunResult run_detect_only(const video::SyntheticVideo& video,
                          const DetectOnlyOptions& options);

/// Continuous DNN execution without frame skipping (Table III's
/// YOLOv3-320 / YOLOv3-608 / YOLOv3-tiny-320 rows): every frame is
/// detected, so the run takes `latency_multiplier` times the video length.
RunResult run_continuous(const video::SyntheticVideo& video,
                         const DetectOnlyOptions& options);

}  // namespace adavp::core
