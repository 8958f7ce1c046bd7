#pragma once

#include <cstdint>

#include "adapt/adapter.h"
#include "core/engine_runtime.h"
#include "core/run_result.h"
#include "detect/detector.h"
#include "video/scene.h"

namespace adavp::core {

/// Options for an MPDT / AdaVP run. (SelectionPolicy lives in
/// core/engine_runtime.h with the rest of the shared runtime.)
struct MpdtOptions {
  /// Fixed model setting (MPDT baseline) and the initial setting for AdaVP.
  detect::ModelSetting setting = detect::ModelSetting::kYolov3_512;
  /// When non-null the run is AdaVP: after every cycle the adapter picks
  /// the next setting from the measured content-change velocity.
  const adapt::ModelAdapter* adapter = nullptr;
  std::uint64_t seed = 1234;
  track::TrackerParams tracker;
  SelectionPolicy selection = SelectionPolicy::kAdaptiveFraction;
  /// Non-null => deterministic fault injection across the detector, camera
  /// and tracker channels (see EngineOptions::fault_plan). The plan must
  /// outlive the run. The run's RunResult::status reports kDegraded when
  /// faults were absorbed, kWorkerFailure on an injected throw.
  const util::FaultPlan* fault_plan = nullptr;
  /// Non-null => per-window SLO evaluation (see EngineOptions::slo).
  const obs::SloSpec* slo = nullptr;
};

/// Runs the Mobile Parallel Detection and Tracking pipeline (§IV-B) over a
/// synthetic video on the deterministic virtual-time engine.
///
/// Semantics follow the paper exactly:
///  * the detector and tracker run on disjoint "hardware" (GPU vs CPU), so
///    within one cycle the detector processes the newest buffered frame
///    while the tracker propagates the previous detection across the
///    frames accumulated before it;
///  * the tracker skips frames via the tracking-frame-selection fraction
///    p = h_{t-1}/f_{t-1}; skipped frames reuse the previous result;
///  * a tracking task still in flight when the detector fetches its next
///    frame is cancelled and not displayed;
///  * with an adapter, the mean feature velocity of the ending cycle picks
///    the frame size of the next cycle (per-current-size thresholds).
///
/// Tracking runs on the real image substrate (rendered frames, Shi-Tomasi,
/// pyramidal LK); only the detector output and the component *latencies*
/// come from the calibrated models. The engine itself is a policy over
/// core::EngineContext — the clock, frame store, fault channels, catch-up
/// loop and epilogue are the shared runtime's.
RunResult run_mpdt(const video::SyntheticVideo& video, const MpdtOptions& options);

}  // namespace adavp::core
