#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "adapt/velocity.h"
#include "core/clock.h"
#include "core/run_result.h"
#include "obs/slo.h"
#include "detect/faulty_detector.h"
#include "energy/energy_meter.h"
#include "track/faulty_tracker.h"
#include "track/frame_selection.h"
#include "track/latency.h"
#include "track/tracker.h"
#include "util/fault_plan.h"
#include "video/frame_store.h"
#include "video/scene.h"

namespace adavp::core {

/// How the tracker picks which buffered frames to process (ablation knob;
/// the paper's scheme is kAdaptiveFraction, §IV-C).
enum class SelectionPolicy {
  kAdaptiveFraction,  ///< paper: h_t = p * f_t at regular intervals
  kTrackAll,          ///< try every frame oldest-first (overruns the cycle)
  kNewestOnly,        ///< track only the newest frame of each cycle
};

/// The wiring every engine shares, factored out of its per-engine options
/// struct. One seed drives the whole run.
struct EngineOptions {
  std::uint64_t seed = 1234;
  track::TrackerParams tracker{};
  /// Non-null => deterministic fault injection: the plan's "detector"
  /// channel wraps the detector, "camera" glitches/delays captured frames,
  /// "tracker" degrades the optical-flow path. Must outlive the run.
  const util::FaultPlan* fault_plan = nullptr;
  /// Non-null => per-window SLO evaluation: every recorded result feeds an
  /// obs::SloTracker and the report lands in RunResult::slo. Must outlive
  /// the run. Costs nothing when null.
  const obs::SloSpec* slo = nullptr;
};

/// Per-run state shared by every engine: the clock, the render-once frame
/// store, the (fault-wrapped) detector and tracker, the latency and
/// velocity models, the energy meter, and the RunResult being built.
/// Engines are thin policies over this context — they own the *schedule*
/// (what to detect when, what triggers a re-detection) and delegate the
/// mechanics (frame access, fault application, the catch-up loop, the
/// epilogue) here.
///
/// With no fault plan attached every helper is a transparent pass-through,
/// byte-identical to the pre-runtime engines — pinned by
/// tests/test_engine_equivalence.cpp.
class EngineContext {
 public:
  /// `clock` defaults to a VirtualClock at t=0. The context must not
  /// outlive `video` or the fault plan in `options`.
  EngineContext(const video::SyntheticVideo& video, EngineOptions options,
                std::unique_ptr<Clock> clock = nullptr);

  // --- run geometry ------------------------------------------------------
  const video::SyntheticVideo& video;
  const int frame_count;
  const int last;            ///< frame_count - 1
  const double interval_ms;  ///< capture interval

  // --- shared components (public: engines are in-family policies) --------
  std::unique_ptr<Clock> clock;
  detect::FaultyDetector detector;
  track::TrackingFrameSelector selector;
  track::TrackLatencyModel latency;
  adapt::VelocityEstimator velocity;
  energy::EnergyMeter meter;
  RunResult run;

  /// The run's frame store, constructed on first use so engines that never
  /// touch pixels (detect-only, continuous) create no store — and register
  /// no framestore telemetry instruments.
  video::FrameStore& store();
  bool store_constructed() const { return store_.has_value(); }

  /// The run's tracker, behind the fault decorator (a pass-through when
  /// the plan has no "tracker" channel).
  track::FaultyTracker& tracker() { return faulty_tracker_; }

  // --- camera-channel frame access ---------------------------------------
  /// The frame at `index` with any camera glitches (black / corrupt)
  /// applied — deterministically, so re-fetching reproduces the same
  /// pixels. Faults are counted once per frame.
  video::FrameRef frame(int index);

  /// When frame `index` becomes available to the pipeline: its capture
  /// timestamp plus any camera hiccup delays.
  double capture_time_ms(int index);

  /// Largest frame index captured by pipeline time `t` (the "detector
  /// fetches the newest frame" rule), camera hiccups included.
  int newest_captured(double t);

  // --- detection ---------------------------------------------------------
  /// One (fault-wrapped) detection. May throw util::InjectedFault.
  detect::DetectionResult detect(int frame_index, detect::ModelSetting setting);

  /// detect() plus the on-device GPU energy of the inference (`continuous`
  /// selects the saturated no-frame-skipping operating point). Offload's
  /// remote detections call detect() and bill the radio instead.
  detect::DetectionResult detect_on_gpu(int frame_index,
                                        detect::ModelSetting setting,
                                        bool continuous = false);

  /// Writes frame `index`'s result from a detection completed at
  /// `completed_ms` of pipeline time.
  void record_detection(int index, const detect::DetectionResult& det,
                        detect::ModelSetting setting, double completed_ms);

  /// Writes frame `index`'s result from the tracker's current boxes, the
  /// tracking step having completed at `completed_ms` of pipeline time.
  void record_tracked(int index, detect::ModelSetting setting,
                      double completed_ms);

  // --- the shared tracker-side cycle (§IV-B/C) ---------------------------
  struct Catchup {
    int frames_between = 0;  ///< f_t of the frame-selection scheme
    int tracked = 0;         ///< h_t
    double mean_velocity = 0.0;  ///< Eq. 3 average (0 when nothing tracked)
    int velocity_steps = 0;      ///< steps with at least one live feature
  };

  /// Re-arms the tracker from the reference detection and propagates it
  /// across the frames buffered between `ref_index` and `next_index`,
  /// while the detector (virtually) occupies [cycle_start, cycle_end]:
  /// frame selection by `policy`, per-step modeled CPU latencies, batch
  /// cancellation when the CPU clock would overrun `cycle_end`, results
  /// recorded as kTracker frames at `result_setting`.
  Catchup track_catchup(int ref_index,
                        const std::vector<detect::Detection>& ref_detections,
                        int next_index, double cycle_start, double cycle_end,
                        detect::ModelSetting result_setting,
                        SelectionPolicy policy);

  // --- outcome -----------------------------------------------------------
  /// The run's SLO tracker (nullptr when EngineOptions::slo is null).
  /// record_detection and record_tracked feed it automatically; engines
  /// with out-of-band results (realtime coasting) feed it directly.
  obs::SloTracker* slo_tracker() {
    return slo_tracker_.has_value() ? &*slo_tracker_ : nullptr;
  }

  /// Marks the run failed (first failure wins); the engine stops its loop
  /// and finish() returns the frames produced so far.
  void fail(std::string message);

  /// Faults applied so far across all channels.
  std::uint64_t faults_injected() const;

  /// The shared epilogue: fill skipped frames from the previous result,
  /// close the timeline at max(video duration, clock), integrate energy,
  /// snapshot frame-store stats, and resolve the run's Status (kDegraded
  /// when faults were absorbed, untouched when already failed).
  void finish();

 private:
  EngineOptions options_;
  util::FaultChannel camera_faults_;
  std::unique_ptr<track::ObjectTracker> tracker_owner_;
  track::FaultyTracker faulty_tracker_;
  std::optional<video::FrameStore> store_;
  std::optional<obs::SloTracker> slo_tracker_;
  std::unordered_set<int> counted_glitches_;  ///< frames with pixel faults billed
  std::unordered_set<int> counted_delays_;    ///< frames with hiccups billed
  std::uint64_t camera_faults_injected_ = 0;
};

/// Detections -> scored result boxes (every engine's output conversion).
std::vector<metrics::LabeledBox> to_labeled_boxes(
    const detect::DetectionResult& det);

/// Fills frames the tracker skipped (or start-up frames before the first
/// result exists) with the previous frame's boxes, per §IV-C: "the frames
/// that are not selected by the tracker use the location and label of
/// objects from the previous tracked or detected frame".
void fill_reused_frames(std::vector<FrameResult>& frames);

/// The supervisor's coasting payload: `last_good` re-issued with
/// per-object confidence decay (score * 0.85^age); objects fading below a
/// 0.1 score drop out, so stale boxes fade instead of lingering.
std::vector<detect::Detection> decay_detections(
    const std::vector<detect::Detection>& last_good, int age);

}  // namespace adavp::core
