#pragma once

#include <cstdint>

#include "adapt/adapter.h"
#include "core/degradation.h"
#include "core/run_result.h"
#include "core/status.h"
#include "obs/metrics.h"
#include "track/tracker.h"
#include "util/fault_plan.h"
#include "video/scene.h"

namespace adavp::core {

/// The pipeline supervisor (docs/ROBUSTNESS.md): a per-cycle detector
/// watchdog plus the graceful-degradation ladder. Off by default — the
/// unsupervised pipeline is bit-identical to the pre-supervisor one.
///
/// The watchdog deadline per detection cycle is 2x the LatencyModel mean
/// for the cycle's (capped) setting, floored at 50 ms. A cycle whose
/// modeled inference exceeds it is cancelled at the deadline: the result
/// is discarded, the ladder steps, and the cycle coasts on the tracker,
/// re-issuing the last good detections through decay_detections.
struct SupervisorOptions {
  bool enabled = false;
  /// Degradation ladder tuning (trip threshold, recovery hysteresis,
  /// probe backoff at the tracker-only floor).
  LadderOptions ladder;
};

/// Options for the real multithreaded pipeline.
struct RealtimeOptions {
  detect::ModelSetting setting = detect::ModelSetting::kYolov3_512;
  /// Non-null => AdaVP (runtime model-setting adaptation).
  const adapt::ModelAdapter* adapter = nullptr;
  /// Wall-clock speed-up: 1.0 plays the video in real time; tests use
  /// 10-40x so a multi-second video finishes quickly. All modelled
  /// latencies (detection, tracking, overlay) are scaled identically, so
  /// the schedule is shape-preserving.
  double time_scale = 1.0;
  std::uint64_t seed = 1234;
  /// Tracker tuning, including the threads LK's points use
  /// (`tracker.kernels.num_threads`) on the tracker thread.
  track::TrackerParams tracker;
  /// Non-null => deterministic fault injection: the plan's "detector"
  /// channel wraps the detector (detect::FaultyDetector), its "camera"
  /// channel drives capture glitches, and its "tracker" channel degrades
  /// the tracker thread's optical flow (track::FaultyTracker) — the same
  /// three channels the virtual engines accept. Must outlive the run.
  const util::FaultPlan* fault_plan = nullptr;
  /// Watchdog + degradation-ladder supervision of the detector cycle.
  SupervisorOptions supervisor;
  /// Non-null => per-window SLO evaluation: every displayed result feeds an
  /// obs::SloTracker on pipeline (scaled-wall) time and the report lands in
  /// RunResult::slo / RealtimeStats. Must outlive the run.
  const obs::SloSpec* slo = nullptr;
};

/// Counters exposed by a realtime run, used by tests to check the
/// concurrency design (§IV-B) actually behaves as described.
struct RealtimeStats {
  int frames_captured = 0;
  int frames_detected = 0;
  int frames_tracked = 0;
  int tracking_tasks_cancelled = 0;  ///< tasks cut short by a detector fetch
  int setting_switches = 0;
  int frames_dropped = 0;   ///< FrameBuffer overflow drops (obs: buffer.dropped)
  int frames_rendered = 0;  ///< store rasterizations; <= frames_captured means
                            ///< the render-once design held (no double render)
  // -- supervisor / fault-tolerance counters (zero when unsupervised) ------
  int watchdog_timeouts = 0;   ///< cycles cancelled at the deadline
  int coast_cycles = 0;        ///< detector cycles that ran tracker-only
  int coast_frames = 0;        ///< frame results produced while coasting
  int degrade_steps_down = 0;  ///< ladder steps toward tracker-only
  int degrade_steps_up = 0;    ///< ladder recoveries
  int max_degrade_level = 0;   ///< deepest ladder level reached (0..4)
  int faults_injected = 0;     ///< detector + tracker + camera faults applied
  // -- SLO evaluation (zero unless RealtimeOptions::slo was set) -----------
  int slo_windows = 0;           ///< windows evaluated (RunResult::slo)
  int slo_violated_windows = 0;  ///< windows that failed a check
  int slo_breaches = 0;          ///< breach events *entered* (hysteresis)
};

/// Result of a realtime run: the per-frame results (same structure the
/// virtual-time engine produces, so the same scorers apply) plus thread
/// counters. `run.energy` integrates the per-worker meters (GPU inference,
/// CPU tracking, CPU-coast while degraded) over the video timeline, and
/// `run.status` / `run.faults_injected` mirror the supervisor's verdict,
/// so RunResult consumers see the same epilogue the virtual engines emit.
struct RealtimeResult {
  RunResult run;
  RealtimeStats stats;
  /// kOk for a clean run; kDegraded when the supervisor absorbed faults
  /// (watchdog timeouts, injected faults, coasting) but every frame still
  /// got a result; kWorkerFailure when a pipeline thread threw — the run
  /// shuts down cleanly (queues closed, threads joined) and the partial
  /// frames are returned.
  Status status;
  /// Telemetry recorded during this run only (global snapshot diffed
  /// against the run's start). Empty when obs::Telemetry is disabled. The
  /// legacy counters above are kept for API compatibility; the two views
  /// must agree (e.g. `stats.frames_detected` == counter "detector.cycles"
  /// — test_realtime asserts this).
  obs::MetricsSnapshot metrics;
};

/// Runs the paper's actual three-thread implementation: a camera thread
/// feeding the locked FrameBuffer, a detector thread that always fetches
/// the newest frame and "occupies the GPU" for the modelled inference
/// latency, and a tracker thread that propagates each fresh detection
/// across the frames accumulated before it (real Shi-Tomasi + pyramidal
/// LK on the rendered frames), cancelling its remaining tasks whenever the
/// detector fetches a new frame. Thread communication uses mutexes and
/// condition variables ("lock" + "event" in §IV-B).
///
/// Worker threads never abort the process: exceptions are converted into
/// `RealtimeResult::status` and the other threads are shut down cleanly
/// (buffer + event queue closed, camera stopped). With
/// `options.supervisor.enabled`, detector overruns are cancelled at the
/// watchdog deadline and the pipeline degrades down the
/// 608→512→416→320→tracker-only ladder instead of stalling.
RealtimeResult run_realtime(const video::SyntheticVideo& video,
                            const RealtimeOptions& options);

}  // namespace adavp::core
