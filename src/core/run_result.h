#pragma once

#include <cstdint>
#include <vector>

#include "core/status.h"
#include "detect/model_setting.h"
#include "energy/energy_meter.h"
#include "metrics/matching.h"
#include "obs/slo.h"
#include "video/frame_store.h"

namespace adavp::core {

/// Who produced the boxes a frame carries.
enum class ResultSource {
  kDetector,  ///< frame was processed by the DNN detector
  kTracker,   ///< frame was processed by the optical-flow tracker
  kReused,    ///< frame skipped; previous frame's result reused (§IV-C)
  kNone,      ///< no result yet (start-up frames before the first detection)
};

/// The per-frame output of a pipeline run.
struct FrameResult {
  int frame_index = 0;
  ResultSource source = ResultSource::kNone;
  std::vector<metrics::LabeledBox> boxes;
  detect::ModelSetting setting = detect::ModelSetting::kYolov3_512;
  /// When the result became available minus when the frame was captured —
  /// the paper's "inevitable" 200-470 ms pipeline latency.
  double staleness_ms = 0.0;
};

/// Bookkeeping of one detection (or tracking) cycle.
struct CycleRecord {
  int detected_frame = 0;
  detect::ModelSetting setting = detect::ModelSetting::kYolov3_512;
  double start_ms = 0.0;
  double end_ms = 0.0;
  int frames_in_buffer = 0;  ///< f_t of the frame-selection scheme
  int frames_tracked = 0;    ///< h_t
  double mean_velocity = 0.0;  ///< Eq. 3 average over the cycle
};

/// Complete record of one pipeline run over one video.
struct RunResult {
  std::vector<FrameResult> frames;  ///< exactly one entry per video frame
  std::vector<CycleRecord> cycles;
  energy::RailEnergy energy;
  double timeline_ms = 0.0;   ///< total (virtual) duration of the run
  int setting_switches = 0;
  double latency_multiplier = 1.0;  ///< processing time / video duration
  /// Frame-store counters of the run (renders, hits, pool traffic).
  /// Zero-valued for engines that never touch pixels (detect-only).
  video::FrameStoreStats frame_store;
  /// Outcome of the run: kOk for a clean run; kDegraded when a FaultPlan
  /// injected faults but every frame still got a result; kWorkerFailure
  /// when a component threw — the engine stops cleanly and the frames
  /// produced so far are returned (the rest reuse the last result).
  Status status;
  /// Faults applied across all channels (detector + camera + tracker).
  std::uint64_t faults_injected = 0;
  /// Per-window SLO evaluation of the run; `slo.evaluated` is false unless
  /// an SloSpec was attached to the engine options.
  obs::SloReport slo;
};

}  // namespace adavp::core
