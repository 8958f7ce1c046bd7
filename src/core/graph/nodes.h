#pragma once

#include <string>
#include <vector>

#include "adapt/adapter.h"
#include "core/engine_runtime.h"
#include "core/graph/node.h"
#include "detect/detector.h"

namespace adavp::core::graph {

// --- packet payloads ---------------------------------------------------------
// The typed vocabulary the engine graphs speak. All payloads are small value
// types; frame *pixels* never ride the engine streams — nodes fetch them
// through EngineContext::frame() so camera-fault billing stays on the frame
// fetch the golden digests pin.

/// A frame the detector should process next: which frame, when the cycle
/// starts, and at what model setting.
struct FrameTicket {
  int index = 0;
  double start_ms = 0.0;
  detect::ModelSetting setting = detect::ModelSetting::kYolov3_512;
  /// The prologue cycle (frame 0, nothing to track yet). The adapter passes
  /// it through untouched and the MPDT sink logs no cycle metrics for it.
  bool initial = false;
};

/// A completed (fault-wrapped) detection, still carrying its ticket.
struct DetectionEvent {
  FrameTicket ticket;
  detect::DetectionResult det;
  /// When the result is in hand, as its producer computes it: `start +
  /// latency` on the device; offload adds its round trip and any fallback.
  double done_ms = 0.0;
};

/// One detect cycle after the tracker-side catch-up batch ran against it.
struct TrackedCycle {
  DetectionEvent event;
  double cycle_end_ms = 0.0;
  int frames_between = 0;  ///< f_t of the frame-selection scheme
  int tracked = 0;         ///< h_t
  double report_velocity = 0.0;  ///< what the cycle record logs (Eq. 3)
};

/// The sink's completion signal that clocks the camera source around the
/// engine ring: the last finished frame and the virtual time it finished.
struct CycleTick {
  int index = 0;
  double t_ms = 0.0;
};

/// Mean content-change velocity of a finished cycle (adapter feedback).
struct VelocitySample {
  double velocity = 0.0;
};

// --- calculator library ------------------------------------------------------

/// The engine ring's frame scheduler. Two modes:
///
///  * kFeedback (detect-only, MPDT, MARLIN, offload): input "tick"
///    (CycleTick, primed to start the ring), output "frame". The first
///    activation emits frame 0 at its capture time; each later tick picks
///    the newest frame captured by tick time (waiting one capture interval
///    when the detector outpaced the camera) and stops emitting once the
///    tick reports the last frame — the ring quiesces and the run completes.
///  * kEveryFrame (continuous): no inputs; emits every frame index in order
///    and reports exhausted() after the last. Downstream backpressure is
///    what paces it.
class CameraSourceNode : public Node {
 public:
  enum class Mode { kFeedback, kEveryFrame };

  CameraSourceNode(EngineContext& ctx, Mode mode,
                   detect::ModelSetting setting);

  void process(NodeRun& run) override;
  bool exhausted() const override;

 private:
  EngineContext& ctx_;
  const Mode mode_;
  const detect::ModelSetting setting_;
  bool started_ = false;  ///< kFeedback: first activation consumed the prime
  int next_ = 0;          ///< kEveryFrame cursor
  int tick_in_ = -1;
  int frame_out_ = -1;
};

/// Model adaptation (§IV-D3): input "frame" plus an optional "velocity"
/// feedback stream from the tracker. Each non-initial ticket is re-stamped
/// with the adapter's current setting; when a velocity sample has arrived,
/// the adapter may switch settings first (counted in
/// RunResult::setting_switches and the `adapter.switches` metric). With a
/// null ModelAdapter (MPDT-fixed) the node is a fixed-setting pass-through.
class AdapterNode : public Node {
 public:
  AdapterNode(EngineContext& ctx, const adapt::ModelAdapter* adapter,
              detect::ModelSetting initial_setting);

  void process(NodeRun& run) override;

 private:
  EngineContext& ctx_;
  const adapt::ModelAdapter* adapter_;
  detect::ModelSetting setting_;
  double velocity_ = 0.0;
  bool have_velocity_ = false;
  int frame_in_ = -1;
  int velocity_in_ = -1;
  int frame_out_ = -1;
};

/// One fault-wrapped, GPU-billed detection per ticket
/// (EngineContext::detect_on_gpu). `continuous_power` selects the
/// saturated no-frame-skipping operating point; `emit_detect_span` opens
/// the per-detect wall-clock span of the detect-only and continuous
/// baselines (the virtual-time engines have none).
class DetectorNode : public Node {
 public:
  DetectorNode(EngineContext& ctx, bool continuous_power,
               bool emit_detect_span);

  void process(NodeRun& run) override;

 private:
  EngineContext& ctx_;
  const bool continuous_power_;
  const bool emit_detect_span_;
  int frame_in_ = -1;
  int event_out_ = -1;
};

/// The tracker side of an MPDT cycle (§IV-B/C): holds the reference
/// detection, runs EngineContext::track_catchup across the frames buffered
/// while the detector (virtually) occupied the cycle, and feeds the mean
/// velocity back to the adapter. The initial ticket only arms the
/// reference. A fully cancelled batch logs the last measured velocity
/// when `carry_velocity` is set (MPDT), 0 otherwise (offload).
class TrackerCatchupNode : public Node {
 public:
  TrackerCatchupNode(EngineContext& ctx, SelectionPolicy selection,
                     bool carry_velocity);

  void process(NodeRun& run) override;

 private:
  EngineContext& ctx_;
  const SelectionPolicy selection_;
  const bool carry_velocity_;
  int ref_index_ = 0;
  std::vector<detect::Detection> ref_detections_;
  double prev_velocity_ = 0.0;
  int event_in_ = -1;
  int cycle_out_ = -1;
  int velocity_out_ = -1;
};

/// Assembles RunResult: records the detection, appends the cycle record,
/// logs the engine's metrics under `metric_prefix`, advances the run
/// clock, and (in the ring modes) emits the CycleTick that clocks the
/// camera. One mode per cycle shape, each with its own float arithmetic
/// for the cycle times, which the golden digests pin bit-for-bit.
class SinkNode : public Node {
 public:
  enum class Mode { kDetectOnly, kContinuous, kMpdt };

  /// `cpu_feed_w` is only read in kContinuous mode (the CPU power of
  /// feeding the saturated detector).
  SinkNode(EngineContext& ctx, Mode mode, std::string metric_prefix,
           double cpu_feed_w = 0.0);

  void process(NodeRun& run) override;

 private:
  EngineContext& ctx_;
  const Mode mode_;
  const std::string prefix_;
  const double cpu_feed_w_;
  int in_ = -1;
  int tick_out_ = -1;  ///< -1 in kContinuous (no ring)
};

}  // namespace adavp::core::graph
