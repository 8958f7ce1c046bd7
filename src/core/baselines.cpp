#include "core/baselines.h"

#include <algorithm>

#include "core/engine_runtime.h"
#include "core/graph/engine_graphs.h"
#include "energy/power_model.h"
#include "obs/telemetry.h"

namespace adavp::core {

namespace {

/// MARLIN's tracker side. Each detection event re-arms the tracker and
/// closes the cycle record of the tracking phase before it; then the node
/// tracks the newest captured frames until the scene-change trigger fires
/// and hands the pipeline back to the detector with a CycleTick carrying
/// the time tracking stopped: detection and tracking run *sequentially*.
class MarlinTrackerNode : public graph::Node {
 public:
  MarlinTrackerNode(EngineContext& ctx, const MarlinOptions& options)
      : Node("tracker"), ctx_(ctx), options_(options) {
    event_in_ = declare_input<graph::DetectionEvent>("event");
    tick_out_ = declare_output<graph::CycleTick>("tick");
  }

  void process(graph::NodeRun& run) override {
    const graph::Packet p = run.take(event_in_);
    const graph::DetectionEvent& ev = p.get<graph::DetectionEvent>();
    const int target = ev.ticket.index;
    const detect::ModelSetting setting = ev.ticket.setting;
    ctx_.record_detection(target, ev.det, setting, ev.done_ms);
    ctx_.store().trim_below(position_);  // the old cycle's frames are done
    ctx_.tracker().set_reference_at(ctx_.frame(target).image(),
                                    ev.det.detections, target);
    const double extract = ctx_.latency.feature_extraction_ms();
    ctx_.meter.add_cpu_busy(energy::PowerModel::cpu_track_w(), extract);
    t_ = ev.done_ms + extract;  // sequential: extraction blocks the pipeline
    initial_features_ = ctx_.tracker().live_feature_count();
    position_ = target;
    if (ev.ticket.initial) {
      ctx_.run.cycles.push_back(
          {0, setting, ev.ticket.start_ms, ev.done_ms, 0, 0, 0.0});
      // The first keyframe guard runs from after the extraction; later
      // ones from the detection.
      last_detection_ms_ = t_;
    } else {
      // The cycle that just ended: the tracking phase plus this detection.
      last_detection_ms_ = ev.done_ms;
      const double v = ctx_.velocity.mean_velocity();
      ctx_.run.cycles.push_back({target, setting, track_start_ms_, t_,
                                 tracked_, tracked_,
                                 v > 0.0 ? v : trigger_velocity_});
      if (obs::Telemetry::enabled()) {
        obs::MetricsRegistry& reg = obs::metrics();
        reg.counter("marlin", "cycles").add();
        reg.counter("marlin", "frames_tracked")
            .add(static_cast<std::uint64_t>(tracked_));
        reg.latency_histogram("marlin", "cycle_ms")
            .record(t_ - track_start_ms_);
      }
    }
    if (position_ < ctx_.last) track_until_trigger(setting);
    ctx_.clock->set(t_);
    run.emit(tick_out_, graph::CycleTick{position_, t_}, t_);
  }

 private:
  /// Follows the newest captured frame until a scene change (or guard)
  /// triggers the detector, or the video ends.
  void track_until_trigger(detect::ModelSetting setting) {
    bool trigger = false;
    trigger_velocity_ = 0.0;
    double drift_px = 0.0;  // cumulative scene drift since the reference
    ctx_.velocity.reset();
    tracked_ = 0;
    track_start_ms_ = t_;
    while (!trigger && position_ < ctx_.last) {
      int newest = ctx_.newest_captured(t_);
      if (newest <= position_) {
        newest = position_ + 1;
        t_ = ctx_.capture_time_ms(newest);  // wait for the capture
      }
      // Catch-up policy (Fig. 4 baseline): after a detection the tracker
      // works through the backlog that accumulated while the detector had
      // the pipeline, handing *late but tracked* results to those frames.
      // Tracking one frame costs ~2 frame intervals, so it must advance
      // >= 3 frames per step to actually converge on the camera.
      const int backlog = newest - position_;
      const int next_frame =
          backlog <= 2 ? newest
                       : std::min(newest, position_ + std::max(3, backlog / 3));
      const double step_cost =
          ctx_.latency.tracking_ms(ctx_.tracker().object_count(),
                                   ctx_.tracker().live_feature_count()) +
          ctx_.latency.overlay_ms();
      const video::FrameRef frame = ctx_.frame(next_frame);
      const track::TrackStepStats stats = ctx_.tracker().track_frame(
          frame.image(), next_frame - position_, next_frame);
      t_ += step_cost;
      ctx_.meter.add_cpu_busy(energy::PowerModel::cpu_track_w(), step_cost);
      ctx_.velocity.add_step(stats);
      ++tracked_;
      ctx_.record_tracked(next_frame, setting, t_);
      position_ = next_frame;

      // Scene-change detector (cumulative drift + feature-loss + keyframe
      // guard).
      const double step_v = adapt::VelocityEstimator::step_velocity(stats);
      drift_px += step_v * static_cast<double>(stats.frame_gap);
      const bool features_depleted =
          initial_features_ > 0 &&
          ctx_.tracker().live_feature_count() <
              options_.min_feature_fraction * initial_features_;
      if (drift_px > options_.displacement_trigger_px || features_depleted ||
          (t_ - last_detection_ms_) > options_.max_cycle_ms) {
        trigger = true;
        trigger_velocity_ = step_v;
      }
    }
    if (position_ >= ctx_.last) {
      ctx_.run.cycles.push_back({position_, setting, track_start_ms_, t_,
                                 tracked_, tracked_,
                                 ctx_.velocity.mean_velocity()});
    }
  }

  EngineContext& ctx_;
  const MarlinOptions options_;
  double t_ = 0.0;                  ///< the sequential pipeline's clock
  int position_ = 0;                ///< last processed frame index
  int initial_features_ = 0;        ///< live features after the re-arm
  double last_detection_ms_ = 0.0;  ///< keyframe guard reference
  // The open tracking phase, recorded when the next detection closes it.
  double track_start_ms_ = 0.0;
  int tracked_ = 0;
  double trigger_velocity_ = 0.0;
  int event_in_ = -1;
  int tick_out_ = -1;
};

}  // namespace

namespace graph {

Graph build_marlin_graph(EngineContext& ctx, const MarlinOptions& options) {
  Graph g;
  g.set_name("run_marlin");
  auto& camera = g.add<CameraSourceNode>(ctx, CameraSourceNode::Mode::kFeedback,
                                         options.setting);
  auto& detector = g.add<DetectorNode>(ctx, /*continuous_power=*/false,
                                       /*emit_detect_span=*/false);
  auto& tracker = g.add<MarlinTrackerNode>(ctx, options);
  g.connect(camera, "frame", detector, "frame");
  g.connect(detector, "event", tracker, "event");
  g.connect(tracker, "tick", camera, "tick");
  g.prime(camera, "tick", Packet::make<CycleTick>({}, 0.0));
  return g;
}

}  // namespace graph

RunResult run_marlin(const video::SyntheticVideo& video,
                     const MarlinOptions& options) {
  obs::ScopedSpan run_span("run_marlin", "pipeline", video.frame_count(),
                           "frames");
  EngineContext ctx(video, {.seed = options.seed,
                            .tracker = options.tracker,
                            .fault_plan = options.fault_plan,
                            .slo = options.slo});
  if (ctx.frame_count == 0) return std::move(ctx.run);

  // The engine as a graph spec: camera -> detector -> tracker ring (see
  // build_marlin_graph).
  graph::Graph g = graph::build_marlin_graph(ctx, options);
  const Status status = g.run();
  if (!status.ok()) ctx.fail("marlin engine: " + status.message());
  ctx.finish();
  return std::move(ctx.run);
}

RunResult run_detect_only(const video::SyntheticVideo& video,
                          const DetectOnlyOptions& options) {
  obs::ScopedSpan run_span("run_detect_only", "pipeline", video.frame_count(),
                           "frames");
  EngineContext ctx(video, {.seed = options.seed,
                            .fault_plan = options.fault_plan,
                            .slo = options.slo});
  if (ctx.frame_count == 0) return std::move(ctx.run);

  // The engine as a graph spec: camera -> detector -> sink ring (see
  // build_detect_only_graph).
  graph::Graph g = graph::build_detect_only_graph(ctx, options.setting);
  const Status status = g.run();
  if (!status.ok()) ctx.fail("detect-only engine: " + status.message());
  ctx.finish();
  return std::move(ctx.run);
}

RunResult run_continuous(const video::SyntheticVideo& video,
                         const DetectOnlyOptions& options) {
  obs::ScopedSpan run_span("run_continuous", "pipeline", video.frame_count(),
                           "frames");
  EngineContext ctx(video, {.seed = options.seed,
                            .fault_plan = options.fault_plan,
                            .slo = options.slo});
  if (ctx.frame_count == 0) return std::move(ctx.run);

  // Linear camera -> detector -> sink chain; the free-running camera is
  // paced by bounded-queue backpressure (see build_continuous_graph).
  graph::Graph g = graph::build_continuous_graph(
      ctx, options.setting, energy::PowerModel::cpu_feed_w(options.setting));
  const Status status = g.run();
  if (!status.ok()) ctx.fail("continuous engine: " + status.message());
  const double processing_ms = ctx.clock->now_ms();
  ctx.finish();
  // Continuous mode reports how much *longer* than the video the
  // back-to-back inference takes, even when it happens to finish early.
  ctx.run.latency_multiplier =
      processing_ms /
      (static_cast<double>(ctx.frame_count) * ctx.interval_ms);
  return std::move(ctx.run);
}

}  // namespace adavp::core
