#include "core/baselines.h"

#include <algorithm>

#include "core/engine_runtime.h"
#include "core/graph/engine_graphs.h"
#include "energy/power_model.h"
#include "obs/telemetry.h"

namespace adavp::core {

RunResult run_marlin(const video::SyntheticVideo& video,
                     const MarlinOptions& options) {
  obs::ScopedSpan run_span("run_marlin", "pipeline", video.frame_count(),
                           "frames");
  EngineContext ctx(video, {.seed = options.seed,
                            .tracker = options.tracker,
                            .frame_store = options.frame_store,
                            .fault_plan = options.fault_plan,
                            .slo = options.slo});
  if (ctx.frame_count == 0) return std::move(ctx.run);

  const detect::ModelSetting setting = options.setting;
  const double cpu_w = energy::PowerModel::cpu_track_w();
  double t = ctx.capture_time_ms(0);

  try {
    // Initial detection of frame 0.
    detect::DetectionResult det = ctx.detect_on_gpu(0, setting);
    t += det.latency_ms;
    ctx.record_detection(0, det, setting, t);
    ctx.run.cycles.push_back(
        {0, setting, ctx.capture_time_ms(0), t, 0, 0, 0.0});

    ctx.tracker().set_reference_at(ctx.frame(0).image(), det.detections, 0);
    const double extract0 = ctx.latency.feature_extraction_ms();
    ctx.meter.add_cpu_busy(cpu_w, extract0);
    t += extract0;  // sequential: extraction blocks the single pipeline

    int initial_features = ctx.tracker().live_feature_count();
    int position = 0;  // last processed frame index
    double last_detection_time = t;

    while (position < ctx.last) {
      // --- Tracking phase: follow the newest captured frame until a scene
      // change (or guard) triggers the detector.
      bool trigger = false;
      double trigger_velocity = 0.0;
      double drift_px = 0.0;  // cumulative scene drift since the reference
      ctx.velocity.reset();
      int tracked_in_cycle = 0;
      const double cycle_track_start = t;

      while (!trigger) {
        int newest = ctx.newest_captured(t);
        if (newest <= position) {
          if (position >= ctx.last) break;
          newest = position + 1;
          t = ctx.capture_time_ms(newest);  // wait for the capture
        }
        // Catch-up policy (Fig. 4 baseline): after a detection the tracker
        // works through the backlog that accumulated while the detector had
        // the pipeline, handing *late but tracked* results to those frames.
        // Tracking one frame costs ~2 frame intervals, so it must advance
        // >= 3 frames per step to actually converge on the camera.
        const int backlog = newest - position;
        const int next_frame =
            backlog <= 2 ? newest
                         : std::min(newest, position + std::max(3, backlog / 3));
        const int gap = next_frame - position;
        const double step_cost =
            ctx.latency.tracking_ms(ctx.tracker().object_count(),
                                    ctx.tracker().live_feature_count()) +
            ctx.latency.overlay_ms();
        const video::FrameRef frame = ctx.frame(next_frame);
        const track::TrackStepStats stats =
            ctx.tracker().track_frame(frame.image(), gap, next_frame);
        t += step_cost;
        ctx.meter.add_cpu_busy(cpu_w, step_cost);
        ctx.velocity.add_step(stats);
        ++tracked_in_cycle;

        FrameResult& result = ctx.run.frames[static_cast<std::size_t>(next_frame)];
        result.source = ResultSource::kTracker;
        result.boxes = ctx.tracker().current_boxes();
        result.setting = setting;
        result.staleness_ms = t - ctx.capture_time_ms(next_frame);
        position = next_frame;

        // Scene-change detector (cumulative drift + feature-loss + keyframe
        // guard).
        const double step_v = adapt::VelocityEstimator::step_velocity(stats);
        drift_px += step_v * static_cast<double>(stats.frame_gap);
        const bool features_depleted =
            initial_features > 0 &&
            ctx.tracker().live_feature_count() <
                options.min_feature_fraction * initial_features;
        if (drift_px > options.displacement_trigger_px || features_depleted ||
            (t - last_detection_time) > options.max_cycle_ms) {
          trigger = true;
          trigger_velocity = step_v;
        }
        if (position >= ctx.last) break;
      }
      if (position >= ctx.last) {
        ctx.run.cycles.push_back({position, setting, cycle_track_start, t,
                                  tracked_in_cycle, tracked_in_cycle,
                                  ctx.velocity.mean_velocity()});
        break;
      }

      // --- Detection phase (tracker stopped; frames pile up untracked).
      int target = ctx.newest_captured(t);
      if (target <= position) target = std::min(ctx.last, position + 1);
      const double det_start = std::max(t, ctx.capture_time_ms(target));
      det = ctx.detect_on_gpu(target, setting);
      t = det_start + det.latency_ms;
      last_detection_time = t;
      ctx.record_detection(target, det, setting, t);

      ctx.store().trim_below(position);  // the old cycle's frames are done
      ctx.tracker().set_reference_at(ctx.frame(target).image(), det.detections,
                                     target);
      const double extract = ctx.latency.feature_extraction_ms();
      ctx.meter.add_cpu_busy(cpu_w, extract);
      t += extract;
      initial_features = ctx.tracker().live_feature_count();
      position = target;

      ctx.run.cycles.push_back({target, setting, cycle_track_start, t,
                                tracked_in_cycle, tracked_in_cycle,
                                ctx.velocity.mean_velocity() > 0.0
                                    ? ctx.velocity.mean_velocity()
                                    : trigger_velocity});
      if (obs::Telemetry::enabled()) {
        obs::MetricsRegistry& reg = obs::metrics();
        reg.counter("marlin", "cycles").add();
        reg.counter("marlin", "frames_tracked")
            .add(static_cast<std::uint64_t>(tracked_in_cycle));
        reg.latency_histogram("marlin", "cycle_ms").record(t - cycle_track_start);
      }
    }
  } catch (const std::exception& e) {
    ctx.fail(std::string("marlin engine: ") + e.what());
  }

  ctx.clock->set(t);
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
