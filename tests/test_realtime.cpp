#include <gtest/gtest.h>

#include "core/realtime_pipeline.h"
#include "core/scoring.h"
#include "core/training.h"
#include "metrics/accuracy.h"
#include "obs/telemetry.h"
#include "util/stats.h"

// Sanitizers inflate real compute (feature extraction, LK tracking) ~10x
// while scaled sleeps stay wall-clock accurate, so aggressive time
// compression starves the pipeline of schedule headroom. Timing-sensitive
// tests compress less when a sanitizer is active.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define ADAVP_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define ADAVP_UNDER_SANITIZER 1
#endif
#endif

namespace adavp::core {
namespace {

double timing_sensitive_scale(double normal) {
#ifdef ADAVP_UNDER_SANITIZER
  return normal / 5.0;
#else
  return normal;
#endif
}

video::SceneConfig scene(std::uint64_t seed = 3, int frames = 90,
                         double speed = 1.0) {
  video::SceneConfig cfg;
  cfg.width = 192;
  cfg.height = 120;
  cfg.frame_count = frames;
  cfg.seed = seed;
  cfg.initial_objects = 3;
  cfg.speed_mean = speed;
  return cfg;
}

TEST(RealtimePipeline, CompletesAndCoversAllFrames) {
  video::SyntheticVideo video(scene());
  video.precache();
  RealtimeOptions options;
  options.time_scale = 30.0;
  const RealtimeResult result = run_realtime(video, options);

  EXPECT_EQ(result.stats.frames_captured, video.frame_count());
  ASSERT_EQ(result.run.frames.size(),
            static_cast<std::size_t>(video.frame_count()));
  int with_result = 0;
  for (const auto& frame : result.run.frames) {
    if (frame.source != ResultSource::kNone) ++with_result;
  }
  // Everything after the first completed detection must carry a result.
  EXPECT_GT(with_result, video.frame_count() * 2 / 3);
}

TEST(RealtimePipeline, DetectorAndTrackerBothContribute) {
  video::SyntheticVideo video(scene(5, 120));
  video.precache();
  RealtimeOptions options;
  options.time_scale = 30.0;
  const RealtimeResult result = run_realtime(video, options);
  EXPECT_GT(result.stats.frames_detected, 1);
  EXPECT_GT(result.stats.frames_tracked, 0);
  // The detector can only process a small share of 30 FPS input.
  EXPECT_LT(result.stats.frames_detected, video.frame_count() / 3);
}

TEST(RealtimePipeline, DetectionsAdvanceMonotonically) {
  video::SyntheticVideo video(scene(7, 120));
  video.precache();
  RealtimeOptions options;
  options.time_scale = 30.0;
  const RealtimeResult result = run_realtime(video, options);
  int prev = -1;
  for (const auto& cycle : result.run.cycles) {
    EXPECT_GT(cycle.detected_frame, prev);
    prev = cycle.detected_frame;
  }
}

TEST(RealtimePipeline, ProducesReasonableAccuracy) {
  video::SyntheticVideo video(scene(9, 120, 0.8));
  video.precache();
  RealtimeOptions options;
  options.setting = detect::ModelSetting::kYolov3_512;
  options.time_scale = 20.0;
  const RealtimeResult result = run_realtime(video, options);
  const std::vector<double> f1 = score_run(result.run, video, 0.5);
  // Skip the start-up frames that precede the first detection.
  std::vector<double> steady(f1.begin() + 30, f1.end());
  EXPECT_GT(util::mean(steady), 0.3);
}

TEST(RealtimePipeline, AdapterSwitchesUnderRealThreads) {
  // Start at the smallest setting on calm content: the adapter must switch
  // up toward the large sizes as soon as it has a velocity measurement.
  video::SyntheticVideo video(scene(11, 150, 0.8));
  const adapt::ModelAdapter adapter = pretrained_adapter();
  video.precache();
  RealtimeOptions options;
  options.adapter = &adapter;
  options.setting = detect::ModelSetting::kYolov3_320;
  options.time_scale = timing_sensitive_scale(30.0);
  const RealtimeResult result = run_realtime(video, options);
  EXPECT_GE(result.stats.setting_switches, 1);
  // And the final cycles should sit at a larger size than the start.
  ASSERT_FALSE(result.run.cycles.empty());
  EXPECT_NE(result.run.cycles.back().setting, detect::ModelSetting::kYolov3_320);
}

TEST(RealtimePipeline, NoFrameRendersTwiceThroughTheStore) {
  // The pre-store pipeline rasterized every reference frame twice (once on
  // the camera thread, again in the tracker's set_reference). The store's
  // render-once latch plus the FrameRef carried in the detection event must
  // eliminate that: the store's default window retains all 60 frames, so
  // renders == frames captured and nothing ever re-renders.
  video::SyntheticVideo video(scene(23, 60));  // deliberately NOT precached
  RealtimeOptions options;
  options.time_scale = timing_sensitive_scale(30.0);
  const RealtimeResult result = run_realtime(video, options);

  EXPECT_EQ(result.stats.frames_rendered, result.stats.frames_captured);
  EXPECT_EQ(result.run.frame_store.re_renders, 0u);
  // Every tracker access (reference re-arm + tracked frames) was a shared
  // hit on a frame the camera had already rendered.
  EXPECT_GE(result.run.frame_store.hits,
            static_cast<std::uint64_t>(result.stats.frames_tracked));
  EXPECT_GE(result.stats.frames_dropped, 0);
}

TEST(RealtimePipeline, LegacyStatsAgreeWithTelemetrySnapshot) {
  // The legacy RealtimeStats counters and the obs metrics layer observe the
  // same run; any disagreement means an instrumentation site drifted.
  video::SyntheticVideo video(scene(17, 120));
  const adapt::ModelAdapter adapter = pretrained_adapter();
  video.precache();
  obs::Telemetry::set_enabled(true);
  obs::Telemetry::instance().reset();
  RealtimeOptions options;
  options.adapter = &adapter;
  options.setting = detect::ModelSetting::kYolov3_320;
  options.time_scale = 30.0;
  const RealtimeResult result = run_realtime(video, options);
  obs::Telemetry::set_enabled(false);

  const obs::MetricsSnapshot& snap = result.metrics;
  EXPECT_EQ(snap.counter("detector.cycles"),
            static_cast<std::uint64_t>(result.stats.frames_detected));
  EXPECT_EQ(snap.counter("tracker.frames"),
            static_cast<std::uint64_t>(result.stats.frames_tracked));
  EXPECT_EQ(snap.counter("tracker.cancellations"),
            static_cast<std::uint64_t>(result.stats.tracking_tasks_cancelled));
  EXPECT_EQ(snap.counter("adapter.switches"),
            static_cast<std::uint64_t>(result.stats.setting_switches));
  EXPECT_EQ(snap.counter("camera.frames"),
            static_cast<std::uint64_t>(result.stats.frames_captured));
  EXPECT_EQ(snap.counter("buffer.dropped"),
            static_cast<std::uint64_t>(result.stats.frames_dropped));
  EXPECT_EQ(snap.counter("framestore.renders"),
            result.run.frame_store.renders);
  // The modeled-GPU-occupancy histogram saw exactly one sample per cycle.
  const obs::MetricsSnapshot::HistogramEntry* occupancy =
      snap.histogram("detector.occupancy_ms");
  ASSERT_NE(occupancy, nullptr);
  EXPECT_EQ(occupancy->count,
            static_cast<std::uint64_t>(result.stats.frames_detected));
}

TEST(RealtimePipeline, TelemetryDisabledLeavesResultSnapshotEmpty) {
  video::SyntheticVideo video(scene(19, 45));
  video.precache();
  obs::Telemetry::set_enabled(false);
  RealtimeOptions options;
  options.time_scale = 45.0;
  const RealtimeResult result = run_realtime(video, options);
  EXPECT_TRUE(result.metrics.counters.empty());
  EXPECT_TRUE(result.metrics.histograms.empty());
}

TEST(RealtimePipeline, UnsupervisedRunReportsCleanStatus) {
  // The default pipeline (no supervisor, no fault plan) must behave exactly
  // as before the fault-tolerance work: ok status, zero supervisor counters.
  video::SyntheticVideo video(scene(21, 60));
  video.precache();
  RealtimeOptions options;
  options.time_scale = 30.0;
  const RealtimeResult result = run_realtime(video, options);
  EXPECT_TRUE(result.status.ok()) << result.status.to_string();
  EXPECT_FALSE(result.status.failed());
  EXPECT_EQ(result.status.code(), StatusCode::kOk);
  EXPECT_EQ(result.stats.watchdog_timeouts, 0);
  EXPECT_EQ(result.stats.coast_cycles, 0);
  EXPECT_EQ(result.stats.coast_frames, 0);
  EXPECT_EQ(result.stats.degrade_steps_down, 0);
  EXPECT_EQ(result.stats.degrade_steps_up, 0);
  EXPECT_EQ(result.stats.max_degrade_level, 0);
  EXPECT_EQ(result.stats.faults_injected, 0);
}

TEST(RealtimePipeline, RunsBackToBackWithoutLeakingThreads) {
  video::SyntheticVideo video(scene(13, 45));
  video.precache();
  RealtimeOptions options;
  options.time_scale = 45.0;
  for (int i = 0; i < 3; ++i) {
    const RealtimeResult result = run_realtime(video, options);
    EXPECT_EQ(result.stats.frames_captured, 45);
  }
}

TEST(RealtimePipeline, PopulatesEnergyRailsAndMirrorsStatusOntoTheRun) {
  video::SyntheticVideo video(scene(21, 60));
  video.precache();
  RealtimeOptions options;
  options.time_scale = 30.0;
  const RealtimeResult result = run_realtime(video, options);
  // The per-worker meters (GPU inference, CPU tracking) integrate over the
  // video timeline, exactly like the virtual engines' epilogue.
  EXPECT_GT(result.run.energy.gpu_wh, 0.0);
  EXPECT_GT(result.run.energy.cpu_wh, 0.0);
  EXPECT_GT(result.run.energy.total_wh(), 0.0);
  // The embedded RunResult carries the same verdict as the legacy fields.
  EXPECT_EQ(result.run.status.code(), result.status.code());
  EXPECT_EQ(result.run.faults_injected,
            static_cast<std::uint64_t>(result.stats.faults_injected));
}

TEST(RealtimePipeline, TrackerFaultChannelInjectsAndDegradesTheRun) {
  video::SyntheticVideo video(scene(21, 60));
  video.precache();
  const auto plan = util::FaultPlan::parse(
      "tracker: starve every=3 frac=0.5; diverge every=11 px=4", 31);
  ASSERT_TRUE(plan.has_value());
  RealtimeOptions options;
  options.time_scale = timing_sensitive_scale(30.0);
  options.fault_plan = &*plan;
  const RealtimeResult result = run_realtime(video, options);
  EXPECT_FALSE(result.status.failed()) << result.status.to_string();
  EXPECT_GT(result.stats.faults_injected, 0);
  EXPECT_EQ(result.status.code(), StatusCode::kDegraded)
      << result.status.to_string();
  EXPECT_EQ(result.run.faults_injected,
            static_cast<std::uint64_t>(result.stats.faults_injected));
}

TEST(RealtimePipeline, FailureStatusCarriesChannelAtFrameAnnotation) {
  // Every worker annotates its failure Status as `<channel>@frame <N>:
  // <what>` (core::annotate_failure) so a post-mortem can place the
  // failure without a flight-recorder dump. Pin the format here: an
  // unsupervised detector throw must surface as a kWorkerFailure whose
  // message leads with the channel and frame.
  video::SyntheticVideo video(scene(21, 60));
  video.precache();
  const auto plan = util::FaultPlan::parse("detector: throw every=1", 11);
  ASSERT_TRUE(plan.has_value());
  RealtimeOptions options;
  options.time_scale = timing_sensitive_scale(30.0);
  options.fault_plan = &*plan;
  const RealtimeResult result = run_realtime(video, options);
  EXPECT_EQ(result.status.code(), StatusCode::kWorkerFailure)
      << result.status.to_string();
  const std::string message(result.status.message());
  EXPECT_EQ(message.rfind("detector@frame ", 0), 0u) << message;
  EXPECT_NE(message.find(": detector thread: "), std::string::npos) << message;
  EXPECT_NE(message.find("injected detector fault"), std::string::npos)
      << message;
}

TEST(RealtimePipeline, CoastingBillsCoastPowerNotInferencePower) {
  // Long enough that the zero-GPU coasting tail dominates the fixed cost
  // of riding the ladder down: each of the four watchdog timeouts bills
  // the watchdog deadline (2x the mean inference latency) on the GPU rail,
  // about 2.2 s of GPU time total, before the floor is reached.
  video::SyntheticVideo video(scene(21, 150));
  video.precache();
  RealtimeOptions clean;
  clean.time_scale = timing_sensitive_scale(30.0);
  const RealtimeResult baseline = run_realtime(video, clean);

  // Every inference overruns its watchdog deadline, so the ladder rides
  // down to tracker-only and the pipeline coasts. While coasting the GPU
  // is off and the CPU draws cpu_coast_w — so the degraded run must spend
  // strictly less GPU energy than the healthy one over the same timeline.
  const auto plan = util::FaultPlan::parse("detector: stall every=1 ms=5000", 7);
  ASSERT_TRUE(plan.has_value());
  RealtimeOptions degraded = clean;
  degraded.fault_plan = &*plan;
  degraded.supervisor.enabled = true;
  // Each recovery probe costs a full watchdog deadline of GPU time; push
  // them past the end of this video so the comparison below isolates the
  // coasting behavior.
  degraded.supervisor.ladder.probe_backoff_start = 1024;
  degraded.supervisor.ladder.probe_backoff_max = 1024;
  const RealtimeResult result = run_realtime(video, degraded);

  EXPECT_GT(result.stats.coast_cycles, 0);
  EXPECT_EQ(result.status.code(), StatusCode::kDegraded)
      << result.status.to_string();
  EXPECT_GT(result.run.energy.cpu_wh, 0.0);  // coast + tracking still billed
  EXPECT_LT(result.run.energy.gpu_wh, baseline.run.energy.gpu_wh);
}

}  // namespace
}  // namespace adavp::core
