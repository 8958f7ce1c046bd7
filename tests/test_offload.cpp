#include <gtest/gtest.h>

#include "core/mpdt_pipeline.h"
#include "core/offload.h"
#include "core/scoring.h"
#include "metrics/accuracy.h"
#include "obs/telemetry.h"
#include "util/fault_plan.h"

namespace adavp::core {
namespace {

video::SceneConfig scene(std::uint64_t seed = 3, int frames = 200,
                         double speed = 1.5, double pan = 0.8) {
  video::SceneConfig cfg;
  cfg.width = 256;
  cfg.height = 160;
  cfg.frame_count = frames;
  cfg.seed = seed;
  cfg.initial_objects = 4;
  cfg.speed_mean = speed;
  cfg.camera_pan = pan;
  return cfg;
}

TEST(Offload, RoundTripLatencyComposition) {
  OffloadOptions options;
  options.rtt_ms = 100.0;
  options.bandwidth_mbps = 8.0;   // 40 kB * 8 / 8000 = 40 ms transmit
  options.server_latency_ms = 35.0;
  options.frame_bytes = 40000.0;
  EXPECT_NEAR(offload_round_trip_ms(options), 175.0, 1e-9);
}

TEST(Offload, CoversAllFrames) {
  const video::SyntheticVideo video(scene());
  OffloadOptions options;
  const RunResult run = run_offload(video, options);
  ASSERT_EQ(run.frames.size(), static_cast<std::size_t>(video.frame_count()));
  for (const auto& frame : run.frames) {
    EXPECT_NE(frame.source, ResultSource::kNone);
  }
}

TEST(Offload, FastNetworkDetectsMoreOften) {
  const video::SyntheticVideo video(scene(5, 240));
  OffloadOptions fast;
  fast.rtt_ms = 20.0;
  OffloadOptions slow;
  slow.rtt_ms = 400.0;
  EXPECT_GT(run_offload(video, fast).cycles.size(),
            run_offload(video, slow).cycles.size() * 2);
}

TEST(Offload, AccuracyDegradesWithNetworkLatency) {
  // The paper's §I argument: offloading is hostage to the network.
  const video::SyntheticVideo video(scene(7, 240, 2.0, 1.2));
  auto accuracy_at = [&](double rtt) {
    OffloadOptions options;
    options.rtt_ms = rtt;
    const RunResult run = run_offload(video, options);
    return metrics::video_accuracy(score_run(run, video, 0.5), 0.7);
  };
  EXPECT_GT(accuracy_at(20.0), accuracy_at(500.0));
}

TEST(Offload, GoodNetworkCanBeatOnDevicePipeline) {
  // With a fast edge server nearby, offloaded YOLOv3-608 cycles are
  // shorter than on-device ones (90 ms vs 500 ms), so accuracy should be
  // at least competitive — the paper's complaint is about *unpredictable*
  // networks, not ideal ones.
  const video::SyntheticVideo video(scene(9, 240));
  OffloadOptions offload;
  offload.rtt_ms = 25.0;
  MpdtOptions on_device;
  on_device.setting = detect::ModelSetting::kYolov3_608;
  const double offload_acc = metrics::video_accuracy(
      score_run(run_offload(video, offload), video, 0.5), 0.7);
  const double device_acc = metrics::video_accuracy(
      score_run(run_mpdt(video, on_device), video, 0.5), 0.7);
  EXPECT_GE(offload_acc, device_acc - 0.05);
}

TEST(Offload, NoGpuEnergyCharged) {
  const video::SyntheticVideo video(scene(11, 150));
  const RunResult run = run_offload(video, {});
  // The detector runs remotely: the GPU rail only carries idle draw.
  const double hours = run.timeline_ms / 3'600'000.0;
  EXPECT_NEAR(run.energy.gpu_wh, 0.15 * hours, 0.02 * hours + 1e-6);
}

TEST(Offload, DeterministicGivenSeed) {
  const video::SyntheticVideo video(scene(13, 120));
  OffloadOptions options;
  options.seed = 99;
  const RunResult a = run_offload(video, options);
  const RunResult b = run_offload(video, options);
  ASSERT_EQ(a.cycles.size(), b.cycles.size());
  for (std::size_t i = 0; i < a.frames.size(); ++i) {
    EXPECT_EQ(a.frames[i].boxes.size(), b.frames[i].boxes.size());
  }
}

TEST(Offload, MetricsCountCyclesAndRoundTripsSeparately) {
  // `drop every=4 n=3` spends the whole retry budget on every fourth frame,
  // so some cycles detect locally and make no round trip.
  const auto plan = util::FaultPlan::parse("codec: drop every=4 n=3", 9);
  ASSERT_TRUE(plan.has_value());
  const video::SyntheticVideo video(scene(15, 120));
  OffloadOptions options;
  options.fault_plan = &*plan;
  obs::Telemetry::set_enabled(true);
  obs::Telemetry::instance().reset();
  const RunResult run = run_offload(video, options);
  const obs::MetricsSnapshot snap = obs::Telemetry::instance().snapshot();
  obs::Telemetry::instance().reset();
  obs::Telemetry::set_enabled(false);

  ASSERT_GT(run.cycles.size(), 1u);
  // Every cycle after frame 0's prologue counts, remote or local.
  EXPECT_EQ(snap.counter("offload.cycles"), run.cycles.size() - 1);
  const std::uint64_t fallbacks = snap.counter("offload.local_fallbacks");
  EXPECT_GT(fallbacks, 0u);
  const auto* round_trips = snap.histogram("offload.round_trip_ms");
  ASSERT_NE(round_trips, nullptr);
  EXPECT_EQ(round_trips->count, run.cycles.size() - fallbacks);
  std::uint64_t tracked = 0;
  for (const CycleRecord& c : run.cycles) {
    tracked += static_cast<std::uint64_t>(c.frames_tracked);
  }
  EXPECT_EQ(snap.counter("offload.frames_tracked"), tracked);
}

}  // namespace
}  // namespace adavp::core
