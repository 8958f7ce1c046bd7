#include <gtest/gtest.h>

#include "core/mpdt_pipeline.h"
#include "core/training.h"

namespace adavp::core {
namespace {

video::SceneConfig scene(std::uint64_t seed, int frames, double speed,
                         double pan = 0.0) {
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

TEST(ChunkStats, ChunkCountAndAverages) {
  const video::SyntheticVideo video(scene(3, 95, 1.0));
  MpdtOptions options;
  const RunResult run = run_mpdt(video, options);
  const auto chunks = chunk_stats(run, video, 30, 0.5);
  ASSERT_EQ(chunks.size(), 4u);  // ceil(95 / 30)
  for (const auto& chunk : chunks) {
    EXPECT_GE(chunk.mean_f1, 0.0);
    EXPECT_LE(chunk.mean_f1, 1.0);
    EXPECT_GE(chunk.mean_velocity, 0.0);
  }
}

TEST(ChunkStats, VelocityCarriedAcrossQuietChunks) {
  const video::SyntheticVideo video(scene(5, 150, 1.5));
  MpdtOptions options;
  options.setting = detect::ModelSetting::kYolov3_608;  // long cycles
  const RunResult run = run_mpdt(video, options);
  const auto chunks = chunk_stats(run, video, 30, 0.5);
  // After the first detection cycle completes, velocity should be known
  // for every subsequent chunk (carried forward when a chunk has no cycle).
  bool seen_positive = false;
  for (const auto& chunk : chunks) {
    if (chunk.mean_velocity > 0.0) seen_positive = true;
    if (seen_positive) {
      EXPECT_GT(chunk.mean_velocity, 0.0);
    }
  }
  EXPECT_TRUE(seen_positive);
}

TEST(TrainAdaptation, ProducesMonotoneThresholdsAndSamples) {
  // A tiny but real training set: one slow, one medium, one fast video.
  std::vector<video::SceneConfig> configs = {
      scene(101, 120, 0.3), scene(102, 120, 1.4, 0.5), scene(103, 120, 2.8, 1.8)};
  TrainingOptions options;
  options.seed = 7;
  const TrainingReport report = train_adaptation(configs, options);
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_GT(report.sample_count[s], 0) << "size index " << s;
    EXPECT_LE(report.thresholds[s].v1, report.thresholds[s].v2);
    EXPECT_LE(report.thresholds[s].v2, report.thresholds[s].v3);
    EXPECT_GE(report.training_accuracy[s], 0.25);  // better than random
  }
}

TEST(TrainAdaptation, AdapterFromReportClassifies) {
  std::vector<video::SceneConfig> configs = {scene(201, 90, 0.4),
                                             scene(202, 90, 2.5, 1.5)};
  const TrainingReport report = train_adaptation(configs, {});
  const adapt::ModelAdapter adapter = make_adapter(report);
  // Very slow content must map to a larger size than very fast content.
  const auto slow_choice =
      adapter.next_setting(0.01, detect::ModelSetting::kYolov3_512);
  const auto fast_choice =
      adapter.next_setting(50.0, detect::ModelSetting::kYolov3_512);
  EXPECT_EQ(slow_choice, detect::ModelSetting::kYolov3_608);
  EXPECT_EQ(fast_choice, detect::ModelSetting::kYolov3_320);
}

TEST(PretrainedAdapter, HasSaneMonotoneThresholds) {
  const adapt::ModelAdapter adapter = pretrained_adapter();
  for (detect::ModelSetting current : detect::kAdaptiveSettings) {
    const adapt::ThresholdSet& set = adapter.thresholds_for(current);
    EXPECT_GT(set.v1, 0.0);
    EXPECT_LE(set.v1, set.v2);
    EXPECT_LE(set.v2, set.v3);
    EXPECT_LT(set.v3, 20.0);  // plausible pixel velocities
  }
}

}  // namespace
}  // namespace adavp::core
