#include "core/training.h"

#include <algorithm>

#include "core/mpdt_pipeline.h"
#include "core/scoring.h"
#include "util/stats.h"

namespace adavp::core {

namespace {

/// 1-second chunks at 30 FPS, as in the paper.
constexpr int kChunkFrames = 30;
constexpr double kIouThreshold = 0.5;
/// Chunks are labelled with the setting maximizing the paper's accuracy
/// metric (fraction of frames with F1 >= alpha).
constexpr double kLabelAlpha = 0.7;
/// A smaller size displaces a larger one only when its chunk accuracy is
/// better by at least this margin (see the labelling loop below).
constexpr double kLabelMargin = 0.12;

}  // namespace

std::vector<ChunkStats> chunk_stats(const RunResult& run,
                                    const video::SyntheticVideo& video,
                                    int chunk_frames, double iou_threshold,
                                    double alpha) {
  const std::vector<double> f1 = score_run(run, video, iou_threshold);
  const int frame_count = static_cast<int>(f1.size());
  const int chunks = (frame_count + chunk_frames - 1) / chunk_frames;

  std::vector<ChunkStats> out(static_cast<std::size_t>(chunks));

  // Mean F1 per chunk.
  for (int c = 0; c < chunks; ++c) {
    const int begin = c * chunk_frames;
    const int end = std::min(frame_count, begin + chunk_frames);
    util::RunningStats stats;
    int above = 0;
    for (int i = begin; i < end; ++i) {
      stats.add(f1[static_cast<std::size_t>(i)]);
      if (f1[static_cast<std::size_t>(i)] >= alpha) ++above;
    }
    out[static_cast<std::size_t>(c)].mean_f1 = stats.mean();
    out[static_cast<std::size_t>(c)].alpha_accuracy =
        end > begin ? static_cast<double>(above) / (end - begin) : 0.0;
  }

  // Mean cycle velocity per chunk, carrying the last known value forward
  // through chunks that contain no detection.
  std::vector<util::RunningStats> vel(static_cast<std::size_t>(chunks));
  for (const CycleRecord& cycle : run.cycles) {
    if (cycle.mean_velocity <= 0.0) continue;
    const int c = std::clamp(cycle.detected_frame / chunk_frames, 0, chunks - 1);
    vel[static_cast<std::size_t>(c)].add(cycle.mean_velocity);
  }
  double last_velocity = 0.0;
  for (int c = 0; c < chunks; ++c) {
    auto& slot = out[static_cast<std::size_t>(c)];
    if (vel[static_cast<std::size_t>(c)].count() > 0) {
      last_velocity = vel[static_cast<std::size_t>(c)].mean();
    }
    slot.mean_velocity = last_velocity;
  }
  return out;
}

TrainingReport train_adaptation(const std::vector<video::SceneConfig>& configs,
                                const TrainingOptions& options) {
  std::array<std::vector<adapt::TrainingSample>, 4> samples;

  for (const video::SceneConfig& config : configs) {
    const video::SyntheticVideo video(config);

    // One MPDT run per fixed setting, chunked.
    std::array<std::vector<ChunkStats>, 4> per_setting;
    for (std::size_t s = 0; s < detect::kAdaptiveSettings.size(); ++s) {
      MpdtOptions mpdt;
      mpdt.setting = detect::kAdaptiveSettings[s];
      mpdt.seed = options.seed ^ (config.seed * 31 + s);
      const RunResult run = run_mpdt(video, mpdt);
      per_setting[s] =
          chunk_stats(run, video, kChunkFrames, kIouThreshold, kLabelAlpha);
    }

    const std::size_t chunks = per_setting[0].size();
    for (std::size_t c = 0; c < chunks; ++c) {
      // Label: start from the largest size and let a smaller size displace
      // it only when its chunk accuracy is better by kLabelMargin
      // (asymmetric loss: wrongly labelling a chunk "small" hurts runtime
      // accuracy much more than wrongly labelling it "large").
      std::size_t best = 3;  // 608
      for (int s = 2; s >= 0; --s) {
        const auto& cand = per_setting[static_cast<std::size_t>(s)][c];
        const auto& incumbent = per_setting[best][c];
        if (cand.alpha_accuracy >
            incumbent.alpha_accuracy + kLabelMargin) {
          best = static_cast<std::size_t>(s);
        }
      }
      const detect::ModelSetting label = detect::kAdaptiveSettings[best];
      // The same chunk contributes one sample per measuring size: the
      // velocity as observed under that size (per-size thresholds, §IV-D3).
      for (std::size_t s = 0; s < 4; ++s) {
        if (per_setting[s][c].mean_velocity <= 0.0) continue;
        samples[s].push_back({per_setting[s][c].mean_velocity, label});
      }
    }
  }

  TrainingReport report;
  for (std::size_t s = 0; s < 4; ++s) {
    report.thresholds[s] = adapt::ThresholdTrainer::train(samples[s]);
    report.training_accuracy[s] =
        adapt::ThresholdTrainer::training_accuracy(report.thresholds[s], samples[s]);
    report.sample_count[s] = static_cast<int>(samples[s].size());
  }
  return report;
}

adapt::ModelAdapter make_adapter(const TrainingReport& report) {
  return adapt::ModelAdapter(report.thresholds);
}

adapt::ModelAdapter pretrained_adapter() {
  // Baked from bench_train_adapter on the default training set (28 videos,
  // 14 scenarios x 2 motion scales); see EXPERIMENTS.md for the run.
  std::array<adapt::ThresholdSet, 4> thresholds;
  thresholds[0] = {5.80, 6.30, 6.90};  // pooled + safety margin: leave 608
  thresholds[1] = {5.80, 6.30, 6.90};  // only on clearly fast content (see
  thresholds[2] = {5.80, 6.30, 6.90};  //  EXPERIMENTS.md for the raw fits)
  thresholds[3] = {5.80, 6.30, 6.90};
  return adapt::ModelAdapter(thresholds);
}

}  // namespace adavp::core
