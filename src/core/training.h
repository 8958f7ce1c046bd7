#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "adapt/adapter.h"
#include "core/run_result.h"
#include "video/profiles.h"

namespace adavp::core {

/// Knobs of the offline adaptation-training procedure (§IV-D3). The
/// chunking and labelling constants are fixed in training.cpp.
struct TrainingOptions {
  std::uint64_t seed = 99;
};

/// Per-chunk training measurements of one MPDT run.
struct ChunkStats {
  double mean_f1 = 0.0;
  double alpha_accuracy = 0.0;  ///< fraction of chunk frames with F1 >= alpha
  double mean_velocity = 0.0;
};

/// Splits a finished run into 1-second chunks: mean per-frame F1 and the
/// mean Eq.-3 velocity of the cycles whose detected frame falls in the
/// chunk (carrying the last known velocity across detection-free chunks).
std::vector<ChunkStats> chunk_stats(const RunResult& run,
                                    const video::SyntheticVideo& video,
                                    int chunk_frames, double iou_threshold,
                                    double alpha = 0.7);

/// Outcome of training: the learned per-current-size thresholds plus
/// diagnostics.
struct TrainingReport {
  std::array<adapt::ThresholdSet, 4> thresholds;  ///< indexed 320,416,512,608
  std::array<double, 4> training_accuracy{};      ///< per-size 0-1 loss fit
  std::array<int, 4> sample_count{};
};

/// Runs the paper's training pipeline: every training video is processed
/// by MPDT under each of the four fixed settings; each 1-second chunk is
/// labelled with the setting that scored best on it; the (velocity, label)
/// pairs measured under size s train the threshold set used when the
/// current size is s.
TrainingReport train_adaptation(const std::vector<video::SceneConfig>& configs,
                                const TrainingOptions& options = {});

/// Adapter built from a TrainingReport.
adapt::ModelAdapter make_adapter(const TrainingReport& report);

/// Thresholds baked from a full training run of this repository
/// (bench_train_adapter regenerates them; see EXPERIMENTS.md). Lets
/// examples and quick benchmarks skip the multi-minute training pass.
adapt::ModelAdapter pretrained_adapter();

}  // namespace adavp::core
