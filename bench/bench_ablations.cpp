// Ablations of AdaVP's design choices (DESIGN.md §6):
//  A. Tracking-frame selection: the paper's adaptive fraction
//     (h_t = p * f_t) vs track-all (falls behind; tasks cancelled) vs
//     newest-only (big LK gaps, many reused frames).
//  B. MARLIN's scene-change threshold sweep — the paper tunes it for best
//     accuracy; we reproduce the sweep that justifies our default (1.1).
//  C. Per-current-size velocity thresholds vs one shared set (§IV-D3
//     argues velocities measured under different sizes differ slightly).
//  D. Switch hysteresis (our extension beyond the paper; default off).

#include "bench_common.h"
#include "core/scoring.h"

namespace {

using namespace adavp;

std::vector<video::SceneConfig> ablation_set(const bench::BenchConfig& config) {
  // A compact but diverse subset (slow/medium/fast) to keep sweeps cheap.
  auto all = bench::test_set(config);
  std::vector<video::SceneConfig> subset;
  for (std::size_t i = 0; i < all.size(); i += 2) subset.push_back(all[i]);
  return subset;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchConfig config = bench::parse_bench_config(argc, argv);
  bench::print_header("Ablations: selection policy, MARLIN trigger, "
                      "threshold granularity, hysteresis",
                      "DESIGN.md §6 / paper §IV-C, §IV-D3, §VI-A");

  const auto configs = ablation_set(config);
  const adapt::ModelAdapter adapter = core::pretrained_adapter();

  // ---- A. Tracking-frame-selection policy -------------------------------
  {
    util::Table table({"selection policy", "accuracy", "tracked/cycle (avg)"});
    const struct {
      core::SelectionPolicy policy;
      const char* name;
    } policies[] = {
        {core::SelectionPolicy::kAdaptiveFraction, "adaptive fraction (paper)"},
        {core::SelectionPolicy::kTrackAll, "track-all (oldest first)"},
        {core::SelectionPolicy::kNewestOnly, "newest-only"},
    };
    for (const auto& entry : policies) {
      std::vector<std::vector<double>> f1_per_video;
      util::RunningStats tracked;
      for (const auto& cfg : configs) {
        const video::SyntheticVideo video(cfg);
        core::MpdtOptions options;
        options.setting = detect::ModelSetting::kYolov3_512;
        options.selection = entry.policy;
        options.seed = config.seed;
        const core::RunResult run = run_mpdt(video, options);
        f1_per_video.push_back(score_run(run, video, 0.5));
        for (const auto& cycle : run.cycles) {
          tracked.add(static_cast<double>(cycle.frames_tracked));
        }
      }
      table.add_row({entry.name,
                     util::fmt(metrics::dataset_accuracy(f1_per_video, 0.7), 3),
                     util::fmt(tracked.mean(), 1)});
    }
    std::cout << "-- A. Tracking-frame selection (MPDT-512) --\n";
    table.print();
    std::cout << "\n";
  }

  // ---- A3. Single-point fast path and forward-backward validation --------
  {
    util::Table table({"tracker variant", "accuracy"});
    const struct {
      bool single_point;
      bool fb_check;
      const char* name;
    } variants[] = {
        {false, false, "multi-feature (default)"},
        {true, false, "single point per box (§V fast path)"},
        {false, true, "multi-feature + forward-backward check"},
    };
    for (const auto& entry : variants) {
      std::vector<std::vector<double>> f1_per_video;
      for (const auto& cfg : configs) {
        const video::SyntheticVideo video(cfg);
        core::MpdtOptions options;
        options.setting = detect::ModelSetting::kYolov3_512;
        options.tracker.single_point_per_box = entry.single_point;
        options.tracker.forward_backward_check = entry.fb_check;
        options.seed = config.seed;
        const core::RunResult run = run_mpdt(video, options);
        f1_per_video.push_back(score_run(run, video, 0.5));
      }
      table.add_row({entry.name,
                     util::fmt(metrics::dataset_accuracy(f1_per_video, 0.7), 3)});
    }
    std::cout << "-- A3. Feature budget / validation variants --\n";
    table.print();
    std::cout << "\n";
  }

  // ---- B. MARLIN scene-change threshold sweep ----------------------------
  {
    util::Table table({"drift trigger (px since detection)", "accuracy",
                       "detections/video (avg)"});
    for (double trigger : {5.0, 9.0, 14.0, 22.0, 35.0, 60.0}) {
      std::vector<std::vector<double>> f1_per_video;
      util::RunningStats detections;
      for (const auto& cfg : configs) {
        const video::SyntheticVideo video(cfg);
        core::MarlinOptions options;
        options.setting = detect::ModelSetting::kYolov3_512;
        options.displacement_trigger_px = trigger;
        options.seed = config.seed;
        const core::RunResult run = run_marlin(video, options);
        f1_per_video.push_back(score_run(run, video, 0.5));
        detections.add(static_cast<double>(run.cycles.size()));
      }
      table.add_row({util::fmt(trigger, 1),
                     util::fmt(metrics::dataset_accuracy(f1_per_video, 0.7), 3),
                     util::fmt(detections.mean(), 1)});
    }
    std::cout << "-- B. MARLIN trigger sweep (paper: tuned for best accuracy) --\n";
    table.print();
    std::cout << "\n";
  }

  // ---- C. Per-size thresholds vs one shared set --------------------------
  {
    const adapt::ModelAdapter shared(
        adapter.thresholds_for(detect::ModelSetting::kYolov3_512));
    util::Table table({"threshold granularity", "accuracy"});
    const std::pair<const adapt::ModelAdapter*, const char*> variants[] = {
        {&adapter, "per-current-size (paper)"},
        {&shared, "single shared set"},
    };
    for (const auto& [variant_adapter, name] : variants) {
      std::vector<std::vector<double>> f1_per_video;
      for (const auto& cfg : configs) {
        const video::SyntheticVideo video(cfg);
        core::MpdtOptions options;
        options.adapter = variant_adapter;
        options.seed = config.seed;
        const core::RunResult run = run_mpdt(video, options);
        f1_per_video.push_back(score_run(run, video, 0.5));
      }
      table.add_row({name,
                     util::fmt(metrics::dataset_accuracy(f1_per_video, 0.7), 3)});
    }
    std::cout << "-- C. Threshold granularity (AdaVP) --\n";
    table.print();
    std::cout << "\n";
  }

  // ---- D. Hysteresis margin sweep (extension) -----------------------------
  {
    util::Table table({"hysteresis margin", "accuracy", "switches/video"});
    for (double margin : {0.0, 0.1, 0.25, 0.5}) {
      adapt::ModelAdapter damped = adapter;
      damped.set_hysteresis_margin(margin);
      std::vector<std::vector<double>> f1_per_video;
      util::RunningStats switches;
      for (const auto& cfg : configs) {
        const video::SyntheticVideo video(cfg);
        core::MpdtOptions options;
        options.adapter = &damped;
        options.seed = config.seed;
        const core::RunResult run = run_mpdt(video, options);
        f1_per_video.push_back(score_run(run, video, 0.5));
        switches.add(static_cast<double>(run.setting_switches));
      }
      table.add_row({util::fmt(margin, 2),
                     util::fmt(metrics::dataset_accuracy(f1_per_video, 0.7), 3),
                     util::fmt(switches.mean(), 1)});
    }
    std::cout << "-- D. Switch hysteresis (extension; paper has none) --\n";
    table.print();
  }
  return 0;
}
