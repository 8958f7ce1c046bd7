// Table II — The latency of detection and tracking for one frame.
//
// Two parts:
//  1. google-benchmark microbenchmarks of the *actual* CPU substrate this
//     reproduction runs (rendering, pyramid, Shi-Tomasi, LK, overlay) —
//     these are the real costs on this machine;
//  2. the Table II latency *model* used for virtual-time accounting, which
//     carries the paper's Jetson TX2 numbers (detection 230-500 ms,
//     feature extraction ~40 ms, tracking 7-20 ms, overlay ~50 ms).

#include <benchmark/benchmark.h>

#include <iostream>

#include "detect/calibration.h"
#include "detect/detector.h"
#include "track/latency.h"
#include "track/tracker.h"
#include "util/table.h"
#include "video/scene.h"
#include "vision/drawing.h"
#include "vision/good_features.h"
#include "vision/optical_flow.h"
#include "vision/pyramid.h"

namespace {

using namespace adavp;

const video::SyntheticVideo& bench_video() {
  static const video::SyntheticVideo video([] {
    video::SceneConfig cfg;
    cfg.frame_count = 30;
    cfg.seed = 7;
    cfg.initial_objects = 5;
    return cfg;
  }());
  return video;
}

void BM_RenderFrame(benchmark::State& state) {
  const auto& video = bench_video();
  int f = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(video.render(f));
    f = (f + 1) % video.frame_count();
  }
}
BENCHMARK(BM_RenderFrame);

void BM_BuildPyramid(benchmark::State& state) {
  const vision::ImageU8 frame = bench_video().render(0);
  for (auto _ : state) {
    // Every tile of every level: the cost of a whole-frame build, which
    // this row has always timed.
    vision::ImagePyramid pyr(frame, 3);
    pyr.materialize_all();
    benchmark::DoNotOptimize(pyr);
  }
}
BENCHMARK(BM_BuildPyramid);

void BM_GoodFeaturesMasked(benchmark::State& state) {
  const auto& video = bench_video();
  const vision::ImageU8 frame = video.render(0);
  std::vector<geometry::BoundingBox> boxes;
  for (const auto& gt : video.ground_truth(0)) boxes.push_back(gt.box);
  const vision::ImageU8 mask = vision::boxes_mask(frame.size(), boxes, 2.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vision::good_features_to_track(frame, {}, &mask));
  }
}
BENCHMARK(BM_GoodFeaturesMasked);

void BM_LucasKanadeStep(benchmark::State& state) {
  const auto& video = bench_video();
  track::ObjectTracker tracker;
  detect::SimulatedDetector detector(3);
  const auto det = detector.detect(video, 0, detect::ModelSetting::kYolov3_608);
  for (auto _ : state) {
    state.PauseTiming();
    tracker.set_reference(video.render(0), det.detections);
    state.ResumeTiming();
    benchmark::DoNotOptimize(tracker.track_to(video.render(1), 1));
  }
}
BENCHMARK(BM_LucasKanadeStep);

void BM_OverlayDraw(benchmark::State& state) {
  const auto& video = bench_video();
  const vision::ImageU8 frame = video.render(0);
  std::vector<geometry::BoundingBox> boxes;
  for (const auto& gt : video.ground_truth(0)) boxes.push_back(gt.box);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vision::overlay_boxes(frame, boxes));
  }
}
BENCHMARK(BM_OverlayDraw);

void BM_SimulatedDetection(benchmark::State& state) {
  const auto& video = bench_video();
  detect::SimulatedDetector detector(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        detector.detect(video, 0, detect::ModelSetting::kYolov3_512));
  }
}
BENCHMARK(BM_SimulatedDetection);

void print_model_table() {
  util::Table table({"component", "Table II (paper, TX2)", "model used here"});
  table.add_row({"YOLOv3 detection", "230-500 ms",
                 util::fmt(detect::LatencyModel::mean_latency_ms(
                               detect::ModelSetting::kYolov3_320),
                           0) +
                     "-" +
                     util::fmt(detect::LatencyModel::mean_latency_ms(
                                   detect::ModelSetting::kYolov3_608),
                               0) +
                     " ms"});
  table.add_row({"Good feature extraction", "40 ms",
                 util::fmt(detect::kFeatureExtractionMs, 0) + " ms"});
  table.add_row(
      {"Tracking latency", "7-20 ms",
       util::fmt(detect::kTrackingMinMs, 0) + "-" +
           util::fmt(detect::kTrackingMaxMs, 0) + " ms (grows with objects)"});
  table.add_row({"Overlay latency", "50 ms", util::fmt(detect::kOverlayMs, 0) + " ms"});
  table.print();
}

}  // namespace

int main(int argc, char** argv) {
  std::cout << "==== Table II: per-frame component latency ====\n"
            << "Virtual-time latency model (paper values) vs the real compute"
               " cost of this substrate (microbenchmarks below).\n\n";
  print_model_table();
  std::cout << "\n";
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
