// Dataset inspection tool: renders scenario videos, dumps frames/ground
// truth, and prints per-scenario statistics — the utility a user reaches
// for when they want to see what the synthetic substrate actually produces.
//
//   $ ./dataset_tool list
//   $ ./dataset_tool stats [--frames 300] [--seed 2020]
//   $ ./dataset_tool render --scenario mobile_racetrack --out DIR
//         [--frames 60] [--every 10] [--overlay-gt]
//   $ ./dataset_tool trace --scenario carmount_highway --out run.trace
//
// `trace` runs AdaVP on the scenario and stores the §V-style runtime trace
// (replayable with core::read_trace_file + core::score_run).

#include <iostream>
#include <set>

#include "core/mpdt_pipeline.h"
#include "core/scoring.h"
#include "core/trace.h"
#include "core/training.h"
#include "metrics/accuracy.h"
#include "util/args.h"
#include "util/stats.h"
#include "util/table.h"
#include "video/profiles.h"
#include "vision/drawing.h"
#include "vision/pgm.h"

namespace {

using namespace adavp;

const video::ScenarioTemplate* find_scenario(const std::string& name) {
  for (const auto& scenario : video::scenario_library()) {
    if (scenario.name == name) return &scenario;
  }
  return nullptr;
}

int cmd_list() {
  util::Table table({"scenario", "speed px/f", "pan px/f", "spawn/s", "classes"});
  for (const auto& s : video::scenario_library()) {
    std::string classes;
    for (const auto cls : s.classes) {
      if (!classes.empty()) classes += ",";
      classes += video::class_name(cls);
    }
    table.add_row({s.name, util::fmt(s.speed_mean, 2), util::fmt(s.camera_pan, 2),
                   util::fmt(s.spawn_per_second, 2), classes});
  }
  table.print();
  return 0;
}

int cmd_stats(const util::Args& args) {
  const int frames = args.get_int("frames", 300);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 2020));
  util::Table table({"scenario", "true speed px/f", "objects/frame",
                     "objects total", "empty frames"});
  for (const auto& scenario : video::scenario_library()) {
    const video::SceneConfig cfg = video::make_scene(scenario, seed, frames);
    const video::SyntheticVideo video(cfg);
    util::RunningStats per_frame;
    std::set<int> ids;
    int empty = 0;
    for (int f = 0; f < video.frame_count(); ++f) {
      const auto& gt = video.ground_truth(f);
      per_frame.add(static_cast<double>(gt.size()));
      for (const auto& object : gt) ids.insert(object.object_id);
      if (gt.empty()) ++empty;
    }
    table.add_row({scenario.name, util::fmt(video.mean_true_speed(), 2),
                   util::fmt(per_frame.mean(), 1),
                   std::to_string(ids.size()), std::to_string(empty)});
  }
  table.print();
  return 0;
}

int cmd_render(const util::Args& args) {
  const std::string name = args.get("scenario", "surveillance_highway");
  const std::string out = args.get("out", ".");
  const auto* scenario = find_scenario(name);
  if (scenario == nullptr) {
    std::cerr << "unknown scenario: " << name << " (try `dataset_tool list`)\n";
    return 1;
  }
  const int frames = args.get_int("frames", 60);
  const int every = std::max(1, args.get_int("every", 10));
  const bool overlay = args.get_bool("overlay-gt", false);
  const video::SceneConfig cfg = video::make_scene(
      *scenario, static_cast<std::uint64_t>(args.get_int("seed", 2020)), frames);
  const video::SyntheticVideo video(cfg);
  int written = 0;
  for (int f = 0; f < video.frame_count(); f += every) {
    vision::ImageU8 img = video.render(f);
    if (overlay) {
      for (const auto& gt : video.ground_truth(f)) {
        vision::draw_box(img, gt.box);
      }
    }
    const std::string path =
        out + "/" + name + "_" + std::to_string(f) + ".pgm";
    if (!vision::write_pgm(img, path)) {
      std::cerr << "cannot write " << path << "\n";
      return 1;
    }
    ++written;
  }
  std::cout << "wrote " << written << " PGM frames to " << out << "\n";
  return 0;
}

int cmd_trace(const util::Args& args) {
  const std::string name = args.get("scenario", "surveillance_highway");
  const std::string out = args.get("out", "run.trace");
  const auto* scenario = find_scenario(name);
  if (scenario == nullptr) {
    std::cerr << "unknown scenario: " << name << "\n";
    return 1;
  }
  const video::SceneConfig cfg = video::make_scene(
      *scenario, static_cast<std::uint64_t>(args.get_int("seed", 2020)),
      args.get_int("frames", 300));
  const video::SyntheticVideo video(cfg);
  const adapt::ModelAdapter adapter = core::pretrained_adapter();
  core::MpdtOptions options;
  options.adapter = &adapter;
  const core::RunResult run = run_mpdt(video, options);
  if (!core::write_trace_file(run, out)) {
    std::cerr << "cannot write " << out << "\n";
    return 1;
  }
  const auto f1 = score_run(run, video, 0.5);
  std::cout << "wrote " << out << " (" << run.frames.size() << " frames, "
            << run.cycles.size() << " cycles, accuracy "
            << util::fmt(metrics::video_accuracy(f1, 0.7), 3) << ")\n"
            << "replay with core::read_trace_file + core::score_run\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const std::string command =
      args.positional().empty() ? "list" : args.positional()[0];
  if (command == "list") return cmd_list();
  if (command == "stats") return cmd_stats(args);
  if (command == "render") return cmd_render(args);
  if (command == "trace") return cmd_trace(args);
  std::cerr << "usage: dataset_tool {list|stats|render|trace} [options]\n";
  return 1;
}
