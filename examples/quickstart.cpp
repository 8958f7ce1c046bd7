// Quickstart: run AdaVP end to end on one synthetic video and print what
// the pipeline did.
//
//   $ ./quickstart [--frames 300] [--speed 1.5] [--pan 0.8] [--seed 7]
//                  [--trace-out trace.json] [--metrics-out metrics.json]
//                  [--faults "detector: stall p=0.05 ms=900 | tracker: starve p=0.1 frac=0.5"]
//                  [--slo "fps=30 deadline_ms=40 miss_rate=0.1"] [--slo-out slo.json]
//                  [--flight-recorder-out flight.json]
//                  [--graph-out engine.dot [--graph-engine adavp]]
//
// Walks the public API in the order a new user meets it:
//   1. describe a video        (video::SceneConfig / SyntheticVideo)
//   2. get the trained adapter (core::pretrained_adapter)
//   3. run the pipeline        (core::run_mpdt with an adapter == AdaVP)
//   4. score the result        (core::score_run + metrics::video_accuracy)
//      — and check run.status: kOk clean, kDegraded when injected faults
//      were absorbed (--faults), kWorkerFailure when the engine aborted
//   5. (--trace-out) rerun on the real three-thread pipeline with
//      telemetry on and export a Chrome trace-event JSON of the
//      camera / detector / tracker schedule — open it in Perfetto
//      (https://ui.perfetto.dev) or chrome://tracing. With --slo the rerun
//      also evaluates a per-window SLO (--slo-out dumps the report), and
//      --flight-recorder-out arms the crash/degradation flight recorder's
//      automatic post-mortem dump. See docs/OBSERVABILITY.md.

#include <fstream>
#include <iostream>
#include <optional>

#include "core/graph/engine_graphs.h"
#include "core/mpdt_pipeline.h"
#include "core/realtime_pipeline.h"
#include "core/scoring.h"
#include "core/training.h"
#include "metrics/accuracy.h"
#include "obs/telemetry.h"
#include "util/args.h"
#include "util/fault_plan.h"
#include "util/stats.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace adavp;
  const util::Args args(argc, argv);

  // 0. (--graph-out FILE [--graph-engine NAME]) dump the named engine's
  //    dataflow topology as Graphviz and exit. The graph-backed engines
  //    (detect_only, continuous, mpdt, adavp, marlin, offload) export the
  //    executable wiring the run below actually schedules; realtime, still
  //    hand-written threads, exports a descriptive diagram.
  //    Render with `dot -Tsvg engine.dot -o engine.svg`.
  const std::string graph_out = args.get("graph-out", "");
  if (!graph_out.empty()) {
    const std::string engine = args.get("graph-engine", "adavp");
    try {
      std::ofstream out(graph_out);
      out << core::graph::engine_topology_dot(engine);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 2;
    }
    std::cout << "wrote " << engine << " topology to " << graph_out << "\n";
    return 0;
  }

  // 1. A synthetic street scene. On a real deployment this is the camera;
  //    here the generator also hands us exact ground truth for scoring.
  video::SceneConfig scene;
  scene.name = "quickstart";
  scene.frame_count = args.get_int("frames", 300);
  scene.speed_mean = args.get_double("speed", 1.5);
  scene.camera_pan = args.get_double("pan", 0.8);
  scene.seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
  scene.initial_objects = 5;
  video::SyntheticVideo video(scene);  // non-const: --trace-out precaches
  std::cout << "Video: " << video.frame_count() << " frames @ " << video.fps()
            << " FPS, " << video.frame_size().width << "x"
            << video.frame_size().height << "\n";

  // 2. The model-setting adaptation module, trained offline (§IV-D3).
  const adapt::ModelAdapter adapter = core::pretrained_adapter();

  // 3. AdaVP = the MPDT parallel pipeline + the adapter. An optional
  //    --faults plan exercises the detector / camera / tracker fault
  //    channels; the run then reports kDegraded instead of kOk.
  core::MpdtOptions options;
  options.adapter = &adapter;
  options.setting = detect::ModelSetting::kYolov3_512;  // initial setting
  options.seed = scene.seed;
  std::optional<util::FaultPlan> fault_plan;
  const std::string fault_spec = args.get("faults", "");
  if (!fault_spec.empty()) {
    std::string error;
    fault_plan = util::FaultPlan::parse(fault_spec, scene.seed, &error);
    if (!fault_plan.has_value()) {
      std::cerr << "error: bad --faults spec: " << error << "\n";
      return 2;
    }
    options.fault_plan = &*fault_plan;
  }
  const core::RunResult run = run_mpdt(video, options);
  if (run.status.failed()) {
    std::cerr << "error: pipeline failed: " << run.status.to_string() << "\n";
    return 1;
  }

  // 4. Score frame by frame against ground truth.
  const std::vector<double> f1 = score_run(run, video, /*iou=*/0.5);

  int detected = 0;
  int tracked = 0;
  int reused = 0;
  for (const auto& frame : run.frames) {
    switch (frame.source) {
      case core::ResultSource::kDetector: ++detected; break;
      case core::ResultSource::kTracker: ++tracked; break;
      default: ++reused; break;
    }
  }

  util::Table table({"metric", "value"});
  table.add_row({"mean F1 per frame", util::fmt(util::mean(f1), 3)});
  table.add_row({"video accuracy (F1 >= 0.7)",
                 util::fmt(metrics::video_accuracy(f1, 0.7), 3)});
  table.add_row({"detection cycles", std::to_string(run.cycles.size())});
  table.add_row({"frames: detected / tracked / reused",
                 std::to_string(detected) + " / " + std::to_string(tracked) +
                     " / " + std::to_string(reused)});
  table.add_row({"model-setting switches", std::to_string(run.setting_switches)});
  table.add_row({"energy (total)", util::fmt(run.energy.total_wh() * 1000, 2) + " mWh"});
  table.add_row({"real-time factor", util::fmt(run.latency_multiplier, 3)});
  table.add_row({"status", run.status.to_string()});
  if (run.faults_injected > 0) {
    table.add_row({"faults injected", std::to_string(run.faults_injected)});
  }
  table.print();

  std::cout << "\nPer-cycle settings chosen by the adapter:\n  ";
  for (const auto& cycle : run.cycles) {
    std::cout << detect::input_size(cycle.setting) << " ";
  }
  std::cout << "\n";

  // 5. Telemetry: rerun on the actual three-thread pipeline (§IV-B) with
  //    the obs subsystem enabled and dump the schedule as a trace.
  const std::string trace_out = args.get("trace-out", "");
  const std::string metrics_out = args.get("metrics-out", "");
  const std::string slo_spec_text = args.get("slo", "");
  const std::string slo_out = args.get("slo-out", "");
  const std::string flight_out = args.get("flight-recorder-out", "");
  std::optional<obs::SloSpec> slo_spec;
  if (!slo_spec_text.empty()) {
    std::string error;
    slo_spec = obs::SloSpec::parse(slo_spec_text, &error);
    if (!slo_spec.has_value()) {
      std::cerr << "error: bad --slo spec: " << error << "\n";
      return 2;
    }
  }
  if (!trace_out.empty() || !metrics_out.empty() || slo_spec.has_value() ||
      !flight_out.empty()) {
    obs::Telemetry& telemetry = obs::Telemetry::instance();
    obs::Telemetry::set_enabled(true);
    telemetry.reset();
    if (!flight_out.empty()) {
      // Arm the black box: the ring records continuously; if the run ends
      // non-OK (e.g. injected faults, watchdog trips) the post-mortem is
      // dumped automatically — we also dump explicitly below so a clean
      // run still yields a file to inspect.
      obs::Telemetry::set_flight_enabled(true);
      telemetry.set_flight_dump_path(flight_out);
    }

    // Render outside the timed run (parallel over frames on the shared
    // thread pool); the FrameStore then aliases the cache with zero copies.
    video.precache();
    core::RealtimeOptions rt;
    rt.adapter = &adapter;
    rt.setting = detect::ModelSetting::kYolov3_512;
    rt.time_scale = args.get_double("time-scale", 10.0);
    rt.seed = scene.seed;
    if (fault_plan.has_value()) {
      rt.fault_plan = &*fault_plan;
      rt.supervisor.enabled = true;  // let the ladder absorb the faults
    }
    if (slo_spec.has_value()) rt.slo = &*slo_spec;
    const core::RealtimeResult realtime = run_realtime(video, rt);
    obs::Telemetry::set_enabled(false);

    std::cout << "\nRealtime rerun: " << realtime.stats.frames_detected
              << " detections, " << realtime.stats.frames_tracked
              << " tracked frames, " << realtime.stats.tracking_tasks_cancelled
              << " cancelled tasks, status "
              << realtime.status.to_string() << "\n";
    std::cout << realtime.metrics.to_text();
    if (slo_spec.has_value()) {
      std::cout << "SLO: " << realtime.stats.slo_windows << " windows, "
                << realtime.stats.slo_violated_windows << " violated, "
                << realtime.stats.slo_breaches << " breach(es)"
                << (realtime.run.slo.in_breach_at_end ? ", in breach at end"
                                                      : "")
                << "\n";
      if (!slo_out.empty()) {
        std::ofstream out(slo_out);
        out << realtime.run.slo.to_json() << "\n";
        if (!out) {
          std::cerr << "error: cannot write SLO report: " << slo_out << "\n";
          return 1;
        }
        std::cout << "SLO report written to " << slo_out << "\n";
      }
    }
    if (!flight_out.empty()) {
      try {
        telemetry.write_flight_file(flight_out);
      } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
      }
      std::cout << "Flight-recorder dump written to " << flight_out
                << " (open in Perfetto or chrome://tracing)\n";
      obs::Telemetry::set_flight_enabled(false);
    }
    if (!trace_out.empty()) {
      try {
        telemetry.write_trace_file(trace_out);
      } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
      }
      std::cout << "Chrome trace written to " << trace_out
                << " (open in Perfetto or chrome://tracing)\n";
    }
    if (!metrics_out.empty()) {
      std::ofstream out(metrics_out);
      // The run's counter/histogram snapshot plus the windowed time-series
      // (per-second rates and sliding quantiles) side by side.
      out << "{\"snapshot\":" << realtime.metrics.to_json()
          << ",\"time_series\":" << telemetry.series_json() << "}\n";
      if (!out) {
        std::cerr << "error: cannot write metrics file: " << metrics_out << "\n";
        return 1;
      }
      std::cout << "Metrics snapshot written to " << metrics_out << "\n";
    }
  }
  return 0;
}
