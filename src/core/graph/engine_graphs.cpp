#include "core/graph/engine_graphs.h"

#include <string>

#include "energy/power_model.h"
#include "video/scene.h"

namespace adavp::core::graph {

namespace {

/// Port-and-name-only node for the descriptive diagram of the realtime
/// engine, which still runs its hand-written threads. Never scheduled: the
/// topology exists purely for to_dot().
class StubNode : public Node {
 public:
  StubNode(std::string name, std::vector<std::string> ins,
           std::vector<std::string> outs)
      : Node(std::move(name)) {
    for (auto& in : ins) declare_input_any(std::move(in), /*optional=*/true);
    for (auto& out : outs) declare_output_any(std::move(out));
  }
  void process(NodeRun&) override {
    throw GraphError(name() + ": descriptive-only node cannot run");
  }
};

Graph descriptive_realtime() {
  Graph g;
  g.set_name("run_realtime");
  auto& camera = g.add<StubNode>("camera", std::vector<std::string>{},
                                std::vector<std::string>{"frame"});
  auto& resampler =
      g.add<StubNode>("resampler", std::vector<std::string>{"frame"},
                      std::vector<std::string>{"frame"});
  auto& degradation = g.add<StubNode>(
      "degradation", std::vector<std::string>{"frame", "overrun"},
      std::vector<std::string>{"frame"});
  auto& detector =
      g.add<StubNode>("detector", std::vector<std::string>{"frame"},
                      std::vector<std::string>{"detections", "overrun"});
  auto& tracker = g.add<StubNode>(
      "tracker", std::vector<std::string>{"frame", "detections"},
      std::vector<std::string>{"boxes"});
  auto& sink = g.add<StubNode>("sink", std::vector<std::string>{"boxes"},
                               std::vector<std::string>{});
  g.connect(camera, "frame", resampler, "frame");
  g.connect(resampler, "frame", degradation, "frame");
  g.connect(degradation, "frame", detector, "frame");
  g.connect(detector, "overrun", degradation, "overrun");
  g.connect(detector, "detections", tracker, "detections");
  g.connect(camera, "frame", tracker, "frame", /*capacity=*/8);
  g.connect(tracker, "boxes", sink, "boxes");
  return g;
}

}  // namespace

Graph build_detect_only_graph(EngineContext& ctx,
                              detect::ModelSetting setting) {
  Graph g;
  g.set_name("run_detect_only");
  auto& camera =
      g.add<CameraSourceNode>(ctx, CameraSourceNode::Mode::kFeedback, setting);
  auto& detector = g.add<DetectorNode>(ctx, /*continuous_power=*/false,
                                       /*emit_detect_span=*/true);
  auto& sink = g.add<SinkNode>(ctx, SinkNode::Mode::kDetectOnly, "detect_only");
  g.connect(camera, "frame", detector, "frame");
  g.connect(detector, "event", sink, "event");
  g.connect(sink, "tick", camera, "tick");
  g.prime(camera, "tick", Packet::make<CycleTick>({}, 0.0));
  return g;
}

Graph build_continuous_graph(EngineContext& ctx, detect::ModelSetting setting,
                             double cpu_feed_w) {
  Graph g;
  g.set_name("run_continuous");
  auto& camera = g.add<CameraSourceNode>(
      ctx, CameraSourceNode::Mode::kEveryFrame, setting);
  auto& detector = g.add<DetectorNode>(ctx, /*continuous_power=*/true,
                                       /*emit_detect_span=*/true);
  auto& sink = g.add<SinkNode>(ctx, SinkNode::Mode::kContinuous, "continuous",
                               cpu_feed_w);
  // Bounded queues pace the free-running camera: the downstream-first
  // scheduler keeps at most one packet in flight per edge, and the bound
  // guarantees it even under a different scan policy.
  g.connect(camera, "frame", detector, "frame", /*capacity=*/2);
  g.connect(detector, "event", sink, "event", /*capacity=*/2);
  return g;
}

Graph build_mpdt_graph(EngineContext& ctx, detect::ModelSetting setting,
                       const adapt::ModelAdapter* adapter,
                       SelectionPolicy selection) {
  Graph g;
  g.set_name(adapter != nullptr ? "run_adavp" : "run_mpdt");
  auto& camera =
      g.add<CameraSourceNode>(ctx, CameraSourceNode::Mode::kFeedback, setting);
  auto& adapt_node = g.add<AdapterNode>(ctx, adapter, setting);
  auto& detector = g.add<DetectorNode>(ctx, /*continuous_power=*/false,
                                       /*emit_detect_span=*/false);
  auto& catchup =
      g.add<TrackerCatchupNode>(ctx, selection, /*carry_velocity=*/true);
  auto& sink = g.add<SinkNode>(ctx, SinkNode::Mode::kMpdt, "mpdt");
  g.connect(camera, "frame", adapt_node, "frame");
  g.connect(adapt_node, "frame", detector, "frame");
  g.connect(detector, "event", catchup, "event");
  g.connect(catchup, "cycle", sink, "cycle");
  g.connect(catchup, "velocity", adapt_node, "velocity");
  g.connect(sink, "tick", camera, "tick");
  g.prime(camera, "tick", Packet::make<CycleTick>({}, 0.0));
  return g;
}

std::string engine_topology_dot(const std::string& engine) {
  if (engine == "realtime") return descriptive_realtime().to_dot();

  // The graph-backed engines export their *executable* wiring: build the real
  // graph over a throwaway one-frame context and dump it without running.
  video::SceneConfig config;
  config.width = 64;
  config.height = 64;
  config.frame_count = 1;
  const video::SyntheticVideo video(config);
  EngineContext ctx(video, {});
  const detect::ModelSetting setting = detect::ModelSetting::kYolov3_512;
  if (engine == "detect_only") {
    return build_detect_only_graph(ctx, setting).to_dot();
  }
  if (engine == "continuous") {
    return build_continuous_graph(ctx, setting,
                                  energy::PowerModel::cpu_feed_w(setting))
        .to_dot();
  }
  if (engine == "mpdt" || engine == "adavp") {
    static const adapt::ModelAdapter adapter{adapt::ThresholdSet{}};
    return build_mpdt_graph(ctx, setting,
                            engine == "adavp" ? &adapter : nullptr,
                            SelectionPolicy::kAdaptiveFraction)
        .to_dot();
  }
  if (engine == "marlin") return build_marlin_graph(ctx, {}).to_dot();
  if (engine == "offload") return build_offload_graph(ctx, {}).to_dot();
  throw GraphError("unknown engine '" + engine + "' (expected mpdt, adavp, "
                   "detect_only, continuous, marlin, realtime, or offload)");
}

}  // namespace adavp::core::graph
