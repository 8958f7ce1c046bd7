// Dataflow-graph runtime suite (DESIGN.md §16).
//
// Three claims pinned here:
//
//  1. Packet semantics and wiring: typed payload access, copies that share
//     (never copy) the payload, and type-checked connections rejected at
//     connect time.
//  2. Scheduler contract: deterministic most-downstream-first activation,
//     bounded queues that never exceed their capacity, and clean Status
//     outcomes for every edge case — zero-item sources, a node throwing
//     mid-graph (first-failure path, never a hang or abort), required
//     inputs left starving (stall detection), livelocking nodes.
//  3. Introspection and telemetry: Graphviz export of every engine's
//     topology, and node metrics that compose under a fleet stream's
//     metric prefix ("fleet.streamN.graph.node.<name>.*").
//
// What the graph-backed engines compute is pinned by the golden digests in
// test_engine_equivalence.cpp, fault-free and under a seeded chaos plan.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/graph/engine_graphs.h"
#include "core/graph/graph.h"
#include "core/graph/nodes.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "vision/image.h"

namespace adavp::core::graph {
namespace {

// --- test calculators --------------------------------------------------------

/// Emits the ints [0, n) one per activation, stamped ts = 10*i.
class IntSource : public Node {
 public:
  IntSource(std::string name, int n) : Node(std::move(name)), n_(n) {
    out_ = declare_output<int>("out");
  }
  void process(NodeRun& run) override {
    run.emit(out_, next_, 10.0 * next_);
    ++next_;
  }
  bool exhausted() const override { return next_ >= n_; }

 private:
  const int n_;
  int next_ = 0;
  int out_;
};

class DoubleNode : public Node {
 public:
  DoubleNode() : Node("doubler") {
    in_ = declare_input<int>("in");
    out_ = declare_output<int>("out");
  }
  void process(NodeRun& run) override {
    Packet p = run.take(in_);
    run.emit(out_, 2 * p.get<int>(), p.ts_ms());
  }

 private:
  int in_, out_;
};

/// Collects every int (and its timestamp) it consumes.
class CollectSink : public Node {
 public:
  CollectSink() : Node("collector") { in_ = declare_input_any("in"); }
  void process(NodeRun& run) override {
    Packet p = run.take(in_);
    if (p.holds<int>()) values.push_back(p.get<int>());
    ts.push_back(p.ts_ms());
  }
  std::vector<int> values;
  std::vector<double> ts;

 private:
  int in_;
};

class ThrowingNode : public Node {
 public:
  ThrowingNode() : Node("exploder") {
    in_ = declare_input<int>("in");
    out_ = declare_output<int>("out");
  }
  void process(NodeRun& run) override {
    Packet p = run.take(in_);
    if (p.get<int>() >= 3) throw std::runtime_error("boom at 3");
    run.emit(out_, p.get<int>(), p.ts_ms());
  }

 private:
  int in_, out_;
};

/// Violates the consume-at-least-one contract: runnable forever.
class NoConsumeNode : public Node {
 public:
  NoConsumeNode() : Node("lurker") { in_ = declare_input<int>("in"); }
  void process(NodeRun&) override {}

 private:
  int in_;
};

/// Requires both inputs; used to engineer a starvation stall.
class JoinNode : public Node {
 public:
  JoinNode() : Node("join") {
    a_ = declare_input<int>("a");
    b_ = declare_input<int>("b");
    out_ = declare_output<int>("out");
  }
  void process(NodeRun& run) override {
    Packet a = run.take(a_);
    Packet b = run.take(b_);
    run.emit(out_, a.get<int>() + b.get<int>(), a.ts_ms());
  }

 private:
  int a_, b_, out_;
};

/// Emits two packets per activation — overflows a capacity-1 edge.
class OverEmitter : public Node {
 public:
  OverEmitter() : Node("overemitter") { out_ = declare_output<int>("out"); }
  void process(NodeRun& run) override {
    run.emit(out_, 1, 0.0);
    run.emit(out_, 2, 0.0);
    done_ = true;
  }
  bool exhausted() const override { return done_; }

 private:
  bool done_ = false;
  int out_;
};

class TicketCollect : public Node {
 public:
  TicketCollect() : Node("ticket_sink") {
    in_ = declare_input<FrameTicket>("in");
  }
  void process(NodeRun& run) override {
    settings.push_back(run.take(in_).get<FrameTicket>().setting);
  }
  std::vector<detect::ModelSetting> settings;

 private:
  int in_;
};

// --- packet semantics --------------------------------------------------------

TEST(Packet, TypedAccessAndTimestamps) {
  const Packet p = Packet::make<int>(41, 12.5);
  EXPECT_FALSE(p.empty());
  EXPECT_TRUE(p.holds<int>());
  EXPECT_FALSE(p.holds<double>());
  EXPECT_EQ(p.get<int>(), 41);
  EXPECT_DOUBLE_EQ(p.ts_ms(), 12.5);
  EXPECT_THROW(p.get<double>(), GraphError);
  EXPECT_THROW(Packet().get<int>(), GraphError);
  EXPECT_TRUE(Packet().empty());
}

TEST(Packet, CopiesSharePayloadWithoutCopyingIt) {
  auto image = std::make_shared<const vision::ImageU8>(8, 8);
  video::FrameRef ref{0, 0.0, image};
  EXPECT_EQ(image.use_count(), 2);  // `image` + ref
  {
    const Packet p = Packet::make<video::FrameRef>(ref, 0.0);
    const Packet copy = p;
    // One holder shared by both packets: +1, not +2.
    EXPECT_EQ(image.use_count(), 3);
    EXPECT_EQ(copy.get<video::FrameRef>().use_count(), 3);
  }
  EXPECT_EQ(image.use_count(), 2);  // packets gone, payload released
}

// --- wiring validation -------------------------------------------------------

TEST(GraphWiring, RejectsUnknownPortsTypeMismatchesAndDoubleFeeds) {
  Graph g;
  auto& src = g.add<IntSource>("src", 3);
  auto& sink = g.add<CollectSink>();
  EXPECT_THROW(g.connect(src, "nope", sink, "in"), GraphError);
  EXPECT_THROW(g.connect(src, "out", sink, "nope"), GraphError);
  g.connect(src, "out", sink, "in");
  EXPECT_THROW(g.connect(src, "out", sink, "in"), GraphError);  // double feed

  // Wiring an int output into a FrameTicket input is a type error at
  // connect time, not a runtime surprise.
  Graph t;
  auto& tsrc = t.add<IntSource>("src", 1);
  auto& tickets = t.add<TicketCollect>();
  EXPECT_THROW(t.connect(tsrc, "out", tickets, "in"), GraphError);
}

TEST(GraphWiring, UnconnectedRequiredInputFailsTheRun) {
  Graph g;
  g.add<IntSource>("src", 2);
  auto& join = g.add<JoinNode>();
  auto& sink = g.add<CollectSink>();
  g.connect(join, "out", sink, "in");
  // join.a and join.b both unconnected.
  const Status status = g.run();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("join.a"), std::string::npos)
      << status.message();
}

// --- scheduler contract ------------------------------------------------------

TEST(GraphScheduler, RunsChainInOrderWithBoundedQueues) {
  Graph g;
  auto& src = g.add<IntSource>("src", 100);
  auto& doubler = g.add<DoubleNode>();
  auto& sink = g.add<CollectSink>();
  g.connect(src, "out", doubler, "in", /*capacity=*/4);
  g.connect(doubler, "out", sink, "in", /*capacity=*/4);
  const Status status = g.run();
  ASSERT_TRUE(status.ok()) << status.to_string();
  ASSERT_EQ(sink.values.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sink.values[i], 2 * i);
  EXPECT_EQ(g.queued_packets(), 0u);
  // Downstream-first scheduling keeps at most one packet in flight per
  // edge; the bound holds regardless.
  EXPECT_LE(g.max_queued_packets(), 8u);
  EXPECT_EQ(g.activations(), 300u);
}

TEST(GraphScheduler, ZeroItemSourceCompletesCleanly) {
  Graph g;
  auto& src = g.add<IntSource>("src", 0);
  auto& sink = g.add<CollectSink>();
  g.connect(src, "out", sink, "in");
  const Status status = g.run();
  EXPECT_TRUE(status.ok()) << status.to_string();
  EXPECT_TRUE(sink.values.empty());
  EXPECT_EQ(g.activations(), 0u);
}

TEST(GraphScheduler, ZeroFrameEngineRingCompletesCleanly) {
  video::SceneConfig config;
  config.width = 64;
  config.height = 48;
  config.frame_count = 0;
  const video::SyntheticVideo video(config);
  EngineContext ctx(video, {});
  Graph g = build_detect_only_graph(ctx, detect::ModelSetting::kYolov3_512);
  const Status status = g.run();
  EXPECT_TRUE(status.ok()) << status.to_string();
  EXPECT_TRUE(ctx.run.cycles.empty());
  EXPECT_EQ(g.activations(), 1u);  // the camera consuming its prime
}

TEST(GraphScheduler, ThrowingNodeSurfacesAsWorkerFailureNotAHang) {
  Graph g;
  auto& src = g.add<IntSource>("src", 10);
  auto& thrower = g.add<ThrowingNode>();
  auto& sink = g.add<CollectSink>();
  g.connect(src, "out", thrower, "in");
  g.connect(thrower, "out", sink, "in");
  const Status status = g.run();
  EXPECT_EQ(status.code(), StatusCode::kWorkerFailure);
  EXPECT_NE(status.message().find("exploder"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("boom at 3"), std::string::npos)
      << status.message();
  // Packets produced before the failure were processed; in-flight ones
  // were dropped, not leaked.
  EXPECT_EQ(sink.values, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(g.queued_packets(), 0u);
}

TEST(GraphScheduler, NonConsumingNodeIsALivelockErrorNotASpin) {
  Graph g;
  auto& src = g.add<IntSource>("src", 5);
  auto& lurker = g.add<NoConsumeNode>();
  g.connect(src, "out", lurker, "in");
  const Status status = g.run();
  EXPECT_EQ(status.code(), StatusCode::kWorkerFailure);
  EXPECT_NE(status.message().find("livelock"), std::string::npos)
      << status.message();
}

TEST(GraphScheduler, StarvedRequiredInputIsAStallStatusNotADeadlock) {
  Graph g;
  auto& feast = g.add<IntSource>("feast", 5);
  auto& famine = g.add<IntSource>("famine", 0);  // exhausted immediately
  auto& join = g.add<JoinNode>();
  auto& sink = g.add<CollectSink>();
  g.connect(feast, "out", join, "a", /*capacity=*/2);
  g.connect(famine, "out", join, "b", /*capacity=*/2);
  g.connect(join, "out", sink, "in");
  const Status status = g.run();
  EXPECT_EQ(status.code(), StatusCode::kWorkerFailure);
  EXPECT_NE(status.message().find("stalled"), std::string::npos)
      << status.message();
  EXPECT_EQ(g.queued_packets(), 0u);  // stranded packets were drained
}

TEST(GraphScheduler, EmittingPastEdgeCapacityIsAContractError) {
  Graph g;
  auto& burst = g.add<OverEmitter>();
  auto& sink = g.add<CollectSink>();
  g.connect(burst, "out", sink, "in", /*capacity=*/1);
  const Status status = g.run();
  EXPECT_EQ(status.code(), StatusCode::kWorkerFailure);
  EXPECT_NE(status.message().find("overflows"), std::string::npos)
      << status.message();
}

// --- introspection and telemetry --------------------------------------------

TEST(GraphIntrospection, ToDotExportsTheWiredTopology) {
  const std::string dot = engine_topology_dot("mpdt");
  EXPECT_NE(dot.find("digraph \"run_mpdt\""), std::string::npos) << dot;
  EXPECT_NE(dot.find("rankdir=LR"), std::string::npos);
  EXPECT_NE(dot.find("\"camera\" -> \"adapter\""), std::string::npos) << dot;
  EXPECT_NE(dot.find("\"catchup\" -> \"adapter\""), std::string::npos) << dot;
  EXPECT_NE(dot.find("style=dashed"), std::string::npos)
      << "primed feedback edge must be dashed: " << dot;

  // Offload is MPDT's ring without the adapter, its detector remote.
  const std::string offload = engine_topology_dot("offload");
  EXPECT_NE(offload.find("digraph \"run_offload\""), std::string::npos)
      << offload;
  EXPECT_NE(offload.find("\"detector\" -> \"catchup\""), std::string::npos)
      << offload;

  // MARLIN's tracker clocks the camera over the primed feedback edge.
  const std::string marlin = engine_topology_dot("marlin");
  EXPECT_NE(marlin.find("digraph \"run_marlin\""), std::string::npos)
      << marlin;
  EXPECT_NE(marlin.find("\"tracker\" -> \"camera\" [label=\"tick -> tick "
                        "cap=1\", style=dashed]"),
            std::string::npos)
      << marlin;

  // Realtime, still hand-written threads, exports a descriptive diagram so
  // --graph-out covers the whole engine table.
  EXPECT_NE(engine_topology_dot("realtime").find("degradation"),
            std::string::npos);
  EXPECT_THROW(engine_topology_dot("warp_drive"), GraphError);
}

TEST(GraphTelemetry, NodeInstrumentsComposeUnderAFleetStreamPrefix) {
  obs::Telemetry::set_enabled(true);
  obs::Telemetry::instance().reset();
  {
    obs::ScopedMetricPrefix stream("fleet.stream7.");
    Graph g;
    auto& src = g.add<IntSource>("src", 5);
    auto& sink = g.add<CollectSink>();
    g.connect(src, "out", sink, "in");
    ASSERT_TRUE(g.run().ok());
  }
  const obs::MetricsSnapshot snap = obs::Telemetry::instance().snapshot();
  EXPECT_EQ(snap.counter("fleet.stream7.graph.node.src.activations"), 5u);
  EXPECT_EQ(snap.counter("fleet.stream7.graph.node.collector.activations"),
            5u);
  EXPECT_EQ(snap.counter("fleet.stream7.graph.scheduler.activations"), 10u);
  obs::Telemetry::instance().reset();
  obs::Telemetry::set_enabled(false);
}

}  // namespace
}  // namespace adavp::core::graph
