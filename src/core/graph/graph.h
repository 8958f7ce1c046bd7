#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/graph/node.h"
#include "core/graph/packet.h"
#include "core/status.h"

namespace adavp::core::graph {

/// A wired dataflow graph plus its deterministic scheduler (DESIGN.md §16).
///
/// Topology: nodes connected by bounded single-producer single-consumer
/// packet queues (edges). An output port may fan out to several edges
/// (packets are shared, not copied); an input port has exactly one
/// feeding edge. Cycles are legal — that is how an engine's completion
/// tick clocks its camera source — and are started by priming the
/// feedback edge with an initial packet.
///
/// Scheduling: a single-threaded deterministic event loop over virtual
/// time. Each step activates the most-downstream runnable node — nodes are
/// scanned in *reverse insertion order* (builders add nodes source-first,
/// sink-last, so sinks drain before sources produce), which keeps queues
/// shallow and runs an engine ring one cycle at a time — the interleave the
/// engine golden digests pin. A node is runnable when every required input
/// has a packet queued, every connected output edge has room
/// (backpressure), and — for a source — it is not exhausted. The run ends
/// when no node is runnable: with all required-input queues empty that is
/// completion (latest-wins leftovers on *optional* inputs are dropped); with
/// packets stranded on required inputs it is a stall, reported as a failed
/// Status rather than a hang. Because activation order is a pure function
/// of the wiring, runs are bit-identical per seed regardless of host,
/// repeat, or thread count — node-internal data parallelism (vision
/// kernels, frame rendering) rides the shared util::ThreadPool, which is
/// bit-identical by the kernel contract; the engine's core::Clock is only
/// ever touched from the scheduler thread.
///
/// First-failure path: a node throwing mid-activation aborts the run and
/// surfaces as Status::worker_failure("<node>: <what>"); remaining
/// packets are dropped (releasing their payloads). The graph never
/// terminates the process and never hangs on a failure.
class Graph {
 public:
  Graph() = default;
  Graph(Graph&&) = default;
  Graph& operator=(Graph&&) = default;

  /// Display name used by to_dot() and telemetry ("run_mpdt", ...).
  void set_name(std::string name) { name_ = std::move(name); }
  const std::string& name() const { return name_; }

  /// Constructs a node in place. The scheduler scans nodes in reverse
  /// insertion order, so builders add them in dataflow order (source
  /// first, sink last) — that order is the determinism contract, not an
  /// aesthetic.
  template <typename N, typename... Args>
  N& add(Args&&... args) {
    auto node = std::make_unique<N>(std::forward<Args>(args)...);
    N& ref = *node;
    add_node(std::move(node));
    return ref;
  }

  /// Wires `from`'s output port to `to`'s input port with a queue bounded
  /// at `capacity` packets. Throws GraphError on unknown ports, type
  /// disagreement, or an already-fed input port.
  void connect(Node& from, std::string_view from_port, Node& to,
               std::string_view to_port, int capacity = 1);

  /// Queues `packet` on the edge feeding `to`'s input port before the run
  /// starts — the initial packet of a feedback cycle. Counts against the
  /// edge capacity.
  void prime(Node& to, std::string_view to_port, Packet packet);

  /// Runs the graph to quiescence. See class comment for the contract.
  Status run();

  /// Graphviz export of the wired topology (satellite: quickstart
  /// --graph-out). Edge labels show port names and queue capacity;
  /// primed (feedback) edges are dashed.
  std::string to_dot() const;

  // --- introspection (tests, bench) ---------------------------------------
  std::uint64_t activations() const { return activations_; }
  /// Packets currently queued across all edges (0 after a clean run).
  std::size_t queued_packets() const;
  /// High-water mark of queued_packets() observed during run().
  std::size_t max_queued_packets() const { return max_queued_; }
  std::size_t node_count() const { return nodes_.size(); }

 private:
  friend class NodeRun;

  struct Edge {
    int from_node = -1;
    int from_port = -1;
    int to_node = -1;
    int to_port = -1;
    int capacity = 1;
    bool primed = false;
    std::deque<Packet> queue;
  };

  struct NodeSlot {
    std::unique_ptr<Node> node;
    /// Edge ids per output port (fan-out) and the single feeding edge per
    /// input port (-1 when unconnected).
    std::vector<std::vector<int>> out_edges;
    std::vector<int> in_edge;
    /// Interned copy of the node name: span events keep a const char* that
    /// may be exported after the graph is destroyed.
    const char* interned_name = nullptr;
  };

  void add_node(std::unique_ptr<Node> node);
  int index_of(const Node& node) const;
  int input_port(const NodeSlot& slot, std::string_view name) const;
  int output_port(const NodeSlot& slot, std::string_view name) const;
  bool runnable(const NodeSlot& slot) const;
  /// Throws GraphError when the wiring is inconsistent (a required input
  /// left unconnected).
  void validate() const;
  void note_queue_depth();

  std::string name_ = "graph";
  std::vector<NodeSlot> nodes_;
  std::vector<Edge> edges_;
  std::uint64_t activations_ = 0;
  std::size_t max_queued_ = 0;
  // Per-activation scratch shared with NodeRun (scheduler is serial).
  int takes_this_activation_ = 0;
};

}  // namespace adavp::core::graph
