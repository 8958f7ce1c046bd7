#pragma once

#include <string>
#include <typeinfo>
#include <vector>

#include "core/graph/packet.h"

namespace adavp::core::graph {

class Graph;
class NodeRun;

/// A declared connection point on a node. `type == nullptr` means the port
/// is payload-agnostic (the descriptive diagrams' stub nodes); otherwise the
/// graph rejects wiring two ports whose declared types disagree.
struct PortSpec {
  std::string name;
  const std::type_info* type = nullptr;
  /// Optional inputs do not gate runnability and may be left unconnected;
  /// nodes drain them with NodeRun::try_take (the adapter's velocity
  /// feedback: absent on the first cycle, latest-wins afterwards).
  bool optional = false;
};

/// One calculator in a dataflow graph (the MediaPipe analogy: a Node is a
/// Calculator, ports are tagged streams). Subclasses declare their ports
/// in the constructor and implement process(), which the scheduler calls
/// exactly when every required input has a packet queued and every
/// connected output queue has room for at least one packet — process()
/// never blocks and never polls.
///
/// Contract:
///  * take() each required input exactly once per activation;
///  * emit() at most `capacity` packets per connected output (one is
///    always safe; more only if the edge was wired wider);
///  * throwing aborts the run via the graph's first-failure path.
class Node {
 public:
  explicit Node(std::string name) : name_(std::move(name)) {}
  virtual ~Node() = default;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  const std::string& name() const { return name_; }
  const std::vector<PortSpec>& inputs() const { return inputs_; }
  const std::vector<PortSpec>& outputs() const { return outputs_; }

  /// One activation. Runs on the scheduler thread; use the shared
  /// util::ThreadPool *inside* (vision kernels, frame rendering) for data
  /// parallelism — activation order itself is deterministic and serial.
  virtual void process(NodeRun& run) = 0;

  /// Source nodes (no inputs) report completion here; the scheduler stops
  /// activating an exhausted source. Input-driven nodes never need it.
  virtual bool exhausted() const { return false; }

 protected:
  /// Port declaration (constructor-time only). Returns the port id used
  /// with NodeRun::take / emit.
  template <typename T>
  int declare_input(std::string name, bool optional = false) {
    inputs_.push_back({std::move(name), &typeid(T), optional});
    return static_cast<int>(inputs_.size()) - 1;
  }
  int declare_input_any(std::string name, bool optional = false) {
    inputs_.push_back({std::move(name), nullptr, optional});
    return static_cast<int>(inputs_.size()) - 1;
  }
  template <typename T>
  int declare_output(std::string name) {
    outputs_.push_back({std::move(name), &typeid(T), false});
    return static_cast<int>(outputs_.size()) - 1;
  }
  int declare_output_any(std::string name) {
    outputs_.push_back({std::move(name), nullptr, false});
    return static_cast<int>(outputs_.size()) - 1;
  }

 private:
  std::string name_;
  std::vector<PortSpec> inputs_;
  std::vector<PortSpec> outputs_;
};

/// The scheduler-provided view a node sees during one activation: its
/// input queues (front packets ready to take) and output queues (space
/// guaranteed for one packet each).
class NodeRun {
 public:
  /// Pops the head packet of required input `port`. The scheduler
  /// guarantees it exists; calling twice in one activation throws.
  Packet take(int port);

  /// Pops the head packet of input `port` if one is queued; returns an
  /// empty Packet otherwise. The way to drain optional inputs.
  Packet try_take(int port);

  /// Queues `packet` on every edge connected to output `port` (fan-out
  /// copies share the payload). Throws GraphError when an edge is full —
  /// the scheduler guarantees one slot, so this only fires on nodes that
  /// emit more packets per activation than the edge capacity allows.
  void emit(int port, Packet packet);

  template <typename T>
  void emit(int port, T value, double ts_ms) {
    emit(port, Packet::make<T>(std::move(value), ts_ms));
  }

 private:
  friend class Graph;
  NodeRun(Graph& graph, int node_index)
      : graph_(graph), node_index_(node_index) {}
  Graph& graph_;
  int node_index_;
};

}  // namespace adavp::core::graph
