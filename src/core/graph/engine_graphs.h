#pragma once

#include <string>

#include "core/baselines.h"
#include "core/graph/graph.h"
#include "core/graph/nodes.h"
#include "core/offload.h"

namespace adavp::core::graph {

/// The engine ring topologies, declarative graph specs over one
/// EngineContext. These are the only implementation of the virtual-time
/// engines: run_detect_only / run_continuous / run_mpdt / run_marlin /
/// run_offload build one, run it, and annotate a failed Status with the
/// engine name. Builders only wire; the caller runs. The context must
/// outlive the graph.
///
/// detect-only:  camera -> detector -> sink -(tick)-> camera
/// continuous:   camera -> detector -> sink            (no ring: camera
///               free-runs, paced purely by edge backpressure)
/// mpdt/adavp:   camera -> adapter -> detector -> catchup -> sink
///               -(tick)-> camera, plus catchup -(velocity)-> adapter
/// offload:      the mpdt ring without the adapter, its detector remote
/// marlin:       camera -> detector -> tracker -(tick)-> camera
Graph build_detect_only_graph(EngineContext& ctx,
                              detect::ModelSetting setting);
Graph build_continuous_graph(EngineContext& ctx, detect::ModelSetting setting,
                             double cpu_feed_w);
Graph build_mpdt_graph(EngineContext& ctx, detect::ModelSetting setting,
                       const adapt::ModelAdapter* adapter,
                       SelectionPolicy selection);
/// Defined beside their engine's own node (baselines.cpp, offload.cpp).
Graph build_marlin_graph(EngineContext& ctx, const MarlinOptions& options);
Graph build_offload_graph(EngineContext& ctx, const OffloadOptions& options);

/// Graphviz topology for any engine by name ("mpdt", "adavp",
/// "detect_only", "continuous", "marlin", "realtime", "offload"). The
/// graph-backed engines export their real executable wiring; realtime,
/// still three hand-written threads, exports a descriptive diagram so
/// `quickstart --graph-out` covers the whole engine table. Throws GraphError
/// on an unknown engine name.
std::string engine_topology_dot(const std::string& engine);

}  // namespace adavp::core::graph
