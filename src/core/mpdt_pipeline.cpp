#include "core/mpdt_pipeline.h"

#include "core/graph/engine_graphs.h"
#include "obs/telemetry.h"

namespace adavp::core {

RunResult run_mpdt(const video::SyntheticVideo& video, const MpdtOptions& options) {
  obs::ScopedSpan run_span("run_mpdt", "pipeline", video.frame_count(), "frames");
  EngineContext ctx(video, {.seed = options.seed,
                            .tracker = options.tracker,
                            .fault_plan = options.fault_plan,
                            .slo = options.slo});
  if (ctx.frame_count == 0) return std::move(ctx.run);

  // The engine as a graph spec: camera -> adapter -> detector -> catchup
  // -> sink ring with a velocity feedback edge (see build_mpdt_graph).
  graph::Graph g = graph::build_mpdt_graph(ctx, options.setting,
                                           options.adapter, options.selection);
  const Status status = g.run();
  if (!status.ok()) ctx.fail("mpdt engine: " + status.message());
  ctx.finish();
  return std::move(ctx.run);
}

}  // namespace adavp::core
