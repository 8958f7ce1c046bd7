#include "vision/kernel_config.h"

#include "obs/telemetry.h"
#include "util/thread_pool.h"
#include "vision/simd/dispatch.h"

namespace adavp::vision {

void publish_pool_metrics() {
  if (!obs::Telemetry::enabled()) return;
  // ISA tier of the most recent kernel dispatch (scalar=0, sse2=1, avx2=2)
  // — independent of the pool, which serial configs never start.
  const int isa_code = simd::last_dispatched_code();
  if (isa_code >= 0) {
    obs::metrics().gauge("kernel", "isa").set(static_cast<double>(isa_code));
  }
  const util::ThreadPool* pool = util::ThreadPool::shared_if_started();
  if (pool == nullptr) return;
  const util::ThreadPool::Stats s = pool->stats();
  obs::MetricsRegistry& reg = obs::metrics();
  reg.gauge("kernel_pool", "workers").set(static_cast<double>(s.workers));
  reg.gauge("kernel_pool", "queue_depth").set(static_cast<double>(s.queue_depth));
  reg.gauge("kernel_pool", "peak_queue_depth")
      .set(static_cast<double>(s.peak_queue_depth));
  reg.gauge("kernel_pool", "parallel_regions")
      .set(static_cast<double>(s.parallel_regions));
  reg.gauge("kernel_pool", "chunks_executed")
      .set(static_cast<double>(s.chunks_executed));
}

}  // namespace adavp::vision
