#pragma once

#include "vision/simd/isa.h"

namespace adavp::vision {

/// Settings of the vision kernels (the "kernel engine",
/// docs/PERFORMANCE.md), threaded from `TrackerParams` to Shi-Tomasi, the
/// pyramid and pyramidal LK.
///
/// `num_threads` applies to LK's points, the vision layer's one parallel
/// region: `0` (default) splits them on the shared `util::ThreadPool` at
/// hardware width, `1` runs them on the calling thread without touching
/// the pool, and `n > 1` uses at most `n` threads. Points are independent,
/// so every value produces identical output. Every other kernel runs on
/// the calling thread.
struct KernelConfig {
  int num_threads = 0;  ///< LK's points: 0 = hardware concurrency, 1 = serial

  /// Data-level parallelism tier (DESIGN.md §14). `kAuto` (default) lets
  /// the runtime dispatcher pick: the `ADAVP_FORCE_ISA` env override if
  /// set, else the best cpuid-detected tier. Any explicit choice is
  /// clamped down to what the CPU and build support. Every tier is
  /// bit-identical to `kScalar`, so this knob trades only speed.
  simd::Isa isa = simd::Isa::kAuto;
};

/// Publishes shared-pool statistics (queue depth, chunk counts) as obs
/// gauges/counters under the "kernel_pool" component. One relaxed load
/// when telemetry is disabled; never starts the pool.
void publish_pool_metrics();

}  // namespace adavp::vision
