#pragma once

#include <cstdint>
#include <functional>

#include "vision/simd/isa.h"

namespace adavp::vision {

/// Degree-of-parallelism knobs for the vision kernels (the "kernel
/// engine", docs/PERFORMANCE.md). Threaded from `TrackerParams` through
/// every hot kernel: smoothing, Sobel, Shi-Tomasi, and pyramidal LK, whose
/// point-parallel workers also build the pyramid tiles they read.
///
/// `num_threads == 0` (default) resolves to the machine's hardware
/// concurrency via the shared `util::ThreadPool`; `1` forces the serial
/// path — bit-exact with the historical single-threaded kernels and the
/// right choice for reproducibility runs. The kernels are embarrassingly
/// parallel over rows/points with no cross-chunk reductions, so every
/// thread count produces identical output; `1` differs only in never
/// touching the pool.
struct KernelConfig {
  int num_threads = 0;          ///< 0 = hardware concurrency, 1 = serial
  int min_rows_per_task = 32;   ///< row-parallel kernels: splitting grain
  int min_points_per_task = 1;  ///< LK: points per chunk (points are heavy)

  /// Data-level parallelism tier (DESIGN.md §14). `kAuto` (default) lets
  /// the runtime dispatcher pick: the `ADAVP_FORCE_ISA` env override if
  /// set, else the best cpuid-detected tier. Any explicit choice is
  /// clamped down to what the CPU and build support. Every tier is
  /// bit-identical to `kScalar`, so this knob trades only speed.
  simd::Isa isa = simd::Isa::kAuto;

  /// The actual thread budget this config resolves to on this machine.
  int resolved_threads() const;
};

/// Runs `body(row_begin, row_end)` over [0, rows) on the shared pool,
/// honoring `config`. Serial configs (and rows below the grain) call
/// `body(0, rows)` inline without touching the pool.
void parallel_rows(int rows, const KernelConfig& config,
                   const std::function<void(int, int)>& body);

/// Point-parallel variant used by LK: grain comes from
/// `min_points_per_task` instead of the row grain.
void parallel_points(int count, const KernelConfig& config,
                     const std::function<void(int, int)>& body);

/// Publishes shared-pool statistics (queue depth, chunk counts) as obs
/// gauges/counters under the "kernel_pool" component. One relaxed load
/// when telemetry is disabled; never starts the pool.
void publish_pool_metrics();

}  // namespace adavp::vision
