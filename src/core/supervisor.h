#pragma once

#include "core/fleet.h"
#include "obs/telemetry.h"

namespace adavp::core {

/// Everything one fleet stream thread needs: its options, its slice of the
/// fleet result, and the shared coordinator. All times inside the stream
/// policy are stream-local; the GPU speaks global fleet time, converted by
/// `offset_ms` at the submit/grant boundary.
struct StreamRuntime {
  int id = 0;
  const FleetStreamOptions* options = nullptr;
  bool supervised = false;   ///< FleetSupervisorOptions::enabled
  double offset_ms = 0.0;    ///< global-time stagger offset
  double deadline_ms = 0.0;  ///< relative per-result deadline
  FleetGpu* gpu = nullptr;
  obs::TimeSeries* fleet_latency = nullptr;  ///< null when telemetry is off
  FleetStreamResult* out = nullptr;
};

/// One stream's whole life under fleet supervision (DESIGN.md §15).
///
/// The inner policy is the PR 7 cadenced detect-and-coast loop over an
/// EngineContext, detection routed through the shared FleetGpu. The
/// supervisor wraps it with fault isolation:
///
///   - `stream:` channel faults (crash / wedge) injected at the engine
///     loop, keyed by frame index;
///   - crash containment: an exception quarantines the stream (its duty
///     returns to the ledger) instead of ending it, up to 3 restarts;
///   - bounded restart: exponential backoff with deterministic jitter,
///     then re-admission probes against the live duty ledger; a granted
///     probe resumes from the last checkpointed cycle (reference boxes,
///     ladder forced to level 3, first cycle coasts) on the
///     stream's own cadence phase;
///   - dynamic admission: a statically-rejected stream parks on periodic
///     probes and joins mid-run when capacity frees up;
///   - victim accounting for `gpu:` faults its grants absorbed.
///
/// With FleetSupervisorOptions::enabled off (or on but the run stays
/// healthy), the policy is byte-identical to the unsupervised stream —
/// pinned by tests/test_fleet_chaos.cpp.
class StreamSupervisor {
 public:
  explicit StreamSupervisor(StreamRuntime rt) : rt_(std::move(rt)) {}

  /// Runs the stream to completion (or permanent quarantine). Fills
  /// rt.out and calls FleetGpu::finished exactly once.
  void run();

 private:
  StreamRuntime rt_;
};

}  // namespace adavp::core
