#pragma once

#include <cstdint>

#include "core/run_result.h"
#include "track/tracker.h"
#include "util/fault_plan.h"
#include "video/scene.h"

namespace adavp::core {

/// Options of the offloading baseline (extension).
///
/// The paper argues against offloading (§I/§II: "offloading suffers from
/// privacy concerns and unpredictable network latency") but does not
/// evaluate it. This Glimpse-style baseline quantifies the argument on our
/// substrate: frames are shipped to an edge server that runs the *full*
/// YOLOv3-608 fast, but every result comes back one network round trip
/// stale; a local tracker bridges the gap exactly like MPDT's.
struct OffloadOptions {
  double rtt_ms = 60.0;             ///< network round-trip time
  double bandwidth_mbps = 20.0;     ///< uplink available to the camera
  double server_latency_ms = 35.0;  ///< server-side YOLOv3-608 inference
  double frame_bytes = 40000.0;     ///< compressed frame upload size
  std::uint64_t seed = 1234;
  track::TrackerParams tracker;
  /// When > 0, every uploaded frame really goes through the intra-frame
  /// codec (vision::encode_frame) at this quality: the transmit model uses
  /// the actual compressed size instead of the flat `frame_bytes`, and the
  /// server-side decode's util::Status is checked.
  ///
  /// A failed upload (a kDataLoss bitstream, or a `codec:` drop fault at
  /// any quality) is retried after 25 ms of pipeline time, up to 2 re-sends;
  /// when the budget is spent the cycle falls back to *local* detection
  /// (tiny model on the device GPU) and the run completes kDegraded —
  /// codec faults cost latency and accuracy, never the run.
  int codec_quality = 0;
  /// Non-null => deterministic fault injection (detector / camera /
  /// tracker channels; see EngineOptions::fault_plan). The `codec:`
  /// channel additionally targets the offload round trip, keyed by frame
  /// index: `drop n=K` loses the first K attempts' bitstreams, `stall
  /// ms=X` delays the uplink. Must outlive the run.
  const util::FaultPlan* fault_plan = nullptr;
  /// Non-null => per-window SLO evaluation (see EngineOptions::slo).
  const obs::SloSpec* slo = nullptr;
};

/// Total mean latency of one offloaded detection (transmit + RTT + server).
double offload_round_trip_ms(const OffloadOptions& options);

/// Runs the offloading pipeline on the virtual-time engine: MPDT's graph
/// ring without the adapter, its detector a remote backend whose
/// YOLOv3-608 detections arrive `offload_round_trip_ms` late, with local
/// tracking in between (see build_offload_graph). Radio energy is charged
/// to the CPU rail as a transmit-power segment.
RunResult run_offload(const video::SyntheticVideo& video,
                      const OffloadOptions& options);

}  // namespace adavp::core
