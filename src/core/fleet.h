#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine_runtime.h"
#include "core/run_result.h"
#include "detect/model_setting.h"
#include "video/scene.h"

namespace adavp::core {

/// Tuning of the fleet's shared simulated GPU (DESIGN.md §13).
struct GpuOptions {
  /// Largest batch one dispatch may coalesce. 1 disables batching (and the
  /// grant latency of every request is bit-identical to a solo detection).
  int max_batch = 4;
  /// EDF aging: a queued request's priority key is
  ///   deadline - aging_factor * time_waited
  /// so a stream with a lax deadline still wins eventually — its key falls
  /// linearly with waiting time while fresh requests' keys track the
  /// (advancing) capture clock. 0 restores pure EDF, which can starve.
  double aging_factor = 2.0;
  /// Watchdog budget per hung dispatch attempt (gpu: hang/wedge faults):
  /// after this much virtual time with no completion the fleet watchdog
  /// cancels the attempt, bills the budget to every batch member, and
  /// re-enqueues the batch.
  double hang_budget_ms = 250.0;
  /// Re-dispatch attempts the watchdog grants after the first hung or
  /// dropped attempt before abandoning the batch (members coast that
  /// cycle and the dispatch counts as failed).
  int retry_budget = 2;
};

/// Tuning of fleet admission control (static, at fleet start). The
/// admitted duty cycle, Σ mean_latency(setting) / cadence over admitted
/// streams, may claim 0.85 of the GPU's capacity, boosted by the batching
/// amortization the scheduler can realize (max_batch^(1-alpha), see
/// detect::LatencyModel).
struct AdmissionOptions {
  /// Degrade (smaller model setting, then up to a 2x stretched cadence)
  /// before rejecting a stream that does not fit — the fleet-level mirror
  /// of the per-run DegradationLadder.
  bool allow_degrade = true;
};

enum class AdmissionDecision {
  kAdmitted,  ///< runs at its requested setting and cadence
  kDegraded,  ///< runs, but at a smaller setting and/or stretched cadence
  kRejected,  ///< shed: no capacity even fully degraded
};
std::string_view admission_decision_name(AdmissionDecision decision);

/// The admission controller's duty-cycle cost of one stream:
/// mean_latency(setting) / cadence (exported so the supervisor's dynamic
/// re-admission probes price a stream exactly like static admission did).
double admission_duty(detect::ModelSetting setting, double cadence_ms);

/// Tuning of the fleet supervision layer (core::StreamSupervisor,
/// DESIGN.md §15). Off by default: an unsupervised fleet is byte-identical
/// to PR 7 behavior, and a supervised all-healthy fleet is byte-identical
/// to an unsupervised one (pinned by tests/test_fleet_chaos.cpp). The
/// restart, backoff and probe budgets are fixed in supervisor.cpp.
struct FleetSupervisorOptions {
  /// Master switch: contain stream crashes (quarantine + bounded restart
  /// + probed re-admission) instead of letting them end the stream, and
  /// give statically-rejected streams a probing thread so they can join
  /// mid-run when capacity frees up.
  bool enabled = false;
};

/// Per-stream supervision outcome, mirrored into FleetStreamResult.
/// All timestamps are virtual global fleet time.
struct StreamSupervisionStats {
  int crashes = 0;      ///< engine-loop exceptions contained
  int restarts = 0;     ///< restarts granted (at most 3)
  int quarantines = 0;  ///< quarantine entries (crash or start rejected)
  int probes = 0;       ///< re-admission probes issued
  int stream_faults = 0;   ///< stream-channel injections (crash/wedge)
  int gpu_retries = 0;     ///< hang/drop retries this stream's grants absorbed
  int gpu_failures = 0;    ///< dispatches the watchdog abandoned on us
  double backoff_total_ms = 0.0;  ///< Σ backoff waits (virtual)
  double first_quarantined_at_ms = -1.0;
  double readmitted_at_ms = -1.0;  ///< last granted probe; -1 = never needed
  bool gave_up = false;  ///< permanent quarantine (restarts/probes exhausted)
};

/// One camera stream of the fleet.
struct FleetStreamOptions {
  /// Telemetry/reporting label; empty derives "stream<index>".
  std::string name;
  /// The stream's synthetic camera feed.
  video::SceneConfig scene;
  /// Per-stream engine wiring: seed, fault plan, SLO spec, frame store.
  EngineOptions engine;
  /// Requested detection model.
  detect::ModelSetting setting = detect::ModelSetting::kYolov3Tiny_320;
  /// Requested re-detection period (capture-time ms between detector
  /// cycles); the stream coasts on the tracker in between — the paper's
  /// core trade, and exactly why consolidation pays: the GPU is idle most
  /// of each stream's cadence.
  double cadence_ms = 500.0;
  /// Per-result deadline for EDF ordering. 0 falls back to the SLO spec's
  /// effective deadline, then to 1000 ms.
  double deadline_ms = 0.0;
};

/// Per-stream view of the shared detection queue.
struct StreamQueueStats {
  std::uint64_t detections = 0;  ///< granted GPU requests
  std::uint64_t batched = 0;     ///< granted as part of a batch of >= 2
  double queue_wait_mean_ms = 0.0;
  double queue_wait_max_ms = 0.0;
};

struct FleetStreamResult {
  std::string name;
  int stream_id = 0;
  AdmissionDecision admission = AdmissionDecision::kAdmitted;
  detect::ModelSetting granted_setting = detect::ModelSetting::kYolov3Tiny_320;
  double granted_cadence_ms = 0.0;
  /// The stream's start offset in global fleet time (de-phases cadences so
  /// synchronized fleets do not arrive as one thundering herd).
  double stagger_ms = 0.0;
  StreamQueueStats queue;
  int degrade_steps = 0;  ///< ladder downshifts (re-admissions rejoin degraded)
  int coast_cycles = 0;   ///< cycles served tracker-only after a restart
  /// Result-staleness percentiles over the stream's frames (ms).
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  /// Fraction of frames whose result latency exceeded the stream deadline.
  double deadline_miss_rate = 0.0;
  /// Supervision outcome (zeroed when FleetSupervisorOptions::enabled is
  /// off or the stream never needed the supervisor).
  StreamSupervisionStats supervision;
  /// Empty (no frames) when rejected and never re-admitted.
  RunResult run;
};

struct FleetGpuStats {
  std::uint64_t requests = 0;
  std::uint64_t batches = 0;
  int max_batch_seen = 0;
  double busy_ms = 0.0;
  /// Σ solo latencies − Σ batch service: virtual GPU time the batching
  /// amortization saved.
  double amortization_saved_ms = 0.0;
  // --- fault/watchdog accounting (gpu: channel) ---
  std::uint64_t hangs = 0;    ///< hung attempts the watchdog cancelled
  std::uint64_t retries = 0;  ///< re-dispatches after a hang or drop
  std::uint64_t failed_dispatches = 0;  ///< retry budget exhausted
  double recovery_ms = 0.0;  ///< watchdog/retry time billed to victims
  // --- dynamic re-admission (supervisor probes) ---
  std::uint64_t probes = 0;
  std::uint64_t probe_grants = 0;
  // --- lookahead ---
  /// Dispatches composed while at least one stream was still running on
  /// the strength of its promise.
  std::uint64_t lookahead_dispatches = 0;
};

struct FleetResult {
  std::vector<FleetStreamResult> streams;
  FleetGpuStats gpu;
  int admitted = 0;
  int degraded = 0;
  int rejected = 0;
  /// Supervision aggregates (0 when supervision is off).
  int quarantined = 0;  ///< streams that entered quarantine at least once
  int readmitted = 0;   ///< streams a probe brought (back) into the fleet
  /// Latest global completion time across admitted streams (virtual ms) —
  /// the fleet's end-to-end duration in pipeline time.
  double makespan_ms = 0.0;
  /// Total admitted frames / makespan, in pipeline time. The consolidation
  /// headline: N streams through one GPU approach N× the throughput of
  /// running them back to back, because each stream's cadence leaves the
  /// detector idle for another stream to use.
  double aggregate_fps = 0.0;
  /// Worst stream status (kOk < kDegraded < kWorkerFailure).
  Status status;
};

struct FleetOptions {
  GpuOptions gpu;
  AdmissionOptions admission;
  /// Global-time start offset between consecutive admitted streams.
  /// Negative derives min(cadence)/N — an even spread that keeps equal
  /// cadences from submitting in lockstep (which would force every batch
  /// to full width and inflate everyone's p99).
  double stagger_ms = -1.0;
  /// Fleet supervision: crash containment, bounded restart with backoff,
  /// and probed dynamic re-admission (DESIGN.md §15).
  FleetSupervisorOptions supervisor;
  /// Fleet-level fault plan. Only the `gpu:` channel is read here (hang /
  /// wedge / drop against the shared FleetGpu, keyed by dispatch index);
  /// per-stream channels (`stream:`, `detector:`, ...) belong on each
  /// stream's own EngineOptions::fault_plan. Must outlive the run.
  const util::FaultPlan* fault_plan = nullptr;
};

/// The shared simulated GPU: a batched, EDF-ordered detection queue that
/// admitted stream threads block on.
///
/// Scheduling is conservative discrete-event simulation over *virtual*
/// time with Chandy–Misra–Bryant lookahead. Right after a grant, a running
/// stream promise()s a lower bound on the virtual time of its next GPU
/// event (submit, probe or finish); a stream that has not promised since
/// its last grant may produce an event at any time. A batch is composed
/// when
///   - every participating stream is parked here (ungranted request or
///     unresolved probe), finished, or has promised a bound > start; and
///   - no probe is pending — a pending probe reads the duty ledger, which
///     running streams still feed (release_duty), so probes keep the
///     all-parked rule.
/// A running stream's next request then has submit >= bound > start: it
/// could neither join this batch nor move its start. So batch composition
/// stays a pure function of the requests' virtual times — the same batch,
/// EDF order, dispatch index and grant the all-parked rule would produce,
/// deterministic for a fixed seed regardless of how the OS interleaves
/// the threads (the fleet soak pins this under TSan) — while the granted
/// streams track in parallel. An event before its stream's own promise
/// fails that stream (Grant::status / ProbeResult::status) rather than
/// silently reordering the schedule.
///
/// Dispatch, given the pending set:
///   start    = max(gpu_free, earliest pending submit)
///   eligible = requests with submit <= start (a request "from the
///              future" of the GPU clock cannot join this batch)
///   key(r)   = r.deadline - aging_factor * (start - r.submit)   [EDF+aging]
///   primary  = min key (ties: stream id, then frame)
///   batch    = primary + same-setting eligible by key, up to max_batch
///   service  = max(member solo draws) * LatencyModel::batch_scale(k)
/// Every member is granted [start, start + service]; the per-member energy
/// share is service / k. The blocking submit() doubles as the per-stream
/// in-flight cap: a stream can never have more than one request queued, so
/// a slow stream cannot flood the queue.
class FleetGpu {
 public:
  struct Request {
    int stream = 0;
    int frame = 0;
    detect::ModelSetting setting = detect::ModelSetting::kYolov3Tiny_320;
    double submit_ms = 0.0;    ///< global fleet time of the submission
    double deadline_ms = 0.0;  ///< absolute global-time deadline (EDF key)
    double solo_ms = 0.0;      ///< the stream's own solo latency draw
  };

  struct Grant {
    double start_ms = 0.0;     ///< global time the GPU began the batch
    double complete_ms = 0.0;  ///< global time this member's result landed
    int batch_size = 1;
    double service_share_ms = 0.0;  ///< (service + recovery) / batch_size
    double queue_wait_ms = 0.0;     ///< start - submit
    // --- gpu-fault outcome of the dispatch this member rode ---
    int hangs = 0;        ///< watchdog-cancelled attempts billed to us
    int retries = 0;      ///< re-dispatches (hangs + dropped results)
    bool failed = false;  ///< retry budget exhausted: no result this cycle
    /// Failed when the request broke the stream's promise (not granted).
    Status status;
  };

  /// Outcome of a dynamic re-admission probe (resolved at virtual time
  /// `at_ms` against the duty ledger as of that instant).
  struct ProbeResult {
    bool admitted = false;
    double at_ms = 0.0;      ///< virtual time the probe was resolved
    double available = 0.0;  ///< capacity - used_at(at_ms)
    /// Failed when the probe broke the stream's promise (not resolved).
    Status status;
  };

  /// `stream_count` is the number of participating streams that will call
  /// submit()/probe()/finished(); dispatch waits for each of them to park,
  /// finish or promise beyond the batch start.
  /// `gpu_faults` (the plan's `gpu:` channel, keyed by dispatch index)
  /// drives hang / wedge / drop injection against the shared GPU; the
  /// default empty channel injects nothing.
  FleetGpu(GpuOptions options, int stream_count,
           util::FaultChannel gpu_faults = {});

  /// Arms the duty ledger for dynamic re-admission: `capacity` is the
  /// admission budget, `used` the duty the static pass admitted. Without
  /// this call every probe is denied (available stays 0).
  void set_admission_ledger(double capacity, double used);

  /// Blocks the calling stream until the coordinator grants its request.
  /// A request submitted before the stream's promise returns at once with
  /// a failed `status` and is not queued.
  Grant submit(Request request);

  /// Lookahead: the calling stream, running since its last grant, will
  /// produce no GPU event (submit, probe) before global virtual time
  /// `at_ms`; +infinity when it will only finish. A bound only rises until
  /// the stream next parks, which clears it.
  void promise(int stream, double at_ms);

  /// Parks the calling stream on the coordinator until virtual time
  /// `at_ms` is globally reached, then re-runs the duty-cycle admission
  /// check against the ledger as of that instant; a granted probe
  /// acquires `want_duty`. Probes are coordinator events like requests:
  /// one is resolved only when its time is the minimum over every pending
  /// event, so the ledger it reads is provably complete — deterministic
  /// regardless of thread interleaving, exactly like dispatch. A probe
  /// before the stream's promise returns at once with a failed `status`.
  ProbeResult probe(int stream, double at_ms, double want_duty);

  /// Returns `duty` to the ledger at virtual time `at_ms` — quarantine
  /// (a crashed stream's share frees immediately) and end-of-stream.
  void release_duty(double at_ms, double duty);

  /// The stream will never submit or probe again (end of video, failure,
  /// permanent quarantine). Must be called exactly once per participant.
  /// `at_ms` is accepted for symmetry with the ledger API and ignored.
  void finished(int stream, double at_ms = 0.0);

  FleetGpuStats stats() const;

 private:
  struct Waiter {
    Request request;
    bool granted = false;
    Grant grant;
  };
  struct ProbeWaiter {
    int stream = 0;
    double at_ms = 0.0;
    double want_duty = 0.0;
    bool resolved = false;
    ProbeResult result;
  };
  struct DutyEvent {
    double at_ms = 0.0;
    double delta = 0.0;  ///< + acquire, - release
  };

  /// Admitted duty as of virtual time `t` (initial + Σ event deltas with
  /// time <= t). Caller holds mutex_.
  double used_at_locked(double t) const;

  /// Parks `stream` for `event` (at `at_ms`, on `frame` or -1): clears
  /// its promise and returns a failure when the event breaks it. Caller
  /// holds mutex_.
  Status park_locked(int stream, const char* event, int frame, double at_ms);

  /// Records a ledger delta, kept in (time, delta) order so used_at sums
  /// in the same order however the streams' releases interleaved. Caller
  /// holds mutex_.
  void add_duty_locked(double at_ms, double delta);

  /// Dispatches one batch or resolves one probe iff the dispatch rule
  /// above holds. Caller holds mutex_.
  void maybe_dispatch_locked();

  GpuOptions options_;
  int stream_count_;
  util::FaultChannel gpu_faults_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Waiter*> pending_;       ///< parked, ungranted (stack-owned)
  std::vector<ProbeWaiter*> probes_;   ///< parked, unresolved (stack-owned)
  int waiting_ = 0;   ///< streams parked with an ungranted request or probe
  int finished_ = 0;  ///< streams done submitting
  /// Per stream id: the running stream's promise, -infinity when it has
  /// none (parked, finished, or not promised since its last grant).
  std::vector<double> promised_;
  double gpu_free_ms_ = 0.0;
  std::uint64_t dispatch_seq_ = 0;  ///< gpu-fault event index
  // Duty ledger (virtual-time admission bookkeeping).
  double capacity_ = 0.0;
  double initial_used_ = 0.0;
  bool ledger_armed_ = false;
  std::vector<DutyEvent> duty_events_;
  FleetGpuStats stats_;
};

/// Runs every admitted stream of the fleet to completion: one OS thread
/// per stream, each driving its own EngineContext through a cadenced
/// detect-and-coast policy, all sharing the global util::ThreadPool for
/// vision kernels and one FleetGpu for detection. Streams that admission
/// cannot fit (even degraded) are shed before any thread starts.
FleetResult run_fleet(const std::vector<FleetStreamOptions>& streams,
                      const FleetOptions& options = {});

}  // namespace adavp::core
