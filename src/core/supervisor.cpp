#include "core/supervisor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/degradation.h"
#include "core/status.h"
#include "detect/calibration.h"
#include "detect/latency_model.h"
#include "energy/power_model.h"
#include "obs/telemetry.h"
#include "util/fault_plan.h"
#include "util/rng.h"

namespace adavp::core {
namespace {

constexpr double kEps = 1e-9;

/// Restarts granted per stream before a crash becomes a permanent
/// quarantine (the stream ends kWorkerFailure; the fleet still runs).
constexpr int kMaxRestarts = 3;
/// Exponential backoff between quarantine and the first re-admission
/// probe: initial * factor^(attempt-1), capped, plus deterministic jitter
/// in [0, kBackoffJitterFrac) drawn from the stream seed and the attempt
/// number. All virtual time — a backed-off stream never stalls the fleet's
/// conservative dispatch.
constexpr double kBackoffInitialMs = 200.0;
constexpr double kBackoffFactor = 2.0;
constexpr double kBackoffMaxMs = 4000.0;
constexpr double kBackoffJitterFrac = 0.25;
/// Virtual-time period between re-admission probes after a denial, and
/// the cap on consecutive denials before the stream gives up for good.
constexpr double kProbePeriodMs = 500.0;
constexpr int kMaxProbes = 16;
/// DegradationLadder level a re-admitted stream rejoins at — degraded
/// first, recovering toward its granted setting through on_success.
constexpr int kReadmitLevel = 3;

/// A request or probe before the stream's own lookahead promise
/// (FleetGpu::promise): a scheduling bug, so it ends the stream as failed
/// instead of entering crash containment.
struct BrokenPromise : std::logic_error {
  using std::logic_error::logic_error;
};

/// Exact percentile over a copied sample set (fleet reports are per-run,
/// not streaming, so the exact order statistic is affordable).
double exact_percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q / 100.0 * static_cast<double>(values.size());
  const std::size_t index = static_cast<std::size_t>(std::clamp(
      std::ceil(rank) - 1.0, 0.0, static_cast<double>(values.size() - 1)));
  return values[index];
}

/// SplitMix64 finalizer: decorrelates the (stream seed, attempt) pairs
/// that seed the backoff-jitter draws.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Smallest multiple of `step` at or above `t` (within kEps). The stream's
/// detection submits live on the virtual-time lattice {k * cadence} in
/// local time; re-joining that lattice after a recovery keeps a disturbed
/// stream on its own phase, so its requests can never drift into a
/// neighbor's batch window — the structural half of digest isolation.
double quantize_up(double t, double step) {
  if (step <= 0.0) return t;
  return std::ceil((t - kEps) / step) * step;
}

}  // namespace

void StreamSupervisor::run() {
  const StreamRuntime& rt = rt_;
  FleetStreamResult& out = *rt.out;
  StreamSupervisionStats& sv = out.supervision;
  // Every obs instrument this thread resolves — engine internals included —
  // lands under the stream's label, so concurrent streams never collide.
  const obs::ScopedMetricPrefix label("fleet." + out.name + ".");

  // The duty this stream holds on the admission ledger while running;
  // released on quarantine (immediately — a probing neighbor can claim it
  // while we back off) and at end of stream.
  const double held_duty =
      admission_duty(out.granted_setting, out.granted_cadence_ms);
  bool holding = out.admission != AdmissionDecision::kRejected;
  bool gpu_done = false;
  auto finish_gpu = [&] {
    if (!gpu_done) {
      gpu_done = true;
      rt.gpu->finished(rt.id);
    }
  };

  // --- dynamic admission: a statically-rejected stream (only supervised
  // fleets spawn one at all) parks on periodic ledger probes and joins
  // mid-run once capacity frees up; after kMaxProbes denials it is shed
  // exactly like the unsupervised fleet shed it (empty run).
  double join_local_ms = 0.0;
  if (!holding) {
    ++sv.quarantines;
    sv.first_quarantined_at_ms = rt.offset_ms;
    for (int attempt = 1; attempt <= kMaxProbes; ++attempt) {
      ++sv.probes;
      const double at =
          rt.offset_ms + kProbePeriodMs * static_cast<double>(attempt);
      const FleetGpu::ProbeResult res = rt.gpu->probe(rt.id, at, held_duty);
      if (res.admitted) {
        holding = true;
        sv.readmitted_at_ms = res.at_ms;
        join_local_ms = std::max(0.0, res.at_ms - rt.offset_ms);
        break;
      }
    }
    if (!holding) {
      sv.gave_up = true;
      finish_gpu();
      return;
    }
    if (obs::Telemetry::enabled()) {
      obs::metrics().counter("stream", "readmissions").add();
    }
    obs::flight_instant("stream_admitted", "fleet", rt.id, "stream");
  }

  const video::SyntheticVideo video(rt.options->scene);
  EngineContext ctx(video, rt.options->engine);

  obs::Counter* cycles_counter = nullptr;
  obs::FixedHistogram* queue_wait_hist = nullptr;
  if (obs::Telemetry::enabled()) {
    obs::MetricsRegistry& reg = obs::metrics();
    cycles_counter = &reg.counter("stream", "cycles");
    queue_wait_hist = &reg.latency_histogram("stream", "queue_wait_ms");
  }

  DegradationLadder ladder;
  double wait_sum = 0.0;
  const double cadence = out.granted_cadence_ms;
  const detect::ModelSetting base_setting = out.granted_setting;
  detect::ModelSetting last_setting = base_setting;

  // --- `stream:` fault channel: engine-loop-level faults, keyed by frame
  // index and scanned monotonically as the loop advances (a frame is
  // consumed exactly once, so a restart does not re-fire the crash that
  // caused it).
  const util::FaultChannel stream_faults =
      rt.options->engine.fault_plan != nullptr
          ? rt.options->engine.fault_plan->channel("stream")
          : util::FaultChannel();
  int fault_hwm = -1;  ///< highest frame index already scanned
  // Wedge delay (ms) accumulated over frames (fault_hwm, up_to]; throws
  // InjectedFault on a crash rule.
  auto scan_stream_faults = [&](int up_to) {
    double wedge_ms = 0.0;
    if (stream_faults.empty()) {
      fault_hwm = std::max(fault_hwm, up_to);
      return wedge_ms;
    }
    while (fault_hwm < up_to) {
      const int f = ++fault_hwm;
      for (const util::FaultDecision& d : stream_faults.decide(f)) {
        if (d.kind != util::FaultKind::kCrash &&
            d.kind != util::FaultKind::kWedge) {
          continue;  // other kinds do not apply to the stream channel
        }
        ++sv.stream_faults;
        if (obs::Telemetry::enabled()) {
          obs::metrics().counter("stream", "faults_injected").add();
        }
        obs::flight_instant("stream_fault", "fault", f, "frame");
        if (d.kind == util::FaultKind::kCrash) {
          throw util::InjectedFault(
              annotate_failure("stream", f, "injected stream crash"));
        }
        wedge_ms += d.magnitude;
      }
    }
    return wedge_ms;
  };

  // One granted cycle's shared bookkeeping: energy share, queue stats,
  // per-stream and fleet-aggregate telemetry, and gpu-fault victim
  // accounting (retries/failures this stream's grants absorbed).
  auto note_grant = [&](const FleetGpu::Grant& grant,
                        detect::ModelSetting setting) {
    ctx.meter.add_gpu_busy(energy::PowerModel::gpu_detect_w(setting, false),
                           grant.service_share_ms);
    ++out.queue.detections;
    if (grant.batch_size > 1) ++out.queue.batched;
    wait_sum += grant.queue_wait_ms;
    out.queue.queue_wait_max_ms =
        std::max(out.queue.queue_wait_max_ms, grant.queue_wait_ms);
    sv.gpu_retries += grant.retries;
    if (grant.failed) ++sv.gpu_failures;
    if (cycles_counter != nullptr) cycles_counter->add();
    if (queue_wait_hist != nullptr) {
      queue_wait_hist->record(grant.queue_wait_ms);
    }
  };
  // Where a gpu-disturbed stream resumes: its own next cadence slot (see
  // quantize_up). Identity for healthy grants.
  auto resume_point = [&](const FleetGpu::Grant& grant, double complete) {
    if (!rt.supervised || (grant.retries == 0 && !grant.failed)) {
      return complete;
    }
    return std::max(complete, quantize_up(complete, cadence));
  };
  auto submit = [&](const FleetGpu::Request& request) {
    FleetGpu::Grant grant = rt.gpu->submit(request);
    if (!grant.status.ok()) throw BrokenPromise(grant.status.message());
    return grant;
  };

  // --- checkpoint: the last completed cycle's state. Lives outside the
  // containment loop so a restart resumes from it instead of frame 0.
  detect::DetectionResult ref;
  int ref_index = -1;
  int active_frame = -1;          ///< frame the current cycle works on
  bool coast_first = false;       ///< first post-restart cycle coasts
  double resume_local_ms = join_local_ms;  ///< clock floor on (re)entry
  int restarts_left = kMaxRestarts;

  // The next detection cycle: the clock it starts at, the frame it detects
  // and that frame's capture time. Planned once per cycle, either right
  // after the previous grant (plan_and_promise) or at the top of the cycle.
  struct CyclePlan {
    double now = 0.0;
    int index = 0;
    double capture_t = 0.0;
  };
  std::optional<CyclePlan> planned;
  auto plan_cycle = [&](int ref, double now) {
    int index = 0;
    if (ref < 0) {
      // Cycle 0 (also: a late admission, or a restart that never completed
      // a cycle): the newest captured frame as soon as the stream is live,
      // so every later frame of the run has a result to inherit.
      index = std::max(0, ctx.newest_captured(now));
    } else {
      // Cadence pacing: the next detection is due one cadence after the
      // reference frame's capture. If queueing made the stream late the
      // due time is already past — take the newest captured frame instead
      // of chasing stale ones.
      const double due = ctx.capture_time_ms(ref) + cadence;
      index = std::max(ref + 1, ctx.newest_captured(std::max(now, due)));
    }
    return CyclePlan{now, index, ctx.capture_time_ms(index)};
  };
  // Lookahead (DESIGN.md §13), right after a grant: plan the cycle that
  // follows reference `ref` from the clock the stream resumes at, and
  // promise the GPU no event before that cycle's ready time without its
  // wedge (the submit adds the wedge, >= 0). A supervised stream can
  // instead crash before that submit — while tracking this cycle, its
  // clock still at `cycle_now`, or later — and its first re-admission
  // probe comes no earlier than that clock plus the shortest backoff.
  auto plan_and_promise = [&](int ref, double resume, double cycle_now) {
    double bound = std::numeric_limits<double>::infinity();
    if (ref < ctx.last) {
      planned = plan_cycle(ref, resume);
      bound = std::max(planned->now, planned->capture_t);
    }
    if (rt.supervised) bound = std::min(bound, cycle_now + kBackoffInitialMs);
    rt.gpu->promise(rt.id, rt.offset_ms + bound);
  };
  // Planning bills the camera hiccups of the frames it looks at. Only the
  // tracker can throw between a successful grant and the next cycle, and a
  // throw discards the plan, so a stream whose tracker carries faults plans
  // at the top of the cycle instead (and promises nothing while tracking).
  const bool plan_before_tracking = ctx.tracker().empty();

  // Serve a cycle from the reference instead of a detection, completing at
  // `done_ms`: re-issue the last good boxes with one more confidence-decay
  // step (ref already carries the decay of earlier coasts) and report the
  // result to the SLO tracker as coasted.
  auto serve_from_reference = [&](int next_index, double capture_t,
                                  double done_ms) {
    ref.detections = decay_detections(ref.detections, 1);
    FrameResult& fr = ctx.run.frames[static_cast<std::size_t>(next_index)];
    fr.source = ResultSource::kTracker;
    fr.boxes = to_labeled_boxes(ref);
    fr.setting = last_setting;
    fr.staleness_ms = done_ms - capture_t;
    if (obs::SloTracker* slo = ctx.slo_tracker()) {
      slo->on_result(done_ms, fr.staleness_ms, /*coasted=*/true);
    }
  };

  while (true) {
    try {
      if (ctx.frame_count > 0) {
        if (ctx.clock->now_ms() < resume_local_ms) {
          ctx.clock->set(resume_local_ms);
        }
        while (ref_index < 0) {
          const CyclePlan cycle =
              planned ? *planned : plan_cycle(-1, ctx.clock->now_ms());
          planned.reset();
          const double now = cycle.now;
          const int start_index = cycle.index;
          const double capture0 = cycle.capture_t;
          active_frame = start_index;
          const double wedge = scan_stream_faults(start_index);
          const detect::DetectionResult det =
              ctx.detect(start_index, base_setting);
          const double ready = std::max(now, capture0) + wedge;
          const FleetGpu::Grant grant = submit(
              {rt.id, start_index, base_setting, rt.offset_ms + ready,
               rt.offset_ms + capture0 + rt.deadline_ms, det.latency_ms});
          note_grant(grant, base_setting);
          const double complete = grant.complete_ms - rt.offset_ms;
          const double resume = resume_point(grant, complete);
          ctx.clock->set(resume);
          if (grant.failed) {
            // Watchdog abandoned the dispatch: the result is lost. Retry
            // with whatever frame is newest by then.
            if (start_index >= ctx.last) {
              throw std::runtime_error(
                  "gpu dispatch abandoned at end of stream");
            }
            plan_and_promise(-1, resume, now);
            continue;
          }
          ctx.record_detection(start_index, det, base_setting, complete);
          ctx.run.cycles.push_back({start_index, base_setting,
                                    grant.start_ms - rt.offset_ms, complete,
                                    0, 0, 0.0});
          if (rt.fleet_latency != nullptr) {
            rt.fleet_latency->record(grant.complete_ms, complete - capture0);
          }
          ref = det;
          ref_index = start_index;
          plan_and_promise(ref_index, resume, now);
        }

        while (ref_index < ctx.last) {
          const CyclePlan cycle =
              planned ? *planned : plan_cycle(ref_index, ctx.clock->now_ms());
          planned.reset();
          const double now = cycle.now;
          const int next_index = cycle.index;
          const double capture_t = cycle.capture_t;
          active_frame = next_index;
          const double wedge = scan_stream_faults(next_index);

          if (coast_first) {
            // First post-restart cycle: prove liveness from the
            // checkpointed boxes before spending GPU again. No GPU
            // submission at all: re-issue the last good boxes with decayed
            // confidence (the realtime supervisor's coasting policy).
            coast_first = false;
            ++out.coast_cycles;
            const double start = std::max(now, capture_t) + wedge;
            const double done = start + detect::kOverlayMs;
            ctx.meter.add_cpu_busy(energy::PowerModel::cpu_coast_w(),
                                   detect::kOverlayMs);
            serve_from_reference(next_index, capture_t, done);
            ctx.clock->set(done);
            ref_index = next_index;
            continue;
          }

          // A re-admitted stream runs capped by its ladder level (the
          // identity at level 0) and heals through clean cycles.
          const detect::ModelSetting setting = ladder.apply(base_setting);
          const detect::DetectionResult det = ctx.detect(next_index, setting);
          const double ready = std::max(now, capture_t) + wedge;
          const FleetGpu::Grant grant = submit(
              {rt.id, next_index, setting, rt.offset_ms + ready,
               rt.offset_ms + capture_t + rt.deadline_ms, det.latency_ms});
          note_grant(grant, setting);
          const double complete = grant.complete_ms - rt.offset_ms;
          const double resume = resume_point(grant, complete);
          if (grant.failed) {
            // Retry budget exhausted: the result is lost. Serve the cycle
            // from the reference instead (a forced coast) and move on —
            // the next cadence tick retries detection.
            serve_from_reference(next_index, capture_t, complete);
            ctx.clock->set(resume);
            ref_index = next_index;
            plan_and_promise(ref_index, resume, now);
            continue;
          }
          if (plan_before_tracking) plan_and_promise(next_index, resume, now);

          // Tracker side: the previous reference propagates across the
          // frames buffered since the last result, using the whole window
          // from the previous completion to this detection's landing —
          // the cadence's idle stretch plus queue wait plus GPU service,
          // which is what makes long cadences tolerable.
          const EngineContext::Catchup batch = ctx.track_catchup(
              ref_index, ref.detections, next_index, now, complete, setting,
              SelectionPolicy::kAdaptiveFraction);
          ctx.record_detection(next_index, det, setting, complete);
          ctx.run.cycles.push_back({next_index, setting,
                                    grant.start_ms - rt.offset_ms, complete,
                                    batch.frames_between, batch.tracked,
                                    batch.mean_velocity});
          if (setting != last_setting) {
            ++ctx.run.setting_switches;
            last_setting = setting;
          }
          if (rt.fleet_latency != nullptr) {
            rt.fleet_latency->record(grant.complete_ms, complete - capture_t);
          }
          if (ladder.level() > 0) ladder.on_success();
          ref = det;
          ref_index = next_index;
          ctx.clock->set(resume);
        }
      }
      break;  // clean completion
    } catch (const BrokenPromise& e) {
      ctx.fail(e.what());
      break;
    } catch (const std::exception& e) {
      planned.reset();
      const double crash_local = ctx.clock->now_ms();
      if (!rt.supervised) {
        ctx.fail(annotate_failure("stream", active_frame,
                                  "fleet stream " + out.name + ": " +
                                      e.what()));
        break;
      }

      // --- crash containment: quarantine, not fatal ---------------------
      ++sv.crashes;
      ++sv.quarantines;
      if (holding) {
        rt.gpu->release_duty(rt.offset_ms + crash_local, held_duty);
        holding = false;
      }
      if (sv.first_quarantined_at_ms < 0.0) {
        sv.first_quarantined_at_ms = rt.offset_ms + crash_local;
      }
      if (obs::Telemetry::enabled()) {
        obs::metrics().counter("stream", "quarantined").add();
      }
      obs::flight_instant("stream_quarantined", "fleet", rt.id, "stream");
      if (restarts_left <= 0) {
        sv.gave_up = true;
        ctx.fail(annotate_failure(
            "stream", active_frame,
            "fleet stream " + out.name + " permanently quarantined after " +
                std::to_string(sv.crashes) + " crashes: " + e.what()));
        break;
      }
      --restarts_left;

      // Bounded exponential backoff with deterministic jitter: the delay
      // is a pure function of (stream seed, attempt number), so chaos
      // runs replay bit-identically.
      const int attempt = sv.crashes;
      double backoff = std::min(
          kBackoffMaxMs,
          kBackoffInitialMs *
              std::pow(kBackoffFactor, static_cast<double>(attempt - 1)));
      util::Rng jitter(mix64(rt.options->engine.seed ^
                             (0xB0FFULL * static_cast<std::uint64_t>(attempt))));
      backoff *= 1.0 + kBackoffJitterFrac * jitter.uniform();
      sv.backoff_total_ms += backoff;
      if (obs::Telemetry::enabled()) {
        // Fleet-level series (one per run, all streams), bypassing the
        // stream prefix.
        obs::ScopedMetricPrefix unprefixed("");
        obs::time_series()
            .series("supervisor", "backoff_ms",
                    {1000.0, 64,
                     obs::FixedHistogram::default_latency_edges_ms()})
            .record(rt.offset_ms + crash_local, backoff);
      }

      // --- probed re-admission: re-run the duty-cycle admission check
      // against the live ledger, on the supervisor's period, until it
      // grants or the probe budget runs out.
      bool readmitted = false;
      Status broken;
      double at_local = crash_local + backoff;
      for (int p = 1; p <= kMaxProbes; ++p) {
        ++sv.probes;
        const FleetGpu::ProbeResult res =
            rt.gpu->probe(rt.id, rt.offset_ms + at_local, held_duty);
        if (!res.status.ok()) {
          broken = res.status;
          break;
        }
        if (res.admitted) {
          readmitted = true;
          holding = true;
          sv.readmitted_at_ms = res.at_ms;
          at_local = res.at_ms - rt.offset_ms;
          break;
        }
        at_local += kProbePeriodMs;
      }
      if (!broken.ok()) {
        ctx.fail(broken.message());
        break;
      }
      if (!readmitted) {
        sv.gave_up = true;
        ctx.fail(annotate_failure(
            "stream", active_frame,
            "fleet stream " + out.name + " gave up: " +
                std::to_string(kMaxProbes) +
                " re-admission probes denied"));
        break;
      }
      ++sv.restarts;
      if (obs::Telemetry::enabled()) {
        obs::MetricsRegistry& reg = obs::metrics();
        reg.counter("stream", "restarts").add();
        reg.counter("stream", "readmissions").add();
      }
      obs::flight_instant("stream_readmitted", "fleet", rt.id, "stream");
      // Rejoin degraded (earn the granted setting back through clean
      // cycles), coasting one cycle on the checkpoint first, on the
      // stream's own cadence phase (see quantize_up).
      ladder.reset_to(kReadmitLevel);
      coast_first = ref_index >= 0;
      resume_local_ms = std::max(at_local, quantize_up(at_local, cadence));
    }
  }

  if (rt.supervised && holding) {
    // End of stream: the duty returns to the ledger so a parked probe
    // resolving later can claim it.
    rt.gpu->release_duty(rt.offset_ms + ctx.clock->now_ms(), held_duty);
    holding = false;
  }
  finish_gpu();
  ctx.finish();
  if (ctx.run.status.ok() &&
      (sv.crashes > 0 || sv.stream_faults > 0 || sv.gpu_retries > 0 ||
       sv.gpu_failures > 0)) {
    // Faults were absorbed above the engine's own channels (contained
    // crashes, gpu watchdog recoveries): the run completed, degraded.
    ctx.run.status = Status::degraded(annotate_failure(
        "stream", -1,
        "supervised recovery: " + std::to_string(sv.crashes) + " crashes, " +
            std::to_string(sv.stream_faults) + " stream faults, " +
            std::to_string(sv.gpu_retries) + " gpu retries, " +
            std::to_string(sv.gpu_failures) + " failed dispatches"));
  }
  out.degrade_steps = ladder.steps_down();
  if (out.queue.detections > 0) {
    out.queue.queue_wait_mean_ms =
        wait_sum / static_cast<double>(out.queue.detections);
  }
  out.run = std::move(ctx.run);

  // Result-latency order statistics and deadline misses over the stream's
  // final per-frame results (reused frames inherit their source's
  // staleness, which is exactly the user-visible latency of that result).
  std::vector<double> staleness;
  staleness.reserve(out.run.frames.size());
  std::uint64_t misses = 0;
  for (const FrameResult& f : out.run.frames) {
    if (f.source == ResultSource::kNone) continue;
    staleness.push_back(f.staleness_ms);
    if (f.staleness_ms > rt.deadline_ms) ++misses;
  }
  out.latency_p50_ms = exact_percentile(staleness, 50.0);
  out.latency_p99_ms = exact_percentile(staleness, 99.0);
  out.deadline_miss_rate =
      staleness.empty()
          ? 0.0
          : static_cast<double>(misses) / static_cast<double>(staleness.size());
}

}  // namespace adavp::core
