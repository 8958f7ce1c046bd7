#include "core/fleet.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <thread>

#include "core/supervisor.h"
#include "detect/calibration.h"
#include "detect/latency_model.h"
#include "energy/power_model.h"
#include "obs/telemetry.h"

namespace adavp::core {

std::string_view admission_decision_name(AdmissionDecision decision) {
  switch (decision) {
    case AdmissionDecision::kAdmitted: return "admitted";
    case AdmissionDecision::kDegraded: return "degraded";
    case AdmissionDecision::kRejected: return "rejected";
  }
  return "unknown";
}

// ------------------------------------------------------------- FleetGpu

FleetGpu::FleetGpu(GpuOptions options, int stream_count,
                   util::FaultChannel gpu_faults)
    : options_(std::move(options)),
      stream_count_(stream_count),
      gpu_faults_(std::move(gpu_faults)) {
  options_.max_batch = std::max(1, options_.max_batch);
  options_.retry_budget = std::max(0, options_.retry_budget);
}

void FleetGpu::set_admission_ledger(double capacity, double used) {
  std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = capacity;
  initial_used_ = used;
  ledger_armed_ = true;
}

FleetGpu::Grant FleetGpu::submit(Request request) {
  std::unique_lock<std::mutex> lock(mutex_);
  Status kept = park_locked(request.stream, "submit", request.frame,
                            request.submit_ms);
  if (!kept.ok()) {
    Grant refused;
    refused.status = std::move(kept);
    return refused;
  }
  Waiter waiter{std::move(request), false, {}};
  pending_.push_back(&waiter);
  ++waiting_;
  maybe_dispatch_locked();
  cv_.wait(lock, [&] { return waiter.granted; });
  return waiter.grant;
}

FleetGpu::ProbeResult FleetGpu::probe(int stream, double at_ms,
                                      double want_duty) {
  std::unique_lock<std::mutex> lock(mutex_);
  Status kept = park_locked(stream, "probe", -1, at_ms);
  if (!kept.ok()) {
    ProbeResult refused;
    refused.status = std::move(kept);
    return refused;
  }
  ProbeWaiter waiter;
  waiter.stream = stream;
  waiter.at_ms = at_ms;
  waiter.want_duty = want_duty;
  probes_.push_back(&waiter);
  ++waiting_;
  maybe_dispatch_locked();
  cv_.wait(lock, [&] { return waiter.resolved; });
  return waiter.result;
}

void FleetGpu::release_duty(double at_ms, double duty) {
  std::lock_guard<std::mutex> lock(mutex_);
  add_duty_locked(at_ms, -duty);
}

void FleetGpu::promise(int stream, double at_ms) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto slot = static_cast<std::size_t>(stream);
  if (slot >= promised_.size()) {
    promised_.resize(slot + 1, -std::numeric_limits<double>::infinity());
  }
  promised_[slot] = std::max(promised_[slot], at_ms);
  maybe_dispatch_locked();
}

void FleetGpu::finished(int stream, double /*at_ms*/) {
  std::lock_guard<std::mutex> lock(mutex_);
  // A stream that only finishes cannot break a promise; this just clears it.
  (void)park_locked(stream, "finish", -1,
                    std::numeric_limits<double>::infinity());
  ++finished_;
  maybe_dispatch_locked();
}

FleetGpuStats FleetGpu::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

Status FleetGpu::park_locked(int stream, const char* event, int frame,
                             double at_ms) {
  const auto slot = static_cast<std::size_t>(stream);
  if (slot >= promised_.size()) return Status();
  const double promised = promised_[slot];
  promised_[slot] = -std::numeric_limits<double>::infinity();
  if (at_ms >= promised) return Status();
  // The dispatch rule may already have composed a batch this event
  // belonged in: fail the stream loudly instead of reordering silently.
  return Status::worker_failure(annotate_failure(
      "fleet", frame,
      "stream " + std::to_string(stream) + " broke its lookahead promise: " +
          event + " at " + std::to_string(at_ms) +
          " ms, promised no event before " + std::to_string(promised) +
          " ms"));
}

void FleetGpu::add_duty_locked(double at_ms, double delta) {
  const DutyEvent event{at_ms, delta};
  duty_events_.insert(
      std::upper_bound(duty_events_.begin(), duty_events_.end(), event,
                       [](const DutyEvent& a, const DutyEvent& b) {
                         return a.at_ms != b.at_ms ? a.at_ms < b.at_ms
                                                   : a.delta < b.delta;
                       }),
      event);
}

double FleetGpu::used_at_locked(double t) const {
  constexpr double kEps = 1e-9;
  double used = initial_used_;
  for (const DutyEvent& event : duty_events_) {
    if (event.at_ms <= t + kEps) used += event.delta;
  }
  return used;
}

void FleetGpu::maybe_dispatch_locked() {
  // Conservative discrete-event simulation with lookahead (class comment):
  // act only when no stream can still produce an event early enough to
  // change the action. At that instant everything below is a pure
  // function of virtual times, independent of how the OS interleaved the
  // threads. This is what makes fleet runs bit-identical for a fixed seed
  // (pinned by tests/test_fleet_soak.cpp and test_fleet_chaos.cpp under
  // TSan).
  if (pending_.empty() && probes_.empty()) return;
  const int running = stream_count_ - waiting_ - finished_;
  // Probes keep the all-parked rule: a running stream may still release
  // duty below a pending probe's time.
  if (running > 0 && !probes_.empty()) return;
  constexpr double kEps = 1e-9;

  // Earliest pending probe (ties by stream id). A probe is resolved only
  // when its time is <= the start of any dispatchable batch: every other
  // stream is then parked with an event at or after the probe time, and a
  // stream's future duty events can only trail its current one — so the
  // duty ledger the probe reads is provably complete below its timestamp.
  ProbeWaiter* probe = nullptr;
  for (ProbeWaiter* p : probes_) {
    if (probe == nullptr || p->at_ms < probe->at_ms ||
        (p->at_ms == probe->at_ms && p->stream < probe->stream)) {
      probe = p;
    }
  }
  auto resolve_probe = [&](ProbeWaiter* p) {
    const double avail =
        ledger_armed_ ? capacity_ - used_at_locked(p->at_ms) : 0.0;
    p->result.at_ms = p->at_ms;
    p->result.available = avail;
    p->result.admitted = ledger_armed_ && avail + kEps >= p->want_duty;
    if (p->result.admitted) {
      add_duty_locked(p->at_ms, p->want_duty);
      ++stats_.probe_grants;
    }
    ++stats_.probes;
    if (obs::Telemetry::enabled()) {
      obs::ScopedMetricPrefix unprefixed("");
      obs::MetricsRegistry& reg = obs::metrics();
      reg.counter("fleet", "admission.probes").add();
      if (p->result.admitted) {
        reg.counter("fleet", "admission.probe_grants").add();
      }
    }
    p->resolved = true;
    --waiting_;
    probes_.erase(std::find(probes_.begin(), probes_.end(), p));
    cv_.notify_all();
  };
  if (pending_.empty()) {
    resolve_probe(probe);
    return;
  }

  double arrival = pending_.front()->request.submit_ms;
  for (const Waiter* w : pending_) {
    arrival = std::min(arrival, w->request.submit_ms);
  }
  const double start = std::max(gpu_free_ms_, arrival);
  // A probe at or before the batch start must resolve first: once it
  // does, its stream may produce a request early enough to belong to this
  // very batch, so dispatching now would break completeness. Probe times
  // strictly increase per stream (re-probes back off, admitted streams
  // submit at or after the grant), so this converges — no livelock.
  if (probe != nullptr && probe->at_ms <= start + kEps) {
    resolve_probe(probe);
    return;
  }
  if (running > 0) {
    // Lookahead: every running stream must have promised its next event
    // strictly after `start`, so none of them can join or move this batch.
    int beyond = 0;
    for (double bound : promised_) {
      if (bound > start + kEps) ++beyond;
    }
    if (beyond < running) return;
  }
  // A request submitted after `start` exists in *our* (wall) time but not
  // yet in virtual time — it cannot join a batch that starts before it.
  auto eligible = [&](const Waiter* w) {
    return w->request.submit_ms <= start + kEps;
  };
  auto key = [&](const Waiter* w) {
    return w->request.deadline_ms -
           options_.aging_factor *
               std::max(0.0, start - w->request.submit_ms);
  };
  auto before = [&](const Waiter* a, const Waiter* b) {
    const double ka = key(a);
    const double kb = key(b);
    if (ka != kb) return ka < kb;
    if (a->request.stream != b->request.stream) {
      return a->request.stream < b->request.stream;
    }
    return a->request.frame < b->request.frame;
  };

  const Waiter* primary = nullptr;
  for (const Waiter* w : pending_) {
    if (!eligible(w)) continue;
    if (primary == nullptr || before(w, primary)) primary = w;
  }
  if (primary == nullptr) {
    // Everything pending is in the virtual future of gpu_free; the GPU
    // idles forward to the earliest arrival instead. (Unreachable when
    // gpu_free <= arrival, since start == arrival makes the earliest
    // request eligible.)
    return;
  }

  // Batch: the primary plus same-setting eligible requests in key order.
  std::vector<Waiter*> batch;
  for (Waiter* w : pending_) {
    if (eligible(w) && w->request.setting == primary->request.setting) {
      batch.push_back(w);
    }
  }
  std::sort(batch.begin(), batch.end(), before);
  if (static_cast<int>(batch.size()) > options_.max_batch) {
    batch.resize(static_cast<std::size_t>(options_.max_batch));
  }

  const int k = static_cast<int>(batch.size());
  double max_solo = 0.0;
  double sum_solo = 0.0;
  for (const Waiter* w : batch) {
    max_solo = std::max(max_solo, w->request.solo_ms);
    sum_solo += w->request.solo_ms;
  }
  const double service = max_solo * detect::LatencyModel::batch_scale(k);

  // --- gpu: fault channel, keyed by dispatch index -----------------------
  // hang n=K: the watchdog cancels K consecutive hung attempts at
  // hang_budget_ms each before a retry lands. wedge: the GPU never comes
  // back within the retry budget. drop n=K: K attempts run to completion
  // but their results are lost. When the bad attempts exhaust
  // 1 + retry_budget the dispatch fails: members get no result this cycle.
  int hang_attempts = 0;
  int drops = 0;
  if (!gpu_faults_.empty()) {
    for (const util::FaultDecision& d :
         gpu_faults_.decide(static_cast<int>(dispatch_seq_))) {
      switch (d.kind) {
        case util::FaultKind::kHang:
          hang_attempts += std::max(1, static_cast<int>(d.magnitude));
          break;
        case util::FaultKind::kWedge:
          hang_attempts += options_.retry_budget + 1;
          break;
        case util::FaultKind::kDrop:
          drops += std::max(1, static_cast<int>(d.magnitude));
          break;
        default:
          break;  // other kinds do not apply to the gpu channel
      }
    }
  }
  ++dispatch_seq_;
  const int attempts_allowed = 1 + options_.retry_budget;
  const int bad = hang_attempts + drops;
  const bool dispatch_failed = bad >= attempts_allowed;
  const int billed_hangs = std::min(hang_attempts, attempts_allowed);
  const int billed_drops =
      std::min(drops, attempts_allowed - billed_hangs);
  const int retries = std::min(bad, attempts_allowed - 1);
  // Watchdog billing: every cancelled attempt costs one budget, every
  // dropped attempt a full service — charged to the batch members'
  // completion times (and, via service_share, their energy), never to the
  // shared schedule.
  const double recovery =
      static_cast<double>(billed_hangs) * options_.hang_budget_ms +
      static_cast<double>(billed_drops) * service;

  // Recovery lane: gpu_free advances by the *un-faulted* service only.
  // Modeling choice (DESIGN.md §15): retry work runs on a lane that the
  // healthy schedule never sees, the honest generalization of PR 7's
  // GPU-time-neutral-faults contract — a hang delays its own victims but
  // leaves every other stream's dispatch times bit-identical to an
  // all-healthy fleet, which is what makes digest isolation provable.
  const double complete = start + service;
  const double member_complete =
      start + recovery + (dispatch_failed ? 0.0 : service);
  gpu_free_ms_ = complete;

  stats_.requests += static_cast<std::uint64_t>(k);
  ++stats_.batches;
  stats_.max_batch_seen = std::max(stats_.max_batch_seen, k);
  stats_.busy_ms += service;
  stats_.amortization_saved_ms += std::max(0.0, sum_solo - service);
  stats_.hangs += static_cast<std::uint64_t>(billed_hangs);
  stats_.retries += static_cast<std::uint64_t>(retries);
  stats_.recovery_ms += recovery;
  if (dispatch_failed) ++stats_.failed_dispatches;
  if (running > 0) ++stats_.lookahead_dispatches;
  if (obs::Telemetry::enabled()) {
    // Fleet-aggregate instruments, resolved per dispatch on whatever
    // stream thread got here: bypass the thread's stream prefix so all
    // dispatches land in one shared instrument.
    obs::ScopedMetricPrefix unprefixed("");
    obs::MetricsRegistry& reg = obs::metrics();
    reg.histogram("fleet", "batch_size", {1, 2, 3, 4, 6, 8, 12, 16})
        .record(static_cast<double>(k));
    reg.latency_histogram("fleet", "batch_service_ms").record(service);
    reg.counter("fleet", "batches").add();
    reg.histogram("fleet", "streams_running", {0, 1, 2, 3, 4, 6, 8, 12, 16})
        .record(static_cast<double>(running));
    if (running > 0) reg.counter("fleet", "lookahead_dispatches").add();
    if (billed_hangs > 0) {
      reg.counter("fleet", "gpu.hangs")
          .add(static_cast<std::uint64_t>(billed_hangs));
    }
    if (retries > 0) {
      reg.counter("fleet", "gpu.retries")
          .add(static_cast<std::uint64_t>(retries));
    }
    if (dispatch_failed) reg.counter("fleet", "gpu.failed_dispatches").add();
  }
  if (bad > 0) {
    obs::flight_instant("gpu_hang", "fleet",
                        static_cast<std::int64_t>(dispatch_seq_ - 1),
                        "dispatch");
  }

  const double billed_service = dispatch_failed ? recovery : service + recovery;
  for (Waiter* w : batch) {
    w->grant.start_ms = start;
    w->grant.complete_ms = member_complete;
    w->grant.batch_size = k;
    w->grant.service_share_ms = billed_service / static_cast<double>(k);
    w->grant.queue_wait_ms = start - w->request.submit_ms;
    w->grant.hangs = billed_hangs;
    w->grant.retries = retries;
    w->grant.failed = dispatch_failed;
    w->granted = true;
    --waiting_;
    pending_.erase(std::find(pending_.begin(), pending_.end(), w));
  }
  cv_.notify_all();
}

// ------------------------------------------------------------ admission

double admission_duty(detect::ModelSetting setting, double cadence_ms) {
  return detect::LatencyModel::mean_latency_ms(setting) /
         std::max(1.0, cadence_ms);
}

namespace {

/// Fraction of the GPU's (batching-boosted) capacity the admitted duty
/// cycle may claim, and the largest cadence multiplier admission may
/// impose while degrading a stream.
constexpr double kUtilizationBudget = 0.85;
constexpr double kMaxCadenceStretch = 2.0;
/// Absolute deadline granted to requests from streams that declared
/// neither FleetStreamOptions::deadline_ms nor an SLO spec.
constexpr double kDefaultDeadlineMs = 1000.0;

double duty_of(detect::ModelSetting setting, double cadence_ms) {
  return admission_duty(setting, cadence_ms);
}

/// Settings cheaper than `base`, costliest first — the admission
/// degradation ladder (quality is surrendered before cadence).
std::vector<detect::ModelSetting> cheaper_settings(detect::ModelSetting base) {
  const detect::ModelSetting ladder[] = {
      detect::ModelSetting::kYolov3_608, detect::ModelSetting::kYolov3_512,
      detect::ModelSetting::kYolov3_416, detect::ModelSetting::kYolov3_320,
      detect::ModelSetting::kYolov3Tiny_320};
  const double base_ms = detect::LatencyModel::mean_latency_ms(base);
  std::vector<detect::ModelSetting> out;
  for (detect::ModelSetting s : ladder) {
    if (detect::LatencyModel::mean_latency_ms(s) < base_ms) out.push_back(s);
  }
  return out;
}

struct AdmissionPlan {
  AdmissionDecision decision = AdmissionDecision::kRejected;
  detect::ModelSetting setting = detect::ModelSetting::kYolov3Tiny_320;
  double cadence_ms = 0.0;
};

AdmissionPlan plan_stream(const FleetStreamOptions& stream, double used,
                          double capacity, bool allow_degrade) {
  AdmissionPlan plan{AdmissionDecision::kAdmitted, stream.setting,
                     stream.cadence_ms};
  if (used + duty_of(plan.setting, plan.cadence_ms) <= capacity) return plan;
  if (!allow_degrade) {
    return {AdmissionDecision::kRejected, stream.setting, stream.cadence_ms};
  }

  // Ladder-style degradation before rejection: first smaller settings at
  // the requested cadence, then the cheapest setting at a stretched
  // cadence, then shed.
  const std::vector<detect::ModelSetting> cheaper =
      cheaper_settings(stream.setting);
  for (detect::ModelSetting s : cheaper) {
    if (used + duty_of(s, stream.cadence_ms) <= capacity) {
      return {AdmissionDecision::kDegraded, s, stream.cadence_ms};
    }
  }
  const detect::ModelSetting cheapest =
      cheaper.empty() ? stream.setting : cheaper.back();
  double stretch = 1.25;
  while (true) {
    const double factor = std::min(stretch, kMaxCadenceStretch);
    const double cadence = stream.cadence_ms * factor;
    if (used + duty_of(cheapest, cadence) <= capacity) {
      return {AdmissionDecision::kDegraded, cheapest, cadence};
    }
    if (factor >= kMaxCadenceStretch) break;
    stretch *= 1.25;
  }
  return {AdmissionDecision::kRejected, stream.setting, stream.cadence_ms};
}

}  // namespace


// ------------------------------------------------------------- run_fleet

FleetResult run_fleet(const std::vector<FleetStreamOptions>& streams,
                      const FleetOptions& options) {
  FleetResult fleet;
  fleet.streams.resize(streams.size());

  // --- admission: static duty-cycle budget with degrade-then-reject ---
  const int max_batch = std::max(1, options.gpu.max_batch);
  const double capacity =
      kUtilizationBudget *
      std::pow(static_cast<double>(max_batch),
               1.0 - detect::LatencyModel::kBatchAlpha);
  double used = 0.0;
  std::vector<int> admitted_ids;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    FleetStreamResult& out = fleet.streams[i];
    out.stream_id = static_cast<int>(i);
    out.name = streams[i].name.empty() ? "stream" + std::to_string(i)
                                       : streams[i].name;
    const AdmissionPlan plan =
        plan_stream(streams[i], used, capacity,
                    options.admission.allow_degrade);
    out.admission = plan.decision;
    out.granted_setting = plan.setting;
    out.granted_cadence_ms = plan.cadence_ms;
    switch (plan.decision) {
      case AdmissionDecision::kAdmitted: ++fleet.admitted; break;
      case AdmissionDecision::kDegraded: ++fleet.degraded; break;
      case AdmissionDecision::kRejected: ++fleet.rejected; break;
    }
    if (plan.decision != AdmissionDecision::kRejected) {
      used += duty_of(plan.setting, plan.cadence_ms);
      admitted_ids.push_back(static_cast<int>(i));
    }
  }
  obs::TimeSeries* fleet_latency = nullptr;
  if (obs::Telemetry::enabled()) {
    obs::MetricsRegistry& reg = obs::metrics();
    reg.counter("fleet", "admission.admitted")
        .add(static_cast<std::uint64_t>(fleet.admitted));
    reg.counter("fleet", "admission.degraded")
        .add(static_cast<std::uint64_t>(fleet.degraded));
    reg.counter("fleet", "admission.rejected")
        .add(static_cast<std::uint64_t>(fleet.rejected));
    reg.gauge("fleet", "duty_cycle").set(used);
    reg.gauge("fleet", "duty_capacity").set(capacity);
    // Fleet-aggregate result-latency series, fed from every stream thread
    // in global fleet time (TimeSeries is internally synchronized).
    fleet_latency = &obs::time_series().series(
        "fleet", "result_latency_ms",
        {1000.0, 64, obs::FixedHistogram::default_latency_edges_ms()});
  }

  const int running = static_cast<int>(admitted_ids.size());
  if (running == 0 && !options.supervisor.enabled) return fleet;

  // Supervised fleets also give statically-rejected streams a thread: the
  // supervisor parks them on the coordinator with re-admission probes so
  // they can join mid-run once capacity frees up. Unsupervised fleets shed
  // them before any thread starts (PR 7 behavior, byte-identical).
  std::vector<int> participant_ids = admitted_ids;
  if (options.supervisor.enabled) {
    participant_ids.clear();
    for (std::size_t i = 0; i < streams.size(); ++i) {
      participant_ids.push_back(static_cast<int>(i));
    }
  }
  const int participants = static_cast<int>(participant_ids.size());
  if (participants == 0) return fleet;

  // --- stagger: de-phase equal cadences so the fleet does not submit in
  // lockstep (a synchronized fleet forces every batch to full width, which
  // shows up directly in everyone's p99 queue wait) ---
  double stagger = options.stagger_ms;
  if (stagger < 0.0 && running > 0) {
    double min_cadence = fleet.streams[admitted_ids.front()].granted_cadence_ms;
    for (int id : admitted_ids) {
      min_cadence =
          std::min(min_cadence, fleet.streams[id].granted_cadence_ms);
    }
    stagger = min_cadence / static_cast<double>(running);
  }
  if (stagger < 0.0) stagger = 0.0;

  FleetGpu gpu(options.gpu, participants,
               options.fault_plan != nullptr ? options.fault_plan->channel("gpu")
                                             : util::FaultChannel());
  gpu.set_admission_ledger(capacity, used);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(participants));
  for (int slot = 0; slot < participants; ++slot) {
    const int id = participant_ids[static_cast<std::size_t>(slot)];
    FleetStreamResult& out = fleet.streams[static_cast<std::size_t>(id)];
    // Every participant gets a reserved stagger slot — a rejected stream
    // that probes its way in later re-joins on its own phase instead of
    // colliding with an admitted stream's cadence.
    out.stagger_ms = stagger * static_cast<double>(slot);
    const FleetStreamOptions& stream = streams[static_cast<std::size_t>(id)];
    double deadline = stream.deadline_ms;
    if (deadline <= 0.0 && stream.engine.slo != nullptr) {
      deadline = stream.engine.slo->effective_deadline_ms();
    }
    if (deadline <= 0.0) deadline = kDefaultDeadlineMs;
    StreamRuntime rt{id,       &stream, options.supervisor.enabled,
                     out.stagger_ms, deadline, &gpu,
                     fleet_latency,  &out};
    threads.emplace_back([rt] { StreamSupervisor(rt).run(); });
  }
  for (std::thread& t : threads) t.join();

  // --- aggregate ---
  std::uint64_t total_frames = 0;
  for (int id : participant_ids) {
    const FleetStreamResult& out = fleet.streams[static_cast<std::size_t>(id)];
    total_frames += out.run.frames.size();
    fleet.makespan_ms =
        std::max(fleet.makespan_ms, out.stagger_ms + out.run.timeline_ms);
    if (out.supervision.quarantines > 0) ++fleet.quarantined;
    if (out.supervision.readmitted_at_ms >= 0.0) ++fleet.readmitted;
    if (out.run.frames.empty()) continue;  // shed and never re-admitted
    if (out.run.status.failed() && !fleet.status.failed()) {
      fleet.status = out.run.status;
    } else if (!out.run.status.ok() && fleet.status.ok()) {
      fleet.status = Status::degraded("stream " + out.name + ": " +
                                      out.run.status.message());
    }
  }
  fleet.gpu = gpu.stats();
  fleet.aggregate_fps = fleet.makespan_ms > 0.0
                            ? static_cast<double>(total_frames) * 1000.0 /
                                  fleet.makespan_ms
                            : 0.0;
  return fleet;
}

}  // namespace adavp::core
