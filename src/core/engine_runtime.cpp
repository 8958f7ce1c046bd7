#include "core/engine_runtime.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "energy/power_model.h"
#include "obs/telemetry.h"
#include "video/frame_glitch.h"

namespace adavp::core {

namespace {

/// Decorrelates the tracker-latency stream from the detector's, which is
/// seeded from the same run seed.
constexpr std::uint64_t kTrackLatencySalt = 0xABCDULL;

util::FaultChannel plan_channel(const util::FaultPlan* plan,
                                std::string_view name) {
  return plan != nullptr ? plan->channel(name) : util::FaultChannel();
}

}  // namespace

EngineContext::EngineContext(const video::SyntheticVideo& video,
                             EngineOptions options,
                             std::unique_ptr<Clock> clock)
    : video(video),
      frame_count(video.frame_count()),
      last(video.frame_count() - 1),
      interval_ms(video.frame_interval_ms()),
      clock(clock != nullptr ? std::move(clock)
                             : std::make_unique<VirtualClock>()),
      detector(options.seed, plan_channel(options.fault_plan, "detector")),
      latency(options.seed ^ kTrackLatencySalt),
      options_(std::move(options)),
      camera_faults_(plan_channel(options_.fault_plan, "camera")),
      tracker_owner_(std::make_unique<track::ObjectTracker>(options_.tracker)),
      faulty_tracker_(*tracker_owner_,
                      plan_channel(options_.fault_plan, "tracker")) {
  run.frames.resize(static_cast<std::size_t>(frame_count));
  for (int i = 0; i < frame_count; ++i) {
    run.frames[static_cast<std::size_t>(i)].frame_index = i;
  }
  if (options_.slo != nullptr) slo_tracker_.emplace(*options_.slo);
}

video::FrameStore& EngineContext::store() {
  if (!store_.has_value()) store_.emplace(video);
  return *store_;
}

video::FrameRef EngineContext::frame(int index) {
  video::FrameRef ref = store().get(index);
  if (camera_faults_.empty()) return ref;
  // A frame may be fetched more than once (reference re-arm, catch-up);
  // the glitch is deterministic so every fetch sees the same pixels, but
  // the fault is billed only on the first.
  const bool first_fetch = counted_glitches_.insert(index).second;
  for (const util::FaultDecision& decision : camera_faults_.decide(index)) {
    if (decision.kind != util::FaultKind::kBlack &&
        decision.kind != util::FaultKind::kCorrupt) {
      continue;
    }
    ref = video::apply_glitch(ref, decision);
    if (first_fetch) {
      ++camera_faults_injected_;
      if (obs::Telemetry::enabled()) {
        obs::metrics()
            .counter("fault", "injected." + std::string(util::fault_kind_name(
                                  decision.kind)))
            .add();
      }
      // fault_kind_name returns string literals, so .data() is terminated.
      obs::flight_instant(util::fault_kind_name(decision.kind).data(), "fault",
                          index);
    }
  }
  return ref;
}

double EngineContext::capture_time_ms(int index) {
  double t = video.timestamp_ms(index);
  if (camera_faults_.empty()) return t;
  for (const util::FaultDecision& decision : camera_faults_.decide(index)) {
    if (decision.kind != util::FaultKind::kHiccup) continue;
    t += decision.magnitude;
    if (counted_delays_.insert(index).second) {
      ++camera_faults_injected_;
      if (obs::Telemetry::enabled()) {
        obs::metrics().counter("fault", "injected.hiccup").add();
      }
      obs::flight_instant("hiccup", "fault", index);
    }
  }
  return t;
}

int EngineContext::newest_captured(double t) {
  int newest = std::min(last, static_cast<int>(std::floor(t / interval_ms)));
  if (!camera_faults_.empty()) {
    while (newest > 0 && capture_time_ms(newest) > t) --newest;
  }
  return newest;
}

detect::DetectionResult EngineContext::detect(int frame_index,
                                              detect::ModelSetting setting) {
  return detector.detect(video, frame_index, setting);
}

detect::DetectionResult EngineContext::detect_on_gpu(
    int frame_index, detect::ModelSetting setting, bool continuous) {
  detect::DetectionResult det = detect(frame_index, setting);
  meter.add_gpu_busy(energy::PowerModel::gpu_detect_w(setting, continuous),
                     det.latency_ms);
  return det;
}

void EngineContext::record_detection(int index,
                                     const detect::DetectionResult& det,
                                     detect::ModelSetting setting,
                                     double completed_ms) {
  FrameResult& result = run.frames[static_cast<std::size_t>(index)];
  result.source = ResultSource::kDetector;
  result.boxes = to_labeled_boxes(det);
  result.setting = setting;
  result.staleness_ms = completed_ms - capture_time_ms(index);
  if (slo_tracker_.has_value()) {
    slo_tracker_->on_result(completed_ms, result.staleness_ms,
                            /*coasted=*/false);
  }
}

void EngineContext::record_tracked(int index, detect::ModelSetting setting,
                                   double completed_ms) {
  FrameResult& result = run.frames[static_cast<std::size_t>(index)];
  result.source = ResultSource::kTracker;
  result.boxes = tracker().current_boxes();
  result.setting = setting;
  result.staleness_ms = completed_ms - capture_time_ms(index);
  if (slo_tracker_.has_value()) {
    slo_tracker_->on_result(completed_ms, result.staleness_ms,
                            /*coasted=*/false);
  }
}

EngineContext::Catchup EngineContext::track_catchup(
    int ref_index, const std::vector<detect::Detection>& ref_detections,
    int next_index, double cycle_start, double cycle_end,
    detect::ModelSetting result_setting, SelectionPolicy policy) {
  // Re-arm the tracker from the reference detection, then propagate it
  // across the frames accumulated between the reference and the frame the
  // detector is now busy with. All frame pixels come from the shared
  // store: one render per frame per run, shared by reference.
  store().trim_below(ref_index);  // frames behind the reference are done
  const video::FrameRef ref_frame = frame(ref_index);
  tracker().set_reference_at(ref_frame.image(), ref_detections, ref_index);
  const double extract_ms = latency.feature_extraction_ms();
  double cpu_clock = cycle_start + extract_ms;
  meter.add_cpu_busy(energy::PowerModel::cpu_track_w(), extract_ms);

  Catchup out;
  out.frames_between = next_index - 1 - ref_index;
  std::vector<int> offsets;
  switch (policy) {
    case SelectionPolicy::kAdaptiveFraction:
      offsets = selector.select(out.frames_between);
      break;
    case SelectionPolicy::kTrackAll:
      for (int k = 1; k <= out.frames_between; ++k) offsets.push_back(k);
      break;
    case SelectionPolicy::kNewestOnly:
      if (out.frames_between > 0) offsets.push_back(out.frames_between);
      break;
  }
  velocity.reset();
  int prev_offset = 0;
  for (int offset : offsets) {
    // The latency draw happens before the budget check — the step was
    // *scheduled*, then cancelled — so the RNG stream stays aligned with
    // the pre-runtime engines (and across thread-count settings).
    const double step_cost =
        latency.tracking_ms(tracker().object_count(),
                            tracker().live_feature_count()) +
        latency.overlay_ms();
    if (cpu_clock + step_cost > cycle_end) {
      // Detector fetched its next frame: remaining tracking tasks are
      // cancelled (§IV-B) and those frames fall back to reuse.
      break;
    }
    const int frame_index = ref_index + offset;
    const video::FrameRef step_frame = frame(frame_index);
    const track::TrackStepStats stats =
        tracker().track_frame(step_frame.image(), offset - prev_offset,
                              frame_index);
    velocity.add_step(stats);
    cpu_clock += step_cost;
    meter.add_cpu_busy(energy::PowerModel::cpu_track_w(), step_cost);

    record_tracked(frame_index, result_setting, cpu_clock);
    ++out.tracked;
    prev_offset = offset;
  }
  if (out.frames_between > 0) {
    selector.update(std::max(out.tracked, 1), out.frames_between);
  }
  out.mean_velocity = velocity.mean_velocity();
  out.velocity_steps = velocity.step_count();
  return out;
}

void EngineContext::fail(std::string message) {
  if (!run.status.failed()) {
    run.status = Status::worker_failure(std::move(message));
  }
}

std::uint64_t EngineContext::faults_injected() const {
  return detector.faults_injected() + faulty_tracker_.faults_injected() +
         camera_faults_injected_;
}

void EngineContext::finish() {
  fill_reused_frames(run.frames);
  const double end_ms = clock->now_ms();
  const double video_duration = static_cast<double>(frame_count) * interval_ms;
  run.timeline_ms = std::max(video_duration, end_ms);
  run.latency_multiplier =
      video_duration > 0.0 ? run.timeline_ms / video_duration : 1.0;
  run.energy = meter.finish(run.timeline_ms);
  if (store_.has_value()) run.frame_store = store_->stats();
  run.faults_injected = faults_injected();
  if (!run.status.failed() && run.faults_injected > 0) {
    run.status = Status::degraded(std::to_string(run.faults_injected) +
                                  " faults injected");
  }
  if (slo_tracker_.has_value()) {
    run.slo = slo_tracker_->finish(run.timeline_ms);
  }
  if (obs::Telemetry::enabled()) {
    obs::MetricsRegistry& reg = obs::metrics();
    reg.gauge("energy", "gpu_wh").set(run.energy.gpu_wh);
    reg.gauge("energy", "cpu_wh").set(run.energy.cpu_wh);
    reg.gauge("energy", "soc_wh").set(run.energy.soc_wh);
    reg.gauge("energy", "ddr_wh").set(run.energy.ddr_wh);
    reg.gauge("energy", "total_wh").set(run.energy.total_wh());
  }
  if (!run.status.ok()) {
    obs::Telemetry::instance().maybe_flight_dump(
        status_code_name(run.status.code()));
  }
}

std::vector<metrics::LabeledBox> to_labeled_boxes(
    const detect::DetectionResult& det) {
  std::vector<metrics::LabeledBox> boxes;
  boxes.reserve(det.detections.size());
  for (const auto& d : det.detections) boxes.push_back({d.box, d.cls});
  return boxes;
}

void fill_reused_frames(std::vector<FrameResult>& frames) {
  int last_filled = -1;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (frames[i].source != ResultSource::kNone) {
      last_filled = static_cast<int>(i);
      continue;
    }
    if (last_filled >= 0) {
      const FrameResult& prev = frames[static_cast<std::size_t>(last_filled)];
      frames[i].source = ResultSource::kReused;
      frames[i].boxes = prev.boxes;
      frames[i].setting = prev.setting;
      frames[i].staleness_ms = prev.staleness_ms;
    }
  }
}

namespace {

/// Per-frame confidence decay of coasted detections, and the score below
/// which a coasted object is dropped.
constexpr double kCoastDecay = 0.85;
constexpr double kCoastScoreFloor = 0.1;

}  // namespace

std::vector<detect::Detection> decay_detections(
    const std::vector<detect::Detection>& last_good, int age) {
  std::vector<detect::Detection> out;
  const double factor = std::pow(kCoastDecay, std::max(1, age));
  out.reserve(last_good.size());
  for (const detect::Detection& d : last_good) {
    const float score = d.score * static_cast<float>(factor);
    if (score < kCoastScoreFloor) continue;
    detect::Detection copy = d;
    copy.score = score;
    out.push_back(copy);
  }
  return out;
}

}  // namespace adavp::core
