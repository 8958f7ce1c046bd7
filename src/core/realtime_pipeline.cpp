#include "core/realtime_pipeline.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <optional>
#include <thread>

#include "adapt/velocity.h"
#include "core/clock.h"
#include "core/engine_runtime.h"
#include "detect/faulty_detector.h"
#include "detect/latency_model.h"
#include "energy/energy_meter.h"
#include "energy/power_model.h"
#include "obs/telemetry.h"
#include "track/faulty_tracker.h"
#include "track/frame_selection.h"
#include "track/latency.h"
#include "track/tracker.h"
#include "util/closable_queue.h"
#include "video/camera.h"
#include "video/frame_buffer.h"
#include "video/frame_store.h"

namespace adavp::core {

namespace {

/// Supervisor watchdog deadline per detection cycle: this multiple of the
/// LatencyModel mean for the cycle's (capped) setting, floored.
constexpr double kWatchdogDeadlineFactor = 2.0;
constexpr double kWatchdogDeadlineFloorMs = 50.0;

/// Sleeps whatever is left of a modeled latency after the real compute
/// that already happened. The modeled TX2 latencies are meant to SUBSUME
/// the actual CPU work this reproduction performs (LK, rasterizing), so
/// pacing must not pay for it twice — otherwise high time scales starve
/// the tracker of its schedule share.
class PacedSection {
 public:
  PacedSection(double modeled_ms, double time_scale)
      : deadline_(std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double, std::milli>(modeled_ms /
                                                                time_scale))) {}
  ~PacedSection() { std::this_thread::sleep_until(deadline_); }

 private:
  std::chrono::steady_clock::time_point deadline_;
};

/// Instrument handles resolved once per run, so the per-frame hot paths
/// never touch the registry map. All null when telemetry is disabled —
/// call sites reduce to one pointer test.
struct RealtimeInstruments {
  obs::Counter* detector_cycles = nullptr;
  obs::Counter* tracker_frames = nullptr;
  obs::Counter* tracker_batches = nullptr;
  obs::Counter* tracker_cancelled = nullptr;
  obs::Counter* adapter_switches = nullptr;
  obs::Counter* watchdog_timeouts = nullptr;
  obs::Counter* coast_frames = nullptr;
  obs::Gauge* degrade_level = nullptr;
  obs::Gauge* buffer_depth = nullptr;
  obs::FixedHistogram* detect_occupancy_ms = nullptr;  ///< modeled GPU busy
  obs::FixedHistogram* batch_frames = nullptr;  ///< catch-up batch sizes
  /// Per-window result telemetry (fps via rates, latency quantiles per
  /// second of pipeline time) — the windowed complement of the counters.
  obs::TimeSeries* results_ts = nullptr;
  obs::TimeSeries* coast_ts = nullptr;

  static RealtimeInstruments resolve() {
    RealtimeInstruments ins;
    if (!obs::Telemetry::enabled()) return ins;
    obs::MetricsRegistry& reg = obs::metrics();
    ins.detector_cycles = &reg.counter("detector", "cycles");
    ins.tracker_frames = &reg.counter("tracker", "frames");
    ins.tracker_batches = &reg.counter("tracker", "batches");
    ins.tracker_cancelled = &reg.counter("tracker", "cancellations");
    ins.adapter_switches = &reg.counter("adapter", "switches");
    ins.watchdog_timeouts = &reg.counter("watchdog", "timeouts");
    ins.coast_frames = &reg.counter("coast", "frames");
    ins.degrade_level = &reg.gauge("degrade", "level");
    ins.buffer_depth = &reg.gauge("buffer", "depth");
    ins.detect_occupancy_ms =
        &reg.latency_histogram("detector", "occupancy_ms");
    ins.batch_frames = &reg.histogram(
        "tracker", "batch_frames", {1, 2, 4, 6, 8, 12, 16, 24, 32, 48, 64});
    obs::TimeSeries::Options ts_opts;
    ts_opts.edges = obs::FixedHistogram::default_latency_edges_ms();
    ins.results_ts = &obs::time_series().series("realtime", "result_latency_ms",
                                                ts_opts);
    ins.coast_ts = &obs::time_series().series("realtime", "coast_frames", {});
    return ins;
  }
};

/// A finished detection handed from the detector thread to the tracker
/// thread: reference detections for `ref_index`, frames up to `track_upto`
/// to propagate across.
struct DetectionEvent {
  int ref_index = 0;
  int track_upto = 0;
  detect::ModelSetting setting = detect::ModelSetting::kYolov3_512;
  std::vector<detect::Detection> detections;
  /// The already-rendered reference frame, carried along so the tracker
  /// re-arms from the same pixels the camera produced instead of paying a
  /// second rasterization (the pre-store pipeline rendered every reference
  /// frame twice).
  video::FrameRef ref_frame;
  /// True when the detections are coasted (decayed last-good boxes, not a
  /// fresh inference) — the supervisor's tracker-only fallback.
  bool coast = false;
};

/// Frame results shared between threads, guarded by one lock.
class ResultBoard {
 public:
  explicit ResultBoard(int frame_count) {
    frames_.resize(static_cast<std::size_t>(frame_count));
    for (int i = 0; i < frame_count; ++i) {
      frames_[static_cast<std::size_t>(i)].frame_index = i;
    }
  }

  void record(FrameResult result) {
    std::lock_guard<std::mutex> lock(mutex_);
    frames_[static_cast<std::size_t>(result.frame_index)] = std::move(result);
  }

  std::vector<FrameResult> take() {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::move(frames_);
  }

 private:
  std::mutex mutex_;
  std::vector<FrameResult> frames_;
};

}  // namespace

RealtimeResult run_realtime(const video::SyntheticVideo& video,
                            const RealtimeOptions& options) {
  RealtimeResult result;
  const int frame_count = video.frame_count();
  if (frame_count == 0) return result;
  const double scale = options.time_scale;
  // The realtime engine runs on the wall clock (scaled); the watchdog and
  // the degradation ladder only make sense here — on a VirtualClock the
  // virtual-time engines model the schedule exactly, so there is nothing
  // to supervise (Clock::is_virtual() is the gate).
  WallClock wall(scale);

  // Telemetry: resolve instruments once and remember the registry state so
  // the result carries this run's deltas only. (Runs are not re-entrant
  // with respect to the global registry; concurrent runs would sum.)
  const bool telemetry_on = obs::Telemetry::enabled();
  obs::MetricsSnapshot metrics_before;
  if (telemetry_on) metrics_before = obs::Telemetry::instance().snapshot();
  const RealtimeInstruments ins = RealtimeInstruments::resolve();
  obs::ScopedSpan run_span("run_realtime", "pipeline", frame_count, "frames");

  video::FrameStore store(video);
  video::FrameBuffer buffer;
  video::CameraSource camera(store, buffer, scale);
  util::ClosableQueue<DetectionEvent> events;
  ResultBoard board(frame_count);

  // Fault channels (empty when no plan): the camera glitches its captures,
  // the detector is wrapped in detect::FaultyDetector, the tracker thread's
  // optical flow in track::FaultyTracker.
  util::FaultChannel detector_faults;
  util::FaultChannel tracker_faults;
  if (options.fault_plan != nullptr) {
    detector_faults = options.fault_plan->channel("detector");
    tracker_faults = options.fault_plan->channel("tracker");
    camera.set_faults(options.fault_plan->channel("camera"));
  }

  std::atomic<int> fetch_generation{0};
  std::atomic<double> latest_velocity{0.0};
  std::atomic<bool> have_velocity{false};
  std::atomic<int> frames_tracked{0};
  std::atomic<int> cancelled{0};
  std::atomic<int> coast_frames{0};
  std::atomic<std::uint64_t> detector_faults_injected{0};
  std::atomic<std::uint64_t> tracker_faults_injected{0};

  std::mutex cycles_mutex;
  std::vector<CycleRecord> cycles;

  // SLO evaluation on pipeline (scaled-wall) time. The tracker object is
  // single-owner, so the two producing threads serialize on one mutex —
  // one short critical section per displayed result, off the vision hot
  // path.
  std::optional<obs::SloTracker> slo_tracker;
  std::mutex slo_mutex;
  if (options.slo != nullptr) slo_tracker.emplace(*options.slo);
  auto record_result = [&](double latency_ms, bool coasted) {
    const double t_ms = wall.now_ms();
    if (slo_tracker.has_value()) {
      std::lock_guard<std::mutex> lock(slo_mutex);
      slo_tracker->on_result(t_ms, latency_ms, coasted);
    }
    if (ins.results_ts != nullptr) ins.results_ts->record(t_ms, latency_ms);
    if (coasted && ins.coast_ts != nullptr) ins.coast_ts->count(t_ms);
  };

  // Each worker owns its meter (no shared mutable state on the hot path);
  // the meters are merged after the join and integrated over the video
  // timeline, mirroring the virtual engines' energy epilogue.
  energy::EnergyMeter detector_meter;
  energy::EnergyMeter tracker_meter;

  // Error propagation: a worker thread that throws must not tear the
  // process down (std::terminate) or leave its peers blocked. The first
  // failure wins; it closes every wait point so all three threads unwind.
  std::atomic<bool> abort{false};
  std::mutex status_mutex;
  auto on_worker_failure = [&](std::string message) {
    {
      std::lock_guard<std::mutex> lock(status_mutex);
      if (!result.status.failed()) {
        result.status = Status::worker_failure(std::move(message));
      }
    }
    abort.store(true);
    camera.request_stop();
    buffer.close();   // wakes a detector blocked in wait_newer
    events.close();   // wakes a tracker blocked in pop
  };

  const SupervisorOptions& sup = options.supervisor;
  auto watchdog_deadline_ms = [&](detect::ModelSetting setting) {
    return std::max(kWatchdogDeadlineFloorMs,
                    kWatchdogDeadlineFactor *
                        detect::LatencyModel::mean_latency_ms(setting));
  };

  // ---- Detector thread: always fetch the newest frame; the previous
  // detection is delivered to the tracker the moment the next fetch
  // happens, so both sides of the cycle run concurrently. When supervised,
  // a cycle that overruns its watchdog deadline is cancelled and the
  // pipeline coasts on decayed last-good detections while the degradation
  // ladder steps toward cheaper settings (608→512→416→320→tracker-only).
  std::thread detector_thread([&] {
    obs::name_thread("detector");
    detect::FaultyDetector detector(options.seed, detector_faults);
    detect::ModelSetting setting = options.setting;
    adapt::ModelAdapter const* adapter = options.adapter;
    DegradationLadder ladder(sup.ladder);
    std::optional<DetectionEvent> pending;
    int last_detected = -1;
    int active_frame = -1;  ///< frame in flight, for failure annotation
    int switches = 0;
    int watchdog_timeouts = 0;
    int coast_cycles = 0;
    // Last successful detection, kept for coasting. While the detector is
    // degraded, these boxes are re-issued through the runtime's
    // decay_detections (score * decay^age; faded objects drop out).
    std::vector<detect::Detection> last_good;
    int last_good_frame = -1;
    auto ladder_changed = [&](bool stepped) {
      if (!stepped) return;
      if (ins.degrade_level != nullptr) {
        ins.degrade_level->set(static_cast<double>(ladder.level()));
      }
      obs::trace_instant("degrade_step", "supervisor", ladder.level(),
                         "level");
    };

    try {
      if (sup.enabled && ins.degrade_level != nullptr) {
        ins.degrade_level->set(0.0);
      }
      while (!abort.load()) {
        std::optional<video::FrameRef> frame;
        {
          obs::ScopedSpan wait_span("wait_frame", "detector");
          frame = buffer.wait_newer(last_detected);
        }
        if (!frame.has_value() || abort.load()) break;
        active_frame = frame->index;
        if (ins.buffer_depth != nullptr) {
          ins.buffer_depth->set(static_cast<double>(buffer.size()));
        }

        // Fetching a new frame cancels the tracker's in-flight batch
        // (§IV-B) and releases the previous detection for tracking up to
        // this frame.
        fetch_generation.fetch_add(1);
        if (pending.has_value()) {
          pending->track_upto = frame->index - 1;
          events.push(std::move(*pending));
          pending.reset();
        }

        if (adapter != nullptr && have_velocity.load()) {
          const detect::ModelSetting next =
              adapter->next_setting(latest_velocity.load(), setting);
          if (next != setting) {
            ++switches;
            if (ins.adapter_switches != nullptr) ins.adapter_switches->add();
            obs::trace_instant("setting_switch", "adapter",
                               detect::input_size(next), "to_size");
            setting = next;
          }
        }

        // Supervisor: cap the adapter's choice at the ladder level; at the
        // tracker-only floor, coast except for bounded-backoff recovery
        // probes at the cheapest setting.
        bool coast_cycle = false;
        detect::ModelSetting effective = setting;
        if (sup.enabled) {
          if (ladder.tracker_only()) {
            if (ladder.should_probe()) {
              effective = detect::ModelSetting::kYolov3_320;
            } else {
              coast_cycle = true;
            }
          } else {
            effective = ladder.apply(setting);
          }
        }

        if (!coast_cycle) {
          detect::DetectionResult det;
          {
            obs::ScopedSpan detect_span("detect", "detector", frame->index);
            det = detector.detect(video, frame->index, effective);
          }
          const double deadline_ms = watchdog_deadline_ms(effective);
          if (sup.enabled && det.latency_ms > deadline_ms) {
            // Watchdog: the modeled inference blew its budget. The GPU was
            // occupied until the deadline, where the cycle is cancelled —
            // the result is discarded and this cycle coasts instead.
            {
              obs::ScopedSpan cancel_span("watchdog_cancel", "supervisor",
                                          frame->index);
              wall.occupy(deadline_ms);
            }
            detector_meter.add_gpu_busy(
                energy::PowerModel::gpu_detect_w(effective, false),
                deadline_ms);
            ++watchdog_timeouts;
            if (ins.watchdog_timeouts != nullptr) ins.watchdog_timeouts->add();
            ladder_changed(ladder.on_overrun());
            coast_cycle = true;
          } else {
            wall.occupy(det.latency_ms);  // the GPU is busy this long
            detector_meter.add_gpu_busy(
                energy::PowerModel::gpu_detect_w(effective, false),
                det.latency_ms);
            if (ins.detector_cycles != nullptr) {
              ins.detector_cycles->add();
              ins.detect_occupancy_ms->record(det.latency_ms);
            }
            if (sup.enabled) ladder_changed(ladder.on_success());

            FrameResult fr;
            fr.frame_index = frame->index;
            fr.source = ResultSource::kDetector;
            fr.setting = effective;
            fr.staleness_ms = det.latency_ms;
            fr.boxes.reserve(det.detections.size());
            for (const auto& d : det.detections) {
              fr.boxes.push_back({d.box, d.cls});
            }
            board.record(std::move(fr));
            record_result(det.latency_ms, /*coasted=*/false);

            {
              std::lock_guard<std::mutex> lock(cycles_mutex);
              cycles.push_back({frame->index, effective, 0.0, 0.0, 0, 0,
                                latest_velocity.load()});
            }

            pending = DetectionEvent{frame->index, frame->index, effective,
                                     det.detections, *frame};
            last_good = det.detections;
            last_good_frame = frame->index;
            result.stats.frames_detected += 1;
          }
        }

        if (coast_cycle) {
          ++coast_cycles;
          // Coasting is bookkeeping (re-issue decayed boxes), not
          // inference: the GPU is off and the CPU draws its coast power
          // for the frame interval — that differential is the measurable
          // payoff of degrading (docs/ROBUSTNESS.md).
          detector_meter.add_cpu_busy(energy::PowerModel::cpu_coast_w(),
                                      video.frame_interval_ms());
          std::vector<detect::Detection> coasted =
              (last_good_frame < 0)
                  ? std::vector<detect::Detection>{}
                  : decay_detections(last_good,
                                     frame->index - last_good_frame);
          FrameResult fr;
          fr.frame_index = frame->index;
          fr.source = ResultSource::kTracker;
          fr.setting = setting;
          fr.staleness_ms = (last_good_frame >= 0)
                                ? (frame->index - last_good_frame) *
                                      video.frame_interval_ms()
                                : 0.0;
          fr.boxes.reserve(coasted.size());
          for (const auto& d : coasted) fr.boxes.push_back({d.box, d.cls});
          const double coast_staleness_ms = fr.staleness_ms;
          board.record(std::move(fr));
          record_result(coast_staleness_ms, /*coasted=*/true);
          coast_frames.fetch_add(1);
          if (ins.coast_frames != nullptr) ins.coast_frames->add();
          DetectionEvent ev{frame->index, frame->index, setting,
                            std::move(coasted), *frame};
          ev.coast = true;
          pending = std::move(ev);
        }

        last_detected = frame->index;
      }
      // Stream over: let the tracker finish the tail of the video.
      if (pending.has_value() && !abort.load()) {
        pending->track_upto = frame_count - 1;
        events.push(std::move(*pending));
      }
    } catch (const std::exception& e) {
      on_worker_failure(annotate_failure("detector", active_frame,
                                         std::string("detector thread: ") +
                                             e.what()));
    } catch (...) {
      on_worker_failure(annotate_failure("detector", active_frame,
                                         "detector thread: unknown exception"));
    }
    events.close();
    result.stats.setting_switches = switches;
    result.stats.watchdog_timeouts = watchdog_timeouts;
    result.stats.coast_cycles = coast_cycles;
    result.stats.degrade_steps_down = ladder.steps_down();
    result.stats.degrade_steps_up = ladder.steps_up();
    result.stats.max_degrade_level = ladder.max_level_seen();
    detector_faults_injected.store(detector.faults_injected());
  });

  // ---- Tracker thread: real feature extraction + LK on rendered frames,
  // with the modelled CPU latencies for pacing. The tracker sits behind
  // the same fault decorator the virtual engines use — a pass-through
  // when the plan has no "tracker" channel.
  std::thread tracker_thread([&] {
    obs::name_thread("tracker");
    track::ObjectTracker inner(options.tracker);
    track::FaultyTracker tracker(inner, tracker_faults);
    int active_frame = -1;  ///< frame in flight, for failure annotation
    try {
      track::TrackingFrameSelector selector;
      track::TrackLatencyModel latency(options.seed ^ 0x77777ULL);

      while (!abort.load()) {
        std::optional<DetectionEvent> event;
        {
          obs::ScopedSpan wait_span("wait_detection", "tracker");
          event = events.pop();
        }
        if (!event.has_value() || abort.load()) break;
        active_frame = event->ref_index;
        const int my_generation = fetch_generation.load();
        obs::ScopedSpan batch_span("catchup_batch", "tracker",
                                   event->ref_index, "ref_frame");
        if (ins.tracker_batches != nullptr) ins.tracker_batches->add();

        // Frames behind the reference are finished; let the store recycle
        // their buffers before this batch pulls fresh ones.
        store.trim_below(event->ref_index);
        {
          obs::ScopedSpan extract_span("extract_features", "tracker",
                                       event->ref_index);
          const double extract_ms = latency.feature_extraction_ms();
          PacedSection pace(extract_ms, scale);
          tracker_meter.add_cpu_busy(energy::PowerModel::cpu_track_w(),
                                     extract_ms);
          // The camera already rasterized this frame; re-arm from the
          // shared pixels instead of rendering a second copy.
          tracker.set_reference_at(event->ref_frame.image(),
                                   event->detections, event->ref_index);
        }

        adapt::VelocityEstimator velocity;
        const int frames_between = event->track_upto - event->ref_index;
        if (ins.batch_frames != nullptr && frames_between > 0) {
          ins.batch_frames->record(frames_between);
        }
        const std::vector<int> offsets = selector.select(frames_between);
        int tracked = 0;
        int prev_offset = 0;
        for (int offset : offsets) {
          if (abort.load()) break;
          if (fetch_generation.load() != my_generation) {
            cancelled.fetch_add(1);
            if (ins.tracker_cancelled != nullptr) ins.tracker_cancelled->add();
            break;
          }
          const int frame_index = event->ref_index + offset;
          active_frame = frame_index;
          track::TrackStepStats stats;
          double step_ms = 0.0;
          {
            obs::ScopedSpan step_span("track_frame", "tracker", frame_index);
            step_ms =
                latency.tracking_ms(tracker.object_count(),
                                    tracker.live_feature_count()) +
                latency.overlay_ms();
            PacedSection pace(step_ms, scale);
            tracker_meter.add_cpu_busy(energy::PowerModel::cpu_track_w(),
                                       step_ms);
            const video::FrameRef fr = store.get(frame_index);
            stats = tracker.track_frame(fr.image(), offset - prev_offset,
                                        frame_index);
          }
          velocity.add_step(stats);
          if (fetch_generation.load() != my_generation) {
            // Task finished after the detector moved on: per §IV-B the
            // result is not displayed (it would move the display
            // backwards).
            cancelled.fetch_add(1);
            if (ins.tracker_cancelled != nullptr) ins.tracker_cancelled->add();
            break;
          }
          FrameResult fr;
          fr.frame_index = frame_index;
          fr.source = ResultSource::kTracker;
          fr.setting = event->setting;
          fr.boxes = tracker.current_boxes();
          board.record(std::move(fr));
          record_result(step_ms, event->coast);
          frames_tracked.fetch_add(1);
          if (ins.tracker_frames != nullptr) ins.tracker_frames->add();
          if (event->coast) {
            coast_frames.fetch_add(1);
            if (ins.coast_frames != nullptr) ins.coast_frames->add();
          }
          ++tracked;
          prev_offset = offset;
        }
        if (frames_between > 0) {
          selector.update(std::max(tracked, 1), frames_between);
        }
        if (velocity.step_count() > 0) {
          latest_velocity.store(velocity.mean_velocity());
          have_velocity.store(true);
        }
      }
    } catch (const std::exception& e) {
      on_worker_failure(annotate_failure("tracker", active_frame,
                                         std::string("tracker thread: ") +
                                             e.what()));
    } catch (...) {
      on_worker_failure(annotate_failure("tracker", active_frame,
                                         "tracker thread: unknown exception"));
    }
    tracker_faults_injected.store(tracker.faults_injected());
  });

  camera.start();
  detector_thread.join();
  tracker_thread.join();
  camera.stop();

  const std::string camera_error = camera.error();
  if (!camera_error.empty()) {
    std::lock_guard<std::mutex> lock(status_mutex);
    if (!result.status.failed()) {
      result.status = Status::worker_failure(
          annotate_failure("camera", -1, "camera thread: " + camera_error));
    }
  }

  result.stats.frames_captured = camera.frames_captured();
  result.stats.frames_tracked = frames_tracked.load();
  result.stats.tracking_tasks_cancelled = cancelled.load();
  result.stats.frames_dropped = static_cast<int>(buffer.dropped());
  result.stats.coast_frames = coast_frames.load();
  result.stats.faults_injected =
      static_cast<int>(detector_faults_injected.load() +
                       tracker_faults_injected.load() +
                       camera.faults_injected());
  result.run.frame_store = store.stats();
  result.stats.frames_rendered =
      static_cast<int>(result.run.frame_store.renders);

  // A run that absorbed faults but still completed is degraded, not ok.
  if (!result.status.failed() &&
      (result.stats.watchdog_timeouts > 0 || result.stats.faults_injected > 0 ||
       result.stats.coast_frames > 0)) {
    result.status = Status::degraded(
        std::to_string(result.stats.watchdog_timeouts) +
        " watchdog timeouts, " + std::to_string(result.stats.faults_injected) +
        " faults injected, " + std::to_string(result.stats.coast_frames) +
        " coasted frames, max ladder level " +
        std::to_string(result.stats.max_degrade_level));
  }

  result.run.frames = board.take();
  // Fill skipped frames from the previous available result. (Not the
  // runtime's fill_reused_frames: realtime results have no meaningful
  // per-frame staleness to propagate, so reused frames keep 0.)
  int last_filled = -1;
  for (std::size_t i = 0; i < result.run.frames.size(); ++i) {
    if (result.run.frames[i].source != ResultSource::kNone) {
      last_filled = static_cast<int>(i);
      continue;
    }
    if (last_filled >= 0) {
      const FrameResult& prev = result.run.frames[static_cast<std::size_t>(last_filled)];
      result.run.frames[i].source = ResultSource::kReused;
      result.run.frames[i].boxes = prev.boxes;
      result.run.frames[i].setting = prev.setting;
    }
  }
  {
    std::lock_guard<std::mutex> lock(cycles_mutex);
    result.run.cycles = std::move(cycles);
  }
  result.run.setting_switches = result.stats.setting_switches;
  result.run.timeline_ms =
      static_cast<double>(frame_count) * video.frame_interval_ms();
  // Energy: fold the per-worker meters and integrate over the video
  // timeline, exactly as EngineContext::finish does for the virtual
  // engines (Table III's rails, docs/EXPERIMENTS.md).
  energy::EnergyMeter meter;
  meter.merge(detector_meter);
  meter.merge(tracker_meter);
  result.run.energy = meter.finish(result.run.timeline_ms);
  // Mirror the supervisor's verdict onto the embedded RunResult so both
  // the realtime and virtual engines report through core::Status.
  result.run.status = result.status;
  result.run.faults_injected =
      static_cast<std::uint64_t>(result.stats.faults_injected);

  if (slo_tracker.has_value()) {
    result.run.slo =
        slo_tracker->finish(std::max(result.run.timeline_ms, wall.now_ms()));
    result.stats.slo_windows = static_cast<int>(result.run.slo.windows.size());
    result.stats.slo_violated_windows =
        static_cast<int>(result.run.slo.violated_windows);
    for (const obs::SloBreachEvent& breach : result.run.slo.breaches) {
      if (breach.entered) ++result.stats.slo_breaches;
    }
  }
  if (telemetry_on) {
    obs::MetricsRegistry& reg = obs::metrics();
    reg.gauge("energy", "gpu_wh").set(result.run.energy.gpu_wh);
    reg.gauge("energy", "cpu_wh").set(result.run.energy.cpu_wh);
    reg.gauge("energy", "soc_wh").set(result.run.energy.soc_wh);
    reg.gauge("energy", "ddr_wh").set(result.run.energy.ddr_wh);
    reg.gauge("energy", "total_wh").set(result.run.energy.total_wh());
    result.metrics =
        obs::Telemetry::instance().snapshot().since(metrics_before);
  }
  // Post-mortem: a failed or watchdog-tripped run dumps the flight ring
  // (a no-op unless the recorder is enabled and a dump path is armed).
  if (!result.status.ok() || result.stats.watchdog_timeouts > 0) {
    obs::Telemetry::instance().maybe_flight_dump(
        status_code_name(result.status.code()));
  }
  return result;
}

}  // namespace adavp::core
