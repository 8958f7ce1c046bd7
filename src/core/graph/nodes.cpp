#include "core/graph/nodes.h"

#include <cstdint>
#include <utility>

#include "obs/telemetry.h"

namespace adavp::core::graph {

// --- CameraSourceNode --------------------------------------------------------

CameraSourceNode::CameraSourceNode(EngineContext& ctx, Mode mode,
                                   detect::ModelSetting setting)
    : Node("camera"), ctx_(ctx), mode_(mode), setting_(setting) {
  if (mode_ == Mode::kFeedback) {
    tick_in_ = declare_input<CycleTick>("tick");
  }
  frame_out_ = declare_output<FrameTicket>("frame");
}

bool CameraSourceNode::exhausted() const {
  return mode_ == Mode::kEveryFrame && next_ >= ctx_.frame_count;
}

void CameraSourceNode::process(NodeRun& run) {
  if (mode_ == Mode::kEveryFrame) {
    // Continuous mode: back-to-back inference, the camera never waits.
    // start_ms is unused downstream — the sink's occupy() owns the clock.
    run.emit(frame_out_, FrameTicket{next_, 0.0, setting_, next_ == 0},
             ctx_.video.timestamp_ms(next_));
    ++next_;
    return;
  }

  const Packet tick = run.take(tick_in_);
  if (!started_) {
    // The primed tick's value is ignored: the ring always opens on frame 0
    // at its (hiccup-adjusted) capture time.
    started_ = true;
    if (ctx_.frame_count == 0) return;
    const double start = ctx_.capture_time_ms(0);
    run.emit(frame_out_, FrameTicket{0, start, setting_, true}, start);
    return;
  }
  const CycleTick& done = tick.get<CycleTick>();
  if (done.index >= ctx_.last) return;  // ring quiesces; run completes

  // The detector fetches the newest frame captured by the time the previous
  // cycle finished; when it outpaced the camera it waits for the next
  // capture.
  int next = ctx_.newest_captured(done.t_ms);
  double start = done.t_ms;
  if (next <= done.index) {
    next = done.index + 1;
    start = ctx_.capture_time_ms(next);
  }
  run.emit(frame_out_, FrameTicket{next, start, setting_, false}, start);
}

// --- AdapterNode -------------------------------------------------------------

AdapterNode::AdapterNode(EngineContext& ctx, const adapt::ModelAdapter* adapter,
                         detect::ModelSetting initial_setting)
    : Node("adapter"), ctx_(ctx), adapter_(adapter), setting_(initial_setting) {
  frame_in_ = declare_input<FrameTicket>("frame");
  velocity_in_ = declare_input<VelocitySample>("velocity", /*optional=*/true);
  frame_out_ = declare_output<FrameTicket>("frame");
}

void AdapterNode::process(NodeRun& run) {
  Packet p = run.take(frame_in_);
  FrameTicket ticket = p.get<FrameTicket>();
  // Latest-wins drain of the feedback stream (at most one sample per cycle
  // in the engine ring, but the node doesn't rely on that).
  for (Packet v = run.try_take(velocity_in_); !v.empty();
       v = run.try_take(velocity_in_)) {
    velocity_ = v.get<VelocitySample>().velocity;
    have_velocity_ = true;
  }
  if (!ticket.initial) {
    // The velocity measured during the cycle that just ended picks the
    // frame size for the cycle about to start (§IV-D3).
    if (adapter_ != nullptr && have_velocity_) {
      const detect::ModelSetting next =
          adapter_->next_setting(velocity_, setting_);
      if (next != setting_) {
        ++ctx_.run.setting_switches;
        if (obs::Telemetry::enabled()) {
          obs::metrics().counter("adapter", "switches").add();
        }
        setting_ = next;
      }
    }
    ticket.setting = setting_;
  }
  run.emit(frame_out_, ticket, p.ts_ms());
}

// --- DetectorNode ------------------------------------------------------------

DetectorNode::DetectorNode(EngineContext& ctx, bool continuous_power,
                           bool emit_detect_span)
    : Node("detector"),
      ctx_(ctx),
      continuous_power_(continuous_power),
      emit_detect_span_(emit_detect_span) {
  frame_in_ = declare_input<FrameTicket>("frame");
  event_out_ = declare_output<DetectionEvent>("event");
}

void DetectorNode::process(NodeRun& run) {
  const Packet p = run.take(frame_in_);
  const FrameTicket& ticket = p.get<FrameTicket>();
  detect::DetectionResult det;
  if (emit_detect_span_) {
    obs::ScopedSpan detect_span("detect", "detector", ticket.index);
    det = ctx_.detect_on_gpu(ticket.index, ticket.setting, continuous_power_);
  } else {
    det = ctx_.detect_on_gpu(ticket.index, ticket.setting, continuous_power_);
  }
  const double done = ticket.start_ms + det.latency_ms;
  run.emit(event_out_, DetectionEvent{ticket, std::move(det), done},
           p.ts_ms());
}

// --- TrackerCatchupNode ------------------------------------------------------

TrackerCatchupNode::TrackerCatchupNode(EngineContext& ctx,
                                       SelectionPolicy selection,
                                       bool carry_velocity)
    : Node("catchup"),
      ctx_(ctx),
      selection_(selection),
      carry_velocity_(carry_velocity) {
  event_in_ = declare_input<DetectionEvent>("event");
  cycle_out_ = declare_output<TrackedCycle>("cycle");
  velocity_out_ = declare_output<VelocitySample>("velocity");
}

void TrackerCatchupNode::process(NodeRun& run) {
  const Packet p = run.take(event_in_);
  const DetectionEvent& ev = p.get<DetectionEvent>();
  const double cycle_start = ev.ticket.start_ms;
  const double cycle_end = ev.done_ms;

  TrackedCycle out{ev, cycle_end, 0, 0, 0.0};
  if (!ev.ticket.initial) {
    const EngineContext::Catchup batch = ctx_.track_catchup(
        ref_index_, ref_detections_, ev.ticket.index, cycle_start, cycle_end,
        ev.ticket.setting, selection_);
    if (batch.velocity_steps > 0) {
      prev_velocity_ = batch.mean_velocity;
      run.emit(velocity_out_, VelocitySample{batch.mean_velocity}, cycle_end);
    }
    out.frames_between = batch.frames_between;
    out.tracked = batch.tracked;
    out.report_velocity = batch.velocity_steps > 0 || !carry_velocity_
                              ? batch.mean_velocity
                              : prev_velocity_;
  }
  ref_index_ = ev.ticket.index;
  ref_detections_ = ev.det.detections;
  run.emit(cycle_out_, std::move(out), cycle_end);
}

// --- SinkNode ----------------------------------------------------------------

SinkNode::SinkNode(EngineContext& ctx, Mode mode, std::string metric_prefix,
                   double cpu_feed_w)
    : Node("sink"),
      ctx_(ctx),
      mode_(mode),
      prefix_(std::move(metric_prefix)),
      cpu_feed_w_(cpu_feed_w) {
  in_ = mode_ == Mode::kMpdt ? declare_input<TrackedCycle>("cycle")
                             : declare_input<DetectionEvent>("event");
  if (mode_ != Mode::kContinuous) {
    tick_out_ = declare_output<CycleTick>("tick");
  }
}

void SinkNode::process(NodeRun& run) {
  const Packet p = run.take(in_);
  if (mode_ == Mode::kMpdt) {
    const TrackedCycle& c = p.get<TrackedCycle>();
    const FrameTicket& ticket = c.event.ticket;
    ctx_.record_detection(ticket.index, c.event.det, ticket.setting,
                          c.cycle_end_ms);
    ctx_.run.cycles.push_back({ticket.index, ticket.setting, ticket.start_ms,
                               c.cycle_end_ms, c.frames_between, c.tracked,
                               c.report_velocity});
    if (!ticket.initial && obs::Telemetry::enabled()) {
      // Virtual-time pipeline: cycle durations are modeled, not
      // wall-clock, so they land in metrics (not the span tracer, which
      // is steady-clock).
      obs::MetricsRegistry& reg = obs::metrics();
      reg.counter(prefix_, "cycles").add();
      reg.counter(prefix_, "frames_tracked")
          .add(static_cast<std::uint64_t>(c.tracked));
      reg.latency_histogram(prefix_, "cycle_ms")
          .record(c.cycle_end_ms - ticket.start_ms);
      reg.histogram(prefix_, "backlog_frames",
                    {1, 2, 4, 6, 8, 12, 16, 24, 32, 48, 64})
          .record(static_cast<double>(c.frames_between));
    }
    ctx_.clock->set(c.cycle_end_ms);
    run.emit(tick_out_, CycleTick{ticket.index, c.cycle_end_ms},
             c.cycle_end_ms);
    return;
  }

  const DetectionEvent& ev = p.get<DetectionEvent>();
  double t = ev.done_ms;
  if (mode_ == Mode::kContinuous) {
    // Back-to-back inference: the sink's occupy() owns the clock.
    ctx_.meter.add_cpu_busy(cpu_feed_w_, ev.det.latency_ms);
    ctx_.clock->occupy(ev.det.latency_ms);
    t = ctx_.clock->now_ms();
  }
  ctx_.record_detection(ev.ticket.index, ev.det, ev.ticket.setting, t);
  // `t - latency` (not start_ms): the cycle start the golden digests pin
  // is the rounded `(start + latency) - latency`.
  ctx_.run.cycles.push_back({ev.ticket.index, ev.ticket.setting,
                             t - ev.det.latency_ms, t, 0, 0, 0.0});
  if (obs::Telemetry::enabled()) {
    obs::MetricsRegistry& reg = obs::metrics();
    reg.counter(prefix_, "cycles").add();
    reg.latency_histogram(prefix_, "cycle_ms").record(ev.det.latency_ms);
  }
  if (mode_ == Mode::kDetectOnly) {
    ctx_.clock->set(t);
    run.emit(tick_out_, CycleTick{ev.ticket.index, t}, t);
  }
}

}  // namespace adavp::core::graph
