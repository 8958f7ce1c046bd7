#include "core/offload.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/engine_runtime.h"
#include "core/graph/engine_graphs.h"
#include "core/status.h"
#include "obs/telemetry.h"
#include "util/rng.h"
#include "vision/codec.h"

namespace adavp::core {

namespace {

/// WiFi/LTE radio power while transmitting a frame (rough handset figure).
constexpr double kRadioTransmitW = 1.1;
/// Lognormal-ish RTT jitter, as a fraction of the mean RTT.
constexpr double kRttJitterFrac = 0.25;
/// Re-sends of a failed upload, and the pipeline time waited before each.
constexpr int kCodecRetries = 2;
constexpr double kCodecRetryBackoffMs = 25.0;
/// The server runs the full-size model; its accuracy is YOLOv3-608's.
constexpr detect::ModelSetting kRemoteSetting =
    detect::ModelSetting::kYolov3_608;
/// The device-side fallback model when the codec budget is spent: the
/// cheapest local setting — the offload baseline degrades *into* the
/// paper's on-device regime instead of dying.
constexpr detect::ModelSetting kLocalSetting =
    detect::ModelSetting::kYolov3Tiny_320;

/// The offload engine's detector: one frame's whole remote round trip with
/// retry/backoff. Codec faults (`codec:` channel) consume retry attempts; a
/// spent budget degrades to local detection. The event's ticket carries the
/// setting that really ran, so the cycle records show every fallback.
class RemoteDetector : public graph::Node {
 public:
  RemoteDetector(EngineContext& ctx, const OffloadOptions& options)
      : Node("detector"),
        ctx_(ctx),
        options_(options),
        rng_(options.seed ^ 0x0FF10ADULL) {
    if (options.fault_plan != nullptr) {
      codec_faults_ = options.fault_plan->channel("codec");
    }
    frame_in_ = declare_input<graph::FrameTicket>("frame");
    event_out_ = declare_output<graph::DetectionEvent>("event");
  }

  void process(graph::NodeRun& run) override {
    const graph::Packet p = run.take(frame_in_);
    run.emit(event_out_, round_trip(p.get<graph::FrameTicket>()), p.ts_ms());
  }

 private:
  graph::DetectionEvent round_trip(const graph::FrameTicket& ticket) {
    const int index = ticket.index;
    double latency_ms = 0.0;  // start -> result, stalls and retries included
    double radio_ms = 0.0;    // transmit time billed to the radio rail
    bool remote_ok = false;
    int forced_failures = 0;  // `drop n=K`: first K attempts lose the bits
    for (const util::FaultDecision& d : codec_faults_.decide(index)) {
      if (d.kind == util::FaultKind::kDrop) {
        forced_failures += std::max(1, static_cast<int>(d.magnitude));
      } else if (d.kind == util::FaultKind::kStall) {
        latency_ms += d.magnitude;
      }  // other kinds do not apply to the codec channel
    }
    for (int attempt = 1; attempt <= 1 + kCodecRetries && !remote_ok;
         ++attempt) {
      if (attempt > 1) latency_ms += kCodecRetryBackoffMs;
      double transmit_ms = 0.0;
      const util::Status up =
          attempt <= forced_failures
              ? util::Status::data_loss(annotate_failure(
                    "codec", index, "injected bitstream loss"))
              : uplink(index, &transmit_ms);
      if (!up.ok()) {
        if (obs::Telemetry::enabled()) {
          obs::metrics().counter("offload", "codec_failures").add();
        }
        obs::flight_instant("codec_retry", "offload", index);
        continue;
      }
      // Unpredictable network latency: positively skewed jitter.
      const double jitter =
          std::abs(rng_.gaussian(0.0, kRttJitterFrac * options_.rtt_ms));
      const double round_trip =
          transmit_ms + options_.rtt_ms + options_.server_latency_ms + jitter;
      if (obs::Telemetry::enabled()) {
        obs::MetricsRegistry& reg = obs::metrics();
        reg.latency_histogram("offload", "round_trip_ms").record(round_trip);
        reg.latency_histogram("offload", "transmit_ms").record(transmit_ms);
      }
      remote_ok = true;
      latency_ms += round_trip;
      radio_ms += transmit_ms;
    }

    graph::DetectionEvent ev{ticket, {}, 0.0};
    if (remote_ok) {
      ev.ticket.setting = kRemoteSetting;
      ev.det = ctx_.detect(index, kRemoteSetting);
      ev.done_ms = ticket.start_ms + latency_ms;
    } else {
      if (obs::Telemetry::enabled()) {
        obs::metrics().counter("offload", "local_fallbacks").add();
      }
      obs::flight_instant("local_fallback", "offload", index);
      // Detect locally, after the time the retries burned. Costs latency
      // and accuracy (tiny vs remote 608), never the run.
      ev.ticket.setting = kLocalSetting;
      ev.det = ctx_.detect_on_gpu(index, kLocalSetting);
      ev.done_ms = ticket.start_ms + latency_ms + ev.det.latency_ms;
    }
    ctx_.meter.add_cpu_busy(kRadioTransmitW, radio_ms);
    return ev;
  }

  // Upload of one frame. With codec_quality > 0 the frame really goes
  // through the intra-frame codec: the transmit time comes from the actual
  // bitstream size and the server-side decode is verified — a corrupt
  // bitstream surfaces as the upload's Status, never silently.
  util::Status uplink(int index, double* transmit_ms) {
    obs::ScopedSpan uplink_span("uplink", "offload", index);
    if (options_.codec_quality <= 0) {
      *transmit_ms = options_.frame_bytes * 8.0 /
                     (options_.bandwidth_mbps * 1000.0);
      return util::Status();
    }
    std::vector<std::uint8_t> bits;
    {
      obs::ScopedSpan encode_span("encode_frame", "offload", index);
      bits = vision::encode_frame(ctx_.frame(index).image(),
                                  options_.codec_quality);
    }
    vision::ImageU8 server_view;
    util::Status decoded;
    {
      obs::ScopedSpan decode_span("decode_frame", "offload", index);
      decoded = vision::decode_frame(bits, &server_view);
    }
    if (!decoded.ok()) {
      obs::flight_instant("bitstream_data_loss", "offload", index);
      return decoded;
    }
    *transmit_ms = static_cast<double>(bits.size()) * 8.0 /
                   (options_.bandwidth_mbps * 1000.0);
    if (obs::Telemetry::enabled()) {
      obs::metrics()
          .counter("offload", "bitstream_bytes")
          .add(static_cast<std::uint64_t>(bits.size()));
    }
    return util::Status();
  }

  EngineContext& ctx_;
  const OffloadOptions options_;
  util::Rng rng_;
  util::FaultChannel codec_faults_;
  int frame_in_ = -1;
  int event_out_ = -1;
};

}  // namespace

namespace graph {

Graph build_offload_graph(EngineContext& ctx, const OffloadOptions& options) {
  Graph g;
  g.set_name("run_offload");
  auto& camera = g.add<CameraSourceNode>(ctx, CameraSourceNode::Mode::kFeedback,
                                         kRemoteSetting);
  auto& detector = g.add<RemoteDetector>(ctx, options);
  // Local tracking bridges the round trip: MPDT's catch-up batch.
  auto& catchup = g.add<TrackerCatchupNode>(
      ctx, SelectionPolicy::kAdaptiveFraction, /*carry_velocity=*/false);
  auto& sink = g.add<SinkNode>(ctx, SinkNode::Mode::kMpdt, "offload");
  g.connect(camera, "frame", detector, "frame");
  g.connect(detector, "event", catchup, "event");
  g.connect(catchup, "cycle", sink, "cycle");
  g.connect(sink, "tick", camera, "tick");
  g.prime(camera, "tick", Packet::make<CycleTick>({}, 0.0));
  return g;
}

}  // namespace graph

double offload_round_trip_ms(const OffloadOptions& options) {
  const double transmit_ms =
      options.frame_bytes * 8.0 / (options.bandwidth_mbps * 1000.0);
  return transmit_ms + options.rtt_ms + options.server_latency_ms;
}

RunResult run_offload(const video::SyntheticVideo& video,
                      const OffloadOptions& options) {
  obs::ScopedSpan run_span("run_offload", "pipeline", video.frame_count(),
                           "frames");
  EngineContext ctx(video, {.seed = options.seed,
                            .tracker = options.tracker,
                            .fault_plan = options.fault_plan,
                            .slo = options.slo});
  if (ctx.frame_count == 0) return std::move(ctx.run);

  graph::Graph g = graph::build_offload_graph(ctx, options);
  const Status status = g.run();
  if (!status.ok()) ctx.fail("offload engine: " + status.message());
  ctx.finish();
  const auto local_fallbacks = std::count_if(
      ctx.run.cycles.begin(), ctx.run.cycles.end(),
      [](const CycleRecord& c) { return c.setting == kLocalSetting; });
  if (ctx.run.status.ok() && local_fallbacks > 0) {
    ctx.run.status = Status::degraded(annotate_failure(
        "codec", -1,
        std::to_string(local_fallbacks) +
            " offload cycles fell back to local detection"));
  }
  return std::move(ctx.run);
}

}  // namespace adavp::core
