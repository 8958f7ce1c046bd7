#include "core/offload.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/engine_runtime.h"
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

}  // namespace

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
                            .frame_store = options.frame_store,
                            .fault_plan = options.fault_plan,
                            .slo = options.slo});
  if (ctx.frame_count == 0) return std::move(ctx.run);

  // The server runs the full-size model; its accuracy is YOLOv3-608's.
  const detect::ModelSetting remote_setting = detect::ModelSetting::kYolov3_608;
  util::Rng rng(options.seed ^ 0x0FF10ADULL);
  const double flat_transmit_ms =
      options.frame_bytes * 8.0 / (options.bandwidth_mbps * 1000.0);

  // Upload of one frame. With codec_quality > 0 the frame really goes
  // through the intra-frame codec: the transmit time comes from the actual
  // bitstream size and the server-side decode is verified — a corrupt
  // bitstream surfaces as the run's Status, never silently.
  auto uplink = [&](int index, double* transmit_ms) -> util::Status {
    obs::ScopedSpan uplink_span("uplink", "offload", index);
    if (options.codec_quality <= 0) {
      *transmit_ms = flat_transmit_ms;
      return util::Status();
    }
    std::vector<std::uint8_t> bits;
    {
      obs::ScopedSpan encode_span("encode_frame", "offload", index);
      bits = vision::encode_frame(ctx.frame(index).image(),
                                  options.codec_quality);
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
                   (options.bandwidth_mbps * 1000.0);
    if (obs::Telemetry::enabled()) {
      obs::metrics()
          .counter("offload", "bitstream_bytes")
          .add(static_cast<std::uint64_t>(bits.size()));
    }
    return util::Status();
  };
  auto sample_round_trip = [&](double transmit_ms) {
    // Unpredictable network latency: positively skewed jitter.
    const double jitter =
        std::abs(rng.gaussian(0.0, kRttJitterFrac * options.rtt_ms));
    const double total =
        transmit_ms + options.rtt_ms + options.server_latency_ms + jitter;
    if (obs::Telemetry::enabled()) {
      obs::MetricsRegistry& reg = obs::metrics();
      reg.counter("offload", "cycles").add();
      reg.latency_histogram("offload", "round_trip_ms").record(total);
      reg.latency_histogram("offload", "transmit_ms").record(transmit_ms);
    }
    return total;
  };

  // One frame's whole remote round trip with retry/backoff: codec faults
  // (`codec:` channel) consume retry attempts; a spent budget degrades to
  // local detection (ok == false).
  const util::FaultChannel codec_faults =
      options.fault_plan != nullptr ? options.fault_plan->channel("codec")
                                    : util::FaultChannel();
  struct Remote {
    bool ok = false;         ///< remote result obtained within the budget
    double latency_ms = 0.0; ///< start -> result, stalls and retries included
    double radio_ms = 0.0;   ///< transmit time billed to the radio rail
  };
  int local_fallbacks = 0;
  auto remote_detect = [&](int index) {
    Remote r;
    int forced_failures = 0;  // `drop n=K`: first K attempts lose the bits
    if (!codec_faults.empty()) {
      for (const util::FaultDecision& d : codec_faults.decide(index)) {
        switch (d.kind) {
          case util::FaultKind::kDrop:
            forced_failures += std::max(1, static_cast<int>(d.magnitude));
            break;
          case util::FaultKind::kStall:
            r.latency_ms += d.magnitude;
            break;
          default:
            break;  // other kinds do not apply to the codec channel
        }
      }
    }
    for (int attempt = 1; attempt <= 1 + kCodecRetries; ++attempt) {
      if (attempt > 1) r.latency_ms += kCodecRetryBackoffMs;
      double transmit_ms = 0.0;
      util::Status up;
      if (attempt <= forced_failures) {
        up = util::Status::data_loss(
            annotate_failure("codec", index, "injected bitstream loss"));
      } else {
        up = uplink(index, &transmit_ms);
      }
      if (!up.ok()) {
        if (obs::Telemetry::enabled()) {
          obs::metrics().counter("offload", "codec_failures").add();
        }
        obs::flight_instant("codec_retry", "offload", index);
        continue;
      }
      r.ok = true;
      r.latency_ms += sample_round_trip(transmit_ms);
      r.radio_ms += transmit_ms;
      return r;
    }
    ++local_fallbacks;
    if (obs::Telemetry::enabled()) {
      obs::metrics().counter("offload", "local_fallbacks").add();
    }
    obs::flight_instant("local_fallback", "offload", index);
    return r;
  };

  // The device-side fallback model when the codec budget is spent: the
  // cheapest local setting — the offload baseline degrades *into* the
  // paper's on-device regime instead of dying.
  const detect::ModelSetting local_setting =
      detect::ModelSetting::kYolov3Tiny_320;
  int active_frame = 0;
  try {
    // First request: frame 0.
    const Remote first = remote_detect(0);
    detect::ModelSetting ref_setting = remote_setting;
    detect::DetectionResult ref;
    if (first.ok) {
      ref = ctx.detect(0, remote_setting);
      ctx.clock->set(ctx.capture_time_ms(0) + first.latency_ms);
    } else {
      ref_setting = local_setting;
      ref = ctx.detect_on_gpu(0, local_setting);
      ctx.clock->set(ctx.capture_time_ms(0) + first.latency_ms +
                     ref.latency_ms);
    }
    ctx.meter.add_cpu_busy(kRadioTransmitW, first.radio_ms);
    ctx.record_detection(0, ref, ref_setting, ctx.clock->now_ms());
    ctx.run.cycles.push_back({0, ref_setting, ctx.capture_time_ms(0),
                              ctx.clock->now_ms(), 0, 0, 0.0});

    int ref_index = 0;
    while (ref_index < ctx.last) {
      int next_index = ctx.newest_captured(ctx.clock->now_ms());
      if (next_index <= ref_index) {
        next_index = ref_index + 1;
        ctx.clock->set(ctx.capture_time_ms(next_index));
      }
      active_frame = next_index;

      const double cycle_start = ctx.clock->now_ms();
      const Remote remote = remote_detect(next_index);
      detect::ModelSetting setting = remote_setting;
      detect::DetectionResult detection;
      double cycle_end = 0.0;
      if (remote.ok) {
        detection = ctx.detect(next_index, remote_setting);
        cycle_end = cycle_start + remote.latency_ms;
      } else {
        // Retry budget spent: detect locally, after the time the retries
        // burned. Costs latency and accuracy (tiny vs remote 608), never
        // the run.
        setting = local_setting;
        detection = ctx.detect_on_gpu(next_index, local_setting);
        cycle_end = cycle_start + remote.latency_ms + detection.latency_ms;
      }
      ctx.meter.add_cpu_busy(kRadioTransmitW, remote.radio_ms);

      // Local tracking bridges the round trip — MPDT's catch-up loop.
      const EngineContext::Catchup batch = ctx.track_catchup(
          ref_index, ref.detections, next_index, cycle_start, cycle_end,
          setting, SelectionPolicy::kAdaptiveFraction);

      ctx.record_detection(next_index, detection, setting, cycle_end);
      ctx.run.cycles.push_back({next_index, setting, cycle_start,
                                cycle_end, batch.frames_between,
                                batch.tracked, batch.mean_velocity});
      ref = detection;
      ref_index = next_index;
      ctx.clock->set(cycle_end);
    }
  } catch (const std::exception& e) {
    ctx.fail(annotate_failure("offload", active_frame,
                              std::string("offload engine: ") + e.what()));
  }

  ctx.finish();
  if (ctx.run.status.ok() && local_fallbacks > 0) {
    ctx.run.status = Status::degraded(annotate_failure(
        "codec", -1,
        std::to_string(local_fallbacks) +
            " offload cycles fell back to local detection"));
  }
  return std::move(ctx.run);
}

}  // namespace adavp::core
