// Fleet chaos soak (ISSUE.md satellite 3, labels "concurrency;soak;chaos"):
// a supervised fleet under combined gpu: and stream: fault channels must
// (a) never deadlock (the run completing proves it), (b) finish kDegraded —
// never kWorkerFailure — with the crashed stream quarantined, backed off,
// and re-admitted within the run, (c) replay bit-identically, and (d) leave
// every healthy stream digest-identical to an all-healthy fleet.
//
// The digest-isolation claim leans on two structural properties:
//   * the recovery lane — FleetGpu bills hang/retry time to the victim's
//     completion but advances gpu_free by the un-faulted service only, so
//     the shared schedule is fault-independent; and
//   * slot quantization — the supervisor resumes a disturbed stream on its
//     own cadence lattice (quantize_up), so its requests never drift into a
//     neighbor's batch window.
// The fleet here is laid out as TDMA to make the isolation provable: with
// cadence = 18 frame intervals and stagger = 3 intervals, each stream owns
// a distinct phase class mod the cadence and the ~55 ms tiny-model service
// never reaches the next slot 100 ms away, so every dispatch is solo.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "core/fleet.h"
#include "detect/detector.h"
#include "obs/telemetry.h"
#include "util/fault_plan.h"

namespace adavp::core {
namespace {

class Digest {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001B3ULL;
    }
  }
  template <typename T>
  void pod(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes(&value, sizeof(value));
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

std::uint64_t digest_run(const RunResult& run) {
  Digest d;
  d.pod<std::uint64_t>(run.frames.size());
  for (const FrameResult& f : run.frames) {
    d.pod<std::int32_t>(f.frame_index);
    d.pod<std::uint8_t>(static_cast<std::uint8_t>(f.source));
    d.pod<std::uint8_t>(static_cast<std::uint8_t>(f.setting));
    d.pod<double>(f.staleness_ms);
    d.pod<std::uint64_t>(f.boxes.size());
    for (const metrics::LabeledBox& b : f.boxes) {
      d.pod<float>(b.box.left);
      d.pod<float>(b.box.top);
      d.pod<float>(b.box.width);
      d.pod<float>(b.box.height);
      d.pod<std::uint8_t>(static_cast<std::uint8_t>(b.cls));
    }
  }
  d.pod<std::uint64_t>(run.cycles.size());
  for (const CycleRecord& c : run.cycles) {
    d.pod<std::int32_t>(c.detected_frame);
    d.pod<std::uint8_t>(static_cast<std::uint8_t>(c.setting));
    d.pod<double>(c.start_ms);
    d.pod<double>(c.end_ms);
    d.pod<std::int32_t>(c.frames_in_buffer);
    d.pod<std::int32_t>(c.frames_tracked);
    d.pod<double>(c.mean_velocity);
  }
  d.pod<double>(run.energy.gpu_wh);
  d.pod<double>(run.energy.cpu_wh);
  d.pod<double>(run.timeline_ms);
  return d.value();
}

constexpr int kStreams = 6;
constexpr int kFrames = 300;
constexpr int kCrashed = 2;  ///< the stream carrying the stream: crash rule
constexpr double kInterval = 1000.0 / 30.0;  ///< capture interval at 30 fps

std::vector<FleetStreamOptions> chaos_fleet(const util::FaultPlan* crash) {
  std::vector<FleetStreamOptions> streams(kStreams);
  for (int i = 0; i < kStreams; ++i) {
    auto& s = streams[static_cast<std::size_t>(i)];
    s.scene.width = 128;
    s.scene.height = 96;
    s.scene.frame_count = kFrames;
    s.scene.initial_objects = 3;
    s.scene.max_objects = 4;
    s.scene.seed = static_cast<std::uint64_t>(400 + i);
    s.engine.seed = static_cast<std::uint64_t>(9100 + i);
    s.setting = detect::ModelSetting::kYolov3Tiny_320;
    s.cadence_ms = 18.0 * kInterval;  // 600 ms: detections on the lattice
    s.deadline_ms = 900.0;
  }
  if (crash != nullptr) {
    streams[kCrashed].engine.fault_plan = crash;
  }
  return streams;
}

FleetOptions chaos_options(const util::FaultPlan* gpu_plan, bool supervised) {
  FleetOptions options;
  options.gpu.max_batch = 4;
  options.stagger_ms = 3.0 * kInterval;  // 100 ms slots: TDMA, solo batches
  options.supervisor.enabled = supervised;
  options.fault_plan = gpu_plan;
  return options;
}

util::FaultPlan crash_plan() {
  // One deterministic mid-run crash (frame 60, ~2 s in), plus a wedge so
  // the stream: channel's non-fatal kind is exercised too.
  const auto plan =
      util::FaultPlan::parse("stream: crash at=60; wedge at=130 ms=20", 0xC0A5);
  EXPECT_TRUE(plan.has_value());
  return plan.value_or(util::FaultPlan{});
}

util::FaultPlan gpu_plan() {
  // ~1.5% of dispatches hang once (the watchdog cancels and the retry
  // lands). This seed fires exactly twice across the run's ~100
  // dispatches — enough to prove the arc while leaving most of the fleet
  // untouched for the digest-isolation half of the test.
  const auto plan = util::FaultPlan::parse("gpu: hang p=0.015", 0xBEE5);
  EXPECT_TRUE(plan.has_value());
  return plan.value_or(util::FaultPlan{});
}

bool is_victim(const FleetStreamResult& s) {
  const StreamSupervisionStats& sv = s.supervision;
  return sv.crashes > 0 || sv.stream_faults > 0 || sv.gpu_retries > 0 ||
         sv.gpu_failures > 0 || s.run.faults_injected > 0;
}

TEST(FleetChaos, SupervisedFleetSurvivesGpuAndStreamFaultsDeterministically) {
  const util::FaultPlan crash = crash_plan();
  const util::FaultPlan gpu = gpu_plan();

  const FleetResult chaos =
      run_fleet(chaos_fleet(&crash), chaos_options(&gpu, true));
  const FleetResult repeat =
      run_fleet(chaos_fleet(&crash), chaos_options(&gpu, true));
  const FleetResult healthy =
      run_fleet(chaos_fleet(nullptr), chaos_options(nullptr, true));
  const FleetResult unsupervised =
      run_fleet(chaos_fleet(nullptr), chaos_options(nullptr, false));

  ASSERT_EQ(chaos.streams.size(), static_cast<std::size_t>(kStreams));

  // (b) the fleet finished degraded, not dead: the crash was contained.
  EXPECT_EQ(chaos.status.code(), StatusCode::kDegraded)
      << chaos.status.to_string();
  EXPECT_FALSE(chaos.status.failed());

  // The gpu: channel actually fired and the watchdog retried.
  EXPECT_GE(chaos.gpu.hangs, 1u);
  EXPECT_GE(chaos.gpu.retries, 1u);
  EXPECT_EQ(chaos.gpu.failed_dispatches, 0u);  // hang != wedge: retries land
  EXPECT_GT(chaos.gpu.recovery_ms, 0.0);

  // The crashed stream went through the full supervision arc within the
  // run: quarantine -> backoff -> probe -> re-admission -> completion.
  const FleetStreamResult& crashed =
      chaos.streams[static_cast<std::size_t>(kCrashed)];
  const StreamSupervisionStats& sv = crashed.supervision;
  EXPECT_GE(sv.crashes, 1);
  EXPECT_GE(sv.restarts, 1);
  EXPECT_GE(sv.quarantines, 1);
  EXPECT_GE(sv.probes, 1);
  EXPECT_GE(sv.stream_faults, 2);  // the crash and the wedge both counted
  EXPECT_GT(sv.backoff_total_ms, 0.0);
  EXPECT_GE(sv.first_quarantined_at_ms, 0.0);
  EXPECT_GT(sv.readmitted_at_ms, sv.first_quarantined_at_ms);
  EXPECT_FALSE(sv.gave_up);
  EXPECT_EQ(crashed.run.status.code(), StatusCode::kDegraded)
      << crashed.run.status.to_string();
  EXPECT_EQ(crashed.run.frames.size(), static_cast<std::size_t>(kFrames));
  EXPECT_GE(chaos.quarantined, 1);
  EXPECT_GE(chaos.readmitted, 1);

  int healthy_streams = 0;
  for (int i = 0; i < kStreams; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    const FleetStreamResult& s = chaos.streams[idx];
    // (a)+(c): every stream finished every frame, bit-identically across
    // repeats — faults, recoveries, and backoff jitter included.
    ASSERT_EQ(s.run.frames.size(), static_cast<std::size_t>(kFrames))
        << s.name;
    EXPECT_EQ(digest_run(s.run), digest_run(repeat.streams[idx].run))
        << s.name;
    EXPECT_EQ(s.supervision.crashes, repeat.streams[idx].supervision.crashes)
        << s.name;
    EXPECT_EQ(s.supervision.gpu_retries,
              repeat.streams[idx].supervision.gpu_retries)
        << s.name;
    // A supervised all-healthy fleet is byte-identical to the unsupervised
    // fleet: supervision must be free when nothing goes wrong.
    EXPECT_EQ(digest_run(healthy.streams[idx].run),
              digest_run(unsupervised.streams[idx].run))
        << s.name;
    if (is_victim(s)) continue;
    ++healthy_streams;
    // (d) a healthy stream cannot tell its neighbors crashed or hung:
    // recovery-lane billing plus slot quantization keep its entire
    // observable run identical to the all-healthy fleet.
    EXPECT_TRUE(s.run.status.ok()) << s.run.status.to_string();
    EXPECT_EQ(digest_run(s.run), digest_run(healthy.streams[idx].run))
        << s.name;
  }
  EXPECT_TRUE(is_victim(crashed));
  EXPECT_GE(healthy_streams, 2);
}

TEST(FleetChaos, SupervisionTelemetryRecordsTheRecoveryArc) {
  obs::Telemetry::set_enabled(true);
  obs::Telemetry::instance().reset();
  const util::FaultPlan crash = crash_plan();
  const util::FaultPlan gpu = gpu_plan();
  const FleetResult chaos =
      run_fleet(chaos_fleet(&crash), chaos_options(&gpu, true));
  const obs::MetricsSnapshot snap = obs::Telemetry::instance().snapshot();
  // Fleet-level supervisor series: one backoff sample per contained crash.
  const std::uint64_t backoffs =
      obs::time_series()
          .series("supervisor", "backoff_ms",
                  {1000.0, 64, obs::FixedHistogram::default_latency_edges_ms()})
          .total_count();
  obs::Telemetry::set_enabled(false);

  ASSERT_FALSE(chaos.status.failed());
  // Per-stream supervision counters land under the stream's label...
  const std::string prefix = "fleet.stream" + std::to_string(kCrashed) + ".";
  EXPECT_GE(snap.counter(prefix + "stream.quarantined"), 1u);
  EXPECT_GE(snap.counter(prefix + "stream.restarts"), 1u);
  EXPECT_GE(snap.counter(prefix + "stream.readmissions"), 1u);
  EXPECT_GE(snap.counter(prefix + "stream.faults_injected"), 2u);
  // ...the shared-GPU watchdog counters under the unprefixed fleet key.
  EXPECT_GE(snap.counter("fleet.gpu.hangs"), 1u);
  EXPECT_GE(snap.counter("fleet.gpu.retries"), 1u);
  EXPECT_GE(backoffs, static_cast<std::uint64_t>(
                          chaos.streams[kCrashed].supervision.crashes));
}

// Pins the forced coast after a failed grant. Dispatches 0-5 are the six
// streams' cycle-0 detections (solo, in stagger order), so a wedge at
// dispatch 9 hits one stream's third cycle: the watchdog abandons it, and
// the stream serves that frame from its reference instead.
constexpr int kWedgedDispatch = 9;
constexpr std::uint64_t kGoldenForcedCoast = 0x0370D78E1A92E5ABULL;

TEST(FleetChaos, FailedGrantForcesACoastFromTheReference) {
  const auto plan = util::FaultPlan::parse(
      "gpu: wedge at=" + std::to_string(kWedgedDispatch), 0xBEE5);
  ASSERT_TRUE(plan.has_value());
  const std::vector<FleetStreamOptions> streams = chaos_fleet(nullptr);
  const FleetResult fleet = run_fleet(streams, chaos_options(&*plan, true));

  EXPECT_EQ(fleet.gpu.failed_dispatches, 1u);
  int victims = 0;
  Digest fleet_digest;
  for (int i = 0; i < kStreams; ++i) {
    const FleetStreamResult& s = fleet.streams[static_cast<std::size_t>(i)];
    ASSERT_EQ(s.run.frames.size(), static_cast<std::size_t>(kFrames));
    for (const FrameResult& f : s.run.frames) {
      EXPECT_NE(f.source, ResultSource::kNone)
          << s.name << " frame " << f.frame_index;
    }
    fleet_digest.pod(digest_run(s.run));
    if (s.supervision.gpu_failures == 0) continue;
    ++victims;

    // The lost cycle leaves a two-cadence gap between recorded cycles; the
    // coasted frame sits one cadence after the last detection.
    const std::vector<CycleRecord>& cycles = s.run.cycles;
    std::size_t before = cycles.size();
    for (std::size_t c = 0; c + 1 < cycles.size(); ++c) {
      if (cycles[c + 1].detected_frame - cycles[c].detected_frame > 18) {
        before = c;
        break;
      }
    }
    ASSERT_LT(before, cycles.size()) << s.name;
    const int coasted = cycles[before].detected_frame + 18;
    const FrameResult& fr = s.run.frames[static_cast<std::size_t>(coasted)];
    EXPECT_EQ(fr.source, ResultSource::kTracker) << s.name;

    // Its boxes are the reference detection's, each score decayed by one
    // 0.85 step, with anything under the 0.1 floor dropped. Replaying the
    // stream's detector up to that reference recovers the scores.
    const FleetStreamOptions& opts = streams[static_cast<std::size_t>(i)];
    const video::SyntheticVideo video(opts.scene);
    detect::SimulatedDetector detector(opts.engine.seed);
    detect::DetectionResult ref;
    for (std::size_t c = 0; c <= before; ++c) {
      ref = detector.detect(video, cycles[c].detected_frame, cycles[c].setting);
    }
    std::vector<metrics::LabeledBox> expected;
    for (const detect::Detection& d : ref.detections) {
      if (d.score * 0.85f >= 0.1) expected.push_back({d.box, d.cls});
    }
    ASSERT_FALSE(expected.empty()) << s.name;
    ASSERT_EQ(fr.boxes.size(), expected.size()) << s.name;
    for (std::size_t b = 0; b < expected.size(); ++b) {
      EXPECT_EQ(fr.boxes[b].box.left, expected[b].box.left);
      EXPECT_EQ(fr.boxes[b].box.top, expected[b].box.top);
      EXPECT_EQ(fr.boxes[b].cls, expected[b].cls);
    }
    EXPECT_EQ(s.run.status.code(), StatusCode::kDegraded)
        << s.run.status.to_string();
  }
  EXPECT_EQ(victims, 1);
  EXPECT_EQ(fleet_digest.value(), kGoldenForcedCoast)
      << "digest 0x" << std::hex << fleet_digest.value();
}

TEST(FleetChaos, RejectedStreamJoinsMidRunWhenCapacityFrees) {
  // Two YOLOv3-608 streams at 600 ms cadence want 0.83 duty each against a
  // ~1.38 budget: static admission (degradation disabled) seats the first
  // and rejects the second. Under supervision the rejected stream parks on
  // re-admission probes; when the short first stream ends and returns its
  // duty to the ledger, a probe is granted and the stream joins mid-run.
  std::vector<FleetStreamOptions> streams(2);
  for (int i = 0; i < 2; ++i) {
    auto& s = streams[static_cast<std::size_t>(i)];
    s.scene.width = 128;
    s.scene.height = 96;
    s.scene.initial_objects = 3;
    s.scene.max_objects = 4;
    s.scene.seed = static_cast<std::uint64_t>(500 + i);
    s.engine.seed = static_cast<std::uint64_t>(7300 + i);
    s.setting = detect::ModelSetting::kYolov3_608;
    s.cadence_ms = 600.0;
    s.deadline_ms = 1200.0;
  }
  streams[0].scene.frame_count = 60;   // ends ~2 s in, freeing its duty
  streams[1].scene.frame_count = 150;  // 5 s: plenty left after joining

  FleetOptions options;
  options.gpu.max_batch = 4;
  options.admission.allow_degrade = false;
  options.supervisor.enabled = true;
  const FleetResult fleet = run_fleet(streams, options);
  const FleetResult repeat = run_fleet(streams, options);

  EXPECT_EQ(fleet.admitted, 1);
  EXPECT_EQ(fleet.rejected, 1);
  EXPECT_EQ(fleet.readmitted, 1);
  const FleetStreamResult& late = fleet.streams[1];
  EXPECT_EQ(late.admission, AdmissionDecision::kRejected);
  EXPECT_GE(late.supervision.probes, 1);
  EXPECT_GT(late.supervision.readmitted_at_ms, 0.0);
  EXPECT_FALSE(late.supervision.gave_up);
  EXPECT_TRUE(late.run.status.ok()) << late.run.status.to_string();
  ASSERT_EQ(late.run.frames.size(), 150u);
  // It joined mid-video: the tail has live results, the missed head stays
  // unserved (kNone) — late admission is not time travel.
  EXPECT_NE(late.run.frames.back().source, ResultSource::kNone);
  EXPECT_EQ(late.run.frames.front().source, ResultSource::kNone);
  EXPECT_GT(fleet.gpu.probes, 0u);
  EXPECT_GE(fleet.gpu.probe_grants, 1u);
  for (std::size_t i = 0; i < fleet.streams.size(); ++i) {
    EXPECT_EQ(digest_run(fleet.streams[i].run),
              digest_run(repeat.streams[i].run));
  }
}

}  // namespace
}  // namespace adavp::core
