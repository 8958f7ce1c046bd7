#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <utility>

#include "core/realtime_pipeline.h"
#include "core/scoring.h"
#include "json_test_util.h"
#include "obs/telemetry.h"
#include "util/stats.h"
#include "video/camera.h"
#include "video/frame_buffer.h"
#include "video/frame_store.h"

// See tests/test_realtime.cpp: sanitizers inflate real compute ~10x while
// scaled sleeps stay wall-clock accurate, so timing-sensitive tests
// compress time less when a sanitizer is active.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define ADAVP_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define ADAVP_UNDER_SANITIZER 1
#endif
#endif

namespace adavp::core {
namespace {

double timing_sensitive_scale(double normal) {
#ifdef ADAVP_UNDER_SANITIZER
  return normal / 5.0;
#else
  return normal;
#endif
}

video::SceneConfig scene(std::uint64_t seed, int frames) {
  video::SceneConfig cfg;
  cfg.width = 192;
  cfg.height = 120;
  cfg.frame_count = frames;
  cfg.seed = seed;
  cfg.initial_objects = 3;
  cfg.speed_mean = 0.8;
  return cfg;
}

/// The hostile environment of the soak: stalls on every even frame and
/// latency blowups on every third (so at least one watchdog overrun is
/// effectively guaranteed whatever subset of frames the detector fetches),
/// plus dropped/garbage results and a glitchy camera.
constexpr const char* kHostilePlan =
    "detector: stall every=2 ms=2500; latency every=3 x=6; drop p=0.1; "
    "garbage p=0.1 n=5 | "
    "camera: black p=0.05; corrupt p=0.08 amp=90; hiccup p=0.05 ms=80";

std::uint64_t injected_fault_counter_total(const obs::MetricsSnapshot& snap) {
  std::uint64_t total = 0;
  for (const auto& entry : snap.counters) {
    if (entry.name.rfind("fault.injected.", 0) == 0) total += entry.value;
  }
  return total;
}

const obs::MetricsSnapshot::GaugeEntry* find_gauge(
    const obs::MetricsSnapshot& snap, const std::string& name) {
  for (const auto& entry : snap.gauges) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

// The tentpole acceptance test: a seeded fault soak. Under a hostile fault
// plan the supervised pipeline must terminate (no deadlock — TSan runs this
// via the `concurrency` ctest label), produce a result for every frame,
// surface the degradation through core::Status, and keep the legacy stats
// and the obs metrics in agreement.
TEST(FaultSoak, SurvivesAHostileEnvironmentAcrossSeeds) {
  for (const std::uint64_t seed : {3ULL, 11ULL, 29ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::string error;
    const auto plan = util::FaultPlan::parse(kHostilePlan, seed, &error);
    ASSERT_TRUE(plan.has_value()) << error;

    video::SyntheticVideo video(scene(seed, 120));
    video.precache();
    obs::Telemetry::set_enabled(true);
    obs::Telemetry::instance().reset();
    RealtimeOptions options;
    options.seed = seed;
    options.time_scale = timing_sensitive_scale(20.0);
    options.fault_plan = &*plan;
    options.supervisor.enabled = true;
    const RealtimeResult result = run_realtime(video, options);
    obs::Telemetry::set_enabled(false);

    // The run completed and every frame carries a result: kNone appears
    // only as the bounded start-up prefix before the first detector cycle.
    ASSERT_EQ(result.run.frames.size(),
              static_cast<std::size_t>(video.frame_count()));
    EXPECT_EQ(result.stats.frames_captured, video.frame_count());
    bool seen_result = false;
    for (const auto& frame : result.run.frames) {
      if (frame.source != ResultSource::kNone) {
        seen_result = true;
      } else {
        EXPECT_FALSE(seen_result)
            << "frame " << frame.frame_index << " lost its result";
      }
    }
    EXPECT_TRUE(seen_result);

    // The environment really was hostile, and the supervisor absorbed it.
    EXPECT_GE(result.stats.watchdog_timeouts, 1);
    EXPECT_GE(result.stats.degrade_steps_down, 1);
    EXPECT_GE(result.stats.max_degrade_level, 1);
    EXPECT_GE(result.stats.coast_cycles, 1);
    EXPECT_GE(result.stats.faults_injected, 1);

    // Degradation is surfaced, not hidden: the run is degraded, which is
    // neither ok nor a hard failure.
    EXPECT_EQ(result.status.code(), StatusCode::kDegraded);
    EXPECT_FALSE(result.status.ok());
    EXPECT_FALSE(result.status.failed());
    EXPECT_FALSE(result.status.message().empty());

    // Legacy stats and the metrics layer observed the same run.
    const obs::MetricsSnapshot& snap = result.metrics;
    EXPECT_EQ(snap.counter("watchdog.timeouts"),
              static_cast<std::uint64_t>(result.stats.watchdog_timeouts));
    EXPECT_EQ(snap.counter("coast.frames"),
              static_cast<std::uint64_t>(result.stats.coast_frames));
    EXPECT_EQ(injected_fault_counter_total(snap),
              static_cast<std::uint64_t>(result.stats.faults_injected));
    const auto* level = find_gauge(snap, "degrade.level");
    ASSERT_NE(level, nullptr);
    EXPECT_EQ(static_cast<int>(level->max), result.stats.max_degrade_level);
  }
}

// Same (plan, seed) => same fault schedule, bit-identically. The camera
// path makes this observable end to end: two captures of the same video
// under the same plan publish byte-for-byte identical pixels, glitches
// included, despite running on separate real-time threads.
TEST(FaultSoak, CameraGlitchScheduleReplaysBitIdentically) {
  // The video outlives the captured refs: precached frames are non-owning
  // aliases into the precache (DESIGN.md §8).
  video::SyntheticVideo video(scene(5, 40));
  video.precache();
  const auto capture_all = [&video](std::uint64_t plan_seed) {
    const auto plan = util::FaultPlan::parse(
        "camera: black every=7; corrupt p=0.3 amp=100; hiccup p=0.1 ms=5",
        plan_seed);
    EXPECT_TRUE(plan.has_value());
    video::FrameStore store(video);
    video::FrameBuffer buffer(static_cast<std::size_t>(video.frame_count()));
    video::CameraSource camera(store, buffer, /*time_scale=*/400.0);
    camera.set_faults(plan->channel("camera"));
    camera.start();
    while (!buffer.closed()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    camera.stop();
    EXPECT_TRUE(camera.error().empty());
    EXPECT_GE(camera.faults_injected(), 1u);
    return std::make_pair(buffer.drain_up_to(video.frame_count()),
                          camera.faults_injected());
  };

  const auto [frames_a, faults_a] = capture_all(77);
  const auto [frames_b, faults_b] = capture_all(77);
  EXPECT_EQ(faults_a, faults_b);
  ASSERT_EQ(frames_a.size(), frames_b.size());
  ASSERT_EQ(frames_a.size(), 40u);
  for (std::size_t i = 0; i < frames_a.size(); ++i) {
    ASSERT_EQ(frames_a[i].index, frames_b[i].index);
    const auto& a = frames_a[i].image();
    const auto& b = frames_b[i].image();
    ASSERT_EQ(a.size(), b.size());
    int mismatched = 0;
    for (int y = 0; y < a.height(); ++y) {
      for (int x = 0; x < a.width(); ++x) {
        mismatched += a.at(x, y) != b.at(x, y);
      }
    }
    EXPECT_EQ(mismatched, 0) << "frame " << frames_a[i].index;
  }

  // A different plan seed yields a different glitch schedule: some frame's
  // published pixels must differ (counts alone could coincide).
  const auto [frames_c, faults_c] = capture_all(78);
  (void)faults_c;
  ASSERT_EQ(frames_c.size(), frames_a.size());
  int differing_frames = 0;
  for (std::size_t i = 0; i < frames_a.size(); ++i) {
    const auto& a = frames_a[i].image();
    const auto& c = frames_c[i].image();
    for (int y = 0; y < a.height() && differing_frames == 0; ++y) {
      for (int x = 0; x < a.width(); ++x) {
        if (a.at(x, y) != c.at(x, y)) {
          ++differing_frames;
          break;
        }
      }
    }
  }
  EXPECT_GT(differing_frames, 0);
}

// Error propagation: an exception on the detector thread must become
// Status::worker_failure on the result — the process does not terminate,
// the peers are unblocked, and run_realtime returns.
TEST(FaultSoak, ThrowFaultSurfacesAsWorkerFailureWithoutHanging) {
  const auto plan = util::FaultPlan::parse("detector: throw every=1", 9);
  ASSERT_TRUE(plan.has_value());
  video::SyntheticVideo video(scene(7, 60));
  video.precache();
  RealtimeOptions options;
  options.time_scale = timing_sensitive_scale(30.0);
  options.fault_plan = &*plan;
  options.supervisor.enabled = true;
  const RealtimeResult result = run_realtime(video, options);

  EXPECT_TRUE(result.status.failed());
  EXPECT_EQ(result.status.code(), StatusCode::kWorkerFailure);
  EXPECT_NE(result.status.message().find("detector thread"),
            std::string::npos);
  EXPECT_NE(result.status.message().find("injected detector fault"),
            std::string::npos);
  // The partial result is still structurally sound.
  EXPECT_EQ(result.run.frames.size(),
            static_cast<std::size_t>(video.frame_count()));
}

// A supervised but fault-free run must not pay for the supervision: no
// timeouts, no coasting, no ladder movement, and a clean status.
TEST(FaultSoak, FaultFreeSupervisedRunStaysClean) {
  video::SyntheticVideo video(scene(13, 90));
  video.precache();
  RealtimeOptions options;
  options.time_scale = timing_sensitive_scale(30.0);
  options.supervisor.enabled = true;
  const RealtimeResult result = run_realtime(video, options);

  EXPECT_TRUE(result.status.ok()) << result.status.to_string();
  EXPECT_EQ(result.stats.watchdog_timeouts, 0);
  EXPECT_EQ(result.stats.coast_cycles, 0);
  EXPECT_EQ(result.stats.coast_frames, 0);
  EXPECT_EQ(result.stats.degrade_steps_down, 0);
  EXPECT_EQ(result.stats.max_degrade_level, 0);
  EXPECT_EQ(result.stats.faults_injected, 0);
  EXPECT_GT(result.stats.frames_detected, 1);
}

// Graceful degradation, quantified: under a moderate fault plan the
// supervised pipeline keeps its accuracy within a stated bound of the
// fault-free run instead of collapsing (stale results would otherwise
// freeze on screen; an unsupervised stall would block the whole pipeline).
TEST(FaultSoak, AccuracyDegradesBoundedlyUnderFaults) {
  const std::uint64_t seed = 9;
  video::SyntheticVideo video(scene(seed, 150));
  video.precache();

  RealtimeOptions clean_options;
  clean_options.seed = seed;
  clean_options.time_scale = timing_sensitive_scale(20.0);
  const RealtimeResult clean = run_realtime(video, clean_options);

  const auto plan = util::FaultPlan::parse(
      "detector: stall p=0.25 ms=2000 | camera: corrupt p=0.1 amp=60", seed);
  ASSERT_TRUE(plan.has_value());
  RealtimeOptions faulty_options = clean_options;
  faulty_options.fault_plan = &*plan;
  faulty_options.supervisor.enabled = true;
  faulty_options.supervisor.ladder.trip_threshold = 2;
  faulty_options.supervisor.ladder.recover_after = 2;
  const RealtimeResult faulty = run_realtime(video, faulty_options);
  EXPECT_FALSE(faulty.status.failed()) << faulty.status.to_string();

  const std::vector<double> clean_f1 = score_run(clean.run, video, 0.5);
  const std::vector<double> faulty_f1 = score_run(faulty.run, video, 0.5);
  // Skip the start-up frames that precede the first detection.
  const double clean_mean =
      util::mean(std::vector<double>(clean_f1.begin() + 30, clean_f1.end()));
  const double faulty_mean =
      util::mean(std::vector<double>(faulty_f1.begin() + 30, faulty_f1.end()));
  // The margin is deliberately generous: both runs ride real threads, so
  // scheduler noise moves the means a little — the bound catches the
  // failure modes that matter (accuracy collapsing to zero, or stale
  // results frozen on screen), not single-digit regressions.
  EXPECT_GE(faulty_mean, clean_mean - 0.45)
      << "clean " << clean_mean << " vs faulty " << faulty_mean;
  EXPECT_GT(faulty_mean, 0.05)
      << "clean " << clean_mean << " vs faulty " << faulty_mean;
}

// The observability acceptance test: a seeded mid-run fault burst must
// show up as per-window SLO degradation AND recovery, mirror at least one
// breach event into the RunResult, and trigger the flight recorder's
// automatic post-mortem dump — which must be a loadable Chrome trace.
TEST(FaultSoak, SloWindowsAndFlightRecorderCaptureDegradationAndRecovery) {
  // A 6 s video whose middle third is hostile: every detector fetch of
  // frames 30..89 (video time 1..3 s) stalls hard. Before and after, the
  // pipeline is healthy — the shape a sliding-window SLO exists to expose.
  std::string burst = "detector: stall at=30";
  for (int i = 31; i < 90; ++i) {
    burst += ',';
    burst += std::to_string(i);
  }
  burst += " ms=1500";
  std::string error;
  const auto plan = util::FaultPlan::parse(burst, 17, &error);
  ASSERT_TRUE(plan.has_value()) << error;

  // Coast-heavy windows are the burst's signature (the ladder keeps
  // results flowing by coasting, so raw fps alone can stay healthy);
  // miss_rate=1 disables the deadline check to keep the test about shape,
  // not scheduler noise. Single-window hysteresis makes both transitions
  // observable inside a short run.
  const auto slo = obs::SloSpec::parse(
      "fps=30 min_fps_fraction=0.1 coast_ratio=0.3 miss_rate=1 "
      "window_ms=1000 breach_windows=1 recover_windows=1", &error);
  ASSERT_TRUE(slo.has_value()) << error;

  video::SyntheticVideo video(scene(17, 180));
  video.precache();
  const std::string dump_path =
      ::testing::TempDir() + "soak_flight_dump.json";
  std::remove(dump_path.c_str());
  obs::Telemetry& telemetry = obs::Telemetry::instance();
  obs::Telemetry::set_enabled(true);
  obs::Telemetry::set_flight_enabled(true);
  telemetry.reset();
  telemetry.set_flight_dump_path(dump_path);

  RealtimeOptions options;
  options.seed = 17;
  options.time_scale = timing_sensitive_scale(20.0);
  options.fault_plan = &*plan;
  options.supervisor.enabled = true;
  options.slo = &*slo;
  const RealtimeResult result = run_realtime(video, options);
  const std::string series_json = telemetry.series_json();
  telemetry.set_flight_dump_path("");
  obs::Telemetry::set_flight_enabled(false);
  obs::Telemetry::set_enabled(false);

  EXPECT_FALSE(result.status.failed()) << result.status.to_string();
  EXPECT_GE(result.stats.faults_injected, 1);

  // Degradation and recovery, per window: at least one violated window
  // during the burst, and a healthy window after the first violated one.
  const obs::SloReport& report = result.run.slo;
  ASSERT_TRUE(report.evaluated);
  ASSERT_GE(report.windows.size(), 4u);
  std::size_t first_violated = report.windows.size();
  bool recovered_window = false;
  for (std::size_t i = 0; i < report.windows.size(); ++i) {
    if (report.windows[i].violated && first_violated == report.windows.size()) {
      first_violated = i;
    }
    if (first_violated < i && !report.windows[i].violated) {
      recovered_window = true;
    }
  }
  ASSERT_LT(first_violated, report.windows.size())
      << "the burst never violated a window: " << report.to_json();
  EXPECT_TRUE(recovered_window)
      << "no healthy window after the burst: " << report.to_json();

  // The breach machine fired and is mirrored into RunResult/RealtimeStats.
  EXPECT_GE(result.stats.slo_breaches, 1);
  bool entered = false;
  bool recovered_event = false;
  for (const auto& breach : report.breaches) {
    entered = entered || breach.entered;
    recovered_event = recovered_event || !breach.entered;
  }
  EXPECT_TRUE(entered);
  EXPECT_TRUE(recovered_event) << report.to_json();
  EXPECT_EQ(result.stats.slo_windows, static_cast<int>(report.windows.size()));
  EXPECT_EQ(result.stats.slo_violated_windows,
            static_cast<int>(report.violated_windows));

  // The report JSON carries the per-window fps / miss / jitter series.
  testjson::JsonValue report_doc;
  ASSERT_TRUE(testjson::JsonParser(report.to_json()).parse(report_doc));
  const testjson::JsonValue* windows = report_doc.get("windows");
  ASSERT_NE(windows, nullptr);
  ASSERT_GE(windows->array.size(), 4u);
  for (const char* key : {"fps", "miss_rate", "jitter_p99_ms", "coast_ratio"}) {
    EXPECT_NE(windows->array[0].get(key), nullptr) << key;
  }

  // The windowed telemetry saw the run too.
  testjson::JsonValue series_doc;
  ASSERT_TRUE(testjson::JsonParser(series_json).parse(series_doc));
  const testjson::JsonValue* series = series_doc.get("series");
  ASSERT_NE(series, nullptr);
  const testjson::JsonValue* latency_series =
      series->get("realtime.result_latency_ms");
  ASSERT_NE(latency_series, nullptr);
  EXPECT_GE(latency_series->get("windows")->array.size(), 1u);

  // The degraded run auto-dumped the flight ring, and the dump is a
  // Chrome trace Perfetto can load.
  std::ifstream in(dump_path);
  ASSERT_TRUE(in.good()) << "no automatic flight dump at " << dump_path;
  const std::string dump((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  testjson::JsonValue dump_doc;
  ASSERT_TRUE(testjson::JsonParser(dump).parse(dump_doc));
  const testjson::JsonValue* events = dump_doc.get("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_GT(events->array.size(), 0u);
  std::remove(dump_path.c_str());
}

}  // namespace
}  // namespace adavp::core
