#include <gtest/gtest.h>

#include <string>

#include "json_test_util.h"
#include "obs/slo.h"

namespace adavp::obs {
namespace {

using testjson::JsonParser;
using testjson::JsonValue;

// ----------------------------------------------------------------- spec

TEST(SloSpec, ParsesTheFullGrammar) {
  std::string error;
  const auto spec = SloSpec::parse(
      "fps=25 deadline_ms=40 miss_rate=0.1 coast_ratio=0.6 jitter_ms=15 "
      "min_fps_fraction=0.8 window_ms=500 breach_windows=3 recover_windows=4",
      &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_DOUBLE_EQ(spec->target_fps, 25.0);
  EXPECT_DOUBLE_EQ(spec->deadline_ms, 40.0);
  EXPECT_DOUBLE_EQ(spec->effective_deadline_ms(), 40.0);
  EXPECT_DOUBLE_EQ(spec->max_miss_rate, 0.1);
  EXPECT_DOUBLE_EQ(spec->max_coast_ratio, 0.6);
  EXPECT_DOUBLE_EQ(spec->max_jitter_ms, 15.0);
  EXPECT_DOUBLE_EQ(spec->min_fps_fraction, 0.8);
  EXPECT_DOUBLE_EQ(spec->window_ms, 500.0);
  EXPECT_EQ(spec->breach_windows, 3);
  EXPECT_EQ(spec->recover_windows, 4);
}

TEST(SloSpec, EmptySpecYieldsDefaultsAndDerivedDeadline) {
  const auto spec = SloSpec::parse("");
  ASSERT_TRUE(spec.has_value());
  EXPECT_DOUBLE_EQ(spec->target_fps, 30.0);
  // deadline_ms=0 derives one frame period.
  EXPECT_NEAR(spec->effective_deadline_ms(), 1000.0 / 30.0, 1e-9);
}

TEST(SloSpec, RejectsMalformedSpecsWithDiagnostics) {
  std::string error;
  EXPECT_FALSE(SloSpec::parse("fps", &error).has_value());
  EXPECT_NE(error.find("key=value"), std::string::npos);
  EXPECT_FALSE(SloSpec::parse("fps=abc", &error).has_value());
  EXPECT_NE(error.find("bad number"), std::string::npos);
  EXPECT_FALSE(SloSpec::parse("fps=30x", &error).has_value());
  EXPECT_FALSE(SloSpec::parse("warp=9", &error).has_value());
  EXPECT_NE(error.find("unknown SLO key"), std::string::npos);
  EXPECT_FALSE(SloSpec::parse("fps=0", &error).has_value());
  EXPECT_FALSE(SloSpec::parse("window_ms=-5", &error).has_value());
  EXPECT_NE(error.find("positive"), std::string::npos);
  for (const char* text : {"fps=nan window_ms=1000", "fps=30 window_ms=inf",
                           "fps=30 deadline_ms=nan"}) {
    EXPECT_FALSE(SloSpec::parse(text, &error).has_value()) << text;
    EXPECT_NE(error.find("bad number"), std::string::npos) << text;
  }
  // Window counts are range-checked before the int cast, which would be
  // undefined for 1e300.
  for (const char* text : {"fps=30 breach_windows=1e300",
                           "fps=30 recover_windows=1e300",
                           "fps=30 breach_windows=0"}) {
    EXPECT_FALSE(SloSpec::parse(text, &error).has_value()) << text;
    EXPECT_NE(error.find("must be in [1, INT_MAX]"), std::string::npos)
        << text << ": " << error;
  }
  EXPECT_TRUE(SloSpec::parse("breach_windows=2147483647").has_value());
}

// -------------------------------------------------------------- tracker

/// A 10 fps / 1 s window spec: deadline derives to 100 ms, fps floor to 9.
SloSpec spec_10fps() {
  SloSpec spec;
  spec.target_fps = 10.0;
  spec.window_ms = 1000.0;
  spec.max_miss_rate = 0.05;
  return spec;
}

/// Feeds `count` evenly spaced results into window `w` (gap = the expected
/// 100 ms, so jitter stays zero unless the caller perturbs times itself).
void feed_window(SloTracker& tracker, int w, int count, double latency_ms,
                 int coasted = 0) {
  for (int i = 0; i < count; ++i) {
    tracker.on_result(w * 1000.0 + i * 100.0, latency_ms, i < coasted);
  }
}

TEST(SloTracker, HealthyRunHasNoViolations) {
  SloTracker tracker(spec_10fps());
  for (int w = 0; w < 3; ++w) feed_window(tracker, w, 10, 50.0);
  const SloReport report = tracker.finish(3000.0);
  ASSERT_TRUE(report.evaluated);
  ASSERT_EQ(report.windows.size(), 3u);
  for (const auto& w : report.windows) {
    EXPECT_FALSE(w.violated) << "window " << w.index << ": " << w.violation;
    EXPECT_DOUBLE_EQ(w.fps, 10.0);
    EXPECT_DOUBLE_EQ(w.miss_rate, 0.0);
    EXPECT_DOUBLE_EQ(w.burn_rate, 0.0);
  }
  EXPECT_EQ(report.violated_windows, 0u);
  EXPECT_TRUE(report.breaches.empty());
  EXPECT_FALSE(report.in_breach_at_end);
}

TEST(SloTracker, DeadlineMissesViolateAndBurnTheBudget) {
  SloTracker tracker(spec_10fps());
  feed_window(tracker, 0, 10, 50.0);
  feed_window(tracker, 1, 10, 200.0);  // every result misses the 100 ms deadline
  const SloReport report = tracker.finish(2000.0);
  ASSERT_EQ(report.windows.size(), 2u);
  EXPECT_FALSE(report.windows[0].violated);
  const SloWindow& bad = report.windows[1];
  EXPECT_TRUE(bad.violated);
  EXPECT_EQ(bad.violation, "miss_rate");
  EXPECT_EQ(bad.deadline_misses, 10u);
  EXPECT_DOUBLE_EQ(bad.miss_rate, 1.0);
  // miss_rate 1.0 against a 0.05 budget burns 20x.
  EXPECT_DOUBLE_EQ(bad.burn_rate, 20.0);
  EXPECT_DOUBLE_EQ(bad.latency_p99_ms, 200.0);
}

TEST(SloTracker, CoastRatioViolation) {
  SloSpec spec = spec_10fps();
  spec.max_coast_ratio = 0.5;
  SloTracker tracker(spec);
  feed_window(tracker, 0, 10, 50.0, /*coasted=*/6);
  const SloReport report = tracker.finish(1000.0);
  ASSERT_EQ(report.windows.size(), 1u);
  EXPECT_TRUE(report.windows[0].violated);
  EXPECT_EQ(report.windows[0].violation, "coast_ratio");
  EXPECT_DOUBLE_EQ(report.windows[0].coast_ratio, 0.6);
}

TEST(SloTracker, JitterViolation) {
  SloSpec spec = spec_10fps();
  spec.max_jitter_ms = 20.0;
  SloTracker tracker(spec);
  // 10 results, but gaps alternate 140/60 ms — every jitter sample is 40 ms.
  for (int i = 0; i < 10; ++i) {
    tracker.on_result(i * 100.0 + (i % 2) * 40.0, 50.0, false);
  }
  const SloReport report = tracker.finish(1000.0);
  ASSERT_EQ(report.windows.size(), 1u);
  EXPECT_TRUE(report.windows[0].violated);
  EXPECT_EQ(report.windows[0].violation, "jitter");
  EXPECT_NEAR(report.windows[0].jitter_p99_ms, 40.0, 1e-9);
}

TEST(SloTracker, BreachRequiresConsecutiveViolatedWindows) {
  // breach_windows=2: one bad window is a blip, not a breach.
  SloTracker blip(spec_10fps());
  feed_window(blip, 0, 10, 200.0);  // violated
  feed_window(blip, 1, 10, 50.0);   // healthy
  feed_window(blip, 2, 10, 50.0);
  const SloReport blip_report = blip.finish(3000.0);
  EXPECT_EQ(blip_report.violated_windows, 1u);
  EXPECT_TRUE(blip_report.breaches.empty());

  SloTracker breach(spec_10fps());
  feed_window(breach, 0, 10, 200.0);
  feed_window(breach, 1, 10, 200.0);  // second consecutive => breach
  const SloReport breach_report = breach.finish(2000.0);
  ASSERT_EQ(breach_report.breaches.size(), 1u);
  EXPECT_TRUE(breach_report.breaches[0].entered);
  EXPECT_EQ(breach_report.breaches[0].window_index, 1);
  EXPECT_DOUBLE_EQ(breach_report.breaches[0].t_ms, 2000.0);
  EXPECT_EQ(breach_report.breaches[0].reason, "miss_rate");
  EXPECT_TRUE(breach_report.in_breach_at_end);
}

TEST(SloTracker, RecoveryRequiresConsecutiveHealthyWindows) {
  SloSpec spec = spec_10fps();
  spec.breach_windows = 1;
  spec.recover_windows = 2;
  SloTracker tracker(spec);
  feed_window(tracker, 0, 10, 200.0);  // breach enters immediately
  feed_window(tracker, 1, 10, 50.0);   // one healthy window is not enough
  feed_window(tracker, 2, 10, 50.0);   // second => recovered
  feed_window(tracker, 3, 10, 50.0);
  const SloReport report = tracker.finish(4000.0);
  ASSERT_EQ(report.breaches.size(), 2u);
  EXPECT_TRUE(report.breaches[0].entered);
  EXPECT_EQ(report.breaches[0].window_index, 0);
  EXPECT_FALSE(report.breaches[1].entered);
  EXPECT_EQ(report.breaches[1].window_index, 2);
  EXPECT_EQ(report.breaches[1].reason, "recovered");
  EXPECT_FALSE(report.in_breach_at_end);
}

TEST(SloTracker, StalledWindowsViolateTheFpsFloorWithBurn) {
  // Window 0 is healthy, then the pipeline goes silent until t=5s. The
  // empty windows 1..4 must be judged — fps 0 — not skipped, and the stall
  // must burn budget even though zero results missed their deadline.
  SloTracker tracker(spec_10fps());
  feed_window(tracker, 0, 10, 50.0);
  tracker.on_result(5000.0, 50.0, false);
  const SloReport report = tracker.finish(6000.0);
  ASSERT_EQ(report.windows.size(), 6u);
  for (int w = 1; w <= 4; ++w) {
    const SloWindow& stalled = report.windows[static_cast<std::size_t>(w)];
    EXPECT_TRUE(stalled.violated) << "window " << w;
    EXPECT_EQ(stalled.violation, "fps");
    EXPECT_DOUBLE_EQ(stalled.fps, 0.0);
    EXPECT_EQ(stalled.results, 0u);
    // Shortfall burn: 1 + (min_fps - 0) / min_fps = 2.
    EXPECT_DOUBLE_EQ(stalled.burn_rate, 2.0);
  }
  // The breach entered after two consecutive stalled windows.
  ASSERT_GE(report.breaches.size(), 1u);
  EXPECT_TRUE(report.breaches[0].entered);
  EXPECT_EQ(report.breaches[0].window_index, 2);
  EXPECT_EQ(report.breaches[0].reason, "fps");
  EXPECT_TRUE(report.in_breach_at_end);
}

TEST(SloTracker, FinishRollsThroughTrailingEmptyWindows) {
  SloTracker tracker(spec_10fps());
  feed_window(tracker, 0, 10, 50.0);
  // The run formally lasted 3 s: windows 1 and 2 were silent.
  const SloReport report = tracker.finish(3000.0);
  ASSERT_EQ(report.windows.size(), 3u);
  EXPECT_FALSE(report.windows[0].violated);
  EXPECT_TRUE(report.windows[1].violated);
  EXPECT_TRUE(report.windows[2].violated);
}

TEST(SloTracker, LateResultsAreDroppedNotRejudged) {
  SloTracker tracker(spec_10fps());
  feed_window(tracker, 0, 10, 50.0);
  feed_window(tracker, 1, 10, 50.0);  // window 0 is finalized here
  tracker.on_result(500.0, 200.0, false);  // late miss: window 0 already judged
  const SloReport report = tracker.finish(2000.0);
  ASSERT_EQ(report.windows.size(), 2u);
  EXPECT_EQ(report.windows[0].results, 10u);
  EXPECT_EQ(report.windows[0].deadline_misses, 0u);
}

TEST(SloTracker, SensorReadingTracksTheLatestCompletedWindow) {
  SloSpec spec = spec_10fps();
  spec.breach_windows = 1;
  SloTracker tracker(spec);
  EXPECT_FALSE(tracker.read().valid);  // nothing completed yet
  feed_window(tracker, 0, 10, 50.0);
  EXPECT_FALSE(tracker.read().valid);  // window 0 is still open
  feed_window(tracker, 1, 10, 200.0);  // rolling to window 1 completes 0
  SensorReading reading = tracker.read();
  ASSERT_TRUE(reading.valid);
  EXPECT_DOUBLE_EQ(reading.t_ms, 1000.0);
  EXPECT_DOUBLE_EQ(reading.fps, 10.0);
  EXPECT_FALSE(reading.in_breach);
  tracker.on_result(2000.0, 50.0, false);  // completes the violated window 1
  reading = tracker.read();
  EXPECT_DOUBLE_EQ(reading.miss_rate, 1.0);
  EXPECT_DOUBLE_EQ(reading.burn_rate, 20.0);
  EXPECT_TRUE(reading.in_breach);
}

TEST(SloTracker, NoResultsYieldsAnEmptyEvaluatedReport) {
  SloTracker tracker(spec_10fps());
  const SloReport report = tracker.finish(1000.0);
  EXPECT_TRUE(report.evaluated);
  EXPECT_TRUE(report.windows.empty());
  EXPECT_FALSE(report.in_breach_at_end);
}

// ----------------------------------------------------------------- json

TEST(SloReport, JsonParsesBackWithWindowsAndBreaches) {
  SloTracker tracker(spec_10fps());
  feed_window(tracker, 0, 10, 50.0);
  feed_window(tracker, 1, 10, 200.0);
  feed_window(tracker, 2, 10, 200.0);
  const SloReport report = tracker.finish(3000.0);

  JsonValue doc;
  ASSERT_TRUE(JsonParser(report.to_json()).parse(doc)) << report.to_json();
  EXPECT_TRUE(doc.get("evaluated")->boolean);
  EXPECT_DOUBLE_EQ(doc.get("spec")->get("fps")->number, 10.0);
  EXPECT_DOUBLE_EQ(doc.get("violated_windows")->number, 2.0);
  const JsonValue* windows = doc.get("windows");
  ASSERT_EQ(windows->array.size(), 3u);
  for (const char* key :
       {"index", "start_ms", "end_ms", "results", "deadline_misses", "coasted",
        "fps", "miss_rate", "coast_ratio", "jitter_p50_ms", "jitter_p99_ms",
        "latency_p99_ms", "burn_rate", "violated", "violation"}) {
    EXPECT_NE(windows->array[0].get(key), nullptr) << key;
  }
  const JsonValue* breaches = doc.get("breaches");
  ASSERT_EQ(breaches->array.size(), 1u);
  EXPECT_TRUE(breaches->array[0].get("entered")->boolean);
  EXPECT_EQ(breaches->array[0].get("reason")->str, "miss_rate");
  EXPECT_TRUE(doc.get("in_breach_at_end")->boolean);
}

}  // namespace
}  // namespace adavp::obs
