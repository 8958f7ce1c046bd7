#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "detect/detector.h"
#include "detect/faulty_detector.h"
#include "track/faulty_tracker.h"
#include "track/tracker.h"
#include "util/fault_plan.h"
#include "video/frame_glitch.h"
#include "video/frame_store.h"
#include "video/scene.h"

namespace adavp {
namespace {

video::SceneConfig small_scene(std::uint64_t seed = 3) {
  video::SceneConfig cfg;
  cfg.width = 160;
  cfg.height = 96;
  cfg.frame_count = 30;
  cfg.seed = seed;
  cfg.initial_objects = 3;
  return cfg;
}

// ---------------------------------------------------------------- DSL ----

TEST(FaultPlan, ParsesChannelsRulesAndTriggers) {
  std::string error;
  const auto plan = util::FaultPlan::parse(
      "detector: stall p=0.05 ms=1200; garbage at=3,11 n=5; latency every=7 "
      "x=4 | camera: black p=0.02; hiccup every=40 ms=120",
      99, &error);
  ASSERT_TRUE(plan.has_value()) << error;
  EXPECT_FALSE(plan->empty());

  const util::FaultChannel detector = plan->channel("detector");
  ASSERT_EQ(detector.rules().size(), 3u);
  EXPECT_EQ(detector.rules()[0].kind, util::FaultKind::kStall);
  EXPECT_DOUBLE_EQ(detector.rules()[0].probability, 0.05);
  EXPECT_DOUBLE_EQ(detector.rules()[0].magnitude, 1200.0);
  EXPECT_EQ(detector.rules()[1].kind, util::FaultKind::kGarbage);
  EXPECT_EQ(detector.rules()[1].at, (std::vector<int>{3, 11}));
  EXPECT_EQ(detector.rules()[2].every, 7);

  const util::FaultChannel camera = plan->channel("camera");
  ASSERT_EQ(camera.rules().size(), 2u);
  EXPECT_TRUE(plan->channel("nonexistent").empty());
}

TEST(FaultPlan, AtAndEveryTriggersFireExactlyWhereToldTo) {
  const auto plan =
      util::FaultPlan::parse("detector: drop at=2,5; stall every=4 ms=9", 1);
  ASSERT_TRUE(plan.has_value());
  const util::FaultChannel ch = plan->channel("detector");
  for (int i = 0; i < 12; ++i) {
    const auto decisions = ch.decide(i);
    const bool want_drop = (i == 2 || i == 5);
    const bool want_stall = (i % 4 == 0);
    int drops = 0, stalls = 0;
    for (const auto& d : decisions) {
      if (d.kind == util::FaultKind::kDrop) ++drops;
      if (d.kind == util::FaultKind::kStall) ++stalls;
    }
    EXPECT_EQ(drops, want_drop ? 1 : 0) << "frame " << i;
    EXPECT_EQ(stalls, want_stall ? 1 : 0) << "frame " << i;
  }
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  std::string error;
  // Unknown kind.
  EXPECT_FALSE(util::FaultPlan::parse("detector: explode p=0.1", 1, &error));
  EXPECT_NE(error.find("unknown fault kind"), std::string::npos);
  // No trigger.
  EXPECT_FALSE(util::FaultPlan::parse("detector: stall ms=100", 1, &error));
  // Two triggers.
  EXPECT_FALSE(
      util::FaultPlan::parse("detector: stall p=0.1 every=3", 1, &error));
  // Bad probability.
  EXPECT_FALSE(util::FaultPlan::parse("detector: stall p=1.5", 1, &error));
  // Bad number.
  EXPECT_FALSE(util::FaultPlan::parse("detector: stall p=abc", 1, &error));
  // Non-finite numbers: from_chars reads "nan" and "inf", and a NaN
  // probability passes both range comparisons.
  for (const char* spec : {"detector: stall p=nan ms=100",
                           "detector: stall every=2 ms=inf",
                           "detector: stall every=2 ms=nan"}) {
    error.clear();
    EXPECT_FALSE(util::FaultPlan::parse(spec, 1, &error)) << spec;
    EXPECT_NE(error.find("bad "), std::string::npos) << spec << ": " << error;
  }
  // Unknown key.
  EXPECT_FALSE(util::FaultPlan::parse("detector: stall p=0.1 q=2", 1, &error));
  // Missing channel prefix.
  EXPECT_FALSE(util::FaultPlan::parse("stall p=0.1", 1, &error));
  // Channel without rules.
  EXPECT_FALSE(util::FaultPlan::parse("detector: ;", 1, &error));
}

// A typo'd channel name must be a hard parse error that names the offending
// token and lists the valid channels — a silently-inert chaos plan is a
// false negative factory (ROBUSTNESS.md §2a).
TEST(FaultPlan, UnknownChannelIsAHardError) {
  std::string error;
  EXPECT_FALSE(util::FaultPlan::parse("gups: hang p=0.1", 1, &error));
  EXPECT_NE(error.find("unknown fault channel"), std::string::npos) << error;
  EXPECT_NE(error.find("'gups'"), std::string::npos) << error;
  // The error lists every valid channel, verbatim.
  EXPECT_NE(error.find(std::string(util::valid_fault_channels())),
            std::string::npos)
      << error;
  for (const char* channel :
       {"detector", "camera", "tracker", "gpu", "stream", "codec"}) {
    EXPECT_NE(util::valid_fault_channels().find(channel),
              std::string_view::npos)
        << channel;
  }
  // A valid channel buried in a multi-section spec does not save it.
  EXPECT_FALSE(util::FaultPlan::parse(
      "detector: stall p=0.1 ms=5 | steam: crash every=9", 1, &error));
  EXPECT_NE(error.find("'steam'"), std::string::npos) << error;
}

// The unknown-kind error names the token and lists the valid kinds too.
TEST(FaultPlan, UnknownKindErrorListsValidKinds) {
  std::string error;
  EXPECT_FALSE(util::FaultPlan::parse("gpu: explode p=0.1", 1, &error));
  EXPECT_NE(error.find("'explode'"), std::string::npos) << error;
  EXPECT_NE(error.find("hang"), std::string::npos) << error;
  EXPECT_NE(error.find("wedge"), std::string::npos) << error;
  EXPECT_NE(error.find("crash"), std::string::npos) << error;
}

// The supervision-era kinds parse with their channel-appropriate defaults.
TEST(FaultPlan, ParsesSupervisionKinds) {
  std::string error;
  const auto plan = util::FaultPlan::parse(
      "gpu: hang p=0.02; wedge at=7 | stream: crash every=200; wedge ms=40 "
      "p=0.1 | codec: drop n=3 at=5; stall every=9 ms=15",
      11, &error);
  ASSERT_TRUE(plan.has_value()) << error;
  const util::FaultChannel gpu = plan->channel("gpu");
  ASSERT_EQ(gpu.rules().size(), 2u);
  EXPECT_EQ(gpu.rules()[0].kind, util::FaultKind::kHang);
  EXPECT_DOUBLE_EQ(gpu.rules()[0].magnitude, 1.0);  // one watchdog budget
  EXPECT_EQ(gpu.rules()[1].kind, util::FaultKind::kWedge);
  const util::FaultChannel stream = plan->channel("stream");
  ASSERT_EQ(stream.rules().size(), 2u);
  EXPECT_EQ(stream.rules()[0].kind, util::FaultKind::kCrash);
  EXPECT_EQ(stream.rules()[0].every, 200);
  EXPECT_EQ(stream.rules()[1].kind, util::FaultKind::kWedge);
  EXPECT_DOUBLE_EQ(stream.rules()[1].magnitude, 40.0);
  const util::FaultChannel codec = plan->channel("codec");
  ASSERT_EQ(codec.rules().size(), 2u);
  EXPECT_EQ(codec.rules()[0].kind, util::FaultKind::kDrop);
  EXPECT_DOUBLE_EQ(codec.rules()[0].magnitude, 3.0);
  EXPECT_EQ(codec.rules()[1].kind, util::FaultKind::kStall);
}

TEST(FaultPlan, EmptySpecParsesToEmptyPlan) {
  const auto plan = util::FaultPlan::parse("", 7);
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(plan->empty());
  EXPECT_TRUE(plan->channel("detector").empty());
}

// ---------------------------------------------------- determinism --------

TEST(FaultPlan, DecisionsReplayBitIdenticallyInAnyQueryOrder) {
  const char* spec =
      "detector: stall p=0.3 ms=700; garbage p=0.2 n=3 | camera: black p=0.2";
  const auto a = util::FaultPlan::parse(spec, 4242);
  const auto b = util::FaultPlan::parse(spec, 4242);
  ASSERT_TRUE(a.has_value() && b.has_value());
  const util::FaultChannel ca = a->channel("detector");
  const util::FaultChannel cb = b->channel("detector");

  // Forward on one plan, reverse (and repeated) on the other: decisions are
  // a pure function of (seed, channel, rule, event), so order can't matter.
  for (int i = 0; i < 64; ++i) {
    const auto da = ca.decide(i);
    const auto db = cb.decide(63 - i);
    const auto da2 = ca.decide(i);  // re-query: no hidden state
    ASSERT_EQ(da.size(), da2.size());
    for (std::size_t k = 0; k < da.size(); ++k) {
      EXPECT_EQ(da[k].kind, da2[k].kind);
      EXPECT_EQ(da[k].rng_seed, da2[k].rng_seed);
    }
    const auto db_fwd = cb.decide(i);
    ASSERT_EQ(da.size(), db_fwd.size());
    for (std::size_t k = 0; k < da.size(); ++k) {
      EXPECT_EQ(da[k].kind, db_fwd[k].kind);
      EXPECT_EQ(da[k].rng_seed, db_fwd[k].rng_seed);
    }
    (void)db;
  }
}

TEST(FaultPlan, DifferentSeedsProduceDifferentSchedules) {
  const char* spec = "detector: drop p=0.5";
  const auto a = util::FaultPlan::parse(spec, 1);
  const auto b = util::FaultPlan::parse(spec, 2);
  const util::FaultChannel ca = a->channel("detector");
  const util::FaultChannel cb = b->channel("detector");
  int differing = 0;
  for (int i = 0; i < 128; ++i) {
    if (ca.decide(i).size() != cb.decide(i).size()) ++differing;
  }
  EXPECT_GT(differing, 0);
}

// ------------------------------------------------- FaultyDetector --------

TEST(FaultyDetector, EmptyChannelIsATransparentPassThrough) {
  const video::SyntheticVideo video(small_scene());
  detect::SimulatedDetector plain(77);
  detect::FaultyDetector faulty(77);
  for (int i = 0; i < 5; ++i) {
    const auto a = plain.detect(video, i, detect::ModelSetting::kYolov3_512);
    const auto b = faulty.detect(video, i, detect::ModelSetting::kYolov3_512);
    EXPECT_DOUBLE_EQ(a.latency_ms, b.latency_ms);
    ASSERT_EQ(a.detections.size(), b.detections.size());
    for (std::size_t k = 0; k < a.detections.size(); ++k) {
      EXPECT_EQ(a.detections[k].box, b.detections[k].box);
      EXPECT_EQ(a.detections[k].score, b.detections[k].score);
    }
  }
  EXPECT_EQ(faulty.faults_injected(), 0u);
}

TEST(FaultyDetector, LatencyAndStallFaultsInflateTheModeledLatency) {
  const video::SyntheticVideo video(small_scene());
  const auto plan = util::FaultPlan::parse(
      "detector: latency every=1 x=3; stall every=1 ms=500", 5);
  ASSERT_TRUE(plan.has_value());
  detect::SimulatedDetector plain(77);
  detect::FaultyDetector faulty(77, plan->channel("detector"));
  const auto a = plain.detect(video, 0, detect::ModelSetting::kYolov3_512);
  const auto b = faulty.detect(video, 0, detect::ModelSetting::kYolov3_512);
  EXPECT_DOUBLE_EQ(b.latency_ms, a.latency_ms * 3.0 + 500.0);
  EXPECT_EQ(faulty.faults_injected(), 2u);
}

TEST(FaultyDetector, DropSwallowsAndGarbageReplacesResults) {
  const video::SyntheticVideo video(small_scene());
  const auto plan = util::FaultPlan::parse(
      "detector: drop at=1; garbage at=2 n=6", 5);
  ASSERT_TRUE(plan.has_value());
  detect::FaultyDetector faulty(77, plan->channel("detector"));
  const auto clean = faulty.detect(video, 0, detect::ModelSetting::kYolov3_512);
  EXPECT_FALSE(clean.detections.empty());
  const auto dropped =
      faulty.detect(video, 1, detect::ModelSetting::kYolov3_512);
  EXPECT_TRUE(dropped.detections.empty());
  const auto garbage =
      faulty.detect(video, 2, detect::ModelSetting::kYolov3_512);
  ASSERT_EQ(garbage.detections.size(), 6u);
  for (const auto& d : garbage.detections) {
    EXPECT_FALSE(d.box.empty());
    EXPECT_LE(d.box.right(), video.frame_size().width + 1.0f);
    EXPECT_LE(d.box.bottom(), video.frame_size().height + 1.0f);
  }
  // Garbage payloads replay bit-identically.
  detect::FaultyDetector again(77, plan->channel("detector"));
  (void)again.detect(video, 0, detect::ModelSetting::kYolov3_512);
  (void)again.detect(video, 1, detect::ModelSetting::kYolov3_512);
  const auto garbage2 =
      again.detect(video, 2, detect::ModelSetting::kYolov3_512);
  ASSERT_EQ(garbage2.detections.size(), garbage.detections.size());
  for (std::size_t k = 0; k < garbage.detections.size(); ++k) {
    EXPECT_EQ(garbage.detections[k].box, garbage2.detections[k].box);
  }
}

TEST(FaultyDetector, ThrowFaultThrowsInjectedFault) {
  const video::SyntheticVideo video(small_scene());
  const auto plan = util::FaultPlan::parse("detector: throw at=4", 5);
  ASSERT_TRUE(plan.has_value());
  detect::FaultyDetector faulty(77, plan->channel("detector"));
  EXPECT_NO_THROW(faulty.detect(video, 3, detect::ModelSetting::kYolov3_512));
  EXPECT_THROW(faulty.detect(video, 4, detect::ModelSetting::kYolov3_512),
               detect::InjectedFault);
}

// ------------------------------------------------- FaultyTracker ---------

/// Arms `tracker` with frame 0's real detections and returns the frames.
struct TrackerRig {
  explicit TrackerRig(const video::SyntheticVideo& video)
      : store(video), frame0(store.get(0)), frame1(store.get(1)) {
    detect::SimulatedDetector detector(77);
    reference =
        detector.detect(video, 0, detect::ModelSetting::kYolov3_512).detections;
  }
  video::FrameStore store;
  video::FrameRef frame0;
  video::FrameRef frame1;
  std::vector<detect::Detection> reference;
};

TEST(FaultyTracker, EmptyChannelIsATransparentPassThrough) {
  const video::SyntheticVideo video(small_scene());
  TrackerRig rig(video);

  track::ObjectTracker plain;
  plain.set_reference(rig.frame0.image(), rig.reference);
  const auto plain_stats = plain.track_to(rig.frame1.image(), 1);

  track::ObjectTracker inner;
  track::FaultyTracker faulty(inner);
  faulty.set_reference_at(rig.frame0.image(), rig.reference, 0);
  const auto faulty_stats = faulty.track_frame(rig.frame1.image(), 1, 1);

  EXPECT_EQ(plain_stats.features_tracked, faulty_stats.features_tracked);
  EXPECT_DOUBLE_EQ(plain_stats.displacement_sum,
                   faulty_stats.displacement_sum);
  const auto a = plain.current_boxes();
  const auto b = faulty.current_boxes();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].box, b[k].box);
  }
  EXPECT_EQ(faulty.faults_injected(), 0u);
}

TEST(FaultyTracker, StarveThinsFeaturesWithoutInventingVelocity) {
  const video::SyntheticVideo video(small_scene());
  TrackerRig rig(video);
  const auto plan = util::FaultPlan::parse("tracker: starve at=1 frac=0.5", 5);
  ASSERT_TRUE(plan.has_value());

  track::ObjectTracker inner;
  track::FaultyTracker faulty(inner, plan->channel("tracker"));
  faulty.set_reference_at(rig.frame0.image(), rig.reference, 0);

  track::ObjectTracker control;
  control.set_reference(rig.frame0.image(), rig.reference);
  const auto full = control.track_to(rig.frame1.image(), 1);
  ASSERT_GT(full.features_tracked, 1);

  const auto starved = faulty.track_frame(rig.frame1.image(), 1, 1);
  EXPECT_EQ(starved.features_tracked,
            static_cast<int>(std::floor(full.features_tracked * 0.5)));
  EXPECT_NEAR(starved.displacement_sum, full.displacement_sum * 0.5, 1e-9);
  EXPECT_LT(faulty.live_feature_count(), inner.live_feature_count());
  EXPECT_EQ(faulty.faults_injected(), 1u);
  // Re-arming the reference clears the starvation.
  faulty.set_reference_at(rig.frame0.image(), rig.reference, 0);
  EXPECT_EQ(faulty.live_feature_count(), inner.live_feature_count());
}

TEST(FaultyTracker, DivergeDriftsTheReportedBoxes) {
  const video::SyntheticVideo video(small_scene());
  TrackerRig rig(video);
  const auto plan = util::FaultPlan::parse("tracker: diverge at=1 px=6", 5);
  ASSERT_TRUE(plan.has_value());

  track::ObjectTracker inner;
  track::FaultyTracker faulty(inner, plan->channel("tracker"));
  faulty.set_reference_at(rig.frame0.image(), rig.reference, 0);
  const auto stats = faulty.track_frame(rig.frame1.image(), 1, 1);

  const auto honest = inner.current_boxes();
  const auto drifted = faulty.current_boxes();
  ASSERT_EQ(honest.size(), drifted.size());
  ASSERT_FALSE(honest.empty());
  const float dx = drifted[0].box.left - honest[0].box.left;
  const float dy = drifted[0].box.top - honest[0].box.top;
  EXPECT_NEAR(std::hypot(dx, dy), 6.0, 1e-4);  // the full drift magnitude
  // The spurious flow inflates the displacement the velocity estimator
  // sees (that is what trips the adapter / MARLIN's change detector).
  track::ObjectTracker control;
  control.set_reference(rig.frame0.image(), rig.reference);
  const auto full = control.track_to(rig.frame1.image(), 1);
  EXPECT_GT(stats.displacement_sum, full.displacement_sum);
  EXPECT_EQ(faulty.faults_injected(), 1u);
}

TEST(FaultyTracker, NanFlowFreezesBoxesAndZeroesTheStep) {
  const video::SyntheticVideo video(small_scene());
  TrackerRig rig(video);
  const auto plan = util::FaultPlan::parse("tracker: nan at=1", 5);
  ASSERT_TRUE(plan.has_value());

  track::ObjectTracker inner;
  track::FaultyTracker faulty(inner, plan->channel("tracker"));
  faulty.set_reference_at(rig.frame0.image(), rig.reference, 0);
  const auto before = faulty.current_boxes();
  const auto stats = faulty.track_frame(rig.frame1.image(), 1, 1);

  // The step was rejected: no features, no motion, boxes as they stood.
  EXPECT_EQ(stats.features_tracked, 0);
  EXPECT_DOUBLE_EQ(stats.displacement_sum, 0.0);
  const auto after = faulty.current_boxes();
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t k = 0; k < before.size(); ++k) {
    EXPECT_EQ(before[k].box, after[k].box);
  }
  EXPECT_EQ(faulty.faults_injected(), 1u);
}

TEST(FaultyTracker, ThrowFaultThrowsInjectedFault) {
  const video::SyntheticVideo video(small_scene());
  TrackerRig rig(video);
  const auto plan = util::FaultPlan::parse("tracker: throw at=1", 5);
  ASSERT_TRUE(plan.has_value());
  track::ObjectTracker inner;
  track::FaultyTracker faulty(inner, plan->channel("tracker"));
  faulty.set_reference_at(rig.frame0.image(), rig.reference, 0);
  EXPECT_THROW(faulty.track_frame(rig.frame1.image(), 1, 1),
               util::InjectedFault);
}

// ------------------------------------------------- camera glitches -------

TEST(FrameGlitch, BlackFrameIsBlackAndLeavesTheOriginalIntact) {
  video::SyntheticVideo video(small_scene());
  video::FrameStore store(video);
  const video::FrameRef original = store.get(0);
  const video::FrameRef black = video::glitch_black(original);
  EXPECT_EQ(black.index, original.index);
  EXPECT_EQ(black.image().size(), original.image().size());
  bool any_nonzero_black = false;
  bool any_nonzero_original = false;
  for (int y = 0; y < original.image().height(); ++y) {
    for (int x = 0; x < original.image().width(); ++x) {
      any_nonzero_black |= black.image().at(x, y) != 0;
      any_nonzero_original |= original.image().at(x, y) != 0;
    }
  }
  EXPECT_FALSE(any_nonzero_black);
  EXPECT_TRUE(any_nonzero_original);  // the shared raster was not mutated
}

TEST(FrameGlitch, CorruptionIsDeterministicFromItsSeed) {
  video::SyntheticVideo video(small_scene());
  video::FrameStore store(video);
  const video::FrameRef original = store.get(0);
  const video::FrameRef a = video::glitch_corrupt(original, 80.0, 123);
  const video::FrameRef b = video::glitch_corrupt(original, 80.0, 123);
  const video::FrameRef c = video::glitch_corrupt(original, 80.0, 456);
  int diff_ab = 0, diff_ac = 0, diff_ao = 0;
  for (int y = 0; y < original.image().height(); ++y) {
    for (int x = 0; x < original.image().width(); ++x) {
      diff_ab += a.image().at(x, y) != b.image().at(x, y);
      diff_ac += a.image().at(x, y) != c.image().at(x, y);
      diff_ao += a.image().at(x, y) != original.image().at(x, y);
    }
  }
  EXPECT_EQ(diff_ab, 0);   // same seed: bit-identical corruption
  EXPECT_GT(diff_ac, 0);   // different seed: different corruption
  EXPECT_GT(diff_ao, 100); // and it really corrupted a band of pixels
}

}  // namespace
}  // namespace adavp
