#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/mpdt_pipeline.h"
#include "core/offload.h"
#include "core/training.h"
#include "json_test_util.h"
#include "obs/flight_recorder.h"
#include "obs/telemetry.h"
#include "video/scene.h"

namespace adavp::obs {
namespace {

using testjson::JsonParser;
using testjson::JsonValue;

// ----------------------------------------------------------------- ring

TEST(FlightRecorder, KeepsOnlyTheMostRecentEventsOldestFirst) {
  FlightRecorder recorder(8);
  for (int i = 0; i < 20; ++i) {
    recorder.instant(i * 10, "tick", "test", i);
  }
  EXPECT_EQ(recorder.total_recorded(), 20u);
  EXPECT_EQ(recorder.capacity(), 8u);
  const std::vector<SpanEvent> events = recorder.snapshot();
  ASSERT_EQ(events.size(), 8u);
  // The ring kept ticks 12..19, oldest first.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].arg, static_cast<std::int64_t>(12 + i));
    EXPECT_STREQ(events[i].name, "tick");
  }
}

TEST(FlightRecorder, SnapshotBeforeWrapReturnsEverything) {
  FlightRecorder recorder(16);
  recorder.instant(1, "a", "test");
  recorder.instant(2, "b", "test");
  const std::vector<SpanEvent> events = recorder.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].name, "a");
  EXPECT_STREQ(events[1].name, "b");
  EXPECT_EQ(events[0].begin_us, events[0].end_us);  // instants are points
}

TEST(FlightRecorder, ClearEmptiesTheRing) {
  FlightRecorder recorder(8);
  recorder.instant(1, "a", "test");
  recorder.clear();
  EXPECT_EQ(recorder.total_recorded(), 0u);
  EXPECT_TRUE(recorder.snapshot().empty());
}

TEST(FlightRecorder, RecordKeepsFullSpanPayload) {
  FlightRecorder recorder(8);
  SpanEvent event;
  event.name = "detect";
  event.category = "detector";
  event.tid = 3;
  event.depth = 2;
  event.begin_us = 100;
  event.end_us = 250;
  event.arg = 42;
  event.arg_name = "frame";
  recorder.record(event);
  const std::vector<SpanEvent> events = recorder.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "detect");
  EXPECT_STREQ(events[0].category, "detector");
  EXPECT_EQ(events[0].tid, 3u);
  EXPECT_EQ(events[0].depth, 2u);
  EXPECT_EQ(events[0].begin_us, 100);
  EXPECT_EQ(events[0].end_us, 250);
  EXPECT_EQ(events[0].arg, 42);
  EXPECT_STREQ(events[0].arg_name, "frame");
}

// ---------------------------------------------------------- concurrency

// Writers hammer a deliberately tiny ring while a reader drains snapshots.
// The seqlock contract under test: every snapshotted entry is internally
// consistent — its (name, arg) pair always comes from one writer — even
// when entries are being overwritten mid-read. TSan runs this through the
// `concurrency` ctest label.
TEST(FlightRecorder, ConcurrentWritersAndSnapshotsStayCoherent) {
  FlightRecorder recorder(32);
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 20000;
  static constexpr const char* kNames[kWriters] = {"w0", "w1", "w2", "w3"};

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const SpanEvent& event : recorder.snapshot()) {
        // A torn entry would pair one writer's name with another's arg.
        const std::string name = event.name;
        ASSERT_EQ(name.size(), 2u);
        const int writer = name[1] - '0';
        ASSERT_GE(writer, 0);
        ASSERT_LT(writer, kWriters);
        ASSERT_EQ(event.arg % kWriters, writer);
      }
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kPerWriter; ++i) {
        recorder.instant(i, kNames[t], "test", i * kWriters + t);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true);
  reader.join();

  EXPECT_EQ(recorder.total_recorded(),
            static_cast<std::uint64_t>(kWriters) * kPerWriter);
  EXPECT_EQ(recorder.snapshot().size(), recorder.capacity());
}

// Two whole engines run concurrently against the one global flight ring —
// the deployment shape the recorder exists for. Both runs must complete,
// the ring must hold events from the runs, and the dump must still be a
// loadable Chrome trace.
TEST(FlightRecorder, TwoEnginesRecordConcurrentlyAndDumpParses) {
  video::SceneConfig scene;
  scene.width = 192;
  scene.height = 120;
  scene.frame_count = 60;
  scene.seed = 21;
  scene.initial_objects = 3;
  video::SyntheticVideo video_a(scene);
  scene.seed = 22;
  video::SyntheticVideo video_b(scene);
  const adapt::ModelAdapter adapter = core::pretrained_adapter();

  Telemetry::set_enabled(true);
  Telemetry::set_flight_enabled(true);
  Telemetry::instance().reset();

  std::atomic<bool> stop{false};
  std::thread drainer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)flight().snapshot();  // concurrent reads while engines write
      std::this_thread::yield();
    }
  });
  core::RunResult result_a;
  std::thread engine_a([&] {
    core::MpdtOptions options;
    options.adapter = &adapter;
    options.seed = 21;
    result_a = run_mpdt(video_a, options);
  });
  core::OffloadOptions offload;
  offload.seed = 22;
  offload.codec_quality = 40;
  const core::RunResult result_b = run_offload(video_b, offload);
  engine_a.join();
  stop.store(true);
  drainer.join();

  EXPECT_TRUE(result_a.status.ok()) << result_a.status.to_string();
  EXPECT_TRUE(result_b.status.ok()) << result_b.status.to_string();
  EXPECT_GT(flight().total_recorded(), 0u);

  const std::string json = Telemetry::instance().export_flight_json();
  JsonValue doc;
  ASSERT_TRUE(JsonParser(json).parse(doc));
  const JsonValue* events = doc.get("traceEvents");
  ASSERT_NE(events, nullptr);
  std::set<std::string> names;
  for (const JsonValue& event : events->array) {
    if (event.get("ph")->str == "M") continue;
    names.insert(event.get("name")->str);
  }
  EXPECT_FALSE(names.empty());

  Telemetry::instance().reset();
  Telemetry::set_flight_enabled(false);
  Telemetry::set_enabled(false);
}

// ------------------------------------------------------- telemetry gates

TEST(FlightRecorder, FlightOnlySpansRecordWithoutTheTracer) {
  // The flight gate is independent of Telemetry::enabled(): a production
  // run can fly with the black box armed and everything else off.
  Telemetry::set_enabled(false);
  Telemetry::set_flight_enabled(true);
  Telemetry::instance().reset();
  {
    ScopedSpan span("black_box_only", "test");
  }
  flight_instant("marker", "test", 7);
  EXPECT_EQ(tracer().buffered(), 0u);  // the tracer never saw them
  const std::vector<SpanEvent> events = flight().snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].name, "black_box_only");
  EXPECT_STREQ(events[1].name, "marker");
  Telemetry::instance().reset();
  Telemetry::set_flight_enabled(false);
}

TEST(FlightRecorder, DisabledFlightRecordsNothing) {
  Telemetry::set_flight_enabled(false);
  Telemetry::set_enabled(false);
  Telemetry::instance().reset();
  {
    ScopedSpan span("ghost", "test");
  }
  flight_instant("ghost_marker", "test");
  EXPECT_EQ(flight().total_recorded(), 0u);
}

TEST(FlightRecorder, MaybeFlightDumpWritesOnlyWhenArmedAndNonEmpty) {
  // Per-process name: concurrent copies of this binary share TempDir().
  const std::string path = ::testing::TempDir() + "flight_dump_" +
                           std::to_string(::getpid()) + ".json";
  std::remove(path.c_str());
  Telemetry& telemetry = Telemetry::instance();
  Telemetry::set_flight_enabled(true);
  telemetry.reset();
  telemetry.set_flight_dump_path(path);

  // Empty ring: nothing to dump.
  EXPECT_FALSE(telemetry.maybe_flight_dump("worker_failure"));
  EXPECT_FALSE(std::ifstream(path).good());

  flight_instant("fault", "test", 3);
  EXPECT_TRUE(telemetry.maybe_flight_dump("worker_failure"));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string json((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  JsonValue doc;
  ASSERT_TRUE(JsonParser(json).parse(doc));
  // The dump names its trigger as the final instant event.
  bool saw_trigger = false;
  for (const JsonValue& event : doc.get("traceEvents")->array) {
    if (event.get("name")->str == "worker_failure") saw_trigger = true;
  }
  EXPECT_TRUE(saw_trigger);

  // Disarmed: no dump even with events buffered.
  telemetry.set_flight_dump_path("");
  EXPECT_FALSE(telemetry.maybe_flight_dump("worker_failure"));

  telemetry.reset();
  Telemetry::set_flight_enabled(false);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace adavp::obs
