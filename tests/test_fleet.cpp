// Fleet engine unit suite (DESIGN.md §13): the shared FleetGpu's
// conservative virtual-time scheduling (EDF + aging + batching), the
// admission controller's degrade-then-reject ladder, and whole-fleet
// determinism. The soak lives in tests/test_fleet_soak.cpp.

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "core/fleet.h"
#include "detect/latency_model.h"
#include "util/fault_plan.h"

namespace adavp::core {
namespace {

using detect::ModelSetting;

// --- FleetGpu -----------------------------------------------------------

TEST(FleetGpu, SoloGrantIsBitIdenticalToSoloLatency) {
  FleetGpu gpu({.max_batch = 4}, /*stream_count=*/1);
  const FleetGpu::Grant grant = gpu.submit(
      {0, 0, ModelSetting::kYolov3Tiny_320, 10.0, 1010.0, 55.5});
  EXPECT_EQ(grant.start_ms, 10.0);
  EXPECT_EQ(grant.complete_ms, 10.0 + 55.5);  // batch_scale(1) == 1.0 exactly
  EXPECT_EQ(grant.batch_size, 1);
  EXPECT_EQ(grant.service_share_ms, 55.5);
  EXPECT_EQ(grant.queue_wait_ms, 0.0);
  gpu.finished(0);
}

TEST(FleetGpu, BackToBackRequestsQueueBehindGpuFree) {
  FleetGpu gpu({.max_batch = 4}, 1);
  const FleetGpu::Grant first = gpu.submit(
      {0, 0, ModelSetting::kYolov3Tiny_320, 0.0, 1000.0, 100.0});
  EXPECT_EQ(first.complete_ms, 100.0);
  // Submitted at t=20 while the GPU is busy until 100: waits 80.
  const FleetGpu::Grant second = gpu.submit(
      {0, 1, ModelSetting::kYolov3Tiny_320, 20.0, 1020.0, 100.0});
  EXPECT_EQ(second.start_ms, 100.0);
  EXPECT_EQ(second.queue_wait_ms, 80.0);
  gpu.finished(0);
}

TEST(FleetGpu, SameSettingSimultaneousRequestsBatchWithAmortization) {
  FleetGpu gpu({.max_batch = 4}, 2);
  FleetGpu::Grant a, b;
  std::thread ta([&] {
    a = gpu.submit({0, 0, ModelSetting::kYolov3Tiny_320, 0.0, 500.0, 50.0});
    gpu.finished(0);
  });
  std::thread tb([&] {
    b = gpu.submit({1, 0, ModelSetting::kYolov3Tiny_320, 0.0, 600.0, 60.0});
    gpu.finished(1);
  });
  ta.join();
  tb.join();
  const double service = 60.0 * detect::LatencyModel::batch_scale(2);
  EXPECT_EQ(a.batch_size, 2);
  EXPECT_EQ(b.batch_size, 2);
  EXPECT_DOUBLE_EQ(a.complete_ms, service);
  EXPECT_DOUBLE_EQ(b.complete_ms, service);
  EXPECT_DOUBLE_EQ(a.service_share_ms, service / 2.0);
  EXPECT_LT(service, 50.0 + 60.0);  // cheaper than running them back to back

  const FleetGpuStats stats = gpu.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.max_batch_seen, 2);
  EXPECT_GT(stats.amortization_saved_ms, 0.0);
}

TEST(FleetGpu, DifferentSettingsNeverShareABatch) {
  FleetGpu gpu({.max_batch = 4}, 2);
  FleetGpu::Grant a, b;
  std::thread ta([&] {
    a = gpu.submit({0, 0, ModelSetting::kYolov3Tiny_320, 0.0, 500.0, 50.0});
    gpu.finished(0);
  });
  std::thread tb([&] {
    b = gpu.submit({1, 0, ModelSetting::kYolov3_320, 0.0, 400.0, 230.0});
    gpu.finished(1);
  });
  ta.join();
  tb.join();
  EXPECT_EQ(a.batch_size, 1);
  EXPECT_EQ(b.batch_size, 1);
  // EDF: the 320 request's deadline (400) beats tiny's (500), so it runs
  // first and tiny queues behind it — regardless of thread scheduling.
  EXPECT_EQ(b.start_ms, 0.0);
  EXPECT_EQ(a.start_ms, 230.0);
  EXPECT_EQ(a.queue_wait_ms, 230.0);
}

TEST(FleetGpu, AgingPreventsStarvationOfLaxDeadlines) {
  // Stream 1 keeps the GPU saturated with tight-deadline requests; stream
  // 0's single lax-deadline request must still run long before the fresh
  // deadlines would allow under pure EDF. With aging_factor=2 its priority
  // key (2000 - 2*wait) crosses a fresh key (~t + 100) near t ~ 633.
  FleetGpu gpu({.max_batch = 1, .aging_factor = 2.0}, 2);
  FleetGpu::Grant lax;
  std::thread ta([&] {
    lax = gpu.submit({0, 0, ModelSetting::kYolov3Tiny_320, 0.0, 2000.0, 100.0});
    gpu.finished(0);
  });
  std::thread tb([&] {
    double t = 0.0;
    for (int i = 0; i < 12; ++i) {
      const FleetGpu::Grant g = gpu.submit(
          {1, i, ModelSetting::kYolov3Tiny_320, t, t + 100.0, 100.0});
      t = g.complete_ms;
    }
    gpu.finished(1);
  });
  ta.join();
  tb.join();
  EXPECT_GE(lax.start_ms, 500.0);   // it did yield to tighter deadlines...
  EXPECT_LE(lax.start_ms, 900.0);   // ...but aging kicked in well before
  EXPECT_LE(lax.complete_ms, 1000.0);  // 12 tight cycles would end at 1200+
}

TEST(FleetGpu, HangBillsTheVictimButNotTheSharedSchedule) {
  // `gpu: hang at=0` wedges dispatch 0's first attempt: the watchdog
  // cancels it after hang_budget_ms and the retry lands, so the member
  // completes one budget late — but gpu_free advances by the un-faulted
  // service only (the recovery lane), so dispatch 1 is bit-identical to
  // an all-healthy schedule.
  const auto plan = util::FaultPlan::parse("gpu: hang at=0", 99);
  ASSERT_TRUE(plan.has_value());
  FleetGpu gpu({.max_batch = 4, .hang_budget_ms = 250.0, .retry_budget = 2},
               /*stream_count=*/1, plan->channel("gpu"));
  const FleetGpu::Grant first = gpu.submit(
      {0, 0, ModelSetting::kYolov3Tiny_320, 0.0, 1000.0, 100.0});
  EXPECT_EQ(first.hangs, 1);
  EXPECT_EQ(first.retries, 1);
  EXPECT_FALSE(first.failed);
  EXPECT_DOUBLE_EQ(first.complete_ms, 250.0 + 100.0);
  EXPECT_DOUBLE_EQ(first.service_share_ms, 100.0 + 250.0);
  // The shared lane ignored the hang: a request submitted at t=20 starts
  // at 100 (behind the clean service), exactly as with no fault plan.
  const FleetGpu::Grant second = gpu.submit(
      {0, 1, ModelSetting::kYolov3Tiny_320, 20.0, 1020.0, 100.0});
  EXPECT_EQ(second.hangs, 0);
  EXPECT_EQ(second.start_ms, 100.0);
  gpu.finished(0);

  const FleetGpuStats stats = gpu.stats();
  EXPECT_EQ(stats.hangs, 1u);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.failed_dispatches, 0u);
  EXPECT_DOUBLE_EQ(stats.recovery_ms, 250.0);
}

TEST(FleetGpu, WedgeExhaustsTheRetryBudgetAndFailsTheDispatch) {
  // `wedge` burns retry_budget+1 attempts at once: the dispatch fails
  // outright, the victim is billed retry_budget+1 watchdog budgets and no
  // service, and the grant comes back failed so the caller coasts.
  const auto plan = util::FaultPlan::parse("gpu: wedge at=0", 99);
  ASSERT_TRUE(plan.has_value());
  FleetGpu gpu({.max_batch = 4, .hang_budget_ms = 250.0, .retry_budget = 2},
               1, plan->channel("gpu"));
  const FleetGpu::Grant grant = gpu.submit(
      {0, 0, ModelSetting::kYolov3Tiny_320, 0.0, 1000.0, 100.0});
  EXPECT_TRUE(grant.failed);
  EXPECT_EQ(grant.hangs, 3);    // 1 + retry_budget attempts, all cancelled
  EXPECT_EQ(grant.retries, 2);  // retry_budget re-enqueues were burned
  EXPECT_DOUBLE_EQ(grant.complete_ms, 3 * 250.0);  // budgets only, no service
  gpu.finished(0);
  const FleetGpuStats stats = gpu.stats();
  EXPECT_EQ(stats.failed_dispatches, 1u);
  EXPECT_EQ(stats.hangs, 3u);
}

// --- lookahead ----------------------------------------------------------
//
// Scripted streams drive FleetGpu's dispatch rule directly: the test
// thread plays the running stream (promise / finished), std::async plays
// the parked ones. A dispatch the rule should allow must happen while the
// running stream is still running; one it should hold must not happen
// until that stream parks or finishes.

using namespace std::chrono_literals;

template <typename T>
bool ready_within(const std::future<T>& f, std::chrono::milliseconds ms) {
  return f.wait_for(ms) == std::future_status::ready;
}

TEST(FleetGpuLookahead, DispatchesWhileAStreamPromisedBeyondStartRuns) {
  FleetGpu gpu({.max_batch = 4}, /*stream_count=*/2);
  gpu.promise(1, 1000.0);  // stream 1 runs: no GPU event before t=1000
  auto a = std::async(std::launch::async, [&] {
    return gpu.submit({0, 0, ModelSetting::kYolov3Tiny_320, 0.0, 500.0, 50.0});
  });
  const bool dispatched_while_running = ready_within(a, 10s);
  // Stream 1 parks at its promise.
  auto b = std::async(std::launch::async, [&] {
    return gpu.submit(
        {1, 0, ModelSetting::kYolov3Tiny_320, 1000.0, 1500.0, 50.0});
  });
  EXPECT_TRUE(dispatched_while_running);
  const FleetGpu::Grant ga = a.get();
  gpu.finished(0);
  const FleetGpu::Grant gb = b.get();
  gpu.finished(1);
  EXPECT_EQ(ga.start_ms, 0.0);
  EXPECT_EQ(ga.batch_size, 1);
  EXPECT_EQ(gb.start_ms, 1000.0);
  EXPECT_TRUE(ga.status.ok());
  EXPECT_TRUE(gb.status.ok());
  const FleetGpuStats stats = gpu.stats();
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.lookahead_dispatches, 1u);
}

TEST(FleetGpuLookahead, PromiseAtOrBeforeStartHoldsTheDispatch) {
  FleetGpu gpu({.max_batch = 4}, 2);
  gpu.promise(1, 0.0);  // not beyond start = 0: stream 1 may still join
  auto a = std::async(std::launch::async, [&] {
    return gpu.submit({0, 0, ModelSetting::kYolov3Tiny_320, 0.0, 500.0, 50.0});
  });
  EXPECT_FALSE(ready_within(a, 200ms));
  // Stream 1 parks with a request at t=0: it belongs in the same batch,
  // which is exactly what holding the dispatch protected.
  auto b = std::async(std::launch::async, [&] {
    return gpu.submit({1, 0, ModelSetting::kYolov3Tiny_320, 0.0, 600.0, 60.0});
  });
  const FleetGpu::Grant ga = a.get();
  gpu.finished(0);
  const FleetGpu::Grant gb = b.get();
  gpu.finished(1);
  EXPECT_EQ(ga.batch_size, 2);
  EXPECT_EQ(gb.batch_size, 2);
  EXPECT_EQ(gpu.stats().lookahead_dispatches, 0u);
}

TEST(FleetGpuLookahead, PendingProbeFallsBackToAllParked) {
  FleetGpu gpu({.max_batch = 4}, 3);
  gpu.set_admission_ledger(1.0, 0.0);
  gpu.promise(2, 1000.0);  // beyond both the batch start and the probe
  auto probe = std::async(std::launch::async,
                          [&] { return gpu.probe(1, 500.0, 0.1); });
  auto a = std::async(std::launch::async, [&] {
    return gpu.submit({0, 0, ModelSetting::kYolov3Tiny_320, 0.0, 500.0, 50.0});
  });
  // Stream 2 could still release duty below t=500: nothing may act.
  EXPECT_FALSE(ready_within(a, 200ms));
  EXPECT_FALSE(ready_within(probe, 0ms));
  gpu.finished(2);
  const FleetGpu::Grant ga = a.get();  // start 0 precedes the probe at 500
  gpu.finished(0);
  const FleetGpu::ProbeResult pr = probe.get();
  gpu.finished(1);
  EXPECT_EQ(ga.start_ms, 0.0);
  EXPECT_TRUE(pr.status.ok());
  EXPECT_TRUE(pr.admitted);
  EXPECT_EQ(pr.at_ms, 500.0);
  EXPECT_EQ(gpu.stats().lookahead_dispatches, 0u);
}

TEST(FleetGpuLookahead, BrokenPromiseFailsTheStreamInsteadOfQueueing) {
  FleetGpu gpu({.max_batch = 4}, 1);
  gpu.set_admission_ledger(1.0, 0.0);
  gpu.promise(0, 100.0);
  const FleetGpu::Grant early = gpu.submit(
      {0, 7, ModelSetting::kYolov3Tiny_320, 99.0, 1000.0, 50.0});
  EXPECT_TRUE(early.status.failed());
  EXPECT_NE(early.status.message().find("fleet@frame 7:"), std::string::npos)
      << early.status.message();
  EXPECT_NE(early.status.message().find("promise"), std::string::npos);

  gpu.promise(0, 100.0);
  const FleetGpu::ProbeResult probe = gpu.probe(0, 50.0, 0.1);
  EXPECT_TRUE(probe.status.failed());
  EXPECT_FALSE(probe.admitted);

  // Neither event reached the schedule; a kept promise is served normally.
  gpu.promise(0, 100.0);
  const FleetGpu::Grant kept = gpu.submit(
      {0, 8, ModelSetting::kYolov3Tiny_320, 100.0, 1000.0, 50.0});
  EXPECT_TRUE(kept.status.ok());
  EXPECT_EQ(kept.start_ms, 100.0);
  gpu.finished(0);
  const FleetGpuStats stats = gpu.stats();
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.probes, 0u);
}

// --- admission control --------------------------------------------------

video::SceneConfig small_scene(std::uint64_t seed, int frames = 60) {
  video::SceneConfig scene;
  scene.width = 128;
  scene.height = 96;
  scene.frame_count = frames;
  scene.initial_objects = 3;
  scene.max_objects = 4;
  scene.seed = seed;
  return scene;
}

TEST(FleetAdmission, DegradesThenRejectsWhenOverSubscribed) {
  std::vector<FleetStreamOptions> streams(4);
  for (std::size_t i = 0; i < streams.size(); ++i) {
    streams[i].scene = small_scene(100 + i);
    streams[i].engine.seed = 9000 + i;
    streams[i].setting = ModelSetting::kYolov3_608;  // 500 ms mean
    streams[i].cadence_ms = 100.0;                   // duty 5.0 each
    streams[i].deadline_ms = 1500.0;
  }
  const FleetResult fleet = run_fleet(streams);
  EXPECT_EQ(fleet.admitted, 0);
  EXPECT_GE(fleet.degraded, 2);
  EXPECT_GE(fleet.rejected, 1);
  for (const FleetStreamResult& s : fleet.streams) {
    if (s.admission == AdmissionDecision::kRejected) {
      EXPECT_TRUE(s.run.frames.empty());
      continue;
    }
    // Degraded streams got a cheaper setting and/or a stretched cadence...
    const bool cheaper =
        detect::LatencyModel::mean_latency_ms(s.granted_setting) <
        detect::LatencyModel::mean_latency_ms(ModelSetting::kYolov3_608);
    const bool stretched = s.granted_cadence_ms > 100.0;
    EXPECT_TRUE(cheaper || stretched) << s.name;
    // ...and still produced a result for every frame.
    for (const FrameResult& f : s.run.frames) {
      EXPECT_NE(f.source, ResultSource::kNone) << s.name;
    }
  }
}

TEST(FleetAdmission, RejectInsteadOfDegradeWhenDisabled) {
  std::vector<FleetStreamOptions> streams(2);
  for (std::size_t i = 0; i < streams.size(); ++i) {
    streams[i].scene = small_scene(200 + i);
    streams[i].setting = ModelSetting::kYolov3_608;
    streams[i].cadence_ms = 100.0;
  }
  FleetOptions options;
  options.admission.allow_degrade = false;
  const FleetResult fleet = run_fleet(streams, options);
  EXPECT_EQ(fleet.admitted, 0);
  EXPECT_EQ(fleet.degraded, 0);
  EXPECT_EQ(fleet.rejected, 2);
}

// --- whole-fleet behavior ----------------------------------------------

// FNV-1a over every observable field of a RunResult, the same digest
// construction test_engine_equivalence.cpp pins golden engines with.
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

std::vector<FleetStreamOptions> fleet_of(int n, int frames = 90) {
  std::vector<FleetStreamOptions> streams(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto& s = streams[static_cast<std::size_t>(i)];
    s.scene = small_scene(static_cast<std::uint64_t>(300 + i), frames);
    s.engine.seed = static_cast<std::uint64_t>(5000 + i);
    s.setting = ModelSetting::kYolov3Tiny_320;
    s.cadence_ms = 400.0;
    s.deadline_ms = 800.0;
  }
  return streams;
}

TEST(Fleet, SingleStreamFleetCompletesEveryFrame) {
  const FleetResult fleet = run_fleet(fleet_of(1));
  ASSERT_EQ(fleet.streams.size(), 1u);
  const FleetStreamResult& s = fleet.streams[0];
  EXPECT_EQ(s.admission, AdmissionDecision::kAdmitted);
  EXPECT_TRUE(s.run.status.ok()) << s.run.status.to_string();
  ASSERT_EQ(s.run.frames.size(), 90u);
  for (const FrameResult& f : s.run.frames) {
    EXPECT_NE(f.source, ResultSource::kNone);
  }
  EXPECT_GT(s.queue.detections, 1u);
  EXPECT_GT(fleet.aggregate_fps, 0.0);
  EXPECT_GT(s.latency_p99_ms, 0.0);
  EXPECT_GE(s.latency_p99_ms, s.latency_p50_ms);
}

TEST(Fleet, DeterministicAcrossRepeatsAtBatchOneAndFour) {
  for (int max_batch : {1, 4}) {
    FleetOptions options;
    options.gpu.max_batch = max_batch;
    const FleetResult a = run_fleet(fleet_of(4), options);
    const FleetResult b = run_fleet(fleet_of(4), options);
    ASSERT_EQ(a.streams.size(), b.streams.size());
    for (std::size_t i = 0; i < a.streams.size(); ++i) {
      EXPECT_EQ(digest_run(a.streams[i].run), digest_run(b.streams[i].run))
          << "stream " << i << " max_batch " << max_batch;
      EXPECT_EQ(a.streams[i].queue.detections, b.streams[i].queue.detections);
    }
    EXPECT_EQ(a.gpu.batches, b.gpu.batches);
    EXPECT_DOUBLE_EQ(a.makespan_ms, b.makespan_ms);
  }
}

/// Digest of fleet_of(4)'s streams under the all-parked rule, before the
/// fleet had lookahead.
constexpr std::uint64_t kGoldenFleetOf4 = 0x3FC0A1E56155164EULL;

TEST(Fleet, LookaheadRunsStreamsInParallelWithAnUnchangedDigest) {
  // Healthy streams promise their next event after every grant, so the GPU
  // dispatches while they track; the schedule, and so the digest, must
  // not depend on how the OS interleaved them.
  for (int repeat = 0; repeat < 10; ++repeat) {
    const FleetResult fleet = run_fleet(fleet_of(4));
    EXPECT_GT(fleet.gpu.lookahead_dispatches, 0u) << "repeat " << repeat;
    Digest digest;
    for (const FleetStreamResult& s : fleet.streams) {
      EXPECT_TRUE(s.run.status.ok()) << s.name;
      digest.pod(digest_run(s.run));
    }
    EXPECT_EQ(digest.value(), kGoldenFleetOf4)
        << "repeat " << repeat << " digest 0x" << std::hex << digest.value();
  }
}

TEST(Fleet, BatchingActuallyCoalesces) {
  // Zero stagger puts every stream's cadence in phase, so same-setting
  // requests collide at the queue and must form real batches.
  FleetOptions options;
  options.gpu.max_batch = 4;
  options.stagger_ms = 0.0;
  const FleetResult fleet = run_fleet(fleet_of(4), options);
  EXPECT_GT(fleet.gpu.requests, 0u);
  EXPECT_GT(fleet.gpu.max_batch_seen, 1);
  EXPECT_GT(fleet.gpu.amortization_saved_ms, 0.0);
  std::uint64_t batched = 0;
  for (const FleetStreamResult& s : fleet.streams) batched += s.queue.batched;
  EXPECT_GT(batched, 0u);
}

TEST(Fleet, ConsolidationBeatsSequentialInPipelineTime) {
  // 4 concurrent streams through one GPU vs the same 4 run one at a time:
  // the cadenced detector leaves the GPU mostly idle per stream, so the
  // fleet's makespan stays near one stream's duration.
  const std::vector<FleetStreamOptions> streams = fleet_of(4);
  const FleetResult fleet = run_fleet(streams);
  double sequential_ms = 0.0;
  for (const FleetStreamOptions& s : streams) {
    const FleetResult solo = run_fleet({s});
    sequential_ms += solo.streams[0].run.timeline_ms;
  }
  EXPECT_GT(sequential_ms / fleet.makespan_ms, 2.0);
}

}  // namespace
}  // namespace adavp::core
