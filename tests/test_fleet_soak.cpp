// Deterministic fleet soak (ISSUE.md satellite 4, labels "concurrency;soak"):
// a fleet with seeded faults on a subset of streams must (a) never deadlock,
// (b) produce a result for every frame of every admitted stream, (c) be
// bit-identical across repeats, and (d) leave the healthy streams' digests
// unperturbed by their faulty neighbors.
//
// Digest isolation only holds for GPU-time-neutral fault kinds — detector
// drop/garbage alter *detections*, camera black/corrupt alter *pixels*, but
// none of them alter latency draws, so the shared FleetGpu's virtual-time
// schedule (and therefore every healthy stream's timing) is identical to an
// all-healthy run. Stall/latency/hiccup faults would perturb the shared
// schedule and are deliberately excluded here.

#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>
#include <vector>

#include "core/fleet.h"
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
constexpr int kFaulty[] = {1, 4};

util::FaultPlan neutral_plan(int which) {
  // GPU-time-neutral by construction: no stall/latency/hiccup rules.
  const char* spec =
      which == 0 ? "detector: drop p=0.1; garbage p=0.05 n=3"
                 : "camera: black every=30; corrupt p=0.08 amp=50";
  const auto plan = util::FaultPlan::parse(spec, 0xFEED + which);
  EXPECT_TRUE(plan.has_value()) << spec;
  return plan.value_or(util::FaultPlan{});
}

std::vector<FleetStreamOptions> soak_fleet(const util::FaultPlan* plans) {
  std::vector<FleetStreamOptions> streams(kStreams);
  for (int i = 0; i < kStreams; ++i) {
    auto& s = streams[static_cast<std::size_t>(i)];
    s.scene.width = 128;
    s.scene.height = 96;
    s.scene.frame_count = 120;
    s.scene.initial_objects = 3;
    s.scene.max_objects = 4;
    s.scene.seed = static_cast<std::uint64_t>(700 + i);
    s.engine.seed = static_cast<std::uint64_t>(8800 + i);
    s.setting = detect::ModelSetting::kYolov3Tiny_320;
    s.cadence_ms = 400.0;
    s.deadline_ms = 900.0;
    // Fleet streams do not degrade on faults: their GPU request pattern
    // stays on the cadence lattice, so a faulted stream cannot perturb the
    // shared schedule — the digest-isolation claim below relies on it.
  }
  if (plans != nullptr) {
    streams[kFaulty[0]].engine.fault_plan = &plans[0];
    streams[kFaulty[1]].engine.fault_plan = &plans[1];
  }
  return streams;
}

bool is_faulty(int id) { return id == kFaulty[0] || id == kFaulty[1]; }

TEST(FleetSoak, FaultedFleetCompletesDeterministicallyWithDigestIsolation) {
  const util::FaultPlan plans[2] = {neutral_plan(0), neutral_plan(1)};
  FleetOptions options;
  options.gpu.max_batch = 4;

  const FleetResult healthy = run_fleet(soak_fleet(nullptr), options);
  const FleetResult faulted = run_fleet(soak_fleet(plans), options);
  const FleetResult repeat = run_fleet(soak_fleet(plans), options);

  ASSERT_EQ(faulted.streams.size(), static_cast<std::size_t>(kStreams));
  ASSERT_EQ(faulted.admitted + faulted.degraded, kStreams);

  for (int i = 0; i < kStreams; ++i) {
    const FleetStreamResult& s = faulted.streams[static_cast<std::size_t>(i)];
    // (a)+(b): the run finished (joining run_fleet proves no deadlock) and
    // every frame carries a result.
    ASSERT_EQ(s.run.frames.size(), 120u) << s.name;
    for (const FrameResult& f : s.run.frames) {
      EXPECT_NE(f.source, ResultSource::kNone) << s.name;
    }
    // (c): bit-identical across repeats, faults included.
    EXPECT_EQ(digest_run(s.run),
              digest_run(repeat.streams[static_cast<std::size_t>(i)].run))
        << s.name;
    if (is_faulty(i)) {
      EXPECT_FALSE(s.run.status.ok()) << s.name;
      EXPECT_GT(s.run.faults_injected, 0u) << s.name;
    } else {
      // (d): a healthy stream cannot tell its neighbors were faulted —
      // its entire observable run matches the all-healthy fleet.
      EXPECT_TRUE(s.run.status.ok()) << s.run.status.to_string();
      EXPECT_EQ(s.run.faults_injected, 0u) << s.name;
      EXPECT_EQ(digest_run(s.run),
                digest_run(healthy.streams[static_cast<std::size_t>(i)].run))
          << s.name;
    }
  }
  EXPECT_FALSE(faulted.status.ok());
  EXPECT_FALSE(faulted.status.failed());  // degraded, not dead
}

TEST(FleetSoak, DeterministicWithBatchingDisabled) {
  const util::FaultPlan plans[2] = {neutral_plan(0), neutral_plan(1)};
  FleetOptions options;
  options.gpu.max_batch = 1;  // batch of one is bit-identical to solo grants
  const FleetResult a = run_fleet(soak_fleet(plans), options);
  const FleetResult b = run_fleet(soak_fleet(plans), options);
  ASSERT_EQ(a.streams.size(), b.streams.size());
  for (std::size_t i = 0; i < a.streams.size(); ++i) {
    EXPECT_EQ(digest_run(a.streams[i].run), digest_run(b.streams[i].run));
  }
  EXPECT_EQ(a.gpu.batches, a.gpu.requests);  // max_batch=1 => no coalescing
}

}  // namespace
}  // namespace adavp::core
