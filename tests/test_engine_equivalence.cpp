// Engine-runtime equivalence suite (DESIGN.md "Engine runtime").
//
// Two guarantees pin the core::EngineRuntime refactor:
//
//  1. No-fault equivalence: with no FaultPlan attached, every virtual-time
//     engine (MPDT fixed + adaptive, MARLIN, detect-only, continuous,
//     offload) produces a RunResult byte-identical to pre-refactor main.
//     The golden digests below were captured on main immediately before
//     the engines were rebased onto the shared runtime; they hash every
//     observable field (frames, boxes, cycles, energy rails, timeline,
//     frame-store counters), so any drift in scheduling, RNG consumption
//     order, or energy integration shows up as a digest change. The
//     constants are tied to this repo's pinned toolchain (bit-exact fp
//     paths only; never build the suite with ADAVP_NATIVE/-ffast-math).
//
//  2. Fault determinism: a seeded fault-injected run (detector + camera +
//     tracker channels) replays bit-identically across repeats and across
//     vision-kernel thread counts, on MPDT and on a baseline; and every
//     engine (detect-only, continuous, MPDT fixed + AdaVP, MARLIN,
//     offload) matches a chaos golden under that seeded plan.
//
// The goldens are the contract of the core::graph engine specs
// (DESIGN.md §16): the canonical FNV-1a digest lives in run_result_digest.h.

#include <gtest/gtest.h>

#include <cstring>

#include "core/baselines.h"
#include "core/mpdt_pipeline.h"
#include "core/offload.h"
#include "core/training.h"
#include "run_result_digest.h"
#include "util/fault_plan.h"

namespace adavp::core {
namespace {

video::SceneConfig equivalence_scene() {
  video::SceneConfig cfg;
  cfg.name = "equivalence";
  cfg.width = 256;
  cfg.height = 160;
  cfg.frame_count = 150;
  cfg.seed = 2026;
  cfg.initial_objects = 4;
  cfg.max_objects = 6;
  cfg.speed_mean = 1.4;
  cfg.camera_pan = 0.6;
  return cfg;
}

constexpr std::uint64_t kSeed = 421;

// Golden digests captured on pre-refactor main (commit d3e9c35) with the
// scene/seed above. See the file header for what they pin.
constexpr std::uint64_t kGoldenMpdtFixed = 0x0975398FE96C514AULL;
constexpr std::uint64_t kGoldenAdaVp = 0xEB93E1EA8F64D435ULL;
constexpr std::uint64_t kGoldenMarlin = 0x8E0E0AB885F98675ULL;
constexpr std::uint64_t kGoldenDetectOnly = 0xBC80F62B1DCAE23AULL;
constexpr std::uint64_t kGoldenContinuous = 0x024819104023FCA6ULL;
constexpr std::uint64_t kGoldenOffload = 0x7737814F9586AFAEULL;

TEST(EngineEquivalence, MpdtFixedMatchesPreRefactorMain) {
  const video::SyntheticVideo video(equivalence_scene());
  MpdtOptions options;
  options.setting = detect::ModelSetting::kYolov3_512;
  options.seed = kSeed;
  const RunResult run = run_mpdt(video, options);
  EXPECT_EQ(digest_run(run), kGoldenMpdtFixed)
      << "digest 0x" << std::hex << digest_run(run);
}

TEST(EngineEquivalence, AdaVpMatchesPreRefactorMain) {
  const video::SyntheticVideo video(equivalence_scene());
  const adapt::ModelAdapter adapter = pretrained_adapter();
  MpdtOptions options;
  options.adapter = &adapter;
  options.seed = kSeed;
  const RunResult run = run_mpdt(video, options);
  EXPECT_EQ(digest_run(run), kGoldenAdaVp)
      << "digest 0x" << std::hex << digest_run(run);
}

TEST(EngineEquivalence, MarlinMatchesPreRefactorMain) {
  const video::SyntheticVideo video(equivalence_scene());
  MarlinOptions options;
  options.seed = kSeed;
  const RunResult run = run_marlin(video, options);
  EXPECT_EQ(digest_run(run), kGoldenMarlin)
      << "digest 0x" << std::hex << digest_run(run);
}

TEST(EngineEquivalence, DetectOnlyMatchesPreRefactorMain) {
  const video::SyntheticVideo video(equivalence_scene());
  DetectOnlyOptions options;
  options.seed = kSeed;
  const RunResult run = run_detect_only(video, options);
  EXPECT_EQ(digest_run(run), kGoldenDetectOnly)
      << "digest 0x" << std::hex << digest_run(run);
}

TEST(EngineEquivalence, ContinuousMatchesPreRefactorMain) {
  const video::SyntheticVideo video(equivalence_scene());
  DetectOnlyOptions options;
  options.seed = kSeed;
  const RunResult run = run_continuous(video, options);
  EXPECT_EQ(digest_run(run), kGoldenContinuous)
      << "digest 0x" << std::hex << digest_run(run);
}

TEST(EngineEquivalence, OffloadMatchesPreRefactorMain) {
  const video::SyntheticVideo video(equivalence_scene());
  OffloadOptions options;
  options.seed = kSeed;
  const RunResult run = run_offload(video, options);
  EXPECT_EQ(digest_run(run), kGoldenOffload)
      << "digest 0x" << std::hex << digest_run(run);
}

TEST(EngineEquivalence, NoFaultPlanMeansOkStatusAndZeroFaults) {
  const video::SyntheticVideo video(equivalence_scene());
  MpdtOptions options;
  options.seed = kSeed;
  const RunResult run = run_mpdt(video, options);
  EXPECT_TRUE(run.status.ok()) << run.status.to_string();
  EXPECT_EQ(run.faults_injected, 0u);
}

// --- Fault determinism (guarantee 2) -------------------------------------

// All three channels at once: detector latency inflation + a garbage
// payload, camera pixel glitches + a capture hiccup, and tracker
// starvation / divergence / NaN-flow. `every=9` fires at frame 0 too, so
// at least one fault is guaranteed on every engine.
constexpr const char* kChaosSpec =
    "detector: latency every=9 x=2.5; garbage at=40 n=4 | "
    "camera: black at=25; corrupt every=47 amp=90; hiccup every=31 ms=45 | "
    "tracker: starve every=17 frac=0.4; diverge at=33 px=6; nan at=57";

util::FaultPlan chaos_plan() {
  std::string error;
  const auto plan = util::FaultPlan::parse(kChaosSpec, 9, &error);
  EXPECT_TRUE(plan.has_value()) << error;
  return *plan;
}

// Chaos goldens: the graph-backed engines under the plan above, captured
// while the retired hand-written loops still ran alongside the graphs and
// both produced these exact digests and fault counts. They pin the
// fault-billing interleave (which node consumes which fault draw, in what
// order) that the fault-free goldens cannot see. MARLIN's and offload's
// were captured on their hand-written loops just before those became
// graph specs.
constexpr std::uint64_t kGoldenChaosDetectOnly = 0xABDD10B822E68443ULL;
constexpr std::uint64_t kGoldenChaosContinuous = 0xD821D21110DCD441ULL;
constexpr std::uint64_t kGoldenChaosMpdtFixed = 0x2FEDB10F7F1021EBULL;
constexpr std::uint64_t kGoldenChaosAdaVp = 0xB8A4C286373F8445ULL;
constexpr std::uint64_t kGoldenChaosMarlin = 0x9AD507C8A43B054FULL;
constexpr std::uint64_t kGoldenChaosOffload = 0x804E840DDB892C7AULL;
constexpr std::uint64_t kChaosFaultsDetectOnly = 3;
constexpr std::uint64_t kChaosFaultsContinuous = 23;
constexpr std::uint64_t kChaosFaultsMpdtFixed = 6;
constexpr std::uint64_t kChaosFaultsAdaVp = 8;
constexpr std::uint64_t kChaosFaultsMarlin = 7;
constexpr std::uint64_t kChaosFaultsOffload = 12;

void expect_chaos_golden(const RunResult& run, std::uint64_t golden,
                         std::uint64_t faults) {
  EXPECT_FALSE(run.status.failed()) << run.status.to_string();
  EXPECT_EQ(digest_run(run), golden)
      << "digest 0x" << std::hex << digest_run(run);
  EXPECT_EQ(run.faults_injected, faults);
}

TEST(EngineChaosGoldens, DetectOnly) {
  const video::SyntheticVideo video(equivalence_scene());
  const util::FaultPlan plan = chaos_plan();
  DetectOnlyOptions options;
  options.seed = kSeed;
  options.fault_plan = &plan;
  expect_chaos_golden(run_detect_only(video, options), kGoldenChaosDetectOnly,
                      kChaosFaultsDetectOnly);
}

TEST(EngineChaosGoldens, Continuous) {
  const video::SyntheticVideo video(equivalence_scene());
  const util::FaultPlan plan = chaos_plan();
  DetectOnlyOptions options;
  options.seed = kSeed;
  options.fault_plan = &plan;
  expect_chaos_golden(run_continuous(video, options), kGoldenChaosContinuous,
                      kChaosFaultsContinuous);
}

TEST(EngineChaosGoldens, MpdtFixed) {
  const video::SyntheticVideo video(equivalence_scene());
  const util::FaultPlan plan = chaos_plan();
  MpdtOptions options;
  options.setting = detect::ModelSetting::kYolov3_512;
  options.seed = kSeed;
  options.fault_plan = &plan;
  expect_chaos_golden(run_mpdt(video, options), kGoldenChaosMpdtFixed,
                      kChaosFaultsMpdtFixed);
}

TEST(EngineChaosGoldens, AdaVp) {
  const video::SyntheticVideo video(equivalence_scene());
  const util::FaultPlan plan = chaos_plan();
  const adapt::ModelAdapter adapter = pretrained_adapter();
  MpdtOptions options;
  options.adapter = &adapter;
  options.seed = kSeed;
  options.fault_plan = &plan;
  expect_chaos_golden(run_mpdt(video, options), kGoldenChaosAdaVp,
                      kChaosFaultsAdaVp);
}

TEST(EngineChaosGoldens, Marlin) {
  const video::SyntheticVideo video(equivalence_scene());
  const util::FaultPlan plan = chaos_plan();
  MarlinOptions options;
  options.seed = kSeed;
  options.fault_plan = &plan;
  expect_chaos_golden(run_marlin(video, options), kGoldenChaosMarlin,
                      kChaosFaultsMarlin);
}

TEST(EngineChaosGoldens, Offload) {
  const video::SyntheticVideo video(equivalence_scene());
  const util::FaultPlan plan = chaos_plan();
  OffloadOptions options;
  options.seed = kSeed;
  options.fault_plan = &plan;
  expect_chaos_golden(run_offload(video, options), kGoldenChaosOffload,
                      kChaosFaultsOffload);
}

TEST(EngineFaults, MpdtFaultReplayIsBitIdenticalAcrossRepeats) {
  const video::SyntheticVideo video(equivalence_scene());
  const util::FaultPlan plan = chaos_plan();
  MpdtOptions options;
  options.seed = kSeed;
  options.fault_plan = &plan;
  const RunResult a = run_mpdt(video, options);
  const RunResult b = run_mpdt(video, options);
  EXPECT_EQ(digest_run(a), digest_run(b));
  EXPECT_GT(a.faults_injected, 0u);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.status.code(), util::StatusCode::kDegraded)
      << a.status.to_string();
  // And the injected faults really changed the run.
  MpdtOptions clean = options;
  clean.fault_plan = nullptr;
  EXPECT_NE(digest_run(a), digest_run(run_mpdt(video, clean)));
}

TEST(EngineFaults, MpdtFaultReplayIsBitIdenticalAcrossKernelThreadCounts) {
  const video::SyntheticVideo video(equivalence_scene());
  const util::FaultPlan plan = chaos_plan();
  MpdtOptions options;
  options.seed = kSeed;
  options.fault_plan = &plan;
  options.tracker.kernels.num_threads = 1;
  const RunResult serial = run_mpdt(video, options);
  options.tracker.kernels.num_threads = 3;
  const RunResult parallel = run_mpdt(video, options);
  EXPECT_EQ(digest_run(serial), digest_run(parallel));
  EXPECT_EQ(serial.faults_injected, parallel.faults_injected);
}

TEST(EngineFaults, MarlinAcceptsTheSamePlanAndReplaysBitIdentically) {
  const video::SyntheticVideo video(equivalence_scene());
  const util::FaultPlan plan = chaos_plan();
  MarlinOptions options;
  options.seed = kSeed;
  options.fault_plan = &plan;
  const RunResult a = run_marlin(video, options);
  const RunResult b = run_marlin(video, options);
  EXPECT_EQ(digest_run(a), digest_run(b));
  EXPECT_GT(a.faults_injected, 0u);
  EXPECT_EQ(a.status.code(), util::StatusCode::kDegraded)
      << a.status.to_string();
}

void expect_worker_failure(const RunResult& run, const std::string& engine,
                           int frame_count) {
  EXPECT_EQ(run.status.code(), util::StatusCode::kWorkerFailure)
      << run.status.to_string();
  EXPECT_TRUE(run.status.failed());
  EXPECT_NE(run.status.message().find(engine + " engine"), std::string::npos)
      << run.status.message();
  // The graph names the node that threw.
  EXPECT_NE(run.status.message().find("detector"), std::string::npos)
      << run.status.message();
  // The partial result is still well-formed.
  EXPECT_EQ(run.frames.size(), static_cast<std::size_t>(frame_count));
}

TEST(EngineFaults, InjectedThrowBecomesWorkerFailureNotAnAbort) {
  const video::SyntheticVideo video(equivalence_scene());
  const auto plan = util::FaultPlan::parse("detector: throw every=1", 9);
  ASSERT_TRUE(plan.has_value());
  const int frames = video.frame_count();

  MpdtOptions mpdt;
  mpdt.seed = kSeed;
  mpdt.fault_plan = &*plan;
  expect_worker_failure(run_mpdt(video, mpdt), "mpdt", frames);

  MarlinOptions marlin;
  marlin.seed = kSeed;
  marlin.fault_plan = &*plan;
  expect_worker_failure(run_marlin(video, marlin), "marlin", frames);

  OffloadOptions offload;
  offload.seed = kSeed;
  offload.fault_plan = &*plan;
  expect_worker_failure(run_offload(video, offload), "offload", frames);
}

// Pins offload's real-codec upload path at quality 60: the transmit times
// come from the actual compressed sizes.
constexpr std::uint64_t kGoldenOffloadCodec60 = 0xD048B4B4672F4E25ULL;

TEST(EngineFaults, OffloadCodecPathRunsAndReportsStatus) {
  const video::SyntheticVideo video(equivalence_scene());
  OffloadOptions options;
  options.seed = kSeed;
  options.codec_quality = 60;
  const RunResult real_codec = run_offload(video, options);
  EXPECT_FALSE(real_codec.status.failed()) << real_codec.status.to_string();
  EXPECT_FALSE(real_codec.cycles.empty());
  // Real compressed sizes differ from the flat frame_bytes model, so the
  // transmit times — and hence the whole schedule — must diverge.
  OffloadOptions flat = options;
  flat.codec_quality = 0;
  EXPECT_NE(digest_run(real_codec), digest_run(run_offload(video, flat)));
  // And the codec path replays deterministically too.
  EXPECT_EQ(digest_run(real_codec), digest_run(run_offload(video, options)));
  EXPECT_EQ(digest_run(real_codec), kGoldenOffloadCodec60)
      << "digest 0x" << std::hex << digest_run(real_codec);
}

// Pins offload's codec retry and local-fallback path. `every=4` fires on
// frame 0, and `n=3` loses all three attempts the fixed retry budget allows
// (one send plus two re-sends), so frame 0 falls back to local tiny-320
// detection; later frames on the `every=4` lattice do too, and the stalls
// delay the uplink of others.
constexpr std::uint64_t kGoldenOffloadCodecFallback = 0x5AF530620661D9E7ULL;

TEST(EngineFaults, OffloadCodecDropFallsBackToLocalDetection) {
  const video::SyntheticVideo video(equivalence_scene());
  const auto plan = util::FaultPlan::parse(
      "codec: drop every=4 n=3; stall every=9 ms=15", 9);
  ASSERT_TRUE(plan.has_value());
  OffloadOptions options;
  options.seed = kSeed;
  options.fault_plan = &*plan;
  const RunResult run = run_offload(video, options);

  EXPECT_EQ(run.status.code(), util::StatusCode::kDegraded)
      << run.status.to_string();
  EXPECT_NE(run.status.message().find("fell back to local detection"),
            std::string::npos)
      << run.status.message();
  ASSERT_FALSE(run.cycles.empty());
  EXPECT_EQ(run.cycles.front().setting, detect::ModelSetting::kYolov3Tiny_320);
  for (const FrameResult& f : run.frames) {
    EXPECT_NE(f.source, ResultSource::kNone) << "frame " << f.frame_index;
  }
  EXPECT_EQ(digest_run(run), kGoldenOffloadCodecFallback)
      << "digest 0x" << std::hex << digest_run(run);
}

// --- SLO accounting --------------------------------------------------------

// Every detected or tracked frame result is one SLO sample: the windows'
// result counts add up to the engine's kDetector plus kTracker frames.
void expect_slo_counts_every_result(const RunResult& run) {
  ASSERT_TRUE(run.slo.evaluated);
  std::uint64_t produced = 0;
  for (const FrameResult& f : run.frames) {
    if (f.source == ResultSource::kDetector ||
        f.source == ResultSource::kTracker) {
      ++produced;
    }
  }
  std::uint64_t counted = 0;
  for (const obs::SloWindow& w : run.slo.windows) counted += w.results;
  EXPECT_GT(produced, 0u);
  EXPECT_EQ(counted, produced);
}

TEST(EngineSlo, EveryDetectedAndTrackedFrameReachesTheSloWindows) {
  const video::SyntheticVideo video(equivalence_scene());
  const auto slo = obs::SloSpec::parse("fps=10 deadline_ms=400");
  ASSERT_TRUE(slo.has_value());

  MpdtOptions mpdt;
  mpdt.seed = kSeed;
  mpdt.slo = &*slo;
  expect_slo_counts_every_result(run_mpdt(video, mpdt));

  MarlinOptions marlin;
  marlin.seed = kSeed;
  marlin.slo = &*slo;
  expect_slo_counts_every_result(run_marlin(video, marlin));

  OffloadOptions offload;
  offload.seed = kSeed;
  offload.slo = &*slo;
  expect_slo_counts_every_result(run_offload(video, offload));
}

}  // namespace
}  // namespace adavp::core
