// bench_e2e — the repository's end-to-end benchmark (see README.md here).
//
//   bench_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--trace-out FILE] [--smoke]
//
// `--trace-out` is required with `--trace 1`.
//
// One process runs one workload and is its own load generator. It sets the
// workload up at least three times (the median is `setup_s`), then repeats
// timed passes until `--seconds` have elapsed and reports the median pass.
// The end-to-end metrics come from these untraced passes only. With
// `--trace 1` every pass is also replayed right after it through the
// layers' public functions, call by call as its RunResults record them,
// inside bench-side spans; the replays give the per-layer metrics (medians
// over passes) and the first one a Chrome-trace JSON, loadable in
// Perfetto, written to `--trace-out`.
//
// Every metric prints as `name value unit`; the last stdout line is one
// JSON object {correct, attempted, failed, metrics} holding the end-to-end
// metrics, or with `--trace 1` the per-layer ones. Exit codes: 0 ok,
// 1 an output check failed, 2 bad command line.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/baselines.h"
#include "core/fleet.h"
#include "core/mpdt_pipeline.h"
#include "core/realtime_pipeline.h"
#include "core/scoring.h"
#include "core/training.h"
#include "detect/detector.h"
#include "metrics/accuracy.h"
#include "track/tracker.h"
#include "video/frame_store.h"
#include "video/profiles.h"
#include "vision/good_features.h"
#include "vision/optical_flow.h"
#include "vision/pyramid.h"

#include "alloc_counter.h"

namespace {

using namespace adavp;

constexpr std::array<std::string_view, 4> kWorkloads = {
    "adavp-720p", "dataset-216p-precached", "realtime-720p", "fleet-4x216p"};

constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMaxSetups = 15;
constexpr double kSetupBudgetMs = 2000.0;
constexpr int kWarmupFrames = 24;
constexpr int kSmokeFrames = 24;
// Frames per video at full scale.
constexpr int kFrames720p = 150;
constexpr int kFramesDataset = 150;
constexpr int kFramesRealtime = 120;
constexpr int kFramesFleet = 300;

/// FNV-1a digests of every frame's (index, source, setting, boxes) at seed
/// 2020, per workload and scale. The realtime workload runs on the wall
/// clock and is not reproducible, so it has none. A change that alters
/// what the engines output must update these deliberately.
struct Reference {
  std::string_view workload;
  bool smoke;
  std::uint64_t digest;
};
constexpr std::uint64_t kReferenceSeed = 2020;
constexpr Reference kReferences[] = {
    {"adavp-720p", false, 0xdbf30a18c8635966ULL},
    {"adavp-720p", true, 0xa4c3e8d4e91799ddULL},
    {"dataset-216p-precached", false, 0xbe54bef51b665c04ULL},
    {"dataset-216p-precached", true, 0xae419b7aff5bd81bULL},
    {"fleet-4x216p", false, 0x1a6a3585213222acULL},
    {"fleet-4x216p", true, 0x9e7a52e91a7c11f6ULL},
};

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ------------------------------------------------------------ digest -------

class Fnv1a {
 public:
  template <typename T>
  void pod(T value) {
    const auto* p = reinterpret_cast<const unsigned char*>(&value);
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001B3ULL;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

void digest_frames(Fnv1a& d, const core::RunResult& run) {
  d.pod<std::uint64_t>(run.frames.size());
  for (const core::FrameResult& f : run.frames) {
    d.pod<std::int32_t>(f.frame_index);
    d.pod<std::uint8_t>(static_cast<std::uint8_t>(f.source));
    d.pod<std::uint8_t>(static_cast<std::uint8_t>(f.setting));
    d.pod<std::uint64_t>(f.boxes.size());
    for (const metrics::LabeledBox& b : f.boxes) {
      d.pod<float>(b.box.left);
      d.pod<float>(b.box.top);
      d.pod<float>(b.box.width);
      d.pod<float>(b.box.height);
      d.pod<std::uint8_t>(static_cast<std::uint8_t>(b.cls));
    }
  }
}

std::string hex(std::uint64_t v) {
  std::ostringstream out;
  out << "0x" << std::hex << std::setw(16) << std::setfill('0') << v;
  return out.str();
}

// ----------------------------------------------------------- options -------

struct Options {
  std::string workload;
  std::uint64_t seed = kReferenceSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< required with --trace 1
  bool smoke = false;
};

/// Parses the command line; returns an error message, empty on success.
/// Accepts `--key value` and `--key=value`.
std::string parse_options(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) return "unexpected argument '" + arg + "'";
    std::string key = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (const std::size_t eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
      has_value = true;
    }
    if (key == "smoke") {
      if (has_value) return "--smoke takes no value";
      opt.smoke = true;
      continue;
    }
    if (!has_value) {
      if (i + 1 >= argc) return "--" + key + " needs a value";
      value = argv[++i];
    }
    const char* first = value.data();
    const char* last = value.data() + value.size();
    if (key == "workload") {
      opt.workload = value;
    } else if (key == "seed") {
      const auto [end, ec] = std::from_chars(first, last, opt.seed);
      if (value.empty() || ec != std::errc() || end != last) {
        return "--seed must be a non-negative integer, got '" + value + "'";
      }
    } else if (key == "seconds") {
      const auto [end, ec] = std::from_chars(first, last, opt.seconds);
      if (value.empty() || ec != std::errc() || end != last ||
          !(opt.seconds >= 0.0 && opt.seconds <= 3600.0)) {
        return "--seconds must be a number in [0, 3600], got '" + value + "'";
      }
    } else if (key == "trace") {
      if (value != "0" && value != "1") {
        return "--trace must be 0 or 1, got '" + value + "'";
      }
      opt.trace = value == "1";
    } else if (key == "trace-out") {
      opt.trace_out = value;
    } else {
      return "unknown option --" + key;
    }
  }
  if (opt.workload.empty()) return "--workload is required";
  if (std::find(kWorkloads.begin(), kWorkloads.end(), opt.workload) ==
      kWorkloads.end()) {
    return "unknown workload '" + opt.workload + "'";
  }
  if (opt.trace && opt.trace_out.empty()) return "--trace 1 needs --trace-out FILE";
  return {};
}

// ------------------------------------------------------------- spans -------

/// Bench-side spans around calls into the layers: name, start, end, parent
/// and the cycle they belong to, kept in memory and written at exit.
/// Single-threaded (the replay is sequential).
class SpanLog {
 public:
  class Scope {
   public:
    Scope(SpanLog& log, const char* name, int cycle)
        : log_(log), index_(log.open(name, cycle)) {}
    ~Scope() { log_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    double elapsed_ms() const { return log_.duration_ms(index_); }

   private:
    SpanLog& log_;
    int index_;
  };

  struct Total {
    double ms = 0.0;
    std::uint64_t calls = 0;
    std::uint64_t allocs = 0;
  };

  /// Sum over every span named `name` (inclusive of children).
  Total total(std::string_view name) const {
    Total t;
    for (const Span& s : spans_) {
      if (name != s.name) continue;
      t.ms += (s.end_us - s.start_us) / 1000.0;
      t.calls += 1;
      t.allocs += s.allocs;
    }
    return t;
  }

  bool write_chrome_trace(const std::string& path) const {
    std::ofstream out(path);
    out << std::setprecision(15) << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    const double origin = spans_.empty() ? 0.0 : spans_.front().start_us;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::string_view name = s.name;
      out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << name << "\",\"cat\":\""
          << name.substr(0, name.find('.')) << "\",\"ph\":\"X\",\"pid\":1,"
          << "\"tid\":1,\"ts\":" << s.start_us - origin
          << ",\"dur\":" << s.end_us - s.start_us << ",\"args\":{\"id\":" << i
          << ",\"parent\":" << s.parent << ",\"cycle\":" << s.cycle
          << ",\"allocs\":" << s.allocs << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

  std::size_t size() const { return spans_.size(); }

 private:
  struct Span {
    const char* name;
    double start_us;
    double end_us;
    int parent;
    int cycle;
    std::uint64_t allocs;  ///< alloc counter at open, delta after close
  };

  static double now_us() { return now_ms() * 1000.0; }

  int open(const char* name, int cycle) {
    const int index = static_cast<int>(spans_.size());
    spans_.push_back({name, 0.0, 0.0, current_, cycle, bench::allocations()});
    current_ = index;
    spans_.back().start_us = now_us();
    return index;
  }
  void close(int index) {
    Span& s = spans_[static_cast<std::size_t>(index)];
    s.end_us = now_us();
    s.allocs = bench::allocations() - s.allocs;
    current_ = s.parent;
  }
  double duration_ms(int index) const {
    const Span& s = spans_[static_cast<std::size_t>(index)];
    return (now_us() - s.start_us) / 1000.0;
  }

  std::vector<Span> spans_;
  int current_ = -1;
};

// --------------------------------------------------------- workloads -------

enum class Engine { kAdaVP, kMarlin, kRealtime, kFleet };

/// One engine run of a pass, with what the replay needs to repeat its calls.
struct RunRecord {
  const video::SyntheticVideo* video = nullptr;
  core::RunResult run;
  std::uint64_t detector_seed = 0;
  Engine engine = Engine::kAdaVP;
};

struct Pass {
  double wall_ms = 0.0;
  std::int64_t frames = 0;  ///< video frames processed (the per-frame base)
  std::vector<RunRecord> runs;
  core::RealtimeStats realtime;  ///< realtime only
  double fleet_mean_batch = 0.0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<double> accuracies;  ///< per video; AdaVP runs only on dataset
  double ms_per_frame() const { return ratio(wall_ms, static_cast<double>(frames)); }
};

struct Inputs {
  adapt::ModelAdapter adapter = core::pretrained_adapter();
  track::TrackerParams tracker;
  std::vector<std::unique_ptr<video::SyntheticVideo>> videos;
  std::vector<core::FleetStreamOptions> streams;  ///< fleet only
  std::uint64_t engine_seed = 0;
};

const video::ScenarioTemplate& scenario(std::string_view name) {
  for (const video::ScenarioTemplate& s : video::scenario_library()) {
    if (s.name == name) return s;
  }
  throw std::runtime_error("unknown scenario " + std::string(name));
}

/// A library scenario at 1280x720: object sizes and speeds scale with the
/// frame width, so the content moves like the 384-wide original.
video::SceneConfig scene_720p(std::string_view name, std::uint64_t seed,
                              int frames, double speed_scale) {
  constexpr double kScale = 1280.0 / 384.0;
  video::SceneConfig cfg = video::make_scene(scenario(name), seed, frames, speed_scale);
  cfg.width = 1280;
  cfg.height = 720;
  cfg.speed_mean *= kScale;
  cfg.speed_jitter *= kScale;
  cfg.camera_pan *= kScale;
  cfg.min_obj_size *= kScale;
  cfg.max_obj_size *= kScale;
  return cfg;
}

/// The workload's scenes; every scene seed derives from `--seed`.
std::vector<video::SceneConfig> workload_scenes(const Options& opt) {
  const std::uint64_t s = opt.seed;
  auto frames = [&](int full) { return opt.smoke ? kSmokeFrames : full; };
  if (opt.workload == "adavp-720p") {
    // Two scenes of each kind: a slow scene's few objects stay in view for
    // the whole video, so the objects one seed draws set much of a pass's
    // cost, and more scenes average that out across seeds.
    std::vector<video::SceneConfig> set;
    for (std::uint64_t k = 0; k < (opt.smoke ? 1 : 2); ++k) {
      set.push_back(
          scene_720p("surveillance_residential", s + 1 + 2 * k, frames(kFrames720p), 0.7));
      set.push_back(scene_720p("mobile_racetrack", s + 2 + 2 * k, frames(kFrames720p), 1.6));
    }
    return set;
  }
  if (opt.workload == "dataset-216p-precached") {
    std::vector<video::SceneConfig> set = video::make_test_set(s, frames(kFramesDataset));
    if (opt.smoke) set.resize(2);
    return set;
  }
  if (opt.workload == "realtime-720p") {
    return {scene_720p("surveillance_city_street", s + 3, frames(kFramesRealtime), 1.1)};
  }
  // fleet-4x216p: four scenarios spanning slow to fast content.
  std::vector<video::SceneConfig> set;
  const char* names[] = {"surveillance_highway", "carmount_downtown",
                         "mobile_wild_animals", "surveillance_train_station"};
  for (int i = 0; i < (opt.smoke ? 2 : 4); ++i) {
    set.push_back(video::make_scene(scenario(names[i]), s + 10 + i,
                                    frames(kFramesFleet), 1.0));
  }
  return set;
}

std::vector<core::FleetStreamOptions> fleet_streams(
    const std::vector<video::SceneConfig>& scenes, const Inputs& in) {
  std::vector<core::FleetStreamOptions> streams(scenes.size());
  for (std::size_t i = 0; i < scenes.size(); ++i) {
    core::FleetStreamOptions& s = streams[i];
    s.scene = scenes[i];
    s.engine.seed = in.engine_seed + i;
    s.engine.tracker = in.tracker;
    s.setting = detect::ModelSetting::kYolov3Tiny_320;
    s.cadence_ms = 500.0;
  }
  return streams;
}

core::MpdtOptions adavp_options(const Inputs& in, std::uint64_t seed) {
  core::MpdtOptions o;
  o.adapter = &in.adapter;
  o.seed = seed;
  o.tracker = in.tracker;
  return o;
}

core::RealtimeOptions realtime_options(const Inputs& in) {
  core::RealtimeOptions o;
  o.adapter = &in.adapter;
  o.time_scale = 1.0;  // open loop: the camera is due every 33.3 ms
  o.seed = in.engine_seed;
  o.tracker = in.tracker;
  return o;
}

/// Frames of `run` that fail the output checks: all of them when the run
/// did not end kOk or does not hold one result per frame in order (a
/// rejected fleet stream holds none), else those left without a result.
std::int64_t failed_frames(const core::RunResult& run,
                           const video::SyntheticVideo& video) {
  const std::int64_t n = video.frame_count();
  if (!run.status.ok() || static_cast<std::int64_t>(run.frames.size()) != n) return n;
  std::int64_t missing = 0;
  for (std::size_t i = 0; i < run.frames.size(); ++i) {
    if (run.frames[i].frame_index != static_cast<int>(i)) return n;
    if (run.frames[i].source == core::ResultSource::kNone) ++missing;
  }
  return missing;
}

/// Builds the workload's inputs and runs the 24-frame warm-up.
std::unique_ptr<Inputs> setup(const Options& opt) {
  auto in = std::make_unique<Inputs>();
  in->engine_seed = opt.seed ^ 0xADA5ULL;
  // The fleet's four stream threads already occupy the four cores, so each
  // stream runs its vision kernels on its own thread. Every other workload
  // keeps the default kernel config, which hands kernel calls to the shared
  // pool as the engines' callers do.
  if (opt.workload == "fleet-4x216p") in->tracker.kernels.num_threads = 1;
  const std::vector<video::SceneConfig> scenes = workload_scenes(opt);
  for (const video::SceneConfig& cfg : scenes) {
    in->videos.push_back(std::make_unique<video::SyntheticVideo>(cfg));
  }
  if (opt.workload == "dataset-216p-precached") {
    for (auto& v : in->videos) v->precache();
  }
  if (opt.workload == "fleet-4x216p") in->streams = fleet_streams(scenes, *in);

  // The realtime workload warms up on the virtual-time engine: the same
  // render, tracker and adapter code, without the camera clock, whose
  // timing would make set-up time and memory vary from run to run.
  if (opt.workload == "fleet-4x216p") {
    std::vector<video::SceneConfig> warm_scenes = scenes;
    for (auto& cfg : warm_scenes) cfg.frame_count = kWarmupFrames;
    (void)core::run_fleet(fleet_streams(warm_scenes, *in));
  } else {
    video::SceneConfig warm_cfg = scenes.front();
    warm_cfg.frame_count = kWarmupFrames;
    (void)core::run_mpdt(video::SyntheticVideo(warm_cfg),
                         adavp_options(*in, in->engine_seed));
  }
  return in;
}

/// One timed pass of the workload. `wall_ms` covers only the engine runs
/// (and, on the virtual-time workloads, their scoring).
Pass run_pass(const Options& opt, const Inputs& in) {
  Pass pass;
  if (opt.workload == "adavp-720p" || opt.workload == "dataset-216p-precached") {
    const bool dataset = opt.workload == "dataset-216p-precached";
    for (std::size_t i = 0; i < in.videos.size(); ++i) {
      const video::SyntheticVideo& video = *in.videos[i];
      const core::MpdtOptions ada = adavp_options(in, in.engine_seed + i);
      core::MarlinOptions marlin;
      marlin.seed = in.engine_seed + i;
      marlin.tracker = in.tracker;
      const double t0 = now_ms();
      core::RunResult ada_run = core::run_mpdt(video, ada);
      const std::vector<double> ada_f1 = core::score_run(ada_run, video);
      core::RunResult marlin_run;
      if (dataset) {
        marlin_run = core::run_marlin(video, marlin);
        (void)core::score_run(marlin_run, video);
      }
      pass.wall_ms += now_ms() - t0;
      pass.frames += video.frame_count();
      pass.accuracies.push_back(metrics::video_accuracy(ada_f1));
      pass.runs.push_back(
          {&video, std::move(ada_run), ada.seed, Engine::kAdaVP});
      if (dataset) {
        pass.runs.push_back(
            {&video, std::move(marlin_run), marlin.seed, Engine::kMarlin});
      }
    }
    // Attempted are engine runs.
    for (const RunRecord& r : pass.runs) {
      pass.attempted += 1;
      if (failed_frames(r.run, *r.video) > 0) pass.failed += 1;
    }
  } else if (opt.workload == "realtime-720p") {
    const video::SyntheticVideo& video = *in.videos.front();
    const core::RealtimeOptions options = realtime_options(in);
    const double t0 = now_ms();
    core::RealtimeResult rt = core::run_realtime(video, options);
    pass.wall_ms = now_ms() - t0;
    pass.frames = rt.stats.frames_captured;
    // Attempted are frames.
    pass.attempted = video.frame_count();
    pass.failed = failed_frames(rt.run, video);
    pass.realtime = rt.stats;
    pass.runs.push_back(
        {&video, std::move(rt.run), options.seed, Engine::kRealtime});
  } else {
    const double t0 = now_ms();
    core::FleetResult fleet = core::run_fleet(in.streams);
    pass.wall_ms = now_ms() - t0;
    pass.fleet_mean_batch =
        ratio(static_cast<double>(fleet.gpu.requests), static_cast<double>(fleet.gpu.batches));
    // Attempted are streams and their frames; a stream with a failed frame
    // fails too.
    for (std::size_t i = 0; i < fleet.streams.size(); ++i) {
      const video::SyntheticVideo& video = *in.videos[i];
      const std::int64_t bad = failed_frames(fleet.streams[i].run, video);
      pass.attempted += 1 + video.frame_count();
      pass.failed += bad + (bad > 0 ? 1 : 0);
      pass.frames += video.frame_count();
      pass.runs.push_back({&video, std::move(fleet.streams[i].run),
                           in.streams[i].engine.seed, Engine::kFleet});
    }
  }
  if (opt.workload == "realtime-720p" || opt.workload == "fleet-4x216p") {
    for (const RunRecord& r : pass.runs) {
      pass.accuracies.push_back(metrics::video_accuracy(core::score_run(r.run, *r.video)));
    }
  }
  return pass;
}

std::uint64_t digest_pass(const Pass& pass) {
  Fnv1a d;
  d.pod<std::uint64_t>(pass.runs.size());
  for (const RunRecord& r : pass.runs) digest_frames(d, r.run);
  return d.value();
}

// ------------------------------------------------------------ replay -------

/// Repeats the tracker's vision calls next to it, on the same frames with
/// the same parameters, so the tracker span can be split into the vision
/// kernels (pyramid, Shi-Tomasi, LK) and the tracker's own work. The probe
/// follows its own corners with LK, as many per step as the tracker fed
/// LK, so its LK time is an estimate.
class VisionProbe {
 public:
  explicit VisionProbe(const track::TrackerParams& params) : params_(params) {}

  /// Mirrors set_reference: Shi-Tomasi inside the boxes, reference pyramid.
  /// Returns the vision time spent.
  double reference(SpanLog& log, int cycle, const vision::ImageU8& frame,
                   const std::vector<detect::Detection>& detections) {
    std::vector<geometry::BoundingBox> boxes;
    for (const detect::Detection& d : detections) boxes.push_back(d.box);
    const vision::ImageU8 mask =
        vision::boxes_mask(frame.size(), boxes, params_.mask_shrink);
    vision::GoodFeaturesParams gf;
    gf.max_corners = params_.max_features;
    gf.quality_level = params_.quality_level;
    gf.min_distance = params_.min_feature_distance;
    gf.kernels = params_.kernels;
    double ms = 0.0;
    {
      SpanLog::Scope s(log, "vision.gftt", cycle);
      points_ = vision::good_features_to_track(frame, gf, &mask);
      ms += s.elapsed_ms();
    }
    {
      SpanLog::Scope s(log, "vision.pyramid", cycle);
      prev_ = vision::ImagePyramid(frame, params_.pyramid_levels, 16, params_.kernels);
      ms += s.elapsed_ms();
    }
    return ms;
  }

  /// Mirrors track_to: the next frame's pyramid, then LK on `points`
  /// features. Returns the vision time spent.
  double step(SpanLog& log, int cycle, const vision::ImageU8& frame, int points) {
    double ms = 0.0;
    vision::ImagePyramid next;
    {
      SpanLog::Scope s(log, "vision.pyramid", cycle);
      next = vision::ImagePyramid(frame, params_.pyramid_levels, 16, params_.kernels);
      ms += s.elapsed_ms();
    }
    if (static_cast<int>(points_.size()) > points) {
      points_.resize(static_cast<std::size_t>(points));
    }
    std::vector<geometry::Point2f> out;
    std::vector<vision::FlowStatus> status;
    {
      SpanLog::Scope s(log, "vision.lk", cycle);
      vision::calc_optical_flow_pyr_lk(prev_, next, points_, out, status,
                                       params_.lk, params_.kernels);
      ms += s.elapsed_ms();
    }
    points_.clear();
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (status[i].tracked) points_.push_back(out[i]);
    }
    prev_ = std::move(next);
    return ms;
  }

 private:
  track::TrackerParams params_;
  vision::ImagePyramid prev_;
  std::vector<geometry::Point2f> points_;
};

struct ReplayTotals {
  double reference_vision_ms = 0.0;  ///< probe time inside set_reference
  double step_vision_ms = 0.0;       ///< probe time inside track_to
  std::uint64_t lk_calls = 0;
  std::uint64_t lk_points = 0;
  std::uint64_t lk_tracked = 0;
  int next_cycle = 0;
  /// Frames first fetched into a store (rendered or aliased from the
  /// precache), by the engines and by the replay: equal when the replay
  /// made the engines' frame calls, the count-based half of the check that
  /// the layers add up.
  std::uint64_t engine_fetched = 0;
  std::uint64_t replay_fetched = 0;
};

/// Replays one RunRecord: per detection cycle, detect the detected frame at
/// its setting, fetch it, set the tracker reference on it, fetch and track
/// every kTracker frame up to the next detection with the recorded gaps,
/// then ask the adapter; finally score the run. Cycle records whose frame
/// was tracked, not detected (MARLIN's closing record), are not detections.
void replay_run(const RunRecord& rec, const Inputs& in, SpanLog& log,
                ReplayTotals& totals) {
  const video::SyntheticVideo& video = *rec.video;
  const std::vector<core::FrameResult>& frames = rec.run.frames;
  auto source = [&](int f) { return frames[static_cast<std::size_t>(f)].source; };
  std::vector<const core::CycleRecord*> detections;
  for (const core::CycleRecord& c : rec.run.cycles) {
    if (source(c.detected_frame) == core::ResultSource::kDetector) detections.push_back(&c);
  }
  // AdaVP and the fleet never arm the tracker from their final detection
  // (it is the video's last frame); MARLIN and the realtime tracker do.
  const bool final_reference =
      rec.engine == Engine::kMarlin || rec.engine == Engine::kRealtime;
  const bool adaptive = rec.engine == Engine::kAdaVP || rec.engine == Engine::kRealtime;
  SpanLog::Scope run_span(log, "core.run", -1);
  video::FrameStore store(video);
  detect::SimulatedDetector detector(rec.detector_seed);
  track::ObjectTracker tracker(in.tracker);
  VisionProbe probe(in.tracker);
  for (std::size_t k = 0; k < detections.size(); ++k) {
    const core::CycleRecord& cycle = *detections[k];
    const int ref = cycle.detected_frame;
    const bool last = k + 1 == detections.size();
    const int end = last ? static_cast<int>(frames.size()) : detections[k + 1]->detected_frame;
    const int id = totals.next_cycle++;
    SpanLog::Scope cycle_span(log, "core.cycle", id);
    detect::DetectionResult det;
    {
      SpanLog::Scope s(log, "detect.detect", id);
      det = detector.detect(video, ref, cycle.setting);
    }
    if (!last || final_reference) {
      video::FrameRef frame;
      {
        SpanLog::Scope s(log, "video.get", id);
        frame = store.get(ref);
      }
      {
        SpanLog::Scope s(log, "track.set_reference", id);
        tracker.set_reference(frame.image(), det.detections);
      }
      const bool has_features = tracker.live_feature_count() > 0;
      totals.reference_vision_ms +=
          probe.reference(log, id, frame.image(), det.detections);
      int prev = ref;
      for (int f = ref + 1; f < end; ++f) {
        if (source(f) != core::ResultSource::kTracker) continue;
        video::FrameRef next;
        {
          SpanLog::Scope s(log, "video.get", id);
          next = store.get(f);
        }
        track::TrackStepStats stats;
        {
          SpanLog::Scope s(log, "track.track_to", id);
          stats = tracker.track_to(next.image(), f - prev);
        }
        if (has_features) {
          totals.step_vision_ms +=
              probe.step(log, id, next.image(), stats.features_attempted);
          totals.lk_calls += 1;
          totals.lk_points += static_cast<std::uint64_t>(stats.features_attempted);
          totals.lk_tracked += static_cast<std::uint64_t>(stats.features_tracked);
        }
        prev = f;
      }
    }
    if (adaptive) {
      SpanLog::Scope s(log, "adapt.next_setting", id);
      (void)in.adapter.next_setting(cycle.mean_velocity, cycle.setting);
    }
  }
  totals.engine_fetched += rec.run.frame_store.renders + rec.run.frame_store.precache_hits;
  totals.replay_fetched += store.stats().renders + store.stats().precache_hits;
  SpanLog::Scope s(log, "core.score", -1);
  (void)core::score_run(rec.run, video);
}

/// Host cost of one FleetGpu grant: four threads (the fleet workload's
/// stream count) each submit a stream of requests on the fleet's cadence
/// and stagger, and block until granted.
double fleet_gpu_us_per_grant() {
  constexpr int kThreads = 4;
  constexpr int kRequests = 500;
  core::FleetGpu gpu(core::GpuOptions{}, kThreads);
  const double t0 = now_ms();
  std::vector<std::thread> threads;
  for (int s = 0; s < kThreads; ++s) {
    threads.emplace_back([&gpu, s] {
      for (int k = 0; k < kRequests; ++k) {
        const double submit = 500.0 * k + 125.0 * s;
        (void)gpu.submit({s, k, detect::ModelSetting::kYolov3Tiny_320, submit,
                          submit + 1000.0, 40.0});
      }
      gpu.finished(s);
    });
  }
  for (std::thread& t : threads) t.join();
  return (now_ms() - t0) * 1000.0 / (kThreads * kRequests);
}

// ----------------------------------------------------------- metrics -------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_json(bool correct, std::int64_t attempted, std::int64_t failed,
                const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << std::setprecision(12) << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
        << (std::isfinite(m.value) ? m.value : 0.0) << ", \"unit\": \"" << m.unit
        << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::cout << m.name << " " << std::setprecision(12) << m.value << " " << m.unit
              << "\n";
  }
}

/// Per-layer metrics of one pass from its replay, plus the replayed layers'
/// total (the caller derives `core.self_ms_per_frame` from it). Self times
/// subtract the probe's vision time from the tracker spans.
struct LayerSample {
  std::vector<Metric> metrics;
  double layers_ms_per_frame = 0.0;
};

LayerSample layer_metrics(const Pass& pass, const SpanLog& log, const ReplayTotals& t) {
  const double frames = static_cast<double>(pass.frames);
  auto per_frame = [&](double v) { return ratio(v, frames); };
  const SpanLog::Total get = log.total("video.get");
  const SpanLog::Total set_ref = log.total("track.set_reference");
  const SpanLog::Total track_to = log.total("track.track_to");
  const SpanLog::Total det = log.total("detect.detect");
  const SpanLog::Total adapt = log.total("adapt.next_setting");
  const SpanLog::Total score = log.total("core.score");

  double renders = 0.0, gets = 0.0, hits = 0.0;
  double in_buffer = 0.0, tracked = 0.0, cycles = 0.0, switches = 0.0;
  double fresh = 0.0, results = 0.0;
  for (const RunRecord& r : pass.runs) {
    const video::FrameStoreStats& fs = r.run.frame_store;
    renders += static_cast<double>(fs.renders);
    hits += static_cast<double>(fs.hits + fs.precache_hits);
    gets += static_cast<double>(fs.hits + fs.precache_hits + fs.renders);
    for (const core::CycleRecord& c : r.run.cycles) {
      in_buffer += c.frames_in_buffer;
      tracked += c.frames_tracked;
    }
    cycles += static_cast<double>(r.run.cycles.size());
    switches += r.run.setting_switches;
    for (const core::FrameResult& f : r.run.frames) {
      results += 1.0;
      if (f.source == core::ResultSource::kDetector ||
          f.source == core::ResultSource::kTracker) {
        fresh += 1.0;
      }
    }
  }
  const core::RealtimeStats& rt = pass.realtime;
  const double layers_ms =
      get.ms + set_ref.ms + track_to.ms + det.ms + adapt.ms + score.ms;
  return {{
      {"video.render.ms_per_frame", per_frame(get.ms), "ms"},
      {"video.render.calls_per_frame", per_frame(renders), "count"},
      {"video.render.allocs_per_frame", per_frame(static_cast<double>(get.allocs)), "count"},
      {"video.store.hit_ratio", ratio(hits, gets), "ratio"},
      {"vision.pyramid.ms_per_frame", per_frame(log.total("vision.pyramid").ms), "ms"},
      {"vision.gftt.ms_per_frame", per_frame(log.total("vision.gftt").ms), "ms"},
      {"vision.lk.ms_per_frame", per_frame(log.total("vision.lk").ms), "ms"},
      {"vision.lk.points_per_call",
       ratio(static_cast<double>(t.lk_points), static_cast<double>(t.lk_calls)), "count"},
      {"vision.lk.tracked_ratio",
       ratio(static_cast<double>(t.lk_tracked), static_cast<double>(t.lk_points)), "ratio"},
      {"track.set_reference.self_ms_per_frame",
       per_frame(set_ref.ms - t.reference_vision_ms), "ms"},
      {"track.track_to.self_ms_per_frame", per_frame(track_to.ms - t.step_vision_ms), "ms"},
      {"track.allocs_per_frame",
       per_frame(static_cast<double>(set_ref.allocs + track_to.allocs)), "count"},
      {"track.selected_ratio", ratio(tracked, in_buffer), "ratio"},
      {"detect.detect.ms_per_frame", per_frame(det.ms), "ms"},
      {"detect.detect.calls_per_frame", per_frame(static_cast<double>(det.calls)), "count"},
      {"adapt.next_setting.ms_per_frame", per_frame(adapt.ms), "ms"},
      {"adapt.switches_per_cycle", ratio(switches, cycles), "ratio"},
      {"core.score.ms_per_frame", per_frame(score.ms), "ms"},
      {"core.self_ms_per_frame", 0.0, "ms"},
      {"core.fleet_gpu.us_per_grant", 0.0, "us"},
      {"core.fleet_gpu.mean_batch", pass.fleet_mean_batch, "count"},
      {"core.rt.cancel_ratio", ratio(rt.tracking_tasks_cancelled, rt.frames_detected), "ratio"},
      {"core.rt.drop_ratio", ratio(rt.frames_dropped, rt.frames_captured), "ratio"},
      {"core.rt.fresh_share", ratio(fresh, results), "ratio"},
  }, per_frame(layers_ms)};
}

/// Each metric's median over several passes' metric lists (same order).
std::vector<Metric> median_metrics(const std::vector<std::vector<Metric>>& lists) {
  std::vector<Metric> out = lists.front();
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::vector<double> values;
    for (const std::vector<Metric>& list : lists) values.push_back(list[i].value);
    out[i].value = median(values);
  }
  return out;
}

void set_metric(std::vector<Metric>& metrics, std::string_view name, double value) {
  for (Metric& m : metrics) {
    if (m.name == name) m.value = value;
  }
}

int run(const Options& opt) {
  const bool reproducible = opt.workload != "realtime-720p";
  // The virtual-time engines run their layers one after another, so the
  // replayed layers must add up to their ms_per_frame. Smoke passes last
  // about a second, shorter than the host's drift, so only full-scale runs
  // check it.
  const bool check_layer_sum =
      !opt.smoke &&
      (opt.workload == "adavp-720p" || opt.workload == "dataset-216p-precached");

  // Set-up: scene generation, adapter load, precache and warm-up, timed
  // at least three times, and for up to two seconds when it is quick, so
  // `setup_s` is a median. Smoke and traced runs set up once.
  std::vector<double> setup_s;
  std::unique_ptr<Inputs> inputs;
  const double setup_start = now_ms();
  auto more_setups = [&] {
    if (setup_s.empty()) return true;
    if (opt.smoke || opt.trace) return false;
    return setup_s.size() < kMinSetups ||
           (setup_s.size() < kMaxSetups && now_ms() - setup_start < kSetupBudgetMs);
  };
  while (more_setups()) {
    inputs.reset();
    const double t0 = now_ms();
    inputs = setup(opt);
    setup_s.push_back((now_ms() - t0) / 1000.0);
  }
  const double setup_rss_mb = peak_rss_mb();

  // Timed passes until --seconds have elapsed (at least one). With --trace 1
  // each pass is replayed right after it ran, and where the layer sum is
  // checked a closing pass follows the last replay: every replay
  // is then compared with the passes on both sides of it, which cancels the
  // host's slow drift.
  int passes = 0;
  Pass last;
  std::vector<double> ms_per_frame;
  std::vector<LayerSample> replays;
  SpanLog first_trace;
  std::int64_t attempted = 0, failed = 0;
  bool correct = true;
  std::uint64_t digest = 0;
  auto timed_pass = [&] {
    last = run_pass(opt, *inputs);
    ms_per_frame.push_back(last.ms_per_frame());
    std::cerr << "pass " << passes << ": " << last.ms_per_frame() << " ms/frame\n";
    attempted += last.attempted;
    failed += last.failed;
    const std::uint64_t d = digest_pass(last);
    if (passes == 0) {
      digest = d;
    } else if (reproducible && d != digest) {
      std::cerr << "check failed: pass " << passes << " digest " << hex(d)
                << " differs from the first pass " << hex(digest) << "\n";
      failed += 1;
    }
    for (double a : last.accuracies) {
      if (!(a >= 0.0 && a <= 1.0)) {
        std::cerr << "check failed: accuracy " << a << " outside [0, 1]\n";
        correct = false;
      }
    }
    ++passes;
  };
  const double start = now_ms();
  do {
    timed_pass();
    if (opt.trace) {
      SpanLog log;
      ReplayTotals totals;
      for (const RunRecord& rec : last.runs) {
        replay_run(rec, *inputs, log, totals);
      }
      // The realtime camera fetches every frame, the replay only those used.
      if (reproducible && totals.replay_fetched != totals.engine_fetched) {
        std::cerr << "check failed: the replay fetched " << totals.replay_fetched
                  << " frames, the engines " << totals.engine_fetched << "\n";
        correct = false;
      }
      replays.push_back(layer_metrics(last, log, totals));
      if (replays.size() == 1) first_trace = std::move(log);
    }
  } while (now_ms() - start < opt.seconds * 1000.0);
  if (opt.trace && check_layer_sum) timed_pass();

  std::cout << "workload " << opt.workload << (opt.smoke ? " (smoke)" : "")
            << " seed " << opt.seed << ": " << passes << " passes of "
            << last.frames << " frames\n";
  std::cout << "digest " << hex(digest) << "\n";
  if (reproducible && opt.seed == kReferenceSeed) {
    for (const Reference& ref : kReferences) {
      if (ref.workload != opt.workload || ref.smoke != opt.smoke) continue;
      if (ref.digest != digest) {
        std::cerr << "check failed: digest " << hex(digest) << " != reference "
                  << hex(ref.digest) << " for seed " << kReferenceSeed << "\n";
        failed += 1;
      } else {
        std::cout << "digest matches the seed-" << kReferenceSeed << " reference\n";
      }
    }
  }
  if (failed != 0) correct = false;

  double accuracy = 0.0;
  for (double a : last.accuracies) accuracy += a;
  accuracy = ratio(accuracy, static_cast<double>(last.accuracies.size()));
  std::cout << "accuracy " << std::setprecision(6) << accuracy
            << " share (mean per-video F1>=0.7 at IoU 0.5)\n";

  const double frame_ms = median(ms_per_frame);
  const std::vector<Metric> end_to_end = {
      {"setup_s", median(setup_s), "s"},
      {"ms_per_frame", frame_ms, "ms"},
      {"setup_rss_mb", setup_rss_mb, "MB"},
  };
  print_metrics(end_to_end);
  // Not an end-to-end metric: the realtime pipeline's peak depends on
  // thread timing and varied between about 150 and 200 MB from run to run.
  std::cout << "peak_rss_mb " << peak_rss_mb() << " MB\n";

  if (!opt.trace) {
    print_json(correct, attempted, failed, end_to_end);
    return correct ? 0 : 1;
  }

  // core.self is each replay's neighbouring passes minus its layers: their
  // mean is reported, their slower one is checked (a layer counted twice
  // pushes it below zero however the host drifts).
  std::vector<std::vector<Metric>> samples;
  std::vector<double> self_checked;
  for (std::size_t i = 0; i < replays.size(); ++i) {
    const double before = ms_per_frame[i];
    const double after = i + 1 < ms_per_frame.size() ? ms_per_frame[i + 1] : before;
    LayerSample& r = replays[i];
    set_metric(r.metrics, "core.self_ms_per_frame",
               0.5 * (before + after) - r.layers_ms_per_frame);
    self_checked.push_back(std::max(before, after) - r.layers_ms_per_frame);
    samples.push_back(std::move(r.metrics));
  }
  std::vector<Metric> layers = median_metrics(samples);
  // The FleetGpu probe does not depend on the pass, so it runs once, after
  // the timed passes and their replays.
  set_metric(layers, "core.fleet_gpu.us_per_grant", fleet_gpu_us_per_grant());
  print_metrics(layers);
  if (first_trace.write_chrome_trace(opt.trace_out)) {
    std::cout << "trace " << opt.trace_out << " (" << first_trace.size()
              << " spans of the first pass)\n";
  } else {
    std::cerr << "check failed: cannot write trace " << opt.trace_out << "\n";
    correct = false;
  }
  if (check_layer_sum && median(self_checked) < -0.05 * frame_ms) {
    std::cerr << "check failed: ms_per_frame minus the replayed layers is "
              << median(self_checked) << " ms, below -5% of " << frame_ms
              << " ms (a layer is counted twice)\n";
    correct = false;
  }
  print_json(correct, attempted, failed, layers);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (const std::string error = parse_options(argc, argv, opt); !error.empty()) {
    std::cerr << "bench_e2e: " << error << "\nvalid workloads:";
    for (std::string_view w : kWorkloads) std::cerr << " " << w;
    std::cerr << "\nusage: bench_e2e --workload NAME [--seed N] [--seconds S]"
                 " [--trace 0|1] [--trace-out FILE] [--smoke]\n";
    return 2;
  }
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::cerr << "bench_e2e: " << e.what() << "\n";
    return 1;
  }
}
