// Microbenchmark of the vision kernel engine along both of its speed axes:
//
//  * ISA sweep — every compiled SIMD tier (scalar / sse2 / avx2, DESIGN.md
//    §14) at one thread, speedup vs the scalar reference. This is the
//    data-level-parallelism trajectory the simd/ subtree is accountable
//    for; scripts/bench_gate.py enforces the AVX2 floors from the emitted
//    `gate` block (avx2 >= 1.5x scalar on pyramid build and LK). The
//    pyramid row builds every tile; `lk_tracker_path` is what the tracker
//    runs per step: two pyramids rebuilt and LK on 35 points in three
//    boxes, building only the tiles LK reads.
//  * Thread sweep — 1/2/4/N threads at the auto-dispatched ISA, speedup vs
//    the serial path, for the rows that split: LK's points are the vision
//    layer's one parallel region.
//  * The synthetic camera — its hash row (1280 values) and one serial
//    render of a 1280x720 scene like bench_e2e's adavp-720p, whole and per
//    pass (background, objects, sensor noise), on every tier; and renders
//    at 384x216, 640x360 and 1280x720 with the row split forced off and
//    on, against render_into's own choice (the split's sizing data).
//
// Every row is timed after one warm-up call and reports the minimum and
// the median over the reps (the render sweep: over 10x the reps). The
// rows one speedup compares are timed in turn, round by round: a kernel's
// ISA tiers, its thread counts, the render sweep's three modes. Host load
// then lands on both sides of a ratio alike.
//
// Writes BENCH_KERNELS.json so successive PRs have a perf trajectory to
// compare against.
//
//   ./bench_kernels [--width=1280] [--height=720] [--points=240]
//                   [--reps=9] [--smoke] [--out=BENCH_KERNELS.json]
//
// `--smoke` shrinks the frame and rep count for CI wiring checks; the
// per-ISA speedup ratios are scale-invariant, so the gate block is
// meaningful at either scale. Thread-sweep speedups depend on the host: on
// a single-core runner every thread count degenerates to the serial path.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "util/args.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "video/profiles.h"
#include "video/scene.h"
#include "vision/good_features.h"
#include "vision/image_ops.h"
#include "vision/optical_flow.h"
#include "vision/pyramid.h"
#include "vision/simd/dispatch.h"

namespace {

using namespace adavp;

vision::ImageU8 make_frame(int w, int h, std::uint32_t seed) {
  vision::ImageU8 img(w, h);
  std::uint32_t s = seed;
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      s = s * 1664525u + 1013904223u;
      img.at(x, y) = static_cast<std::uint8_t>(
          (x * 3 + y * 5 + static_cast<int>((s >> 24) & 63)) % 256);
    }
  }
  return img;
}

struct Timing {
  double min_ns;
  double median_ns;
};

/// Wall time of each of `fns` over `reps` rounds, in nanoseconds. Each
/// gets one warm-up call first; a round then calls each once, in an order
/// that rotates from round to round, so the host's drift hits them alike.
std::vector<Timing> time_interleaved_ns(
    int reps, const std::vector<std::function<void()>>& fns) {
  for (const auto& fn : fns) fn();  // warm-up: pool startup, arena growth, page faults
  std::vector<std::vector<double>> samples(fns.size());
  for (int r = 0; r < reps; ++r) {
    for (std::size_t k = 0; k < fns.size(); ++k) {
      const std::size_t i = (static_cast<std::size_t>(r) + k) % fns.size();
      const auto t0 = std::chrono::steady_clock::now();
      fns[i]();
      const auto t1 = std::chrono::steady_clock::now();
      samples[i].push_back(static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()));
    }
  }
  std::vector<Timing> out;
  for (std::vector<double>& s : samples) {
    std::sort(s.begin(), s.end());
    out.push_back({s.front(), s[s.size() / 2]});
  }
  return out;
}

/// Wall time of `fn` over `reps` calls after one warm-up call, in
/// nanoseconds.
Timing time_ns(int reps, const std::function<void()>& fn) {
  return time_interleaved_ns(reps, {fn}).front();
}

/// `op` under each of `configs`, timed in turn (time_interleaved_ns).
std::vector<Timing> time_configs(
    int reps, const std::function<void(const vision::KernelConfig&)>& op,
    const std::vector<vision::KernelConfig>& configs) {
  std::vector<std::function<void()>> fns;
  for (const vision::KernelConfig& cfg : configs) {
    fns.push_back([&op, cfg] { op(cfg); });
  }
  return time_interleaved_ns(reps, fns);
}

struct Row {
  std::string kernel;
  std::string isa;  ///< "auto" rows come from the thread sweep
  int threads;
  Timing t;
  double speedup;  ///< vs scalar (ISA sweep) or vs serial (thread sweep)
};

/// The racetrack scene at `width` x `height`, its motion and object sizes
/// scaled from 384 columns as video::scaled_to_720p scales them; at
/// 1280x720 it is like bench_e2e's adavp-720p scenes.
video::SceneConfig racetrack(int width, int height) {
  const auto& library = video::scenario_library();
  const auto it = std::find_if(library.begin(), library.end(), [](const auto& s) {
    return s.name == "mobile_racetrack";
  });
  video::SceneConfig cfg = video::make_scene(*it, 2022, 30, 1.6);
  const double scale = static_cast<double>(width) / cfg.width;
  cfg.width = width;
  cfg.height = height;
  for (double* v : {&cfg.speed_mean, &cfg.speed_jitter, &cfg.camera_pan,
                    &cfg.min_obj_size, &cfg.max_obj_size}) {
    *v *= scale;
  }
  return cfg;
}

/// Renders frame `f` into `img` (sized to the frame) pass by pass over
/// row chunks, the chunks split on the shared pool (`split`; grain 1, so
/// the pool's most chunks) or run serially: render_into's two ways,
/// forced.
void render_rows(const video::SyntheticVideo& video, int f,
                 vision::ImageU8& img, bool split) {
  using Pass = video::SyntheticVideo::RenderPass;
  const auto rows = [&](std::int64_t begin, std::int64_t end) {
    for (const Pass pass : {Pass::kBackground, Pass::kObjects, Pass::kSensorNoise}) {
      video.render_pass(f, pass, img, static_cast<int>(begin),
                        static_cast<int>(end));
    }
  };
  if (split) {
    util::ThreadPool::shared().parallel_for(0, img.height(), /*grain=*/1,
                                            /*max_parallelism=*/0, rows);
  } else {
    rows(0, img.height());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const bool smoke = args.has("smoke");
  const int width = args.get_int("width", smoke ? 640 : 1280);
  const int height = args.get_int("height", smoke ? 360 : 720);
  const int n_points = args.get_int("points", smoke ? 120 : 240);
  const int reps = std::max(1, args.get_int("reps", smoke ? 3 : 9));
  const std::string out_path =
      args.get("out", smoke ? "BENCH_KERNELS.smoke.json" : "BENCH_KERNELS.json");

  const int hw = util::ThreadPool::default_concurrency();
  std::vector<int> thread_counts = {1, 2, 4};
  if (hw != 1 && hw != 2 && hw != 4) thread_counts.push_back(hw);

  // The ISA sweep covers every tier this binary + CPU can actually run
  // (ops_for_isa clamps, so asking for an absent tier would silently
  // re-measure a lower one — filter those out instead).
  std::vector<vision::simd::Isa> tiers;
  for (const vision::simd::Isa isa :
       {vision::simd::Isa::kScalar, vision::simd::Isa::kSse2,
        vision::simd::Isa::kAvx2}) {
    if (vision::simd::ops_for_isa(isa).isa == isa) tiers.push_back(isa);
  }
  const bool has_avx2 =
      vision::simd::ops_for_isa(vision::simd::Isa::kAvx2).isa ==
      vision::simd::Isa::kAvx2;

  std::cout << "==== bench_kernels ====\n"
            << "frame " << width << "x" << height << ", " << n_points
            << " LK points, min and median of " << reps
            << " reps, hardware threads: "
            << hw << (smoke ? ", smoke" : "") << "\n"
            << "dispatched isa: "
            << vision::simd::isa_name(vision::simd::detected_isa())
            << " (tiers:";
  for (const vision::simd::Isa isa : tiers) {
    std::cout << " " << vision::simd::isa_name(isa);
  }
  std::cout << ")\n\n";

  const vision::ImageU8 frame_a = make_frame(width, height, 1);
  vision::ImageU8 frame_b = make_frame(width, height, 1);
  // Shift a block so LK has real motion to converge on.
  for (int y = height / 4; y < height / 2; ++y) {
    for (int x = width / 4; x < width / 2; ++x) {
      frame_b.at(x + 3, y + 2) = frame_a.at(x, y);
    }
  }
  const vision::ImageF32 frame_f = vision::to_float(frame_a);

  std::vector<geometry::Point2f> points;
  for (int i = 0; i < n_points; ++i) {
    points.push_back({16.0f + static_cast<float>((i * 37) % (width - 32)),
                      16.0f + static_cast<float>((i * 61) % (height - 32))});
  }

  std::vector<Row> rows;

  using KernelOp = std::function<void(const vision::KernelConfig&)>;
  struct Kernel {
    std::string name;
    KernelOp op;
    bool thread_sweep = false;  ///< true: LK, the one kernel that splits
  };
  std::vector<Kernel> kernels;
  // Every tile of every level: the work of the eager whole-frame build the
  // gate's floor was set on, on the calling thread.
  kernels.push_back({"pyramid_build", [&](const vision::KernelConfig& cfg) {
                       vision::ImagePyramid pyr(frame_a, 3, 16, cfg);
                       pyr.materialize_all();
                       if (pyr.levels() == 0) std::abort();
                     }});
  kernels.push_back({"sobel", [&](const vision::KernelConfig& cfg) {
                       vision::ImageF32 gx, gy;
                       vision::sobel(frame_f, gx, gy, cfg);
                     }});
  kernels.push_back({"downsample2", [&](const vision::KernelConfig& cfg) {
                       volatile float sink =
                           vision::downsample2(frame_f, cfg).at(1, 1);
                       (void)sink;
                     }});
  kernels.push_back({"good_features", [&](const vision::KernelConfig& cfg) {
                       vision::GoodFeaturesParams gf;
                       gf.kernels = cfg;
                       volatile std::size_t sink =
                           vision::good_features_to_track(frame_a, gf).size();
                       (void)sink;
                     }});
  // The tracker's call: Shi-Tomasi masked to detection boxes (shrunk by the
  // tracker's 2 px) that cover about 12% of the frame, as on adavp-720p.
  const auto frac_box = [&](double l, double t, double bw, double bh) {
    return geometry::BoundingBox{static_cast<float>(l * width),
                                 static_cast<float>(t * height),
                                 static_cast<float>(bw * width),
                                 static_cast<float>(bh * height)};
  };
  const vision::ImageU8 box_mask = vision::boxes_mask(
      frame_a.size(),
      {frac_box(0.10, 0.15, 0.18, 0.25), frac_box(0.55, 0.40, 0.15, 0.30),
       frac_box(0.30, 0.60, 0.12, 0.25)},
      2.0f);
  kernels.push_back({"good_features_masked", [&](const vision::KernelConfig& cfg) {
                       vision::GoodFeaturesParams gf;
                       gf.kernels = cfg;
                       volatile std::size_t sink =
                           vision::good_features_to_track(frame_a, gf, &box_mask)
                               .size();
                       (void)sink;
                     }});
  // LK is benchmarked on fully built pyramids: the pyramid cost is its own
  // row above, and this isolates the point-parallel flow loop.
  const vision::ImagePyramid pa(frame_a, 3);
  const vision::ImagePyramid pb(frame_b, 3);
  pa.materialize_all();
  pb.materialize_all();
  kernels.push_back({"lk_flow", [&](const vision::KernelConfig& cfg) {
                       std::vector<geometry::Point2f> out;
                       std::vector<vision::FlowStatus> status;
                       vision::calc_optical_flow_pyr_lk(pa, pb, points, out,
                                                        status, {}, cfg);
                     },
                     /*thread_sweep=*/true});
  // The tracker's path: both frames copied into reused pyramids, then LK on
  // 35 features in the three boxes above, building the tiles it reads.
  std::vector<geometry::Point2f> box_points;
  {
    const float boxes[3][4] = {{0.10f, 0.15f, 0.18f, 0.25f},
                               {0.55f, 0.40f, 0.15f, 0.30f},
                               {0.30f, 0.60f, 0.12f, 0.25f}};
    for (int i = 0; i < 35; ++i) {
      const float* b = boxes[i % 3];
      const float u = static_cast<float>((i * 37) % 29) / 29.0f;
      const float v = static_cast<float>((i * 53) % 31) / 31.0f;
      box_points.push_back({(b[0] + b[2] * u) * static_cast<float>(width),
                            (b[1] + b[3] * v) * static_cast<float>(height)});
    }
  }
  vision::ImagePyramid track_a;
  vision::ImagePyramid track_b;
  kernels.push_back({"lk_tracker_path", [&](const vision::KernelConfig& cfg) {
                       track_a.rebuild(frame_a, 3, 16, cfg);
                       track_b.rebuild(frame_b, 3, 16, cfg);
                       std::vector<geometry::Point2f> out;
                       std::vector<vision::FlowStatus> status;
                       vision::calc_optical_flow_pyr_lk(track_a, track_b,
                                                        box_points, out, status,
                                                        {}, cfg);
                     },
                     /*thread_sweep=*/true});

  // The camera's sensor-noise / lattice-corner hash over one 720p row.
  std::vector<float> hash_out(1280);
  kernels.push_back({"hash_unit_row", [&](const vision::KernelConfig& cfg) {
                       vision::simd::ops_for_isa(cfg.isa).hash_unit_row(
                           0x5EEDULL, -640, 357, 1280, hash_out.data());
                     }});

  // ---- ISA sweep: every tier, one thread, speedup vs scalar -------------
  // tiers[0] is the scalar reference: every build and CPU can run it.
  std::vector<vision::KernelConfig> tier_configs;
  for (const vision::simd::Isa isa : tiers) {
    vision::KernelConfig cfg;
    cfg.num_threads = 1;
    cfg.isa = isa;
    tier_configs.push_back(cfg);
  }
  double scalar_pyramid_ns = 0.0;
  double scalar_lk_ns = 0.0;
  double avx2_pyramid_ns = 0.0;
  double avx2_lk_ns = 0.0;
  for (const Kernel& k : kernels) {
    const std::vector<Timing> t = time_configs(reps, k.op, tier_configs);
    for (std::size_t i = 0; i < tiers.size(); ++i) {
      rows.push_back({k.name, vision::simd::isa_name(tiers[i]), 1, t[i],
                      t[0].min_ns / t[i].min_ns});
      if (tiers[i] != vision::simd::Isa::kAvx2) continue;
      if (k.name == "pyramid_build") {
        scalar_pyramid_ns = t[0].min_ns;
        avx2_pyramid_ns = t[i].min_ns;
      }
      if (k.name == "lk_flow") {
        scalar_lk_ns = t[0].min_ns;
        avx2_lk_ns = t[i].min_ns;
      }
    }
  }

  // The host's scheduler can keep a new pool's workers on the caller's
  // core for about the first second of wake-ups, and split work then runs
  // no faster than serial (docs/PERFORMANCE.md). Split renders for two
  // seconds first, so the thread sweeps below time the steady state.
  if (!smoke) {
    const video::SyntheticVideo video(racetrack(1280, 720));
    vision::ImageU8 img(1280, 720);
    const auto until = std::chrono::steady_clock::now() + std::chrono::seconds(2);
    for (int f = 0; std::chrono::steady_clock::now() < until; f = (f + 1) % 30) {
      render_rows(video, f, img, /*split=*/true);
    }
  }

  // ---- Thread sweep: auto ISA, speedup vs serial ------------------------
  // thread_counts[0] is 1, the serial path.
  std::vector<vision::KernelConfig> thread_configs;
  for (const int threads : thread_counts) {
    vision::KernelConfig cfg;
    cfg.num_threads = threads;
    thread_configs.push_back(cfg);
  }
  for (const Kernel& k : kernels) {
    if (!k.thread_sweep) continue;
    const std::vector<Timing> t = time_configs(reps, k.op, thread_configs);
    for (std::size_t i = 0; i < thread_counts.size(); ++i) {
      rows.push_back({k.name, "auto", thread_counts[i], t[i],
                      t[0].min_ns / t[i].min_ns});
    }
  }

  // ---- The synthetic camera: a serial 720p render and its passes --------
  {
    using Pass = video::SyntheticVideo::RenderPass;
    const std::pair<const char*, Pass> passes[] = {
        {"render_background", Pass::kBackground},
        {"render_objects", Pass::kObjects},
        {"render_noise", Pass::kSensorNoise}};
    const video::SyntheticVideo video(racetrack(1280, 720));
    vision::ImageU8 img(video.frame_size().width, video.frame_size().height);
    const int h = img.height();
    const auto add_row = [&](const std::string& name, vision::simd::Isa isa,
                             const std::function<void()>& fn) {
      const Timing t = time_ns(reps, fn);
      const auto scalar = std::find_if(rows.begin(), rows.end(), [&](const Row& r) {
        return r.kernel == name && r.isa == "scalar";
      });
      rows.push_back({name, vision::simd::isa_name(isa), 1, t,
                      scalar != rows.end() ? scalar->t.min_ns / t.min_ns : 1.0});
    };
    for (const vision::simd::Isa isa : tiers) {
      // The three passes in order render the frame as render_into does.
      add_row("render_720p", isa, [&] {
        for (const auto& [name, pass] : passes) video.render_pass(15, pass, img, 0, h, isa);
      });
      for (const auto& [name, pass] : passes) {
        add_row(name, isa, [&] { video.render_pass(15, pass, img, 0, h, isa); });
      }
    }
  }

  // ---- Render thread sweep: the split forced off and on, and render_into
  // at three frame sizes, timed in turn. render_into's row shows the
  // threads its size rule chose: the pool's count when it opened a
  // parallel region.
  {
    const int sweep_reps = 10 * reps;
    util::ThreadPool& pool = util::ThreadPool::shared();
    for (const auto& [w, h] : {std::pair{384, 216}, {640, 360}, {1280, 720}}) {
      const video::SyntheticVideo video(racetrack(w, h));
      vision::ImageU8 img(w, h);
      const std::string size = std::to_string(w) + "x" + std::to_string(h);
      const std::uint64_t regions = pool.stats().parallel_regions;
      const std::vector<Timing> t = time_interleaved_ns(
          sweep_reps, {[&] { render_rows(video, 15, img, /*split=*/false); },
                       [&] { render_rows(video, 15, img, /*split=*/true); },
                       [&] { video.render_into(15, img); }});
      // The forced split opens one region per round and one in its
      // warm-up; any more came from render_into.
      const bool rule_split = pool.stats().parallel_regions - regions >
                              static_cast<std::uint64_t>(sweep_reps) + 1;
      const int pool_threads = pool.worker_count() + 1;
      rows.push_back({"render_" + size, "auto", 1, t[0], 1.0});
      rows.push_back({"render_" + size, "auto", pool_threads, t[1],
                      t[0].min_ns / t[1].min_ns});
      rows.push_back({"render_into_" + size, "auto", rule_split ? pool_threads : 1,
                      t[2], t[0].min_ns / t[2].min_ns});
    }
  }

  util::Table table(
      {"kernel", "isa", "threads", "us/op min", "us/op median", "speedup"});
  for (const Row& r : rows) {
    table.add_row({r.kernel, r.isa, std::to_string(r.threads),
                   util::fmt(r.t.min_ns / 1e3, 1),
                   util::fmt(r.t.median_ns / 1e3, 1), util::fmt(r.speedup, 2)});
  }
  table.print();

  std::ofstream json(out_path);
  json << "{\"smoke\":" << (smoke ? "true" : "false")
       << ",\"frame\":{\"width\":" << width << ",\"height\":" << height
       << "},\"points\":" << n_points << ",\"hardware_threads\":" << hw
       << ",\"detected_isa\":\""
       << vision::simd::isa_name(vision::simd::detected_isa())
       << "\",\"results\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) json << ",";
    json << "{\"kernel\":\"" << rows[i].kernel << "\",\"isa\":\"" << rows[i].isa
         << "\",\"threads\":" << rows[i].threads
         << ",\"ns_per_op\":" << rows[i].t.min_ns
         << ",\"median_ns_per_op\":" << rows[i].t.median_ns
         << ",\"speedup\":" << rows[i].speedup << "}";
  }
  json << "]";
  if (has_avx2 && avx2_pyramid_ns > 0.0 && avx2_lk_ns > 0.0) {
    // Scale-invariant ratios the regression gate enforces; omitted (guard
    // SKIPs, not fails) on hosts without AVX2.
    json << ",\"gate\":{\"avx2_pyramid_speedup\":"
         << scalar_pyramid_ns / avx2_pyramid_ns
         << ",\"avx2_lk_speedup\":" << scalar_lk_ns / avx2_lk_ns << "}";
    std::cout << "\ngate: avx2_pyramid_speedup="
              << util::fmt(scalar_pyramid_ns / avx2_pyramid_ns, 2)
              << " avx2_lk_speedup=" << util::fmt(scalar_lk_ns / avx2_lk_ns, 2)
              << "\n";
  }
  json << "}\n";
  std::cout << "\nwrote " << out_path << "\n";
  return 0;
}
