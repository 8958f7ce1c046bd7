#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "geometry/box.h"
#include "util/rng.h"
#include "video/object_class.h"
#include "vision/image.h"
#include "vision/simd/isa.h"

namespace adavp::vision::simd {
struct SimdOps;
}  // namespace adavp::vision::simd

namespace adavp::video {

/// One labelled object in one frame — the ground truth the detector
/// simulator and the accuracy metrics consume.
struct GroundTruthObject {
  int object_id = 0;
  ObjectClass cls = ObjectClass::kCar;
  geometry::BoundingBox box;
};

/// Parameters of one synthetic video. The defaults approximate a moderate
/// street scene; `profiles.h` provides the 14 paper scenarios.
struct SceneConfig {
  std::string name = "scene";
  int width = 384;          ///< frame width (paper videos are 1280x720; we
                            ///< render at 1/3.33 scale to fit CPU budget)
  int height = 216;
  double fps = 30.0;
  int frame_count = 300;

  // -- object population --------------------------------------------------
  int initial_objects = 5;       ///< objects present in frame 0
  int max_objects = 8;           ///< cap on simultaneously visible objects
  double spawn_per_second = 0.8; ///< expected new objects entering per second
  std::vector<ObjectClass> classes = {ObjectClass::kCar, ObjectClass::kTruck,
                                      ObjectClass::kBus, ObjectClass::kPerson};

  // -- motion (the paper's "video content changing rate") ------------------
  double speed_mean = 1.2;    ///< mean object speed, pixels per frame
  double speed_jitter = 0.3;  ///< random-walk step of the velocity per frame
  double camera_pan = 0.0;    ///< background pan, pixels per frame (car-mounted)

  // -- motion episodes ------------------------------------------------------
  // Real videos are non-stationary: traffic stops at a light, a handheld
  // camera pans then rests. Every `episode_seconds` a global speed
  // multiplier is redrawn from [episode_speed_min, episode_speed_max] and
  // applied to all object motion and the camera pan. This within-video
  // variation is what the runtime model adaptation (§IV-D) reacts to;
  // set min == max == 1 for stationary content.
  double episode_seconds = 3.0;
  double episode_speed_min = 1.0;
  double episode_speed_max = 1.0;

  // -- object geometry ------------------------------------------------------
  double min_obj_size = 28.0;  ///< smallest object side, pixels
  double max_obj_size = 64.0;  ///< largest object side, pixels

  // -- appearance -----------------------------------------------------------
  double texture_contrast = 60.0;  ///< object texture amplitude (gray levels)
  double noise_sigma = 1.5;        ///< per-pixel sensor noise
  std::uint64_t seed = 1;          ///< master seed; everything derives from it
};

/// Deterministic synthetic video with exact per-frame ground truth.
///
/// Object trajectories are precomputed at construction (velocity random
/// walk, edge spawn/despawn, camera pan), so `render` and `ground_truth`
/// are pure lookups + rasterization and the same (config, seed) pair always
/// produces bit-identical videos. Objects carry a procedural value-noise
/// texture anchored to object-local coordinates, so real corner detection
/// and optical flow can latch onto them; the background pans with
/// `camera_pan` in world coordinates.
class SyntheticVideo {
 public:
  explicit SyntheticVideo(const SceneConfig& config);

  const SceneConfig& config() const { return config_; }
  int frame_count() const { return config_.frame_count; }
  geometry::Size frame_size() const { return {config_.width, config_.height}; }
  double fps() const { return config_.fps; }
  double frame_interval_ms() const { return 1000.0 / config_.fps; }
  double timestamp_ms(int index) const {
    return static_cast<double>(index) * frame_interval_ms();
  }

  /// Renders frame `index` (0-based). Precondition: 0 <= index < frame_count.
  vision::ImageU8 render(int index) const;

  /// Renders frame `index` into `out`, reusing `out`'s pixel storage when
  /// its capacity suffices (the FrameStore/FramePool zero-allocation path).
  /// A frame large enough to gain (384x216 and up) has its rows split on
  /// the shared util::ThreadPool; a smaller one, or a call from inside a
  /// pool task, renders serially. Any split is bit-identical to `render`:
  /// all three passes (background, objects, sensor noise) are pure
  /// per-pixel functions.
  void render_into(int index, vision::ImageU8& out) const;

  /// The passes a render runs over every row, in this order.
  enum class RenderPass { kBackground, kObjects, kSensorNoise };

  /// Runs one pass of frame `index` over the rows [row_begin, row_end) of
  /// `img`, serially and on kernel tier `isa` (kAuto: the tier
  /// `render_into` resolves). `img` must be sized to the frame; its other
  /// rows are left as they are. So the three passes in order over every
  /// row render the frame exactly as `render_into` does, however the rows
  /// are split; bench_kernels times each pass on each tier, and split
  /// against serial renders, through it. Throws std::invalid_argument on
  /// a mis-sized image or a row range outside the frame.
  void render_pass(int index, RenderPass pass, vision::ImageU8& img,
                   int row_begin, int row_end,
                   vision::simd::Isa isa = vision::simd::Isa::kAuto) const;

  /// Pre-renders every frame into an in-memory cache so subsequent
  /// `render` calls are O(copy) and FrameStore refs alias the cache with
  /// no copy at all. Rasterization is parallelized over frames on all of
  /// the shared util::ThreadPool; every frame is bit-identical to a serial
  /// `render`. The cache is read-only afterwards and safe to share across
  /// threads.
  void precache();
  bool is_precached() const { return !cache_.empty(); }

  /// The precached raster of frame `index`, or nullptr when not precached.
  /// The pointer stays valid (and the pixels immutable) for the video's
  /// lifetime — FrameStore aliases it instead of copying.
  const vision::ImageU8* cached_frame(int index) const {
    if (cache_.empty()) return nullptr;
    return &cache_.at(static_cast<std::size_t>(index));
  }

  /// Ground truth of frame `index` (visible objects only, boxes clamped to
  /// the frame).
  const std::vector<GroundTruthObject>& ground_truth(int index) const;

  /// Mean true object displacement between consecutive frames, averaged
  /// over the whole video — a reference "content change rate" used by
  /// tests and dataset builders (includes camera pan).
  double mean_true_speed() const { return mean_true_speed_; }

 private:
  struct ObjectSnapshot {
    int object_id;
    ObjectClass cls;
    float left;
    float top;
    float width;
    float height;
    std::uint64_t texture_seed;
  };

  void precompute_trajectories();
  /// Rasterizes the rows [row_begin, row_end) of `obj` into `img`.
  void rasterize_object_rows(vision::ImageU8& img, const ObjectSnapshot& obj,
                             int row_begin, int row_end,
                             const vision::simd::SimdOps& ops) const;
  /// Full per-pixel pipeline (background, objects, noise) for the rows
  /// [row_begin, row_end) of frame `index` — the unit of row-parallelism.
  void rasterize_rows(int index, vision::ImageU8& img, int row_begin,
                      int row_end) const;
  /// One pass of `rasterize_rows`.
  void rasterize_pass(int index, RenderPass pass, vision::ImageU8& img,
                      int row_begin, int row_end,
                      const vision::simd::SimdOps& ops) const;

  vision::ImageU8 rasterize(int index) const;

  SceneConfig config_;
  std::vector<std::vector<ObjectSnapshot>> frames_;     // per-frame objects
  std::vector<std::vector<GroundTruthObject>> truth_;   // clamped boxes
  std::vector<double> pan_offset_;                      // camera x-offset per frame
  std::vector<vision::ImageU8> cache_;                  // see precache()
  std::uint64_t background_seed_ = 0;
  double mean_true_speed_ = 0.0;
};

}  // namespace adavp::video
