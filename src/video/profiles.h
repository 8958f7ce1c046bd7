#pragma once

#include <string>
#include <vector>

#include "video/scene.h"

namespace adavp::video {

/// The paper trains on 32 videos / 14 scenarios (surveillance at highway,
/// intersection, city street, train station, bus station, residential area;
/// car-mounted on highway and downtown; handheld airplanes, boats, wild
/// animals, racetrack, meeting room, skating rink) and evaluates on 45
/// videos. Each scenario here is a SceneConfig template whose motion
/// parameters span the slow -> fast content-change spectrum.
struct ScenarioTemplate {
  std::string name;
  double speed_mean;        ///< object speed, px/frame
  double speed_jitter;
  double camera_pan;        ///< px/frame background pan
  double spawn_per_second;
  int initial_objects;
  int max_objects;
  std::vector<ObjectClass> classes;
};

/// All 14 paper scenarios.
const std::vector<ScenarioTemplate>& scenario_library();

/// Instantiates a scenario as a SceneConfig.
SceneConfig make_scene(const ScenarioTemplate& scenario, std::uint64_t seed,
                       int frame_count, double speed_scale = 1.0);

/// `cfg` at the paper's 1280x720: object sizes, speeds and the camera pan
/// scale with the frame width, so the content moves like the 384-wide
/// original.
SceneConfig scaled_to_720p(SceneConfig cfg);

/// Builds the training video set (distinct seeds per scenario, motion
/// scales swept so every change-rate regime is represented).
/// `frames_per_video` controls cost; the paper uses 105205 frames total.
std::vector<SceneConfig> make_training_set(std::uint64_t seed,
                                           int frames_per_video);

/// Builds the held-out evaluation set (different seeds and scales than
/// training). The paper evaluates on 141213 frames across 45 videos.
std::vector<SceneConfig> make_test_set(std::uint64_t seed, int frames_per_video);

}  // namespace adavp::video
