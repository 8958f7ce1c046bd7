#include "video/profiles.h"
#include <algorithm>

namespace adavp::video {

namespace {
using C = ObjectClass;
}

const std::vector<ScenarioTemplate>& scenario_library() {
  static const std::vector<ScenarioTemplate> kScenarios = {
      // Surveillance (static camera).
      {"surveillance_highway", 2.4, 0.41, 0.0, 4.86, 5, 8,
       {C::kCar, C::kTruck, C::kBus, C::kMotorbike}},
      {"surveillance_intersection", 1.5, 0.47, 0.0, 3.65, 5, 8,
       {C::kCar, C::kTruck, C::kPerson, C::kBicycle}},
      {"surveillance_city_street", 1.0, 0.34, 0.0, 2.74, 4, 7,
       {C::kCar, C::kPerson, C::kBicycle, C::kBus}},
      {"surveillance_train_station", 0.7, 0.27, 0.0, 2.43, 5, 8,
       {C::kPerson, C::kTrain}},
      {"surveillance_bus_station", 0.6, 0.24, 0.0, 2.13, 4, 7,
       {C::kPerson, C::kBus, C::kCar}},
      {"surveillance_residential", 0.35, 0.14, 0.0, 0.91, 3, 5,
       {C::kPerson, C::kCar, C::kDog, C::kBicycle}},
      // Car-mounted (global pan dominates).
      {"carmount_highway", 1.8, 0.54, 2.6, 4.26, 4, 7,
       {C::kCar, C::kTruck, C::kBus}},
      {"carmount_downtown", 1.2, 0.47, 1.6, 3.65, 5, 8,
       {C::kCar, C::kPerson, C::kBicycle, C::kTruck}},
      // Handheld mobile camera.
      {"mobile_airplanes", 1.6, 0.34, 0.6, 1.22, 2, 4, {C::kAirplane}},
      {"mobile_boat", 0.8, 0.27, 0.5, 1.22, 2, 4, {C::kBoat, C::kPerson}},
      {"mobile_wild_animals", 0.9, 0.41, 0.4, 1.52, 3, 6,
       {C::kDog, C::kHorse, C::kSheep}},
      {"mobile_racetrack", 3.0, 0.68, 1.2, 4.86, 4, 7,
       {C::kCar, C::kMotorbike}},
      {"mobile_meeting_room", 0.25, 0.11, 0.1, 0.61, 3, 5, {C::kPerson}},
      {"mobile_skating_rink", 1.4, 0.61, 0.3, 2.43, 4, 7, {C::kPerson}},
  };
  return kScenarios;
}

SceneConfig make_scene(const ScenarioTemplate& scenario, std::uint64_t seed,
                       int frame_count, double speed_scale) {
  SceneConfig cfg;
  cfg.name = scenario.name;
  cfg.frame_count = frame_count;
  cfg.seed = seed;
  cfg.speed_mean = scenario.speed_mean * speed_scale;
  cfg.speed_jitter = scenario.speed_jitter * speed_scale;
  cfg.camera_pan = scenario.camera_pan * speed_scale;
  cfg.spawn_per_second = scenario.spawn_per_second;
  cfg.initial_objects = scenario.initial_objects;
  cfg.max_objects = scenario.max_objects;
  cfg.classes = scenario.classes;
  // Perspective coupling: apparent pixel speed scales inversely with
  // distance, so fast-moving scenes (racetrack, car-mounted) see close,
  // LARGE objects while calm scenes (surveillance from a pole, meeting
  // room wide shot) see distant, SMALL ones. This is what lets a small
  // YOLOv3 input size stay accurate exactly where frequent re-detection
  // matters (the premise behind the paper's model adaptation).
  const double apparent = cfg.speed_mean + cfg.camera_pan;
  const double size_scale = std::clamp(0.70 + 0.13 * apparent, 0.70, 1.55);
  cfg.min_obj_size = 24.0 * size_scale;
  cfg.max_obj_size = 58.0 * size_scale;
  // Within-video motion episodes (traffic-light stops, pan-and-rest):
  // content speed swings between 0.35x and 1.9x of the scenario nominal
  // every ~3 s, which is what runtime adaptation reacts to.
  cfg.episode_seconds = 3.0;
  cfg.episode_speed_min = 0.35;
  cfg.episode_speed_max = 1.90;
  return cfg;
}

SceneConfig scaled_to_720p(SceneConfig cfg) {
  constexpr double kScale = 1280.0 / 384.0;
  cfg.width = 1280;
  cfg.height = 720;
  cfg.speed_mean *= kScale;
  cfg.speed_jitter *= kScale;
  cfg.camera_pan *= kScale;
  cfg.min_obj_size *= kScale;
  cfg.max_obj_size *= kScale;
  return cfg;
}

std::vector<SceneConfig> make_training_set(std::uint64_t seed,
                                           int frames_per_video) {
  std::vector<SceneConfig> out;
  const auto& library = scenario_library();
  // Two motion scales per scenario -> 28 training videos spanning the
  // slow->fast spectrum (the paper uses 32).
  const double scales[] = {0.8, 1.25};
  int index = 0;
  for (const auto& scenario : library) {
    for (double scale : scales) {
      SceneConfig cfg = make_scene(scenario, seed + 1000 + index * 17,
                                   frames_per_video, scale);
      cfg.name += "_train" + std::to_string(index);
      // Training measures the velocity -> best-size relation, which is
      // cleanest on stationary segments: the scenario x scale grid already
      // spans the speed spectrum, so disable within-video episodes here
      // (the evaluation set keeps them).
      cfg.episode_speed_min = 1.0;
      cfg.episode_speed_max = 1.0;
      out.push_back(std::move(cfg));
      ++index;
    }
  }
  return out;
}

std::vector<SceneConfig> make_test_set(std::uint64_t seed, int frames_per_video) {
  std::vector<SceneConfig> out;
  const auto& library = scenario_library();
  // Held-out seeds; motion scales rotate 0.7 / 1.1 / 1.6 so the evaluation
  // set spans the slow->fast spectrum like the paper's 45 mixed videos
  // (calm meeting rooms through racetracks and car-mounted footage).
  const double scales[] = {0.7, 1.1, 1.6};
  int index = 0;
  for (const auto& scenario : library) {
    SceneConfig cfg = make_scene(scenario, seed + 90000 + index * 29,
                                 frames_per_video, scales[index % 3]);
    cfg.name += "_test" + std::to_string(index);
    out.push_back(std::move(cfg));
    ++index;
  }
  return out;
}

}  // namespace adavp::video
