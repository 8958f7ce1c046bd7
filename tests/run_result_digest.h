// Canonical RunResult digest behind the engine golden constants and the
// fault-replay checks of test_engine_equivalence.cpp.
//
// FNV-1a 64 over a fixed serialization of every observable RunResult field:
// frames (source/setting/staleness/boxes), cycles, energy rails, timeline,
// setting switches, latency multiplier, frame-store counters. Status, SLO
// report, and faults_injected are deliberately excluded — they are asserted
// directly where they matter.

#pragma once

#include <cstdint>
#include <cstring>
#include <type_traits>

#include "core/run_result.h"

namespace adavp::core {

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

inline std::uint64_t digest_run(const RunResult& run) {
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
  d.pod<double>(run.energy.soc_wh);
  d.pod<double>(run.energy.ddr_wh);
  d.pod<double>(run.timeline_ms);
  d.pod<std::int32_t>(run.setting_switches);
  d.pod<double>(run.latency_multiplier);
  d.pod<std::uint64_t>(run.frame_store.renders);
  d.pod<std::uint64_t>(run.frame_store.re_renders);
  d.pod<std::uint64_t>(run.frame_store.hits);
  d.pod<std::uint64_t>(run.frame_store.precache_hits);
  d.pod<std::uint64_t>(run.frame_store.waits);
  d.pod<std::uint64_t>(run.frame_store.pool_reuses);
  d.pod<std::uint64_t>(run.frame_store.pool_allocs);
  d.pod<std::uint64_t>(run.frame_store.pool_returns);
  d.pod<std::uint64_t>(run.frame_store.pool_discards);
  return d.value();
}

}  // namespace adavp::core
