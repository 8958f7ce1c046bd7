#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "video/scene.h"
#include "vision/image.h"

namespace adavp::obs {
class Counter;
class Gauge;
}  // namespace adavp::obs

namespace adavp::video {

/// An immutable, refcounted view of one captured frame. Copying a FrameRef
/// copies a shared_ptr, never pixels; every consumer of the same frame —
/// camera, detector, tracker — sees the same raster. Refs must not outlive
/// the SyntheticVideo they came from (precached videos hand out non-owning
/// aliases into the precache; see DESIGN.md §8).
struct FrameRef {
  int index = -1;
  double timestamp_ms = 0.0;
  std::shared_ptr<const vision::ImageU8> image_ptr;

  const vision::ImageU8& image() const { return *image_ptr; }
  bool valid() const { return image_ptr != nullptr; }
  /// Consumers currently sharing these pixels (0 when invalid). The graph
  /// packet-ownership tests observe this to pin that dropping a
  /// FrameRef-carrying core::graph::Packet releases the buffer immediately
  /// — packet lifetime is payload lifetime, nothing else pins pixels.
  long use_count() const { return image_ptr.use_count(); }
};

/// Retention and recycling bounds of a FrameStore. Every engine runs on
/// the defaults, which bound resident memory to a few seconds of video
/// while keeping every frame a pipeline revisits (reference frames,
/// catch-up batches) resident; tests set other values to exercise
/// eviction and recycling. How many threads one render uses is not a
/// knob: `SyntheticVideo::render_into` splits a frame's rows on the shared
/// pool when the frame is large enough to gain.
struct FrameStoreOptions {
  /// Frames the store itself keeps alive behind the newest requested index.
  /// Older slots are released (outstanding FrameRefs keep their pixels
  /// alive; a re-request re-renders and counts in `re_renders`). 0 retains
  /// nothing behind the newest request.
  int window = 120;
  /// Upper bound on recycled pixel buffers parked in the FramePool. 0
  /// disables recycling (every render heap-allocates).
  std::size_t pool_buffers = 144;
};

/// Counters a FrameStore accumulates over its lifetime. Available without
/// telemetry so tests can assert render-once behaviour cheaply; mirrored
/// into obs metrics (`framestore.*`) when telemetry is enabled.
struct FrameStoreStats {
  std::uint64_t renders = 0;        ///< rasterizations actually performed
  std::uint64_t re_renders = 0;     ///< renders of a previously evicted slot
  std::uint64_t hits = 0;           ///< gets served from a ready slot
  std::uint64_t precache_hits = 0;  ///< slots aliased into a precache (no copy)
  std::uint64_t waits = 0;          ///< gets that blocked on a concurrent render
  std::uint64_t pool_reuses = 0;    ///< renders served by a recycled buffer
  std::uint64_t pool_allocs = 0;    ///< renders that had to heap-allocate
  std::uint64_t pool_returns = 0;   ///< new buffers parked for future reuse
  std::uint64_t pool_discards = 0;  ///< buffers handed out untracked (pool full)
  std::size_t resident_frames = 0;  ///< store-owned ready slots right now
  std::size_t resident_bytes = 0;   ///< their pixel bytes (aliases count zero)
};

/// Bounded pool of recycled pixel buffers. `acquire` hands out a
/// shared_ptr whose buffer (and control block) is reused once every
/// previous consumer has dropped it, so steady-state frame turnover
/// performs zero heap allocations — pixels and refcount machinery both
/// come from the pool once it is warm.
class FramePool {
 public:
  explicit FramePool(std::size_t capacity);

  /// A buffer reshaped to `width` x `height` (contents unspecified).
  std::shared_ptr<vision::ImageU8> acquire(int width, int height);

  struct Stats {
    std::uint64_t reuses = 0;
    std::uint64_t allocs = 0;
    std::uint64_t returns = 0;
    std::uint64_t discards = 0;
    std::size_t free_buffers = 0;
    std::size_t free_bytes = 0;
  };
  Stats stats() const;

 private:
  struct Impl;
  std::shared_ptr<Impl> impl_;
};

/// Render-once shared frame cache over a SyntheticVideo — the zero-copy
/// spine of every pipeline (DESIGN.md §8).
///
/// `get(i)` returns a FrameRef for frame `i`, rasterizing it at most once
/// no matter how many threads ask (per-slot double-checked latch: the
/// first requester renders outside the store lock, concurrent requesters
/// for the same slot block until it publishes, requesters of other slots
/// render in parallel). Precached videos are aliased, not copied. Pixel
/// buffers come from a bounded FramePool and are recycled as the retention
/// window slides, so steady-state streaming makes no heap allocations.
///
/// Thread-safe. The store (and every FrameRef it hands out) must not
/// outlive `video`.
class FrameStore {
 public:
  explicit FrameStore(const SyntheticVideo& video, FrameStoreOptions options = {});

  FrameStore(const FrameStore&) = delete;
  FrameStore& operator=(const FrameStore&) = delete;

  const SyntheticVideo& video() const { return video_; }
  const FrameStoreOptions& options() const { return options_; }

  /// The frame at `index` (0 <= index < frame_count), rendered on demand.
  FrameRef get(int index);

  /// Tells the store frames below `index` will not be requested again, so
  /// their slots can be released to the pool ahead of the sliding window.
  /// Advisory: a later `get` below the floor still works (it re-renders).
  void trim_below(int index);

  FrameStoreStats stats() const;

 private:
  enum class SlotState : std::uint8_t { kEmpty, kRendering, kReady };
  struct Slot {
    SlotState state = SlotState::kEmpty;
    bool rendered_before = false;  ///< feeds the re_renders counter
    bool owned = false;            ///< false for precache aliases
    std::shared_ptr<const vision::ImageU8> image;
  };

  std::shared_ptr<const vision::ImageU8> acquire_image(int index);
  void evict_locked();
  void publish_gauges_locked();

  const SyntheticVideo& video_;
  const FrameStoreOptions options_;
  FramePool pool_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Slot> slots_;
  int highest_requested_ = -1;
  int trim_floor_ = 0;    ///< explicit floor from trim_below
  int evict_cursor_ = 0;  ///< slots below are already released

  // Lifetime counters (guarded by mutex_ except where noted).
  std::uint64_t renders_ = 0;
  std::uint64_t re_renders_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t precache_hits_ = 0;
  std::uint64_t waits_ = 0;
  std::size_t resident_frames_ = 0;
  std::size_t resident_bytes_ = 0;

  // Obs instruments, resolved once at construction (null when disabled).
  obs::Counter* renders_counter_ = nullptr;
  obs::Counter* hits_counter_ = nullptr;
  obs::Counter* pool_reuse_counter_ = nullptr;
  obs::Gauge* resident_bytes_gauge_ = nullptr;
};

}  // namespace adavp::video
