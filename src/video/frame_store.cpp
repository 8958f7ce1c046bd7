#include "video/frame_store.h"

#include <algorithm>
#include <cassert>

#include "obs/telemetry.h"

namespace adavp::video {

// ----------------------------------------------------------- FramePool ---

// The pool parks whole shared_ptrs and recycles an entry when its
// use_count drops back to 1 (the pool's own copy is the only owner left).
// Compared to a free-list with a custom deleter this also recycles the
// shared_ptr CONTROL BLOCK: a warm acquire performs zero heap allocations,
// not one, which is what makes steady-state streaming allocation-free.
// The use_count()==1 test is race-free because new references can only be
// minted here, under the pool mutex.
struct FramePool::Impl {
  explicit Impl(std::size_t cap) : capacity(cap) {}

  std::mutex mutex;
  std::vector<std::shared_ptr<vision::ImageU8>> parked;
  std::size_t capacity;
  std::uint64_t reuses = 0;
  std::uint64_t allocs = 0;
  std::uint64_t returns = 0;
  std::uint64_t discards = 0;
};

FramePool::FramePool(std::size_t capacity)
    : impl_(std::make_shared<Impl>(capacity)) {}

std::shared_ptr<vision::ImageU8> FramePool::acquire(int width, int height) {
  std::shared_ptr<vision::ImageU8> buf;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    for (const auto& parked : impl_->parked) {
      if (parked.use_count() == 1) {
        buf = parked;
        ++impl_->reuses;
        break;
      }
    }
    if (buf == nullptr) {
      ++impl_->allocs;
      buf = std::make_shared<vision::ImageU8>();
      if (impl_->parked.size() < impl_->capacity) {
        impl_->parked.push_back(buf);
        ++impl_->returns;
      } else {
        // Over capacity (or capacity 0): hand it out untracked; it frees
        // when the last consumer drops it, like the pre-pool code.
        ++impl_->discards;
      }
    }
  }
  // Safe outside the lock: we hold the only reference besides the parked
  // copy, and reset() reuses the pixel vector's capacity when it fits.
  buf->reset(width, height);
  return buf;
}

FramePool::Stats FramePool::stats() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  Stats s;
  s.reuses = impl_->reuses;
  s.allocs = impl_->allocs;
  s.returns = impl_->returns;
  s.discards = impl_->discards;
  for (const auto& parked : impl_->parked) {
    if (parked.use_count() == 1) {
      ++s.free_buffers;
      s.free_bytes += parked->capacity_bytes();
    }
  }
  return s;
}

// ---------------------------------------------------------- FrameStore ---

FrameStore::FrameStore(const SyntheticVideo& video, FrameStoreOptions options)
    : video_(video), options_(options), pool_(options.pool_buffers) {
  slots_.resize(static_cast<std::size_t>(video.frame_count()));
  if (obs::Telemetry::enabled()) {
    obs::MetricsRegistry& reg = obs::metrics();
    renders_counter_ = &reg.counter("framestore", "renders");
    hits_counter_ = &reg.counter("framestore", "hits");
    pool_reuse_counter_ = &reg.counter("framestore", "pool_reuse");
    resident_bytes_gauge_ = &reg.gauge("framestore", "resident_bytes");
  }
}

FrameRef FrameStore::get(int index) {
  assert(index >= 0 &&
         index < static_cast<int>(slots_.size()));
  FrameRef ref;
  ref.index = index;
  ref.timestamp_ms = video_.timestamp_ms(index);
  ref.image_ptr = acquire_image(index);
  return ref;
}

std::shared_ptr<const vision::ImageU8> FrameStore::acquire_image(int index) {
  std::unique_lock<std::mutex> lock(mutex_);
  highest_requested_ = std::max(highest_requested_, index);
  for (;;) {
    Slot& slot = slots_[static_cast<std::size_t>(index)];
    if (slot.state == SlotState::kReady) {
      ++hits_;
      if (hits_counter_ != nullptr) hits_counter_->add();
      return slot.image;
    }
    if (slot.state == SlotState::kRendering) {
      // Another thread is rasterizing this exact frame: wait for it to
      // publish instead of rendering twice (the render-once latch).
      ++waits_;
      cv_.wait(lock, [&] { return slot.state != SlotState::kRendering; });
      continue;  // kReady (hit) or, rarely, kEmpty after an eviction race
    }

    // kEmpty: this thread renders. Precached videos are aliased in place —
    // the cache is immutable and outlives the store by contract.
    if (const vision::ImageU8* cached = video_.cached_frame(index)) {
      slot.image = std::shared_ptr<const vision::ImageU8>(
          std::shared_ptr<const void>(), cached);
      slot.state = SlotState::kReady;
      slot.owned = false;
      ++precache_hits_;
      evict_locked();
      cv_.notify_all();
      return slot.image;
    }

    slot.state = SlotState::kRendering;
    const bool again = slot.rendered_before;
    lock.unlock();

    std::shared_ptr<vision::ImageU8> buf =
        pool_.acquire(video_.frame_size().width, video_.frame_size().height);
    {
      obs::ScopedSpan span("render_frame", "video", index);
      video_.render_into(index, *buf);
    }

    lock.lock();
    slot.image = std::move(buf);
    slot.state = SlotState::kReady;
    slot.rendered_before = true;
    slot.owned = true;
    ++renders_;
    if (again) ++re_renders_;
    ++resident_frames_;
    resident_bytes_ += slot.image->pixels().size();
    if (renders_counter_ != nullptr) renders_counter_->add();
    evict_locked();
    publish_gauges_locked();
    cv_.notify_all();
    return slot.image;
  }
}

void FrameStore::evict_locked() {
  // Release slots that fell behind both the sliding window and the
  // explicit trim floor. Outstanding FrameRefs keep their pixels alive;
  // dropping the store's reference is what lets buffers recycle.
  const int window_floor =
      options_.window >= static_cast<int>(slots_.size())
          ? 0
          : highest_requested_ - options_.window;
  const int floor = std::max(trim_floor_, window_floor);
  while (evict_cursor_ < floor &&
         evict_cursor_ < static_cast<int>(slots_.size())) {
    Slot& slot = slots_[static_cast<std::size_t>(evict_cursor_)];
    if (slot.state == SlotState::kRendering) break;  // keep cursor monotone
    if (slot.state == SlotState::kReady) {
      if (slot.owned) {
        --resident_frames_;
        resident_bytes_ -= slot.image->pixels().size();
      }
      slot.image.reset();
      slot.state = SlotState::kEmpty;
    }
    ++evict_cursor_;
  }
}

void FrameStore::publish_gauges_locked() {
  if (resident_bytes_gauge_ != nullptr) {
    resident_bytes_gauge_->set(static_cast<double>(resident_bytes_));
  }
  if (pool_reuse_counter_ != nullptr) {
    // Mirror the pool's monotone reuse count into the obs counter.
    const std::uint64_t reuses = pool_.stats().reuses;
    const std::uint64_t seen = pool_reuse_counter_->value();
    if (reuses > seen) pool_reuse_counter_->add(reuses - seen);
  }
}

void FrameStore::trim_below(int index) {
  std::lock_guard<std::mutex> lock(mutex_);
  trim_floor_ = std::max(trim_floor_, index);
  evict_locked();
  publish_gauges_locked();
}

FrameStoreStats FrameStore::stats() const {
  const FramePool::Stats pool = pool_.stats();
  std::lock_guard<std::mutex> lock(mutex_);
  FrameStoreStats s;
  s.renders = renders_;
  s.re_renders = re_renders_;
  s.hits = hits_;
  s.precache_hits = precache_hits_;
  s.waits = waits_;
  s.pool_reuses = pool.reuses;
  s.pool_allocs = pool.allocs;
  s.pool_returns = pool.returns;
  s.pool_discards = pool.discards;
  s.resident_frames = resident_frames_;
  s.resident_bytes = resident_bytes_;
  return s;
}

}  // namespace adavp::video
