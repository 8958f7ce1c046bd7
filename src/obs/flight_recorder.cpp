#include "obs/flight_recorder.h"

#include <algorithm>
#include <thread>

namespace adavp::obs {

FlightRecorder::FlightRecorder(std::size_t capacity)
    : slots_(std::max<std::size_t>(1, capacity)) {}

void FlightRecorder::record(const SpanEvent& event) {
  const std::uint64_t ticket = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[ticket % slots_.size()];
  // Two writers whose tickets differ by a multiple of the capacity share a
  // slot, and the seqlock below tolerates only one writer at a time. So a
  // writer first claims the slot by moving its seq from an older even
  // value to its own odd one. An older ticket gives way: it drops its
  // event when the slot is held by or already holds a newer one. A newer
  // ticket waits for an older writer still copying in, so the ring always
  // ends up holding the latest `capacity` events.
  const std::uint64_t claimed = 2 * ticket + 1;
  std::uint64_t seq = slot.seq.load(std::memory_order_relaxed);
  for (;;) {
    if (seq > claimed) return;
    if (seq & 1) {
      std::this_thread::yield();
      seq = slot.seq.load(std::memory_order_relaxed);
      continue;
    }
    if (slot.seq.compare_exchange_weak(seq, claimed, std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
      break;
    }
  }
  // Seqlock write: the odd seq is ordered before the payload by the fence,
  // the payload before the even seq by its release store. Payload stores
  // are relaxed; readers pair the fence with their own acquire fence.
  std::atomic_thread_fence(std::memory_order_release);
  slot.name.store(event.name, std::memory_order_relaxed);
  slot.category.store(event.category, std::memory_order_relaxed);
  slot.tid.store(event.tid, std::memory_order_relaxed);
  slot.depth.store(event.depth, std::memory_order_relaxed);
  slot.begin_us.store(event.begin_us, std::memory_order_relaxed);
  slot.end_us.store(event.end_us, std::memory_order_relaxed);
  slot.arg.store(event.arg, std::memory_order_relaxed);
  slot.arg_name.store(event.arg_name, std::memory_order_relaxed);
  slot.seq.store(claimed + 1, std::memory_order_release);
}

void FlightRecorder::instant(std::int64_t t_us, const char* name,
                             const char* category, std::int64_t arg,
                             const char* arg_name) {
  SpanEvent event;
  event.name = name;
  event.category = category;
  event.begin_us = t_us;
  event.end_us = t_us;
  event.arg = arg;
  event.arg_name = arg_name;
  record(event);
}

std::vector<SpanEvent> FlightRecorder::snapshot() const {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t count =
      std::min<std::uint64_t>(head, slots_.size());
  std::vector<SpanEvent> out;
  out.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t ticket = head - count; ticket < head; ++ticket) {
    const Slot& slot = slots_[ticket % slots_.size()];
    const std::uint64_t before = slot.seq.load(std::memory_order_acquire);
    if (before != 2 * ticket + 2) continue;  // torn or already overwritten
    SpanEvent event;
    event.name = slot.name.load(std::memory_order_relaxed);
    event.category = slot.category.load(std::memory_order_relaxed);
    event.tid = slot.tid.load(std::memory_order_relaxed);
    event.depth = slot.depth.load(std::memory_order_relaxed);
    event.begin_us = slot.begin_us.load(std::memory_order_relaxed);
    event.end_us = slot.end_us.load(std::memory_order_relaxed);
    event.arg = slot.arg.load(std::memory_order_relaxed);
    event.arg_name = slot.arg_name.load(std::memory_order_relaxed);
    // Keeps the payload loads above from sinking below the second seq load.
    std::atomic_thread_fence(std::memory_order_acquire);
    const std::uint64_t after = slot.seq.load(std::memory_order_relaxed);
    if (after != before) continue;  // overwritten while copying
    out.push_back(event);
  }
  return out;
}

void FlightRecorder::clear() {
  head_.store(0, std::memory_order_relaxed);
  for (Slot& slot : slots_) slot.seq.store(0, std::memory_order_relaxed);
}

}  // namespace adavp::obs
