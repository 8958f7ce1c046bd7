#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/span_tracer.h"

namespace adavp::obs {

/// Lock-free bounded ring of the most recent SpanEvents — the black box
/// that survives a crash-landing. Where SpanTracer buffers *everything*
/// for a deliberate post-run export, the FlightRecorder keeps only the
/// last `capacity` events (spans, fault injections, degradation steps,
/// watchdog cancels) and is dumped automatically when a run ends with a
/// non-OK `core::Status` or a watchdog trip (docs/OBSERVABILITY.md,
/// "Flight-recorder post-mortems").
///
/// Writers never allocate: a ticket from one fetch_add picks the slot, and
/// a per-slot seqlock (odd sequence = write in progress) lets the dumper
/// detect and skip entries torn by a concurrent writer. A writer claims its
/// slot before writing, so two writers a whole ring apart never write one
/// slot at once: the older one drops its event, and the newer one waits
/// only while an older writer is still copying into that slot. Payload
/// fields are individual relaxed atomics so concurrent engines record
/// without data races (the TSan-labeled concurrency test runs two engines
/// against one recorder). Under wrap contention an entry may be
/// overwritten mid-read — it is skipped, which is the right trade for a
/// diagnostic ring.
class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  /// Appends one event. Strings must be literals (kept by pointer, exactly
  /// as SpanEvent requires).
  void record(const SpanEvent& event);

  /// Instant-event shorthand stamped with `t_us`.
  void instant(std::int64_t t_us, const char* name, const char* category,
               std::int64_t arg = SpanEvent::kInvalidArg,
               const char* arg_name = "");

  /// Copies out the live entries, oldest first, skipping any entry a
  /// concurrent writer has torn. Safe to call while writers keep writing.
  std::vector<SpanEvent> snapshot() const;

  /// Events ever recorded (monotonic; snapshot holds at most `capacity()`).
  std::uint64_t total_recorded() const {
    return head_.load(std::memory_order_relaxed);
  }

  std::size_t capacity() const { return slots_.size(); }

  /// Drops all entries (between runs; not concurrency-safe with writers).
  void clear();

  static constexpr std::size_t kDefaultCapacity = 4096;

 private:
  /// One seqlock-guarded slot. `seq` is even when the slot is stable
  /// (2*ticket + 2 after a completed write) and odd while a write is in
  /// flight; readers compare seq before and after copying the payload.
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<const char*> name{""};
    std::atomic<const char*> category{""};
    std::atomic<std::uint32_t> tid{0};
    std::atomic<std::uint32_t> depth{0};
    std::atomic<std::int64_t> begin_us{0};
    std::atomic<std::int64_t> end_us{0};
    std::atomic<std::int64_t> arg{SpanEvent::kInvalidArg};
    std::atomic<const char*> arg_name{""};
  };

  std::vector<Slot> slots_;
  std::atomic<std::uint64_t> head_{0};  ///< next ticket
};

}  // namespace adavp::obs
