#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace adavp::obs {

/// Declarative per-run service-level objective for a detection pipeline.
/// Parsed from the `--slo` flag grammar: whitespace-separated `key=value`
/// pairs, e.g. `"fps=30 deadline_ms=40 miss_rate=0.1 coast_ratio=0.5"`
/// (docs/OBSERVABILITY.md, "SLO spec grammar"). Unset optional knobs
/// disable their check.
struct SloSpec {
  /// Results per second the pipeline must sustain per window.
  double target_fps = 30.0;
  /// Per-result latency deadline; a result whose cycle latency exceeds this
  /// is a deadline miss. 0 derives 1000 / target_fps.
  double deadline_ms = 0.0;
  /// Fraction of a window's results allowed to miss the deadline before the
  /// window is in violation.
  double max_miss_rate = 0.05;
  /// Fraction of a window's results allowed to be coasted (tracker-only)
  /// before the window is in violation. Negative disables the check.
  double max_coast_ratio = 0.5;
  /// p99 bound on inter-result jitter (|gap - 1000/target_fps|) per window.
  /// 0 disables the check.
  double max_jitter_ms = 0.0;
  /// A window whose observed fps falls below `target_fps * min_fps_fraction`
  /// is in violation even if every delivered result met its deadline — this
  /// is what makes a stalled pipeline (fps 0) visible.
  double min_fps_fraction = 0.9;
  /// Evaluation window width.
  double window_ms = 1000.0;
  /// Hysteresis: consecutive violated windows before a breach is entered,
  /// and consecutive healthy windows before it recovers. At least 1.
  int breach_windows = 2;
  int recover_windows = 2;

  /// The effective per-result deadline (`deadline_ms` or derived).
  double effective_deadline_ms() const;

  /// Parses the `key=value ...` grammar. Unknown keys, malformed pairs,
  /// non-finite numbers and window counts outside [1, INT_MAX] return
  /// std::nullopt (with a diagnostic in `*error` when non-null).
  static std::optional<SloSpec> parse(const std::string& text,
                                      std::string* error = nullptr);

  std::string to_json() const;
};

/// One evaluated SLO window.
struct SloWindow {
  std::int64_t index = 0;
  double start_ms = 0.0;
  double end_ms = 0.0;
  std::uint64_t results = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t coasted = 0;
  double fps = 0.0;
  double miss_rate = 0.0;
  double coast_ratio = 0.0;
  double jitter_p50_ms = 0.0;
  double jitter_p99_ms = 0.0;
  double latency_p99_ms = 0.0;
  /// miss_rate / max_miss_rate — >1 means the error budget burns faster
  /// than the SLO allows. Stalled windows report burn via the fps check.
  double burn_rate = 0.0;
  bool violated = false;
  /// First failed check, for humans: "", "fps", "miss_rate", "coast_ratio"
  /// or "jitter".
  std::string violation = "";
};

/// A breach state transition produced by the hysteresis machine.
struct SloBreachEvent {
  double t_ms = 0.0;           ///< end of the window that flipped the state
  std::int64_t window_index = 0;
  bool entered = false;        ///< true = breach entered, false = recovered
  double burn_rate = 0.0;      ///< burn rate of the flipping window
  std::string reason = "";     ///< violation tag of the flipping window
};

/// Full-run SLO evaluation, mirrored into core::RunResult/RealtimeStats.
struct SloReport {
  SloSpec spec;
  bool evaluated = false;  ///< false when no tracker ran (report is empty)
  std::vector<SloWindow> windows;
  std::vector<SloBreachEvent> breaches;
  std::uint64_t violated_windows = 0;
  bool in_breach_at_end = false;

  std::string to_json() const;
};

/// Instantaneous sensor sample for a runtime controller (Virtuoso-style):
/// the most recent completed window's health, cheap enough to poll every
/// scheduling decision (DESIGN.md §12).
struct SensorReading {
  bool valid = false;  ///< false until the first window completes
  double t_ms = 0.0;
  double fps = 0.0;
  double miss_rate = 0.0;
  double coast_ratio = 0.0;
  double jitter_p99_ms = 0.0;
  double burn_rate = 0.0;
  bool in_breach = false;
};

/// Evaluates an SloSpec over a stream of pipeline results. Single-owner
/// (one tracker per run, fed from whichever thread emits results under the
/// engine's existing serialization; realtime feeds it under its stats
/// mutex). Time is the caller's pipeline clock, so virtual-time engines
/// evaluate deterministically.
///
/// Window lifecycle: `on_result` rolls the current window forward; when a
/// result lands past the window end, every intermediate window — including
/// fully empty ones — is finalized and judged, so a stall produces a run of
/// fps-0 violated windows rather than silence. `finish(end_ms)` flushes the
/// last partial window.
class SloTracker {
 public:
  explicit SloTracker(SloSpec spec);

  /// One pipeline result at time `t_ms` with end-to-end cycle latency
  /// `latency_ms`; `coasted` marks tracker-only (extrapolated) results.
  void on_result(double t_ms, double latency_ms, bool coasted);

  /// Finalizes through `end_ms` and returns the full report. Idempotent
  /// only in the sense that the tracker should not be fed afterwards.
  SloReport finish(double end_ms);

  /// Latest completed window's health (see SensorReading).
  SensorReading read() const;

  const SloSpec& spec() const { return spec_; }

 private:
  void roll_to(std::int64_t window_index);
  void finalize_current();

  SloSpec spec_;
  double deadline_ms_ = 0.0;
  double expected_gap_ms_ = 0.0;

  // Current (open) window accumulators.
  std::int64_t current_index_ = -1;
  std::uint64_t results_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t coasted_ = 0;
  std::vector<double> jitter_samples_;
  std::vector<double> latency_samples_;

  double last_result_ms_ = -1.0;  ///< for inter-result jitter

  // Hysteresis state.
  int consecutive_violated_ = 0;
  int consecutive_healthy_ = 0;
  bool in_breach_ = false;

  SloReport report_;
  SensorReading last_reading_;
};

}  // namespace adavp::obs
