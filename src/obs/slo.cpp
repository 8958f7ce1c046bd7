#include "obs/slo.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

namespace adavp::obs {

namespace {

std::string format_number(double v) {
  std::ostringstream out;
  out << v;
  return out.str();
}

/// Exact quantile of a small per-window sample set (windows hold at most a
/// few hundred results, so sorting a copy beats bucketing here).
double sample_percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = (q / 100.0) * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

double SloSpec::effective_deadline_ms() const {
  if (deadline_ms > 0.0) return deadline_ms;
  return target_fps > 0.0 ? 1000.0 / target_fps : 0.0;
}

std::optional<SloSpec> SloSpec::parse(const std::string& text,
                                      std::string* error) {
  SloSpec spec;
  std::istringstream in(text);
  std::string pair;
  while (in >> pair) {
    const std::size_t eq = pair.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= pair.size()) {
      if (error != nullptr) *error = "expected key=value, got '" + pair + "'";
      return std::nullopt;
    }
    const std::string key = pair.substr(0, eq);
    double value = 0.0;
    try {
      std::size_t consumed = 0;
      value = std::stod(pair.substr(eq + 1), &consumed);
      if (consumed != pair.size() - eq - 1 || !std::isfinite(value)) {
        throw std::invalid_argument(pair);
      }
    } catch (const std::exception&) {
      if (error != nullptr) *error = "bad number in '" + pair + "'";
      return std::nullopt;
    }
    if (key == "fps") {
      spec.target_fps = value;
    } else if (key == "deadline_ms") {
      spec.deadline_ms = value;
    } else if (key == "miss_rate") {
      spec.max_miss_rate = value;
    } else if (key == "coast_ratio") {
      spec.max_coast_ratio = value;
    } else if (key == "jitter_ms") {
      spec.max_jitter_ms = value;
    } else if (key == "min_fps_fraction") {
      spec.min_fps_fraction = value;
    } else if (key == "window_ms") {
      spec.window_ms = value;
    } else if (key == "breach_windows" || key == "recover_windows") {
      // Range-checked before the cast: a double outside int's range makes
      // static_cast<int> undefined.
      if (value < 1.0 || value > std::numeric_limits<int>::max()) {
        if (error != nullptr) *error = key + " must be in [1, INT_MAX]";
        return std::nullopt;
      }
      (key == "breach_windows" ? spec.breach_windows : spec.recover_windows) =
          static_cast<int>(value);
    } else {
      if (error != nullptr) *error = "unknown SLO key '" + key + "'";
      return std::nullopt;
    }
  }
  if (spec.target_fps <= 0.0 || spec.window_ms <= 0.0) {
    if (error != nullptr) *error = "fps and window_ms must be positive";
    return std::nullopt;
  }
  return spec;
}

std::string SloSpec::to_json() const {
  std::ostringstream out;
  out << "{\"fps\":" << format_number(target_fps) << ",\"deadline_ms\":"
      << format_number(effective_deadline_ms()) << ",\"miss_rate\":"
      << format_number(max_miss_rate) << ",\"coast_ratio\":"
      << format_number(max_coast_ratio) << ",\"jitter_ms\":"
      << format_number(max_jitter_ms) << ",\"min_fps_fraction\":"
      << format_number(min_fps_fraction) << ",\"window_ms\":"
      << format_number(window_ms) << ",\"breach_windows\":" << breach_windows
      << ",\"recover_windows\":" << recover_windows << "}";
  return out.str();
}

std::string SloReport::to_json() const {
  std::ostringstream out;
  out << "{\"spec\":" << spec.to_json()
      << ",\"evaluated\":" << (evaluated ? "true" : "false")
      << ",\"violated_windows\":" << violated_windows
      << ",\"in_breach_at_end\":" << (in_breach_at_end ? "true" : "false")
      << ",\"windows\":[";
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const SloWindow& w = windows[i];
    if (i > 0) out << ",";
    out << "{\"index\":" << w.index << ",\"start_ms\":"
        << format_number(w.start_ms) << ",\"end_ms\":" << format_number(w.end_ms)
        << ",\"results\":" << w.results
        << ",\"deadline_misses\":" << w.deadline_misses
        << ",\"coasted\":" << w.coasted << ",\"fps\":" << format_number(w.fps)
        << ",\"miss_rate\":" << format_number(w.miss_rate)
        << ",\"coast_ratio\":" << format_number(w.coast_ratio)
        << ",\"jitter_p50_ms\":" << format_number(w.jitter_p50_ms)
        << ",\"jitter_p99_ms\":" << format_number(w.jitter_p99_ms)
        << ",\"latency_p99_ms\":" << format_number(w.latency_p99_ms)
        << ",\"burn_rate\":" << format_number(w.burn_rate)
        << ",\"violated\":" << (w.violated ? "true" : "false")
        << ",\"violation\":\"" << json_escape(w.violation) << "\"}";
  }
  out << "],\"breaches\":[";
  for (std::size_t i = 0; i < breaches.size(); ++i) {
    const SloBreachEvent& b = breaches[i];
    if (i > 0) out << ",";
    out << "{\"t_ms\":" << format_number(b.t_ms)
        << ",\"window_index\":" << b.window_index
        << ",\"entered\":" << (b.entered ? "true" : "false")
        << ",\"burn_rate\":" << format_number(b.burn_rate) << ",\"reason\":\""
        << json_escape(b.reason) << "\"}";
  }
  out << "]}";
  return out.str();
}

SloTracker::SloTracker(SloSpec spec) : spec_(spec) {
  deadline_ms_ = spec_.effective_deadline_ms();
  expected_gap_ms_ = spec_.target_fps > 0.0 ? 1000.0 / spec_.target_fps : 0.0;
  report_.spec = spec_;
  report_.evaluated = true;
  jitter_samples_.reserve(256);
  latency_samples_.reserve(256);
}

void SloTracker::finalize_current() {
  if (current_index_ < 0) return;
  SloWindow w;
  w.index = current_index_;
  w.start_ms = static_cast<double>(current_index_) * spec_.window_ms;
  w.end_ms = w.start_ms + spec_.window_ms;
  w.results = results_;
  w.deadline_misses = misses_;
  w.coasted = coasted_;
  w.fps = static_cast<double>(results_) / (spec_.window_ms / 1000.0);
  w.miss_rate = results_ > 0
                    ? static_cast<double>(misses_) / static_cast<double>(results_)
                    : 0.0;
  w.coast_ratio =
      results_ > 0
          ? static_cast<double>(coasted_) / static_cast<double>(results_)
          : 0.0;
  w.jitter_p50_ms = sample_percentile(jitter_samples_, 50);
  w.jitter_p99_ms = sample_percentile(jitter_samples_, 99);
  w.latency_p99_ms = sample_percentile(latency_samples_, 99);

  // Checks, in the order the violation tag reports them. The fps floor
  // comes first: a stalled window has nothing else to judge.
  const double min_fps = spec_.target_fps * spec_.min_fps_fraction;
  if (w.fps < min_fps) {
    w.violated = true;
    w.violation = "fps";
  } else if (spec_.max_miss_rate >= 0.0 && w.miss_rate > spec_.max_miss_rate) {
    w.violated = true;
    w.violation = "miss_rate";
  } else if (spec_.max_coast_ratio >= 0.0 &&
             w.coast_ratio > spec_.max_coast_ratio) {
    w.violated = true;
    w.violation = "coast_ratio";
  } else if (spec_.max_jitter_ms > 0.0 && w.jitter_p99_ms > spec_.max_jitter_ms) {
    w.violated = true;
    w.violation = "jitter";
  }
  if (spec_.max_miss_rate > 0.0) {
    w.burn_rate = w.miss_rate / spec_.max_miss_rate;
  } else {
    w.burn_rate = w.miss_rate > 0.0 ? 1e9 : 0.0;
  }
  // A stall burns the budget even with zero delivered (and thus zero
  // missed) results: count the shortfall against target throughput.
  if (w.violation == "fps" && w.burn_rate < 1.0 && spec_.target_fps > 0.0) {
    w.burn_rate = std::max(w.burn_rate, 1.0 + (min_fps - w.fps) / min_fps);
  }

  if (w.violated) {
    ++report_.violated_windows;
    ++consecutive_violated_;
    consecutive_healthy_ = 0;
  } else {
    ++consecutive_healthy_;
    consecutive_violated_ = 0;
  }

  if (!in_breach_ && consecutive_violated_ >= spec_.breach_windows) {
    in_breach_ = true;
    report_.breaches.push_back(
        {w.end_ms, w.index, /*entered=*/true, w.burn_rate, w.violation});
  } else if (in_breach_ && consecutive_healthy_ >= spec_.recover_windows) {
    in_breach_ = false;
    report_.breaches.push_back(
        {w.end_ms, w.index, /*entered=*/false, w.burn_rate, "recovered"});
  }

  last_reading_ = {/*valid=*/true, w.end_ms,       w.fps,
                   w.miss_rate,    w.coast_ratio,  w.jitter_p99_ms,
                   w.burn_rate,    in_breach_};
  report_.windows.push_back(std::move(w));

  results_ = 0;
  misses_ = 0;
  coasted_ = 0;
  jitter_samples_.clear();
  latency_samples_.clear();
}

void SloTracker::roll_to(std::int64_t window_index) {
  if (current_index_ < 0) {
    current_index_ = window_index;
    return;
  }
  while (current_index_ < window_index) {
    finalize_current();  // finalizes empty intermediate windows too
    ++current_index_;
  }
}

void SloTracker::on_result(double t_ms, double latency_ms, bool coasted) {
  const std::int64_t index = std::max<std::int64_t>(
      0, static_cast<std::int64_t>(std::floor(t_ms / spec_.window_ms)));
  if (index < current_index_) return;  // late result: window already judged
  roll_to(index);
  ++results_;
  if (latency_ms > deadline_ms_) ++misses_;
  if (coasted) ++coasted_;
  latency_samples_.push_back(latency_ms);
  if (last_result_ms_ >= 0.0) {
    jitter_samples_.push_back(
        std::fabs((t_ms - last_result_ms_) - expected_gap_ms_));
  }
  last_result_ms_ = t_ms;
}

SloReport SloTracker::finish(double end_ms) {
  if (current_index_ >= 0) {
    const std::int64_t final_index = std::max(
        current_index_,
        static_cast<std::int64_t>(std::ceil(end_ms / spec_.window_ms)) - 1);
    roll_to(final_index);
    finalize_current();
    current_index_ = -1;
  }
  report_.in_breach_at_end = in_breach_;
  return report_;
}

SensorReading SloTracker::read() const { return last_reading_; }

}  // namespace adavp::obs
