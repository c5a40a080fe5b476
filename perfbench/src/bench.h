// Shared types of the benchmark program: run configuration, the result a
// workload hands back, and small helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/json_report.h"

namespace perfbench {

namespace obs = sdf::obs;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Cuts the compile corpus to a few small graphs (--tiny, for the
  /// smoke check).
  bool tiny = false;
  /// Scratch directory for sockets and cache dirs (relative path).
  std::string work_dir;
  std::string spans_path;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced. `metrics` holds the end-to-end set
/// on untraced runs and the per-layer set on traced runs; `detail` holds
/// everything else worth keeping (per-graph rows, sample counts,
/// percentile labels) for the result record.
struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> divergences;  ///< correctness-gate failures
  obs::Json detail = obs::Json::object();

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void diverge(std::string what) { divergences.push_back(std::move(what)); }
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// A memory field of /proc/<pid>/status (such as "VmHWM" or "RssAnon")
/// in MiB; `pid` may be "self". 0 where unreadable.
double status_mb(const std::string& pid, const std::string& field);

/// Peak resident set of this process (VmHWM), in MiB.
inline double peak_rss_mb() { return status_mb("self", "VmHWM"); }

Outcome run_compile_scaled(const RunConfig& cfg);
Outcome run_service_hot(const RunConfig& cfg);
Outcome run_service_mixed(const RunConfig& cfg);

/// The names of every per-layer metric, in output order; a traced run
/// reports each one, with 0 for layers its workload does not run.
const std::vector<std::pair<std::string, std::string>>& per_layer_catalog();

}  // namespace perfbench
