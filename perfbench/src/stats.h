// The benchmark's one percentile helper: exact nearest-rank percentiles
// over the raw samples, never bucket estimates.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of sorted samples: the value at rank
/// ceil(p/100 * n), 1-based. 0 for an empty vector.
inline double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// A timing as the benchmark reports it: the median, plus the highest
/// percentile (up to `max_tail`) that has at least `kBeyond` samples
/// above its rank, with the sample count.
struct Summary {
  static constexpr std::size_t kBeyond = 10;
  std::size_t n = 0;
  double p50 = 0.0;
  double tail_pct = 0.0;  ///< which percentile `tail` is; 0 when n <= 10
  double tail = 0.0;

  [[nodiscard]] std::string tail_label() const {
    char buf[32];
    std::snprintf(buf, sizeof buf, "p%g", tail_pct);
    return buf;
  }
};

/// The highest of {max_tail, 99.9, 99, 95, 90, 75, 50} not above
/// `max_tail` whose rank leaves at least Summary::kBeyond samples beyond.
inline Summary summarize(std::vector<double> samples, double max_tail = 99.0) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = percentile_sorted(samples, 50.0);
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (p > max_tail) continue;
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(s.n)));
    if (s.n >= rank + Summary::kBeyond) {
      s.tail_pct = p;
      s.tail = percentile_sorted(samples, p);
      break;
    }
  }
  return s;
}

inline double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return percentile_sorted(samples, 50.0);
}

/// Geometric mean of positive values; 0 when empty.
inline double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(std::max(v, 1e-9));
  return std::exp(log_sum / static_cast<double>(values.size()));
}

}  // namespace perfbench
