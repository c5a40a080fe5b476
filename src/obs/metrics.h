// Always-on service metrics (docs/OBSERVABILITY.md, "Service
// telemetry"): a registry of monotonic counters and gauges, a log-linear
// histogram, and the exact percentile rule for complete sample sets.
//
// A module declares its metrics once: an enum of slot numbers plus a
// MetricDef table naming them in that order. The slot set is fixed at
// construction, so recording is an index and one relaxed atomic add: no
// strings, no maps, no locks. Counters never reset; readers diff two
// values() reads. Every member is safe from any thread; a read taken
// while writers run is not one atomic cut.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace sdf::obs {

enum class MetricKind { kCounter, kGauge };

struct MetricDef {
  std::string_view name;
  MetricKind kind = MetricKind::kCounter;
};

class Registry {
 public:
  /// Slots follow `global`, then one run of `per_tenant` per tenant, with
  /// `<t>` in those names replaced by the tenant's name.
  explicit Registry(std::span<const MetricDef> global,
                    std::span<const MetricDef> per_tenant = {},
                    std::span<const std::string> tenants = {});

  /// Slot of per-tenant metric `metric` for tenant index `tenant`.
  [[nodiscard]] std::size_t slot(std::size_t tenant,
                                 std::size_t metric) const noexcept {
    return global_ + tenant * per_tenant_ + metric;
  }
  void add(std::size_t slot, std::int64_t delta = 1) noexcept {
    slots_[slot].fetch_add(delta, std::memory_order_relaxed);
  }
  void set(std::size_t slot, std::int64_t value) noexcept {
    slots_[slot].store(value, std::memory_order_relaxed);
  }
  /// Raises the slot to `value` if that is larger (a high-water mark).
  void raise(std::size_t slot, std::int64_t value) noexcept;
  [[nodiscard]] std::int64_t get(std::size_t slot) const noexcept {
    return slots_[slot].load(std::memory_order_relaxed);
  }

  /// Every slot's value, in slot order.
  [[nodiscard]] std::vector<std::int64_t> values() const;
  /// The counters that moved between two values() reads, by name.
  [[nodiscard]] std::map<std::string, std::int64_t> counter_deltas(
      const std::vector<std::int64_t>& later,
      const std::vector<std::int64_t>& earlier) const;
  /// Adds each nonzero counter of a values() read to the telemetry
  /// session and sets each gauge there. No-op while it is disabled.
  void export_to_session(const std::vector<std::int64_t>& values) const;

 private:
  std::size_t global_;
  std::size_t per_tenant_;
  std::vector<std::string> names_;
  std::vector<MetricKind> kinds_;
  std::unique_ptr<std::atomic<std::int64_t>[]> slots_;
};

/// Log-linear buckets: values 0-7 get one each, and above that every
/// power of two splits into 8 equal buckets, so a bucket's upper bound
/// overstates its values by less than 12.5%. 488 buckets cover every
/// non-negative int64.
inline constexpr std::size_t kHistogramBuckets = 488;

/// Bucket of `value` (negative values count as 0).
[[nodiscard]] std::size_t histogram_bucket(std::int64_t value) noexcept;
/// Largest value that falls into bucket `index`.
[[nodiscard]] std::int64_t histogram_bucket_upper(std::size_t index) noexcept;

/// A plain copy of a LogHistogram.
struct HistogramSnapshot {
  std::array<std::int64_t, kHistogramBuckets> buckets{};
  std::int64_t count = 0;
  std::int64_t sum = 0;

  /// Upper bound of the bucket holding the sample of rank
  /// ceil(p/100 * count), at least 1; 0 when empty. p in [0, 100].
  [[nodiscard]] std::int64_t percentile(double p) const noexcept;
  /// What was recorded between `earlier` and this snapshot.
  [[nodiscard]] HistogramSnapshot delta_since(
      const HistogramSnapshot& earlier) const noexcept;
};

/// Atomic log-linear histogram: record() is two relaxed atomic adds.
class LogHistogram {
 public:
  void record(std::int64_t value) noexcept;
  [[nodiscard]] HistogramSnapshot snapshot() const noexcept;

 private:
  std::array<std::atomic<std::int64_t>, kHistogramBuckets> buckets_{};
  std::atomic<std::int64_t> sum_{0};
};

/// Exact percentile of a complete sample set: the sample of rank
/// ceil(p/100 * n), at least 1, in ascending order; 0 when empty. p in
/// [0, 100]. The rule for samples held in full (the trace simulator, the
/// bench harnesses); streams use LogHistogram.
[[nodiscard]] std::int64_t exact_percentile(std::vector<std::int64_t> samples,
                                            double p);

}  // namespace sdf::obs
