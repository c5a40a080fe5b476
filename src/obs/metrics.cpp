#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "obs/counters.h"
#include "obs/trace.h"

namespace sdf::obs {
namespace {

constexpr int kSubBits = 3;  // 8 buckets per power of two
constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
static_assert((64 - kSubBits) * kSub == kHistogramBuckets);

/// Rank ceil(p/100 * n), at least 1: the one rule both percentiles use.
std::int64_t rank_of(double p, std::size_t n) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  return std::max<std::int64_t>(1, static_cast<std::int64_t>(rank));
}

}  // namespace

Registry::Registry(std::span<const MetricDef> global,
                   std::span<const MetricDef> per_tenant,
                   std::span<const std::string> tenants)
    : global_(global.size()), per_tenant_(per_tenant.size()) {
  for (const MetricDef& def : global) {
    names_.emplace_back(def.name);
    kinds_.push_back(def.kind);
  }
  for (const std::string& tenant : tenants) {
    for (const MetricDef& def : per_tenant) {
      std::string name(def.name);
      if (const std::size_t at = name.find("<t>"); at != std::string::npos) {
        name.replace(at, 3, tenant);
      }
      names_.push_back(std::move(name));
      kinds_.push_back(def.kind);
    }
  }
  slots_ = std::make_unique<std::atomic<std::int64_t>[]>(names_.size());
}

void Registry::raise(std::size_t slot, std::int64_t value) noexcept {
  std::int64_t seen = slots_[slot].load(std::memory_order_relaxed);
  while (seen < value && !slots_[slot].compare_exchange_weak(
                             seen, value, std::memory_order_relaxed)) {
  }
}

std::vector<std::int64_t> Registry::values() const {
  std::vector<std::int64_t> out(names_.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = get(i);
  return out;
}

std::map<std::string, std::int64_t> Registry::counter_deltas(
    const std::vector<std::int64_t>& later,
    const std::vector<std::int64_t>& earlier) const {
  std::map<std::string, std::int64_t> out;
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (kinds_[i] != MetricKind::kCounter) continue;
    const std::int64_t delta = later[i] - earlier[i];
    if (delta != 0) out.emplace(names_[i], delta);
  }
  return out;
}

void Registry::export_to_session(
    const std::vector<std::int64_t>& values) const {
  if (!enabled()) return;
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (kinds_[i] == MetricKind::kGauge) {
      gauge(names_[i], values[i]);
    } else if (values[i] != 0) {
      count(names_[i], values[i]);
    }
  }
}

std::size_t histogram_bucket(std::int64_t value) noexcept {
  if (value < static_cast<std::int64_t>(kSub)) {
    return value < 0 ? 0 : static_cast<std::size_t>(value);
  }
  const auto v = static_cast<std::uint64_t>(value);
  const int shift = std::bit_width(v) - 1 - kSubBits;
  return static_cast<std::size_t>((shift + 1) * kSub + (v >> shift) - kSub);
}

std::int64_t histogram_bucket_upper(std::size_t index) noexcept {
  if (index < kSub) return static_cast<std::int64_t>(index);
  const std::uint64_t mantissa = index % kSub + kSub;
  return static_cast<std::int64_t>(((mantissa + 1) << (index / kSub - 1)) - 1);
}

std::int64_t HistogramSnapshot::percentile(double p) const noexcept {
  if (count <= 0) return 0;
  const std::int64_t rank = rank_of(p, static_cast<std::size_t>(count));
  std::int64_t seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen >= rank) return histogram_bucket_upper(i);
  }
  return histogram_bucket_upper(kHistogramBuckets - 1);
}

HistogramSnapshot HistogramSnapshot::delta_since(
    const HistogramSnapshot& earlier) const noexcept {
  HistogramSnapshot delta;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    delta.buckets[i] = buckets[i] - earlier.buckets[i];
  }
  delta.count = count - earlier.count;
  delta.sum = sum - earlier.sum;
  return delta;
}

void LogHistogram::record(std::int64_t value) noexcept {
  buckets_[histogram_bucket(value)].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value < 0 ? 0 : value, std::memory_order_relaxed);
}

HistogramSnapshot LogHistogram::snapshot() const noexcept {
  HistogramSnapshot out;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    out.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    out.count += out.buckets[i];
  }
  out.sum = sum_.load(std::memory_order_relaxed);
  return out;
}

std::int64_t exact_percentile(std::vector<std::int64_t> samples, double p) {
  if (samples.empty()) return 0;
  const auto idx = std::min(
      static_cast<std::size_t>(rank_of(p, samples.size()) - 1),
      samples.size() - 1);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(idx),
                   samples.end());
  return samples[idx];
}

}  // namespace sdf::obs
