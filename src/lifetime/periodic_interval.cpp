#include "lifetime/periodic_interval.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "util/status.h"

namespace sdf {

PeriodicInterval::PeriodicInterval(std::int64_t start, std::int64_t dur,
                                   std::vector<std::int64_t> periods,
                                   std::vector<std::int64_t> counts)
    : start_(start), dur_(dur) {
  if (dur <= 0) {
    throw std::invalid_argument("PeriodicInterval: dur must be positive");
  }
  if (periods.size() != counts.size()) {
    throw std::invalid_argument("PeriodicInterval: periods/counts mismatch");
  }
  std::vector<std::pair<std::int64_t, std::int64_t>> items;
  for (std::size_t i = 0; i < periods.size(); ++i) {
    if (periods[i] <= 0 || counts[i] <= 0) {
      throw std::invalid_argument("PeriodicInterval: non-positive component");
    }
    if (counts[i] > 1) items.emplace_back(periods[i], counts[i]);
  }
  std::sort(items.begin(), items.end());
  std::int64_t below = 0;  // sum_{j<i} (count_j - 1) * a_j
  for (const auto& [a, cnt] : items) {
    if (below >= a) {
      throw std::invalid_argument(
          "PeriodicInterval: mixed-radix property violated");
    }
    std::int64_t span = 0;
    if (__builtin_mul_overflow(cnt - 1, a, &span) ||
        __builtin_add_overflow(below, span, &below)) {
      throw ArithmeticOverflowError("PeriodicInterval: span overflow");
    }
    periods_.push_back(a);
    counts_.push_back(cnt);
  }
}

std::int64_t PeriodicInterval::last_stop() const {
  std::int64_t span = 0;  // fits: the constructor checked the same sum
  for (std::size_t i = 0; i < periods_.size(); ++i) {
    span += (counts_[i] - 1) * periods_[i];
  }
  std::int64_t s = 0;
  if (__builtin_add_overflow(start_, span, &s) ||
      __builtin_add_overflow(s, dur_, &s)) {
    throw ArithmeticOverflowError("PeriodicInterval: last_stop overflow");
  }
  return s;
}

std::int64_t PeriodicInterval::occurrences() const {
  std::int64_t n = 1;
  for (std::int64_t c : counts_) {
    if (__builtin_mul_overflow(n, c, &n)) {
      throw ArithmeticOverflowError("PeriodicInterval: occurrences overflow");
    }
  }
  return n;
}

bool PeriodicInterval::live_at(std::int64_t t) const {
  std::int64_t rem = t - start_;
  if (rem < 0) return false;
  for (std::size_t i = periods_.size(); i-- > 0;) {
    const std::int64_t k = std::min(rem / periods_[i], counts_[i] - 1);
    rem -= k * periods_[i];
  }
  return rem < dur_;
}

std::optional<std::int64_t> PeriodicInterval::next_start_at_or_after(
    std::int64_t t) const {
  if (t <= start_) return start_;
  // One top-down greedy pass finds the last burst starting at or before t
  // (offset `at`) and, in `next`, its successor: the mixed-radix counter
  // incremented at the lowest digit that still has room, lower digits 0.
  std::int64_t rem = t - start_;
  std::int64_t at = 0;
  std::optional<std::int64_t> next;
  for (std::size_t i = periods_.size(); i-- > 0;) {
    const std::int64_t k = std::min(rem / periods_[i], counts_[i] - 1);
    if (k + 1 < counts_[i]) next = start_ + at + (k + 1) * periods_[i];
    at += k * periods_[i];
    rem -= k * periods_[i];
  }
  if (rem == 0) return start_ + at;  // a burst starts exactly at t
  return next;                        // nullopt: past the last burst
}

bool PeriodicInterval::overlaps(const PeriodicInterval& other) const {
  std::int64_t a = first_start();
  std::int64_t b = other.first_start();
  while (true) {
    if (a < b + other.dur_ && b < a + dur_) return true;
    if (a + dur_ <= b) {
      // Advance this interval to the first burst that could reach b's.
      const auto next = next_start_at_or_after(
          std::max(a + 1, b - dur_ + 1));
      if (!next) return false;
      a = *next;
    } else {
      const auto next = other.next_start_at_or_after(
          std::max(b + 1, a - other.dur_ + 1));
      if (!next) return false;
      b = *next;
    }
  }
}

}  // namespace sdf
