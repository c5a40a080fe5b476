#include "lifetime/periodic_interval.h"

#include <gtest/gtest.h>

#include <limits>
#include <random>
#include <set>
#include <stdexcept>

#include "util/status.h"

namespace sdf {
namespace {

/// Brute-force burst starts by enumerating all count combinations.
std::set<std::int64_t> all_starts(const PeriodicInterval& p) {
  std::set<std::int64_t> starts{p.first_start()};
  const auto& periods = p.periods();
  const auto& counts = p.counts();
  std::vector<std::int64_t> k(periods.size(), 0);
  while (true) {
    std::size_t i = 0;
    for (; i < k.size(); ++i) {
      if (++k[i] < counts[i]) break;
      k[i] = 0;
    }
    if (i == k.size()) break;
    std::int64_t s = p.first_start();
    for (std::size_t j = 0; j < k.size(); ++j) s += k[j] * periods[j];
    starts.insert(s);
  }
  return starts;
}

TEST(PeriodicInterval, SolidBasics) {
  const PeriodicInterval p = PeriodicInterval::solid(3, 4);
  EXPECT_FALSE(p.is_periodic());
  EXPECT_EQ(p.first_start(), 3);
  EXPECT_EQ(p.burst_duration(), 4);
  EXPECT_EQ(p.last_stop(), 7);
  EXPECT_EQ(p.occurrences(), 1);
  EXPECT_FALSE(p.live_at(2));
  EXPECT_TRUE(p.live_at(3));
  EXPECT_TRUE(p.live_at(6));
  EXPECT_FALSE(p.live_at(7));  // half-open
}

TEST(PeriodicInterval, PaperFig17BufferAB) {
  // start 0, dur 2, periods (4, 9), counts (2, 2):
  // live on [0,2), [4,6), [9,11), [13,15).
  const PeriodicInterval p(0, 2, {4, 9}, {2, 2});
  EXPECT_EQ(p.occurrences(), 4);
  EXPECT_EQ(p.last_stop(), 15);
  const std::set<std::int64_t> expect_starts{0, 4, 9, 13};
  EXPECT_EQ(all_starts(p), expect_starts);
  for (std::int64_t t = -2; t <= 16; ++t) {
    bool expected = false;
    for (std::int64_t s : expect_starts) expected |= (t >= s && t < s + 2);
    EXPECT_EQ(p.live_at(t), expected) << "t=" << t;
  }
}

TEST(PeriodicInterval, DropsCountOneComponents) {
  const PeriodicInterval p(0, 1, {5, 7}, {1, 2});
  EXPECT_EQ(p.periods().size(), 1u);
  EXPECT_EQ(p.periods()[0], 7);
}

TEST(PeriodicInterval, SortsComponentsAscending) {
  const PeriodicInterval p(0, 1, {9, 2}, {2, 3});
  EXPECT_EQ(p.periods(), (std::vector<std::int64_t>{2, 9}));
  EXPECT_EQ(p.counts(), (std::vector<std::int64_t>{3, 2}));
}

TEST(PeriodicInterval, RejectsMixedRadixViolation) {
  // (count-1)*2 = 4 >= 3: ambiguous decomposition must be rejected.
  EXPECT_THROW(PeriodicInterval(0, 1, {2, 3}, {3, 2}), std::invalid_argument);
}

TEST(PeriodicInterval, RejectsBadArguments) {
  EXPECT_THROW(PeriodicInterval(0, 0, {}, {}), std::invalid_argument);
  EXPECT_THROW(PeriodicInterval(0, 1, {2}, {}), std::invalid_argument);
  EXPECT_THROW(PeriodicInterval(0, 1, {0}, {2}), std::invalid_argument);
  EXPECT_THROW(PeriodicInterval(0, 1, {2}, {0}), std::invalid_argument);
}

TEST(PeriodicInterval, NextStartPaperIncrementExample) {
  // Sec. 8.4: periods (4, 13, 28), counts (2, 2, 2); after the burst at
  // 0*28 + 1*13 + 1*4 = 17 the next start is 28 (increment in the mixed
  // radix basis).
  const PeriodicInterval p(0, 2, {4, 13, 28}, {2, 2, 2});
  EXPECT_EQ(p.next_start_at_or_after(18), 28);
  EXPECT_EQ(p.next_start_at_or_after(17), 17);
  EXPECT_EQ(p.next_start_at_or_after(0), 0);
  EXPECT_EQ(p.next_start_at_or_after(-5), 0);
}

TEST(PeriodicInterval, NextStartExhaustive) {
  const PeriodicInterval p(3, 2, {4, 9}, {2, 2});
  const auto starts = all_starts(p);  // {3, 7, 12, 16}
  for (std::int64_t t = 0; t <= 20; ++t) {
    const auto expected = starts.lower_bound(t);
    const auto got = p.next_start_at_or_after(t);
    if (expected == starts.end()) {
      EXPECT_FALSE(got.has_value()) << t;
    } else {
      ASSERT_TRUE(got.has_value()) << t;
      EXPECT_EQ(*got, *expected) << t;
    }
  }
}

TEST(PeriodicInterval, NextStartPastEnd) {
  const PeriodicInterval p(0, 1, {4}, {3});
  EXPECT_EQ(p.next_start_at_or_after(8), 8);
  EXPECT_FALSE(p.next_start_at_or_after(9).has_value());
}

TEST(PeriodicInterval, NextStartMatchesBurstEnumerationOnRandomIntervals) {
  // Random mixed-radix intervals; t sweeps every gap, every burst start
  // and the tail past the last burst, against brute-force enumeration.
  std::mt19937 rng(20240517);
  auto draw = [&](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };
  int in_gap = 0;
  int on_start = 0;
  int past_end = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const std::int64_t start = draw(0, 6);
    const std::int64_t dur = draw(1, 3);
    std::vector<std::int64_t> periods;
    std::vector<std::int64_t> counts;
    std::int64_t below = dur - 1;  // keep bursts disjoint, as in a tree
    for (std::int64_t c = draw(0, 4); c > 0; --c) {
      periods.push_back(below + draw(1, 3));
      counts.push_back(draw(2, 4));
      below += (counts.back() - 1) * periods.back();
    }
    const PeriodicInterval p(start, dur, periods, counts);
    const auto starts = all_starts(p);
    for (std::int64_t t = start - 2; t <= p.last_stop() + 2; ++t) {
      const auto expected = starts.lower_bound(t);
      const auto got = p.next_start_at_or_after(t);
      if (expected == starts.end()) {
        ++past_end;
        EXPECT_FALSE(got.has_value()) << trial << " t=" << t;
        continue;
      }
      if (*expected == t) ++on_start;
      if (t > start && !p.live_at(t) && *expected != t) ++in_gap;
      ASSERT_TRUE(got.has_value()) << trial << " t=" << t;
      EXPECT_EQ(*got, *expected) << trial << " t=" << t;
    }
  }
  EXPECT_GT(in_gap, 0);
  EXPECT_GT(on_start, 0);
  EXPECT_GT(past_end, 0);
}

TEST(PeriodicInterval, OccurrencesAndLastStopOverflowAreTyped) {
  // 2^32 * 2^31 bursts: the mixed-radix span is exactly INT64_MAX, so the
  // interval is representable but its burst count and end are not.
  const PeriodicInterval wide(0, 1, {1, std::int64_t{1} << 32},
                              {std::int64_t{1} << 32, std::int64_t{1} << 31});
  EXPECT_THROW(static_cast<void>(wide.occurrences()), ArithmeticOverflowError);
  EXPECT_THROW(static_cast<void>(wide.last_stop()), ArithmeticOverflowError);
  const PeriodicInterval late(std::numeric_limits<std::int64_t>::max() - 5,
                              3, {4}, {2});
  EXPECT_EQ(late.occurrences(), 2);
  EXPECT_THROW(static_cast<void>(late.last_stop()), ArithmeticOverflowError);
  // A span past INT64_MAX cannot even be constructed.
  EXPECT_THROW(PeriodicInterval(0, 1, {1, std::int64_t{1} << 32},
                                {std::int64_t{1} << 32, std::int64_t{1} << 32}),
               ArithmeticOverflowError);
}

TEST(PeriodicInterval, OverlapsSolidPairs) {
  const auto a = PeriodicInterval::solid(0, 5);
  const auto b = PeriodicInterval::solid(4, 2);
  const auto c = PeriodicInterval::solid(5, 2);
  EXPECT_TRUE(a.overlaps(b));
  EXPECT_TRUE(b.overlaps(a));
  EXPECT_FALSE(a.overlaps(c));  // half-open: [0,5) and [5,7) disjoint
  EXPECT_FALSE(c.overlaps(a));
}

TEST(PeriodicInterval, OverlapsPeriodicDisjointLikeFig17) {
  // Buffers AB and CD of Fig. 17 interleave without overlap.
  const PeriodicInterval ab(0, 2, {4, 9}, {2, 2});
  const PeriodicInterval cd(2, 2, {4, 9}, {2, 2});
  EXPECT_FALSE(ab.overlaps(cd));
  EXPECT_FALSE(cd.overlaps(ab));
  // Shifting by one makes the tails collide.
  const PeriodicInterval cd_shift(1, 2, {4, 9}, {2, 2});
  EXPECT_TRUE(ab.overlaps(cd_shift));
}

TEST(PeriodicInterval, OverlapsPeriodicVsSolid) {
  const PeriodicInterval p(0, 2, {4}, {3});  // [0,2),[4,6),[8,10)
  EXPECT_TRUE(p.overlaps(PeriodicInterval::solid(5, 1)));
  EXPECT_FALSE(p.overlaps(PeriodicInterval::solid(2, 2)));
  EXPECT_FALSE(p.overlaps(PeriodicInterval::solid(10, 3)));
  EXPECT_TRUE(PeriodicInterval::solid(3, 2).overlaps(p));
}

TEST(PeriodicInterval, OverlapsMatchesBruteForce) {
  // Cross-check the two-pointer walk against dense enumeration.
  const std::vector<PeriodicInterval> instances = {
      PeriodicInterval(0, 2, {4, 9}, {2, 2}),
      PeriodicInterval(1, 1, {3}, {4}),
      PeriodicInterval(2, 3, {}, {}),
      PeriodicInterval(5, 2, {8}, {2}),
      PeriodicInterval(0, 1, {2, 8}, {2, 3}),
  };
  auto live_sets_intersect = [](const PeriodicInterval& x,
                                const PeriodicInterval& y) {
    for (std::int64_t t = -1; t < 40; ++t) {
      if (x.live_at(t) && y.live_at(t)) return true;
    }
    return false;
  };
  for (const auto& x : instances) {
    for (const auto& y : instances) {
      EXPECT_EQ(x.overlaps(y), live_sets_intersect(x, y));
    }
  }
}

TEST(PeriodicInterval, EqualityIsStructural) {
  EXPECT_EQ(PeriodicInterval(0, 2, {4}, {2}), PeriodicInterval(0, 2, {4}, {2}));
  EXPECT_NE(PeriodicInterval(0, 2, {4}, {2}), PeriodicInterval(1, 2, {4}, {2}));
}

}  // namespace
}  // namespace sdf
