// The always-on service registry (obs/metrics.h): per-tenant slot
// expansion, lock-free counting under concurrent writers, the log-linear
// histogram's bucket bounds and percentiles, the exact percentile rule,
// and the metric catalogue in docs/OBSERVABILITY.md checked against the
// name tables.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <map>
#include <regex>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "service/router.h"
#include "service/server.h"

namespace sdf {
namespace {

enum TestMetric : std::size_t { kHits, kDepth };
constexpr obs::MetricDef kTestMetrics[] = {
    {"test.hits"}, {"test.depth", obs::MetricKind::kGauge}};
enum TestTenantMetric : std::size_t { kTenantRequests };
constexpr obs::MetricDef kTestTenantMetrics[] = {
    {"test.tenant.<t>.requests"}};

TEST(MetricsRegistry, ExpandsTenantNamesIntoTheirOwnSlots) {
  const std::vector<std::string> tenants = {"alpha", "beta"};
  obs::Registry r(kTestMetrics, kTestTenantMetrics, tenants);
  const std::vector<std::int64_t> zero = r.values();
  r.add(kHits, 3);
  r.add(r.slot(1, kTenantRequests));
  r.set(kDepth, 7);
  r.raise(kDepth, 5);  // lower: no effect
  EXPECT_EQ(r.values(), (std::vector<std::int64_t>{3, 7, 0, 1}));
  EXPECT_EQ(r.counter_deltas(r.values(), zero),
            (std::map<std::string, std::int64_t>{
                {"test.hits", 3}, {"test.tenant.beta.requests", 1}}));
}

TEST(MetricsRegistry, CounterDeltasNameMovedCountersOnly) {
  const std::vector<std::string> tenants = {"alpha"};
  obs::Registry r(kTestMetrics, kTestTenantMetrics, tenants);
  r.add(kHits);
  const std::vector<std::int64_t> before = r.values();
  r.add(kHits, 2);
  r.set(kDepth, 9);  // a gauge is not a counter delta
  const std::vector<std::int64_t> after = r.values();
  const auto deltas = r.counter_deltas(after, before);
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_EQ(deltas.at("test.hits"), 2);
  EXPECT_TRUE(r.counter_deltas(after, after).empty());
}

TEST(MetricsRegistry, ConcurrentWritersLoseNoCounts) {
  const std::vector<std::string> tenants = {"alpha", "beta"};
  obs::Registry r(kTestMetrics, kTestTenantMetrics, tenants);
  obs::LogHistogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20'000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        r.add(kHits);
        r.add(r.slot(static_cast<std::size_t>(t % 2),
                     kTenantRequests));
        r.raise(kDepth, i);
        h.record(i % 1000);
      }
    });
  }
  // A reader running beside the writers sees monotonic counts.
  std::int64_t last = 0;
  for (int i = 0; i < 100; ++i) {
    const std::int64_t now = r.get(kHits);
    EXPECT_GE(now, last);
    last = now;
    EXPECT_LE(h.snapshot().count, kThreads * kPerThread);
  }
  for (std::thread& w : writers) w.join();
  EXPECT_EQ(r.get(kHits), kThreads * kPerThread);
  EXPECT_EQ(r.get(r.slot(0, kTenantRequests)),
            kThreads / 2 * kPerThread);
  EXPECT_EQ(r.get(kDepth), kPerThread - 1);
  const obs::HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  EXPECT_EQ(snap.sum, kThreads * (kPerThread / 1000) * (999 * 1000 / 2));
}

TEST(MetricsHistogram, BucketsAreExactBelowEightAndWithinAnEighthAbove) {
  for (std::int64_t v = 0; v < 8; ++v) {
    EXPECT_EQ(obs::histogram_bucket_upper(obs::histogram_bucket(v)), v);
  }
  EXPECT_EQ(obs::histogram_bucket(-5), 0u);
  std::size_t previous = 0;
  for (std::int64_t v = 1; v < (std::int64_t{1} << 40); v += v / 3 + 1) {
    const std::size_t b = obs::histogram_bucket(v);
    ASSERT_LT(b, obs::kHistogramBuckets);
    EXPECT_GE(b, previous);  // monotone in the value
    previous = b;
    const std::int64_t upper = obs::histogram_bucket_upper(b);
    EXPECT_GE(upper, v);
    EXPECT_LT(upper - v, v / 8 + 1) << v;
    // The bound is the bucket's own largest value.
    EXPECT_EQ(obs::histogram_bucket(upper), b);
    EXPECT_EQ(obs::histogram_bucket(upper + 1), b + 1);
  }
  const std::int64_t max = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(obs::histogram_bucket(max), obs::kHistogramBuckets - 1);
  EXPECT_EQ(obs::histogram_bucket_upper(obs::kHistogramBuckets - 1), max);
}

TEST(MetricsHistogram, PercentilesReportBucketUpperBounds) {
  obs::LogHistogram h;
  EXPECT_EQ(h.snapshot().percentile(50), 0);  // empty
  h.record(45);  // a hot-tier hit: reported as 47, not a coarse 100
  EXPECT_EQ(h.snapshot().percentile(50), 47);
  for (int i = 0; i < 98; ++i) h.record(3);
  h.record(1'000'000);
  const obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 100);
  EXPECT_EQ(s.percentile(0), 3);
  EXPECT_EQ(s.percentile(50), 3);
  EXPECT_EQ(s.percentile(99), 47);  // rank 99 is the 45 µs sample
  EXPECT_EQ(s.percentile(100),
            obs::histogram_bucket_upper(obs::histogram_bucket(1'000'000)));
}

TEST(MetricsPercentile, ExactPercentileIsTheCeilRankSample) {
  EXPECT_EQ(obs::exact_percentile({}, 50), 0);
  const std::vector<std::int64_t> v = {50, 10, 40, 20, 30};
  EXPECT_EQ(obs::exact_percentile(v, 0), 10);
  EXPECT_EQ(obs::exact_percentile(v, 20), 10);  // rank 1
  EXPECT_EQ(obs::exact_percentile(v, 21), 20);  // rank ceil(1.05) = 2
  EXPECT_EQ(obs::exact_percentile(v, 50), 30);  // rank ceil(2.5) = 3
  EXPECT_EQ(obs::exact_percentile(v, 95), 50);
  EXPECT_EQ(obs::exact_percentile(v, 100), 50);
}

// ------------------------------------------------- docs/OBSERVABILITY.md

/// Every name the service registries can hold, with `<t>` for a tenant.
std::set<std::string> registered_names() {
  std::set<std::string> names;
  for (const auto& table :
       {std::span<const obs::MetricDef>(svc::kServerMetrics),
        std::span<const obs::MetricDef>(svc::kTenantMetrics),
        std::span<const obs::MetricDef>(svc::kRouterMetrics)}) {
    for (const obs::MetricDef& def : table) names.emplace(def.name);
  }
  return names;
}

TEST(MetricsDocs, CatalogueMatchesTheNameTables) {
  std::ifstream in(std::string(SDFMEM_DOCS_DIR) + "/OBSERVABILITY.md");
  ASSERT_TRUE(in) << "cannot open docs/OBSERVABILITY.md";
  std::stringstream text;
  text << in.rdbuf();
  const std::string doc = text.str();

  const std::set<std::string> names = registered_names();
  for (const std::string& name : names) {
    EXPECT_NE(doc.find("| `" + name + "` |"), std::string::npos)
        << name << " is registered but has no row in OBSERVABILITY.md";
  }
  // The client-side service.retry.* counters go straight into the
  // telemetry session of the CLI process that retries (service/retry.h);
  // no server or router registry holds them.
  const std::regex row(R"(^\| `(service\.[^`]*)` \|)");
  std::istringstream lines(doc);
  std::string line;
  int rows = 0;
  while (std::getline(lines, line)) {
    std::smatch m;
    if (!std::regex_search(line, m, row)) continue;
    const std::string name = m[1];
    if (name.rfind("service.retry.", 0) == 0) continue;
    ++rows;
    EXPECT_EQ(names.count(name), 1u)
        << name << " has a row in OBSERVABILITY.md but is not registered";
  }
  EXPECT_EQ(rows, static_cast<int>(names.size()));
}

}  // namespace
}  // namespace sdf
