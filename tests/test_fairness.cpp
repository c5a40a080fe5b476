// The multi-tenant fairness contract (docs/TENANCY.md): on a daemon
// shared with a rate-limited hog that floods from several connections, a
// light tenant's p95 latency stays within 2x of its p95 alone. The
// test reads wall-clock latency, so it has a binary of its own that
// ctest runs serially (tests/CMakeLists.txt).
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "obs/metrics.h"
#include "sdf/io.h"
#include "service/client.h"
#include "service/qos.h"
#include "service/server.h"
#include "stats_doc.h"
#include "util/shutdown.h"

namespace sdf::svc {
namespace {

namespace fs = std::filesystem;

/// The best-quality pipeline (multistart RPMC order, exact chain DP,
/// blocking factor 16) over one graph, billed to `tenant`. The daemon has
/// no cache, so every request pays a full compile.
CompileRequest suite_request(const std::string& graph, const char* tenant) {
  CompileRequest req;
  req.graph_text = graph;
  req.tenant = tenant;
  req.options.order = OrderHeuristic::kRpmcMultistart;
  req.options.optimizer = LoopOptimizer::kChainExact;
  req.options.blocking_factor = 16;
  return req;
}

/// Client-observed latency (µs) of `count` light requests sent one after
/// another over one connection, cycling through the suite.
std::vector<std::int64_t> light_latencies(
    const std::string& socket_path, const std::vector<std::string>& suite,
    int count) {
  Client client({socket_path, 0});
  std::vector<std::int64_t> latencies;
  for (int i = 0; i < count; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const Result<std::string> r = client.compile(
        suite_request(suite[static_cast<std::size_t>(i) % suite.size()],
                      "light"));
    const auto t1 = std::chrono::steady_clock::now();
    EXPECT_TRUE(r.ok()) << r.error().message;
    latencies.push_back(
        std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
            .count());
  }
  return latencies;
}

TEST(Fairness, LightP95UnderAFloodingHogStaysWithinTwiceSolo) {
  constexpr int kLightRequests = 24;
  constexpr int kHogConnections = 4;
  const std::string dir = "/tmp/sdffair_" + std::to_string(::getpid());
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string socket_path = dir + "/d.sock";

  std::vector<std::string> suite;
  for (const Graph& g : bench::table1_systems()) {
    suite.push_back(write_graph_text(g));
  }

  // light carries 8x the hog's weight; the hog is also capped at 100
  // cost-ms of compile per second, two default-cost (50 ms) compiles.
  const Result<qos::TenantRegistry> registry = qos::TenantRegistry::parse(
      R"({"schema": "sdfmem.tenants.v1",
          "tenants": {"light": {"weight": 8},
                      "hog": {"weight": 1, "rate_ms_per_sec": 100,
                              "burst_ms": 100}}})");
  ASSERT_TRUE(registry.ok()) << registry.error().message;
  ServerOptions opts;
  opts.socket_path = socket_path;
  // Few slots so contention is real, but enough that one admitted hog
  // compile cannot serialize the daemon behind it.
  opts.jobs = 4;
  opts.queue_capacity = 32;
  opts.default_cost_ms = 50;
  opts.tenants = registry.value();
  util::reset_shutdown();
  Server server(opts);
  server.start();
  std::thread runner([&server] { server.run(); });

  const std::vector<std::int64_t> solo =
      light_latencies(socket_path, suite, kLightRequests);

  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> hog_ok{0};
  std::atomic<std::int64_t> hog_shed{0};
  std::atomic<std::int64_t> hog_failed{0};
  std::vector<std::thread> hogs;
  for (int c = 0; c < kHogConnections; ++c) {
    hogs.emplace_back([&, c] {
      Client client({socket_path, 0});
      for (std::size_t i = static_cast<std::size_t>(c);
           !stop.load(std::memory_order_relaxed); ++i) {
        const Result<std::string> r =
            client.compile(suite_request(suite[i % suite.size()], "hog"));
        if (r.ok()) {
          ++hog_ok;
        } else if (r.error().code == ErrorCode::kOverloaded) {
          // Shed once its backlog share fills; back off like a real
          // client told to retry later (docs/ERRORS.md, exit 24).
          ++hog_shed;
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        } else {
          ++hog_failed;
        }
      }
    });
  }
  // The contract covers steady state, not the first burst the hog's
  // token bucket deliberately admits: let that drain before measuring.
  std::this_thread::sleep_for(std::chrono::milliseconds(750));
  const std::vector<std::int64_t> adversarial =
      light_latencies(socket_path, suite, kLightRequests);
  stop.store(true);
  for (std::thread& t : hogs) t.join();
  const obs::Json stats = testing::stats_doc(server);
  server.stop();
  runner.join();
  fs::remove_all(dir);

  // The hog really flooded: served at its rate, shed beyond it.
  EXPECT_GT(hog_ok.load(), 0);
  EXPECT_GT(hog_shed.load(), 0);
  EXPECT_EQ(hog_failed.load(), 0);
  EXPECT_EQ(testing::field(stats, "tenants.hog.overloaded").as_int(),
            hog_shed.load());
  EXPECT_EQ(testing::field(stats, "tenants.light.overloaded").as_int(), 0);

  const std::int64_t solo_p95 = obs::exact_percentile(solo, 95);
  const std::int64_t adversarial_p95 = obs::exact_percentile(adversarial, 95);
  ASSERT_GT(solo_p95, 0);
  EXPECT_LE(adversarial_p95, 2 * solo_p95)
      << "light p95 " << adversarial_p95 << " us under the hog vs "
      << solo_p95 << " us solo";
}

}  // namespace
}  // namespace sdf::svc
