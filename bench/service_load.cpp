// Load generator for the compile service (docs/SERVICE.md): starts an
// in-process sdfmemd on a Unix socket with a fresh result cache, replays
// the Table 1 practical suite cold (every request compiles) and then hot
// (every request is a verified cache hit) from several concurrent
// clients, and reports p50/p95/p99 request latency plus the hit-rate
// trajectory per round.
//
// A second phase benchmarks the multi-tenant QoS contract
// (docs/TENANCY.md): a `light` tenant is measured solo, then again while
// a throttled `hog` tenant floods the same daemon from several
// connections. The headline is the fairness ratio — light's adversarial
// p95 over its solo p95 — which the QoS contract promises stays <= 2x.
//
// A third phase benchmarks fleet mode (docs/SERVICE.md, "Fleet mode"):
// the same workload replayed through the shard router over 1, 2, and 4
// workers (each with its own cache + hot tier). The headline is that the
// hot p50 and the routed hit rate hold as the fleet grows — shard
// routing keeps every key's cache on one worker, so adding workers never
// dilutes hit rates the way naive round-robin would.
//
// A fourth phase benchmarks recovery (docs/RELIABILITY.md): kill/restart
// cycles over a 3-worker routed fleet, timing how long the fleet takes
// to serve the full suite again after each disruption. The headline is
// the kill-recovery p50/p95 — how fast the breaker + failover path
// restores service after a worker vanishes.
//
//   SDFMEM_SERVICE_CLIENTS        concurrent client connections (default 4)
//   SDFMEM_SERVICE_ROUNDS         hot rounds over the suite (default 3)
//   SDFMEM_SERVICE_LIGHT_REQS     light-tenant requests per phase (default 24)
//   SDFMEM_SERVICE_HOG_CLIENTS    hog connections in the mix (default 4)
//   SDFMEM_SERVICE_CHAOS_CYCLES   kill/restart cycles (default 5)
//   SDFMEM_SERVICE_FAIRNESS_GATE  1: exit 1 when the ratio exceeds 2
//   SDFMEM_SERVICE_FLEET_GATE     1: exit 1 when the routed hot hit
//                                 rate drops below 95% at any fleet size,
//                                 or the 4-worker hot p50 exceeds 3x the
//                                 1-worker hot p50
//   SDFMEM_BENCH_JSON             write the trajectory as telemetry JSON
//
// Every SDFMEM_SERVICE_* value is validated strictly (util/flags.h):
// counts must be positive decimal integers, gates exactly "0" or "1";
// anything else is a usage error (exit 2), never a silent fallback.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "obs/metrics.h"
#include "sdf/io.h"
#include "service/client.h"
#include "service/qos.h"
#include "service/retry.h"
#include "service/router.h"
#include "service/server.h"
#include "util/flags.h"

namespace sdf::bench {
namespace {

/// Strict SDFMEM_* count: unset means the fallback; anything set must
/// parse as a strictly positive decimal integer (util/flags.h) or the
/// run is a usage error — exit 2, never a silent fallback that would
/// quietly benchmark the wrong configuration.
int env_count(const char* name, int fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  const std::optional<std::int64_t> parsed =
      util::parse_positive_flag(value);
  if (!parsed.has_value() || *parsed > 1000000) {
    std::fprintf(stderr,
                 "usage: %s must be a positive decimal integer, got '%s'\n",
                 name, value);
    std::exit(2);
  }
  return static_cast<int>(*parsed);
}

/// Strict SDFMEM_*_GATE flag: unset or "0" is off, "1" is on, anything
/// else is a usage error — a typo'd gate must not silently skip the
/// check it was meant to arm.
bool env_flag(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return false;
  const std::string_view text(value);
  if (text == "0") return false;
  if (text == "1") return true;
  std::fprintf(stderr, "usage: %s must be 0 or 1, got '%s'\n", name, value);
  std::exit(2);
}

struct RoundResult {
  std::string label;
  std::vector<std::int64_t> latencies_us;
  std::int64_t hits = 0;
  std::int64_t misses = 0;

  [[nodiscard]] double hit_rate() const {
    const std::int64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) /
                            static_cast<double>(total);
  }
};

/// One pass over the request list from `clients` concurrent connections;
/// returns every request's client-observed latency.
std::vector<std::int64_t> run_round(const std::string& socket_path,
                                    const std::vector<std::string>& requests,
                                    int clients) {
  std::vector<std::int64_t> latencies;
  std::mutex mu;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      svc::Client client({socket_path, 0});
      std::vector<std::int64_t> local;
      // Client c starts at a different offset so concurrent clients do
      // not convoy on one key.
      const std::size_t n = requests.size();
      for (std::size_t i = 0; i < n; ++i) {
        const std::string& graph =
            requests[(i + static_cast<std::size_t>(c)) % n];
        svc::CompileRequest req;
        req.graph_text = graph;
        // The configuration worth caching: the expensive best-quality
        // pipeline (multistart RPMC ordering + exact chain DP) over the
        // vectorized schedule (blocking factor 16, paper Sec. 9).
        req.options.order = OrderHeuristic::kRpmcMultistart;
        req.options.optimizer = LoopOptimizer::kChainExact;
        req.options.blocking_factor = 16;
        const auto t0 = std::chrono::steady_clock::now();
        const Result<std::string> r = client.compile(req);
        const auto t1 = std::chrono::steady_clock::now();
        if (!r.ok()) {
          throw IoError("service_load: request failed: " +
                        r.error().message);
        }
        local.push_back(std::chrono::duration_cast<std::chrono::microseconds>(
                            t1 - t0)
                            .count());
      }
      std::lock_guard<std::mutex> lock(mu);
      latencies.insert(latencies.end(), local.begin(), local.end());
    });
  }
  for (std::thread& t : workers) t.join();
  return latencies;
}

// ---------------------------------------------------------------- fairness

/// One measured light-tenant request: the whole Table 1 suite compiled
/// fresh (the server runs without a cache directory, so every request
/// pays the full compile).
std::vector<std::int64_t> run_light(const std::string& socket_path,
                                    const std::vector<std::string>& requests,
                                    int total) {
  svc::Client client({socket_path, 0});
  std::vector<std::int64_t> latencies;
  latencies.reserve(static_cast<std::size_t>(total));
  for (int i = 0; i < total; ++i) {
    svc::CompileRequest req;
    req.graph_text = requests[static_cast<std::size_t>(i) % requests.size()];
    req.tenant = "light";
    req.options.order = OrderHeuristic::kRpmcMultistart;
    req.options.optimizer = LoopOptimizer::kChainExact;
    req.options.blocking_factor = 16;
    const auto t0 = std::chrono::steady_clock::now();
    const Result<std::string> r = client.compile(req);
    const auto t1 = std::chrono::steady_clock::now();
    if (!r.ok()) {
      throw IoError("service_load: light request failed: " +
                    r.error().message);
    }
    latencies.push_back(
        std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
            .count());
  }
  return latencies;
}

/// Benchmarks the QoS contract on a fresh cache-less daemon: light solo,
/// then light vs a flooding rate-limited hog. Returns nonzero when the
/// fairness gate is armed and violated.
int fairness_phase(JsonTrajectory& trajectory) {
  const int light_reqs = env_count("SDFMEM_SERVICE_LIGHT_REQS", 24);
  const int hog_clients = env_count("SDFMEM_SERVICE_HOG_CLIENTS", 4);
  const bool gate = env_flag("SDFMEM_SERVICE_FAIRNESS_GATE");

  const std::string dir =
      "/tmp/sdfmem_service_fair_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string socket_path = dir + "/d.sock";

  std::vector<std::string> requests;
  for (const Graph& g : table1_systems()) {
    requests.push_back(write_graph_text(g));
  }

  // light carries 8x the hog's weight; the hog is additionally capped at
  // 100 cost-ms of sustained compile throughput per second. With the
  // default request cost at 50 ms that is two hog compiles per second —
  // everything beyond queues briefly, then sheds once the hog's backlog
  // share fills.
  const Result<svc::qos::TenantRegistry> registry =
      svc::qos::TenantRegistry::parse(
          R"({"schema": "sdfmem.tenants.v1",
              "tenants": {"light": {"weight": 8},
                          "hog": {"weight": 1, "rate_ms_per_sec": 100,
                                  "burst_ms": 100}}})");
  if (!registry.ok()) {
    throw IoError("service_load: tenants config: " +
                  registry.error().message);
  }

  svc::ServerOptions opts;
  opts.socket_path = socket_path;
  // Few slots so contention is real, but enough that one admitted hog
  // compile cannot serialize the whole daemon behind it.
  opts.jobs = 4;
  opts.queue_capacity = 32;
  opts.default_cost_ms = 50;
  opts.tenants = registry.value();
  svc::Server server(opts);
  server.start();
  std::thread runner([&server] { server.run(); });

  // Phase A: the light tenant alone.
  std::vector<std::int64_t> solo =
      run_light(socket_path, requests, light_reqs);

  // Phase B: the same light workload while `hog` floods from
  // `hog_clients` connections (roughly a 10:1 offered-load mix).
  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> hog_ok{0};
  std::atomic<std::int64_t> hog_rejected{0};
  std::vector<std::thread> hogs;
  hogs.reserve(static_cast<std::size_t>(hog_clients));
  for (int c = 0; c < hog_clients; ++c) {
    hogs.emplace_back([&, c] {
      svc::Client client({socket_path, 0});
      std::size_t i = static_cast<std::size_t>(c);
      while (!stop.load(std::memory_order_relaxed)) {
        svc::CompileRequest req;
        req.graph_text = requests[i++ % requests.size()];
        req.tenant = "hog";
        req.options.order = OrderHeuristic::kRpmcMultistart;
        req.options.optimizer = LoopOptimizer::kChainExact;
        req.options.blocking_factor = 16;
        const Result<std::string> r = client.compile(req);
        if (r.ok()) {
          hog_ok.fetch_add(1, std::memory_order_relaxed);
        } else if (r.error().code == ErrorCode::kOverloaded) {
          // Expected: the hog sheds once its backlog share fills. Back
          // off like a real client would (ERRORS.md tells exit-24
          // callers to retry later) instead of hot-spinning rejects.
          hog_rejected.fetch_add(1, std::memory_order_relaxed);
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        } else {
          throw IoError("service_load: hog request failed: " +
                        r.error().message);
        }
      }
    });
  }
  // Let the hog drain its initial token-bucket burst before measuring:
  // the contract covers steady-state fairness, not the first admitted
  // burst the bucket deliberately allows.
  std::this_thread::sleep_for(std::chrono::milliseconds(750));
  std::vector<std::int64_t> adversarial =
      run_light(socket_path, requests, light_reqs);
  stop.store(true);
  for (std::thread& t : hogs) t.join();

  const svc::ServerStats stats = server.stats();
  server.stop();
  runner.join();
  std::filesystem::remove_all(dir);

  const std::int64_t solo_p50 = obs::exact_percentile(solo, 50);
  const std::int64_t solo_p95 = obs::exact_percentile(solo, 95);
  const std::int64_t solo_p99 = obs::exact_percentile(solo, 99);
  const std::int64_t adv_p50 = obs::exact_percentile(adversarial, 50);
  const std::int64_t adv_p95 = obs::exact_percentile(adversarial, 95);
  const std::int64_t adv_p99 = obs::exact_percentile(adversarial, 99);
  const double ratio = solo_p95 > 0 ? static_cast<double>(adv_p95) /
                                          static_cast<double>(solo_p95)
                                    : 0.0;

  std::printf("\nfairness: light (weight 8) vs hog (weight 1, "
              "100 cost-ms/s) on %d hog connection(s)\n",
              hog_clients);
  std::printf("%-12s %8s %10s %10s %10s\n", "tenant-phase", "reqs",
              "p50_us", "p95_us", "p99_us");
  std::printf("%-12s %8zu %10lld %10lld %10lld\n", "light-solo",
              solo.size(), static_cast<long long>(solo_p50),
              static_cast<long long>(solo_p95),
              static_cast<long long>(solo_p99));
  std::printf("%-12s %8zu %10lld %10lld %10lld\n", "light-adv",
              adversarial.size(), static_cast<long long>(adv_p50),
              static_cast<long long>(adv_p95),
              static_cast<long long>(adv_p99));
  std::printf("hog: %lld served, %lld shed overloaded, "
              "throttle wait %lld us total\n",
              static_cast<long long>(hog_ok.load()),
              static_cast<long long>(hog_rejected.load()),
              static_cast<long long>(
                  stats.tenants.count("hog")
                      ? stats.tenants.at("hog").throttle_wait_us
                      : 0));
  std::printf("fairness p95 ratio (light adv/solo): %.2fx "
              "(contract: <= 2x)\n", ratio);

  if (trajectory.active()) {
    obs::Json fair = obs::Json::object();
    fair["light_solo_p50_us"] = solo_p50;
    fair["light_solo_p95_us"] = solo_p95;
    fair["light_solo_p99_us"] = solo_p99;
    fair["light_adv_p50_us"] = adv_p50;
    fair["light_adv_p95_us"] = adv_p95;
    fair["light_adv_p99_us"] = adv_p99;
    fair["hog_ok"] = hog_ok.load();
    fair["hog_overloaded"] = hog_rejected.load();
    fair["hog_clients"] = static_cast<std::int64_t>(hog_clients);
    fair["p95_ratio"] = ratio;
    trajectory.results()["fairness"] = std::move(fair);
  }

  if (gate && ratio > 2.0) {
    std::fprintf(stderr,
                 "service_load: FAIL fairness gate: light p95 ratio "
                 "%.2fx > 2x\n", ratio);
    return 1;
  }
  return 0;
}

// ------------------------------------------------------------------ fleet

/// Benchmarks the shard router over 1/2/4 workers: cold replay, then hot
/// rounds, reporting routed latency percentiles and the router-observed
/// hit rate per round. Returns nonzero when the fleet gate is armed and
/// the hit rate or p50 scaling contract is violated.
int fleet_phase(JsonTrajectory& trajectory) {
  const int clients = env_count("SDFMEM_SERVICE_CLIENTS", 4);
  const int hot_rounds = env_count("SDFMEM_SERVICE_ROUNDS", 3);
  const bool gate = env_flag("SDFMEM_SERVICE_FLEET_GATE");

  std::vector<std::string> requests;
  for (const Graph& g : table1_systems()) {
    requests.push_back(write_graph_text(g));
  }

  std::printf("\nfleet: shard-routed workers (consistent hashing + "
              "per-worker cache/hot tier), %d client(s), %d hot round(s)\n",
              clients, hot_rounds);
  std::printf("%-14s %8s %10s %10s %10s %7s %7s %9s\n", "fleet-round",
              "reqs", "p50_us", "p95_us", "p99_us", "hits", "misses",
              "hit_rate");

  obs::Json sizes_json = obs::Json::array();
  std::vector<std::int64_t> hot_p50_by_size;
  std::vector<double> hit_rate_by_size;
  for (const int n : {1, 2, 4}) {
    const std::string dir = "/tmp/sdfmem_service_fleet_" +
                            std::to_string(::getpid()) + "_" +
                            std::to_string(n);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    std::vector<std::unique_ptr<svc::Server>> servers;
    std::vector<std::thread> runners;
    svc::RouterOptions ropts;
    ropts.socket_path = dir + "/router.sock";
    for (int w = 0; w < n; ++w) {
      svc::ServerOptions wopts;
      wopts.socket_path = dir + "/w" + std::to_string(w) + ".sock";
      wopts.cache_dir = dir + "/w" + std::to_string(w) + ".cache";
      wopts.worker_id = "w" + std::to_string(w);
      wopts.jobs = -1;
      wopts.queue_capacity = 1024;
      servers.push_back(std::make_unique<svc::Server>(wopts));
      servers.back()->start();
      runners.emplace_back([s = servers.back().get()] { s->run(); });
      svc::WorkerConfig cfg;
      cfg.id = wopts.worker_id;
      cfg.endpoint.socket_path = wopts.socket_path;
      cfg.pinned_id = true;
      ropts.workers.push_back(cfg);
    }
    svc::Router router(ropts);
    router.start();
    std::thread router_runner([&router] { router.run(); });

    svc::RouterStats last = router.stats();
    const auto routed_round = [&](const std::string& label,
                                  int round_clients) {
      RoundResult round;
      round.label = label;
      round.latencies_us =
          run_round(ropts.socket_path, requests, round_clients);
      const svc::RouterStats now = router.stats();
      round.hits = (now.lookup_hits + now.peer_hits) -
                   (last.lookup_hits + last.peer_hits);
      round.misses = now.compiles - last.compiles;
      last = now;
      return round;
    };

    std::vector<RoundResult> rounds;
    rounds.push_back(routed_round("w" + std::to_string(n) + "-cold", 1));
    for (int r = 0; r < hot_rounds; ++r) {
      rounds.push_back(routed_round(
          "w" + std::to_string(n) + "-hot" + std::to_string(r + 1),
          clients));
    }

    router.stop();
    router_runner.join();
    for (std::size_t i = 0; i < servers.size(); ++i) {
      servers[i]->stop();
      runners[i].join();
    }

    obs::Json rows = obs::Json::array();
    for (RoundResult& round : rounds) {
      const std::vector<std::int64_t>& us = round.latencies_us;
      const std::int64_t p50 = obs::exact_percentile(us, 50);
      const std::int64_t p95 = obs::exact_percentile(us, 95);
      const std::int64_t p99 = obs::exact_percentile(us, 99);
      std::printf("%-14s %8zu %10lld %10lld %10lld %7lld %7lld %8.1f%%\n",
                  round.label.c_str(), round.latencies_us.size(),
                  static_cast<long long>(p50), static_cast<long long>(p95),
                  static_cast<long long>(p99),
                  static_cast<long long>(round.hits),
                  static_cast<long long>(round.misses),
                  100.0 * round.hit_rate());
      obs::Json row = obs::Json::object();
      row["round"] = round.label;
      row["requests"] =
          static_cast<std::int64_t>(round.latencies_us.size());
      row["p50_us"] = p50;
      row["p95_us"] = p95;
      row["p99_us"] = p99;
      row["hits"] = round.hits;
      row["misses"] = round.misses;
      row["hit_rate"] = round.hit_rate();
      rows.push_back(std::move(row));
    }
    hot_p50_by_size.push_back(
        obs::exact_percentile(rounds.back().latencies_us, 50));
    hit_rate_by_size.push_back(rounds.back().hit_rate());

    obs::Json size_json = obs::Json::object();
    size_json["workers"] = static_cast<std::int64_t>(n);
    size_json["rounds"] = std::move(rows);
    size_json["hot_p50_us"] = hot_p50_by_size.back();
    size_json["hot_hit_rate"] = hit_rate_by_size.back();
    sizes_json.push_back(std::move(size_json));

    std::filesystem::remove_all(dir);
  }

  std::printf("fleet hot p50: 1w %lld us, 2w %lld us, 4w %lld us; "
              "hot hit rate: %.1f%% / %.1f%% / %.1f%%\n",
              static_cast<long long>(hot_p50_by_size[0]),
              static_cast<long long>(hot_p50_by_size[1]),
              static_cast<long long>(hot_p50_by_size[2]),
              100.0 * hit_rate_by_size[0], 100.0 * hit_rate_by_size[1],
              100.0 * hit_rate_by_size[2]);

  if (trajectory.active()) {
    trajectory.results()["fleet"] = std::move(sizes_json);
  }

  if (gate) {
    for (std::size_t i = 0; i < hit_rate_by_size.size(); ++i) {
      if (hit_rate_by_size[i] < 0.95) {
        std::fprintf(stderr,
                     "service_load: FAIL fleet gate: hot hit rate %.1f%% "
                     "< 95%% at size %zu\n",
                     100.0 * hit_rate_by_size[i], i);
        return 1;
      }
    }
    if (hot_p50_by_size[0] > 0 &&
        static_cast<double>(hot_p50_by_size[2]) >
            3.0 * static_cast<double>(hot_p50_by_size[0])) {
      std::fprintf(stderr,
                   "service_load: FAIL fleet gate: 4-worker hot p50 "
                   "%lld us > 3x 1-worker %lld us\n",
                   static_cast<long long>(hot_p50_by_size[2]),
                   static_cast<long long>(hot_p50_by_size[0]));
      return 1;
    }
  }
  return 0;
}

// ------------------------------------------------------------------ chaos

/// A worker the chaos phase can kill and resurrect over the same cache
/// directory (the bench analogue of tests/chaos_harness.h).
struct RestartableWorker {
  svc::ServerOptions options;
  std::unique_ptr<svc::Server> server;
  std::thread runner;
  bool up = false;

  explicit RestartableWorker(svc::ServerOptions opts)
      : options(std::move(opts)) {
    start();
  }
  ~RestartableWorker() { stop(); }

  void start() {
    if (up) return;
    server = std::make_unique<svc::Server>(options);
    server->start();
    runner = std::thread([this] { server->run(); });
    up = true;
  }
  void stop() {
    if (!up) return;
    server->stop();
    runner.join();
    server.reset();
    up = false;
  }
};

/// Kill/restart cycles over a 3-worker routed fleet: after each kill,
/// the time until the retrying client serves the full suite again with
/// zero failures; after each restart, the time until the router's
/// health prober reports every worker routable. Recovery p50/p95 are
/// the headline (docs/RELIABILITY.md).
int chaos_phase(JsonTrajectory& trajectory) {
  const int cycles = env_count("SDFMEM_SERVICE_CHAOS_CYCLES", 5);
  constexpr int kWorkers = 3;

  const std::string dir =
      "/tmp/sdfmem_service_chaos_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  // Default (cheap) compile options: recovery time should measure the
  // breaker + failover path, not an expensive pipeline.
  std::vector<std::string> requests;
  for (const Graph& g : table1_systems()) {
    requests.push_back(write_graph_text(g));
  }

  std::vector<std::unique_ptr<RestartableWorker>> workers;
  svc::RouterOptions ropts;
  ropts.socket_path = dir + "/router.sock";
  for (int w = 0; w < kWorkers; ++w) {
    svc::ServerOptions wopts;
    wopts.socket_path = dir + "/w" + std::to_string(w) + ".sock";
    wopts.cache_dir = dir + "/w" + std::to_string(w) + ".cache";
    wopts.worker_id = "w" + std::to_string(w);
    wopts.queue_capacity = 1024;
    workers.push_back(std::make_unique<RestartableWorker>(wopts));
    svc::WorkerConfig cfg;
    cfg.id = wopts.worker_id;
    cfg.endpoint.socket_path = wopts.socket_path;
    cfg.pinned_id = true;
    ropts.workers.push_back(cfg);
  }
  ropts.worker_timeout_ms = 250;
  ropts.breaker_threshold = 2;
  ropts.health_interval_ms = 25;
  svc::Router router(ropts);
  router.start();
  std::thread router_runner([&router] { router.run(); });

  svc::RetryPolicy policy;
  policy.max_retries = 3;
  policy.base_backoff_ms = 5;
  policy.max_backoff_ms = 40;
  policy.seed = 42;
  svc::RetryBudget budget(100000);
  svc::RetryingClient client({ropts.socket_path, 0}, policy, &budget);

  std::int64_t typed_failures = 0;
  // One clean pass over the suite; counts (typed) failures seen.
  const auto full_pass = [&]() -> bool {
    bool clean = true;
    for (const std::string& graph : requests) {
      svc::CompileRequest req;
      req.graph_text = graph;
      const Result<std::string> r = client.compile(req);
      if (!r.ok()) {
        if (!svc::retryable(r.error().code)) {
          throw IoError("service_load: non-retryable chaos failure: " +
                        r.error().message);
        }
        ++typed_failures;
        clean = false;
      }
    }
    return clean;
  };
  const auto all_alive = [&]() -> bool {
    int alive = 0;
    for (const auto& [id, w] : router.stats().workers) {
      if (w.alive) ++alive;
    }
    return alive == kWorkers;
  };

  // Warm pass: caches populated, every worker proven serving.
  if (!full_pass()) {
    throw IoError("service_load: chaos warm pass failed on healthy fleet");
  }

  std::vector<std::int64_t> kill_rec_ms;
  std::vector<std::int64_t> restart_rec_ms;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    const int victim = cycle % kWorkers;
    const auto killed = std::chrono::steady_clock::now();
    workers[static_cast<std::size_t>(victim)]->stop();
    // Recovery = first fully clean pass after the kill; 30 s without one
    // is a hang, and the phase fails rather than wedges.
    const auto kill_deadline = killed + std::chrono::seconds(30);
    while (!full_pass()) {
      if (std::chrono::steady_clock::now() > kill_deadline) {
        std::fprintf(stderr,
                     "service_load: FAIL chaos: no clean pass within 30 s "
                     "of killing w%d\n", victim);
        router.stop();
        router_runner.join();
        return 1;
      }
    }
    kill_rec_ms.push_back(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - killed)
            .count());

    const auto restarted = std::chrono::steady_clock::now();
    workers[static_cast<std::size_t>(victim)]->start();
    const auto restart_deadline = restarted + std::chrono::seconds(30);
    while (!all_alive()) {
      if (std::chrono::steady_clock::now() > restart_deadline) {
        std::fprintf(stderr,
                     "service_load: FAIL chaos: w%d not routable within "
                     "30 s of restart\n", victim);
        router.stop();
        router_runner.join();
        return 1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    restart_rec_ms.push_back(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - restarted)
            .count());
  }

  router.stop();
  router_runner.join();
  workers.clear();
  std::filesystem::remove_all(dir);

  const std::int64_t kill_p50 = obs::exact_percentile(kill_rec_ms, 50);
  const std::int64_t kill_p95 = obs::exact_percentile(kill_rec_ms, 95);
  const std::int64_t restart_p50 = obs::exact_percentile(restart_rec_ms, 50);
  const std::int64_t restart_p95 = obs::exact_percentile(restart_rec_ms, 95);

  std::printf("\nchaos: %d kill/restart cycle(s) over %d workers "
              "(breaker threshold 2, 25 ms health probes)\n",
              cycles, kWorkers);
  std::printf("kill recovery:    p50 %lld ms, p95 %lld ms "
              "(first clean suite pass after a worker vanishes)\n",
              static_cast<long long>(kill_p50),
              static_cast<long long>(kill_p95));
  std::printf("restart recovery: p50 %lld ms, p95 %lld ms "
              "(probe sees the worker routable again)\n",
              static_cast<long long>(restart_p50),
              static_cast<long long>(restart_p95));
  std::printf("typed failures absorbed mid-chaos: %lld "
              "(every one retryable — none escaped untyped)\n",
              static_cast<long long>(typed_failures));

  if (trajectory.active()) {
    obs::Json chaos = obs::Json::object();
    chaos["cycles"] = static_cast<std::int64_t>(cycles);
    chaos["kill_recovery_p50_ms"] = kill_p50;
    chaos["kill_recovery_p95_ms"] = kill_p95;
    chaos["restart_recovery_p50_ms"] = restart_p50;
    chaos["restart_recovery_p95_ms"] = restart_p95;
    chaos["typed_failures"] = typed_failures;
    chaos["retries_granted"] = budget.retries_granted();
    trajectory.results()["chaos"] = std::move(chaos);
  }
  return 0;
}

int body() {
  JsonTrajectory trajectory("service_load");
  const int clients = env_count("SDFMEM_SERVICE_CLIENTS", 4);
  const int hot_rounds = env_count("SDFMEM_SERVICE_ROUNDS", 3);

  const std::string dir =
      "/tmp/sdfmem_service_load_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string socket_path = dir + "/d.sock";

  std::vector<std::string> requests;
  for (const Graph& g : table1_systems()) {
    requests.push_back(write_graph_text(g));
  }

  svc::ServerOptions opts;
  opts.socket_path = socket_path;
  opts.cache_dir = dir + "/cache";
  opts.jobs = -1;  // all hardware threads: the server is the benchmark
  opts.queue_capacity = 1024;  // admission off the critical path here
  svc::Server server(opts);
  server.start();
  std::thread runner([&server] { server.run(); });

  std::vector<RoundResult> rounds;
  svc::CacheStats last{};
  const auto snapshot = [&](RoundResult* round) {
    const svc::ServerStats stats = server.stats();
    round->hits = stats.cache_hits - last.hits;
    round->misses = stats.cache_misses - last.misses;
    last.hits = stats.cache_hits;
    last.misses = stats.cache_misses;
  };

  {
    // Cold: one client, an empty cache — every request compiles.
    RoundResult cold;
    cold.label = "cold";
    cold.latencies_us = run_round(socket_path, requests, 1);
    snapshot(&cold);
    rounds.push_back(std::move(cold));
  }
  for (int r = 0; r < hot_rounds; ++r) {
    RoundResult hot;
    hot.label = "hot" + std::to_string(r + 1);
    hot.latencies_us = run_round(socket_path, requests, clients);
    snapshot(&hot);
    rounds.push_back(std::move(hot));
  }

  server.stop();
  runner.join();

  std::printf("service_load: %zu graphs, %d client(s), %d hot round(s)\n",
              requests.size(), clients, hot_rounds);
  std::printf("%-8s %8s %10s %10s %10s %7s %7s %9s\n", "round", "reqs",
              "p50_us", "p95_us", "p99_us", "hits", "misses", "hit_rate");
  obs::Json rows = obs::Json::array();
  for (RoundResult& round : rounds) {
    const std::int64_t p50 = obs::exact_percentile(round.latencies_us, 50);
    const std::int64_t p95 = obs::exact_percentile(round.latencies_us, 95);
    const std::int64_t p99 = obs::exact_percentile(round.latencies_us, 99);
    std::printf("%-8s %8zu %10lld %10lld %10lld %7lld %7lld %8.1f%%\n",
                round.label.c_str(), round.latencies_us.size(),
                static_cast<long long>(p50), static_cast<long long>(p95),
                static_cast<long long>(p99),
                static_cast<long long>(round.hits),
                static_cast<long long>(round.misses),
                100.0 * round.hit_rate());
    obs::Json row = obs::Json::object();
    row["round"] = round.label;
    row["requests"] = static_cast<std::int64_t>(round.latencies_us.size());
    row["p50_us"] = p50;
    row["p95_us"] = p95;
    row["p99_us"] = p99;
    row["hits"] = round.hits;
    row["misses"] = round.misses;
    row["hit_rate"] = round.hit_rate();
    rows.push_back(std::move(row));
  }

  // Headline: the cache's p50 speedup on hot keys vs the cold compile.
  const std::int64_t cold_p50 =
      obs::exact_percentile(rounds.front().latencies_us, 50);
  const std::int64_t hot_p50 =
      obs::exact_percentile(rounds.back().latencies_us, 50);
  const double speedup =
      hot_p50 > 0 ? static_cast<double>(cold_p50) /
                        static_cast<double>(hot_p50)
                  : 0.0;
  std::printf("hot-key p50 speedup: %.1fx (cold %lld us -> hot %lld us)\n",
              speedup, static_cast<long long>(cold_p50),
              static_cast<long long>(hot_p50));

  if (trajectory.active()) {
    trajectory.results()["rounds"] = std::move(rows);
    trajectory.results()["clients"] = static_cast<std::int64_t>(clients);
    trajectory.results()["graphs"] =
        static_cast<std::int64_t>(requests.size());
    trajectory.results()["cold_p50_us"] = cold_p50;
    trajectory.results()["hot_p50_us"] = hot_p50;
    trajectory.results()["p50_speedup"] = speedup;
  }

  std::filesystem::remove_all(dir);
  const int fairness_rc = fairness_phase(trajectory);
  const int fleet_rc = fleet_phase(trajectory);
  const int chaos_rc = chaos_phase(trajectory);
  if (fairness_rc != 0) return fairness_rc;
  return fleet_rc != 0 ? fleet_rc : chaos_rc;
}

}  // namespace
}  // namespace sdf::bench

int main(int argc, char** argv) {
  return sdf::bench::run_driver(argc, argv, sdf::bench::body);
}
