// Chaos soak tests (docs/RELIABILITY.md, "Chaos testing"): a seeded
// in-process fleet put through kill/restart schedules and injected
// service faults (svc_* sites, util/fault.h). The three invariants every
// scenario asserts:
//
//   1. no hangs — every request returns within its deadlines,
//   2. failures are typed — only retryable transport-ish codes (kIo,
//      kOverloaded, kUnavailable) ever surface mid-chaos,
//   3. answers are byte-identical — whichever worker compiles, whatever
//      was killed in between, successful payloads never drift.
//
// Schedules are drawn from splitmix64 streams at fixed seeds (0, 7, 42),
// so a failure replays exactly. The retry/budget/breaker pieces also get
// focused scenarios here: budget exhaustion as typed kUnavailable, the
// breaker's open → half-open → closed round trip, the cache scrubber
// quarantining a corrupted object, and injected cache read/write faults
// degrading to clean misses instead of corrupt answers.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "chaos_harness.h"
#include "obs/json_report.h"
#include "sdf/diagnostics.h"
#include "sdf/io.h"
#include "service/protocol.h"
#include "service/retry.h"
#include "stats_doc.h"
#include "util/fault.h"
#include "util/status.h"

namespace sdf::svc {
namespace {

namespace fs = std::filesystem;
using chaos::ChaosFleet;
using chaos::ChaosWorker;
using chaos::chaos_graph;
using chaos::compile_once;
using chaos::draw;
using sdf::testing::field;
using sdf::testing::stats_doc;
using sdf::testing::window_counter;

class Chaos : public ::testing::Test {
 protected:
  void TearDown() override { fault::clear(); }
};

/// The shard key exactly as the router derives it.
std::uint64_t shard_key(const CompileRequest& req) {
  return cache_key(write_graph_text(parse_graph_text(req.graph_text)),
                   option_fingerprint(req));
}

RetryPolicy soak_policy(std::uint64_t seed) {
  RetryPolicy policy;
  policy.max_retries = 3;
  policy.base_backoff_ms = 5;
  policy.max_backoff_ms = 40;
  policy.seed = seed;
  return policy;
}

// ------------------------------------------------------ policy mechanics

TEST_F(Chaos, RetryTaxonomyIsTransientOnly) {
  EXPECT_TRUE(retryable(ErrorCode::kIo));
  EXPECT_TRUE(retryable(ErrorCode::kOverloaded));
  EXPECT_TRUE(retryable(ErrorCode::kUnavailable));

  EXPECT_FALSE(retryable(ErrorCode::kOk));
  EXPECT_FALSE(retryable(ErrorCode::kParse));
  EXPECT_FALSE(retryable(ErrorCode::kInconsistent));
  EXPECT_FALSE(retryable(ErrorCode::kDeadlocked));
  EXPECT_FALSE(retryable(ErrorCode::kBadArgument));
  EXPECT_FALSE(retryable(ErrorCode::kResourceExhausted));
  EXPECT_FALSE(retryable(ErrorCode::kInternal));
  EXPECT_FALSE(retryable(ErrorCode::kUnknownTenant));
}

TEST_F(Chaos, BackoffIsDeterministicBoundedAndCapped) {
  RetryPolicy policy;
  policy.base_backoff_ms = 10;
  policy.max_backoff_ms = 100;
  policy.seed = 42;
  for (int k = 0; k < 8; ++k) {
    const std::int64_t first = retry_backoff_ms(policy, k);
    // Same (seed, k) — same sleep, byte-reproducible schedules.
    EXPECT_EQ(first, retry_backoff_ms(policy, k)) << "retry " << k;
    // Within [d/2, d] for d = min(cap, base * 2^k).
    std::int64_t d = 10;
    for (int i = 0; i < k && d < 100; ++i) d *= 2;
    d = std::min<std::int64_t>(d, 100);
    EXPECT_GE(first, d / 2) << "retry " << k;
    EXPECT_LE(first, d) << "retry " << k;
  }
  // A different seed draws a different schedule somewhere in 8 retries.
  RetryPolicy other = policy;
  other.seed = 43;
  bool differs = false;
  for (int k = 0; k < 8; ++k) {
    differs = differs || retry_backoff_ms(other, k) != retry_backoff_ms(policy, k);
  }
  EXPECT_TRUE(differs);
}

TEST_F(Chaos, RetryBudgetExhaustionIsTypedUnavailable) {
  // No listener at this path: every attempt fails with a typed kIo, so
  // the two-token budget drains after two granted retries and the
  // client must surface a typed kUnavailable — never a silent spin.
  ClientOptions copts;
  copts.socket_path = "/tmp/sdfchaos_no_such_listener.sock";
  RetryPolicy policy;
  policy.max_retries = 10;
  policy.base_backoff_ms = 1;
  policy.max_backoff_ms = 2;
  policy.seed = 7;
  RetryBudget budget(2);
  RetryingClient client(copts, policy, &budget);

  const Result<std::string> got = client.compile(chaos_graph(0));
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.error().code, ErrorCode::kUnavailable);
  EXPECT_NE(got.error().message.find("retry budget exhausted"),
            std::string::npos)
      << got.error().message;
  EXPECT_EQ(budget.retries_granted(), 2);
  EXPECT_EQ(budget.exhausted_count(), 1);
}

// ------------------------------------------------- injected cache faults

TEST_F(Chaos, CacheWriteFaultServesUncachedAndRecovers) {
  chaos::Scratch scratch;
  ServerOptions sopts;
  sopts.socket_path = scratch.sock("w1");
  sopts.cache_dir = scratch.cache("w1");
  sopts.worker_id = "w1";
  sopts.jobs = 1;
  ChaosWorker worker(sopts);

  fault::configure("svc_cache_write:1", 7);
  // First compile: the durable insert fails (injected), but the response
  // is still served — degraded to uncached, never an error.
  const Result<std::string> first =
      compile_once(sopts.socket_path, chaos_graph(500));
  ASSERT_TRUE(first.ok()) << first.error().message;
  EXPECT_EQ(field(stats_doc(*worker.server()), "cache.write_failures").as_int(),
            1);
  EXPECT_EQ(fault::fire_count("svc_cache_write"), 1);

  // Nothing was cached (the hot tier only holds disk-vouched bytes), so
  // the second compile is a clean miss that recompiles byte-identically
  // and — the fault now spent — caches durably.
  const Result<std::string> second =
      compile_once(sopts.socket_path, chaos_graph(500));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value(), first.value());
  EXPECT_EQ(window_counter(stats_doc(*worker.server()), "service.cache.misses"),
            2);

  const Result<std::string> third =
      compile_once(sopts.socket_path, chaos_graph(500));
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third.value(), first.value());
  EXPECT_EQ(window_counter(stats_doc(*worker.server()), "service.cache.hits"),
            1);
}

TEST_F(Chaos, CacheReadFaultIsCleanMissNotCorruption) {
  chaos::Scratch scratch;
  ServerOptions sopts;
  sopts.socket_path = scratch.sock("w1");
  sopts.cache_dir = scratch.cache("w1");
  sopts.worker_id = "w1";
  sopts.jobs = 1;
  ChaosWorker worker(sopts);

  fault::configure("svc_cache_read:1", 7);
  // Wherever the single injected read fault lands (hot-tier lookup or
  // the disk read), the worst case is a clean miss plus a recompile —
  // the answers stay byte-identical.
  const Result<std::string> first =
      compile_once(sopts.socket_path, chaos_graph(501));
  ASSERT_TRUE(first.ok()) << first.error().message;
  const Result<std::string> second =
      compile_once(sopts.socket_path, chaos_graph(501));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value(), first.value());
  EXPECT_EQ(fault::fire_count("svc_cache_read"), 1);
  EXPECT_EQ(field(stats_doc(*worker.server()), "cache.write_failures").as_int(),
            0);
}

// ---------------------------------------------------------- the scrubber

TEST_F(Chaos, ScrubberQuarantinesCorruptObjectAndHeals) {
  chaos::Scratch scratch;
  ServerOptions sopts;
  sopts.socket_path = scratch.sock("w1");
  sopts.cache_dir = scratch.cache("w1");
  sopts.worker_id = "w1";
  sopts.jobs = 1;
  sopts.scrub_interval_ms = 30;
  ChaosWorker worker(sopts);

  const Result<std::string> first =
      compile_once(sopts.socket_path, chaos_graph(502));
  ASSERT_TRUE(first.ok()) << first.error().message;

  // The response echoes its cache key; that locates the object file.
  const obs::Json doc = obs::Json::parse(first.value());
  const obs::Json* request = doc.find("request");
  ASSERT_NE(request, nullptr);
  const obs::Json* key = request->find("key");
  ASSERT_NE(key, nullptr);
  const std::string hex = key->as_string();
  const fs::path object =
      fs::path(sopts.cache_dir) / "objects" / (hex + ".json");
  ASSERT_TRUE(fs::exists(object));

  // Flip the object's bytes on disk — a torn write / bit-rot stand-in.
  {
    std::ofstream out(object, std::ios::trunc);
    out << "CORRUPT GARBAGE, NOT THE CACHED DOCUMENT";
  }

  // The scrubber's next CRC walk must quarantine it (file moved aside
  // for forensics, hot-tier copy dropped).
  const fs::path quarantined =
      fs::path(sopts.cache_dir) / "quarantine" / (hex + ".json");
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  while (!fs::exists(quarantined) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(fs::exists(quarantined)) << "scrubber never quarantined";
  EXPECT_FALSE(fs::exists(object));
  // The hot-tier eviction lands just after the quarantine rename; a few
  // scrub intervals are more than enough.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  // Next read is a clean miss: recompile, byte-identical, re-cached.
  const std::int64_t misses_before =
      window_counter(stats_doc(*worker.server()), "service.cache.misses");
  const Result<std::string> second =
      compile_once(sopts.socket_path, chaos_graph(502));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value(), first.value());
  const obs::Json stats = stats_doc(*worker.server());
  EXPECT_EQ(window_counter(stats, "service.cache.misses"), misses_before + 1);
  EXPECT_GE(field(stats, "cache.scrub_quarantined").as_int(), 1);
}

// -------------------------------------------------- breaker state machine

TEST_F(Chaos, BreakerOpensOnDeadWorkerAndClosesViaProbeAndTrial) {
  ChaosFleet fleet;
  ASSERT_TRUE(fleet.wait_all_alive(std::chrono::seconds(5)));

  // Kill w1. The 25 ms health prober alone racks up the two consecutive
  // failures that open its breaker — no client traffic required.
  fleet.kill(0);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  bool opened = false;
  while (!opened && std::chrono::steady_clock::now() < deadline) {
    const obs::Json now = stats_doc(*fleet.router());
    const obs::Json* w1 = field(now, "workers").find("w1");
    opened = w1 != nullptr && field(*w1, "breaker").as_string() == "open";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(opened) << "breaker never opened for the dead worker";
  const obs::Json down = stats_doc(*fleet.router());
  EXPECT_GE(field(down, "worker_down").as_int(), 1);
  EXPECT_FALSE(field(down, "workers.w1.alive").as_bool());

  // Restart: the prober's next success moves it open → half-open (alive
  // again, but only a single trial request may cross).
  fleet.restart(0);
  ASSERT_TRUE(fleet.wait_all_alive(std::chrono::seconds(5)));
  EXPECT_GE(field(stats_doc(*fleet.router()), "breaker_half_open").as_int(),
            1);

  // Drive compiles until one lands on w1 as shard owner — that trial's
  // success closes the breaker for good.
  RetryBudget budget(100);
  ClientOptions copts;
  copts.socket_path = fleet.router_socket();
  RetryingClient client(copts, soak_policy(7), &budget);
  bool drove_w1 = false;
  for (int i = 0; i < 12; ++i) {
    const CompileRequest req = chaos_graph(200 + i);
    drove_w1 =
        drove_w1 || fleet.router()->shard_owner(shard_key(req)) == "w1";
    const Result<std::string> got = client.compile(req);
    EXPECT_TRUE(got.ok()) << got.error().message;
    if (drove_w1) break;
  }
  ASSERT_TRUE(drove_w1) << "no probe graph landed on w1";
  const obs::Json closed = stats_doc(*fleet.router());
  EXPECT_GE(field(closed, "breaker_close").as_int(), 1);
  EXPECT_TRUE(field(closed, "workers.w1.alive").as_bool());
  EXPECT_EQ(field(closed, "workers.w1.breaker").as_string(), "closed");
}

// ------------------------------------------------ injected service chaos

TEST_F(Chaos, InjectedServiceFaultsStayTypedAndHeal) {
  ChaosFleet fleet;
  ASSERT_TRUE(fleet.wait_all_alive(std::chrono::seconds(5)));

  // Five single-fire faults across accept, recv, send, peer round-trips,
  // and the worker compile path. Fresh (uncached) graphs force real
  // compiles so the stall site actually runs.
  fault::configure(
      "svc_accept:2,svc_recv_torn:2,svc_send_short:3,svc_peer_timeout:2,"
      "svc_worker_stall:1",
      42);

  RetryBudget budget(100);
  ClientOptions copts;
  copts.socket_path = fleet.router_socket();
  RetryingClient client(copts, soak_policy(42), &budget);
  std::vector<std::string> answers;
  for (int i = 0; i < 12; ++i) {
    const Result<std::string> got = client.compile(chaos_graph(100 + i));
    if (got.ok()) {
      answers.push_back(got.value());
    } else {
      // Mid-chaos failures must be typed and transient — never a parse
      // error, never an internal, and (enforced by gtest's timeout-free
      // run finishing at all) never a hang.
      EXPECT_TRUE(retryable(got.error().code))
          << error_code_name(got.error().code) << ": "
          << got.error().message;
      answers.emplace_back();  // placeholder: re-checked after healing
    }
  }

  // Every armed site fired exactly once — the chaos actually happened.
  for (const char* site :
       {"svc_accept", "svc_recv_torn", "svc_send_short", "svc_peer_timeout",
        "svc_worker_stall"}) {
    EXPECT_EQ(fault::fire_count(site), 1) << site;
  }

  // Disarm and heal: every graph now compiles, twice, byte-identically,
  // and matches any answer obtained mid-chaos.
  fault::clear();
  ASSERT_TRUE(fleet.wait_all_alive(std::chrono::seconds(5)));
  for (int i = 0; i < 12; ++i) {
    const Result<std::string> a = client.compile(chaos_graph(100 + i));
    const Result<std::string> b = client.compile(chaos_graph(100 + i));
    ASSERT_TRUE(a.ok()) << a.error().message;
    ASSERT_TRUE(b.ok()) << b.error().message;
    EXPECT_EQ(a.value(), b.value());
    if (!answers[static_cast<std::size_t>(i)].empty()) {
      EXPECT_EQ(a.value(), answers[static_cast<std::size_t>(i)]);
    }
  }
}

// --------------------------------------------------------- the kill soak

TEST_F(Chaos, KillRestartSoakIsTypedAndByteIdentical) {
  for (const std::uint64_t seed : {0ULL, 7ULL, 42ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ChaosFleet fleet;
    ASSERT_TRUE(fleet.wait_all_alive(std::chrono::seconds(5)));

    RetryBudget budget(1000);
    ClientOptions copts;
    copts.socket_path = fleet.router_socket();
    RetryingClient client(copts, soak_policy(seed), &budget);

    // Baseline answers on a healthy fleet.
    std::vector<std::string> expect;
    for (int g = 0; g < 6; ++g) {
      const Result<std::string> got = client.compile(chaos_graph(g));
      ASSERT_TRUE(got.ok()) << got.error().message;
      expect.push_back(got.value());
    }

    // 40 seeded steps: kill, restart, or request. Kills and restarts of
    // already-down/up workers are no-ops, so every schedule is legal.
    int ok = 0;
    for (std::uint64_t step = 0; step < 40; ++step) {
      const std::uint64_t r = draw(seed, step);
      const int w = static_cast<int>((r >> 8) % ChaosFleet::kWorkers);
      switch (r % 4) {
        case 0:
          fleet.kill(w);
          break;
        case 1:
          fleet.restart(w);
          break;
        default: {
          const int g = static_cast<int>((r >> 16) % 6);
          const Result<std::string> got = client.compile(chaos_graph(g));
          if (got.ok()) {
            EXPECT_EQ(got.value(), expect[static_cast<std::size_t>(g)])
                << "step " << step << " graph " << g;
            ++ok;
          } else {
            EXPECT_TRUE(retryable(got.error().code))
                << "step " << step << ": "
                << error_code_name(got.error().code) << ": "
                << got.error().message;
          }
          break;
        }
      }
    }
    // The schedule must have produced real traffic, not only failures.
    EXPECT_GT(ok, 0);

    // Heal everything; the fleet converges and every answer (including
    // from caches that lived through kill/restart cycles) is unchanged.
    for (int i = 0; i < ChaosFleet::kWorkers; ++i) fleet.restart(i);
    ASSERT_TRUE(fleet.wait_all_alive(std::chrono::seconds(10)));
    for (int g = 0; g < 6; ++g) {
      const Result<std::string> got = client.compile(chaos_graph(g));
      ASSERT_TRUE(got.ok()) << got.error().message;
      EXPECT_EQ(got.value(), expect[static_cast<std::size_t>(g)])
          << "graph " << g;
    }
  }
}

// ------------------------------------------------------ the connection soak

/// Threads, open descriptors and mapped address space of this process.
struct Footprint {
  std::int64_t threads = 0;
  std::int64_t fds = 0;
  std::int64_t vm_kb = 0;
};

Footprint footprint() {
  Footprint f;
  for ([[maybe_unused]] const auto& e :
       fs::directory_iterator("/proc/self/task")) {
    ++f.threads;
  }
  for ([[maybe_unused]] const auto& e :
       fs::directory_iterator("/proc/self/fd")) {
    ++f.fds;
  }
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmSize:", 0) == 0) f.vm_kb = std::stoll(line.substr(7));
  }
  return f;
}

/// One connection: a compile, then a ping. A connection's frames are
/// answered in order, so the pong comes only after the daemon finished
/// recording the compile (an fsync after the response is sent); without
/// it a fast client outruns the recorder and threads queue up on it.
void compile_and_ping(const std::string& socket, const CompileRequest& req) {
  ClientOptions copts;
  copts.socket_path = socket;
  Client client(copts);
  ASSERT_TRUE(client.compile(req).ok());
  ASSERT_TRUE(client.ping());
}

/// 10k sequential connections against `socket`: after a warm-up,
/// threads, descriptors and VmSize must stay flat. A finished connection
/// thread that is never joined keeps its ~8 MB stack mapped, so 10k of
/// them would add ~80 GB of VmSize; the bound leaves room only for the
/// odd new malloc arena (64 MB of reserved address space each).
void soak_connections(const std::string& socket) {
  constexpr int kWarmup = 200;
  constexpr int kConnections = 10000;
  const CompileRequest req = chaos_graph(0);
  for (int i = 0; i < kWarmup; ++i) {
    ASSERT_NO_FATAL_FAILURE(compile_and_ping(socket, req));
  }
  const Footprint before = footprint();
  for (int i = 0; i < kConnections; ++i) {
    ASSERT_NO_FATAL_FAILURE(compile_and_ping(socket, req)) << i;
  }
  const Footprint after = footprint();
  EXPECT_LE(after.threads, before.threads + 2);
  EXPECT_LE(after.fds, before.fds + 2);
  EXPECT_LE(after.vm_kb, before.vm_kb + 256 * 1024);
}

// Bounded resources under connection churn, for the daemon (recording
// and the controller on) and for the router over one worker. Span
// storage under `serve --trace` is not covered: spans still go to the
// unbounded process-global telemetry buffer until the metrics registry
// replaces it.
TEST_F(Chaos, ConnectionSoakKeepsThreadsFdsAndVmSizeFlat) {
  chaos::Scratch scratch;
  ServerOptions sopts;
  sopts.socket_path = scratch.sock("w");
  sopts.cache_dir = scratch.cache("w");
  sopts.record_path = scratch.dir + "/w.trace";
  sopts.control_interval_ms = 50;
  ChaosWorker worker(sopts);
  ASSERT_TRUE(worker.server()->control_enabled());
  ASSERT_NO_FATAL_FAILURE(soak_connections(sopts.socket_path));

  RouterOptions ropts;
  ropts.socket_path = scratch.sock("router");
  WorkerConfig cfg;
  cfg.id = "w";
  cfg.endpoint.socket_path = sopts.socket_path;
  ropts.workers.push_back(cfg);
  util::reset_shutdown();
  Router router(ropts);
  router.start();
  std::thread runner([&router] { router.run(); });
  soak_connections(ropts.socket_path);
  router.stop();
  runner.join();
}

}  // namespace
}  // namespace sdf::svc
