// Fleet-mode end-to-end tests (docs/SERVICE.md, "Fleet mode"): a Router
// over real workers on real Unix sockets — deterministic shard routing,
// peer cache warming on shard misses, SIGKILL failover with typed errors
// and zero hung clients, and the no-live-worker `unavailable` contract.
//
// The SIGKILL test forks its victim worker BEFORE the parent starts any
// threads (fork from a multithreaded process may deadlock in malloc), so
// it runs the fork first and builds the in-process fleet afterwards.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "sdf/diagnostics.h"
#include "sdf/io.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/ring.h"
#include "service/router.h"
#include "service/server.h"
#include "stats_doc.h"
#include "util/shutdown.h"

namespace sdf::svc {
namespace {

namespace fs = std::filesystem;
using sdf::testing::field;
using sdf::testing::stats_doc;

/// A fresh scratch directory with sockaddr_un-short socket paths.
struct Scratch {
  std::string dir;

  Scratch() {
    static int counter = 0;
    dir = "/tmp/sdffleet_" + std::to_string(::getpid()) + "_" +
          std::to_string(counter++);
    fs::remove_all(dir);
    fs::create_directories(dir);
  }
  ~Scratch() {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }

  [[nodiscard]] std::string sock(const std::string& name) const {
    return dir + "/" + name + ".sock";
  }
  [[nodiscard]] std::string cache(const std::string& name) const {
    return dir + "/" + name + ".cache";
  }
};

struct RunningServer {
  explicit RunningServer(ServerOptions options) {
    util::reset_shutdown();
    server = std::make_unique<Server>(std::move(options));
    server->start();
    runner = std::thread([this] { server->run(); });
  }
  ~RunningServer() { stop(); }

  void stop() {
    if (runner.joinable()) {
      server->stop();
      runner.join();
    }
  }

  std::unique_ptr<Server> server;
  std::thread runner;
};

struct RunningRouter {
  explicit RunningRouter(RouterOptions options) {
    util::reset_shutdown();
    router = std::make_unique<Router>(std::move(options));
    router->start();
    runner = std::thread([this] { router->run(); });
  }
  ~RunningRouter() { stop(); }

  void stop() {
    if (runner.joinable()) {
      router->stop();
      runner.join();
    }
  }

  std::unique_ptr<Router> router;
  std::thread runner;
};

ServerOptions worker_options(const Scratch& scratch, const std::string& id) {
  ServerOptions opts;
  opts.socket_path = scratch.sock(id);
  opts.cache_dir = scratch.cache(id);
  opts.worker_id = id;
  opts.jobs = 1;
  return opts;
}

WorkerConfig worker_config(const Scratch& scratch, const std::string& id) {
  WorkerConfig cfg;
  cfg.id = id;
  cfg.endpoint.socket_path = scratch.sock(id);
  cfg.pinned_id = true;
  return cfg;
}

CompileRequest graph_request(int i) {
  CompileRequest req;
  req.graph_text = "graph g" + std::to_string(i) +
                   "\nactor A\nactor B\nedge A B 2 3\n";
  return req;
}

/// The shard key exactly as the router derives it.
std::uint64_t shard_key(const CompileRequest& req) {
  return cache_key(write_graph_text(parse_graph_text(req.graph_text)),
                   option_fingerprint(req));
}

Result<std::string> compile_via(const std::string& socket_path,
                                const CompileRequest& req) {
  ClientOptions copts;
  copts.socket_path = socket_path;
  Client client(copts);
  return client.compile(req);
}

void wait_for_pingable(const std::string& socket_path) {
  for (int i = 0; i < 400; ++i) {
    try {
      ClientOptions copts;
      copts.socket_path = socket_path;
      Client client(copts);
      if (client.ping("up?")) return;
    } catch (const std::exception&) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  FAIL() << "worker never became pingable: " << socket_path;
}

// ------------------------------------------------------------ spec parsing

TEST(FleetSpec, ParsesPlainAndPinnedSpecs) {
  const Result<WorkerConfig> plain = parse_worker_spec("/tmp/w.sock");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain.value().endpoint.socket_path, "/tmp/w.sock");
  EXPECT_EQ(plain.value().id, "/tmp/w.sock");
  EXPECT_FALSE(plain.value().pinned_id);

  const Result<WorkerConfig> pinned = parse_worker_spec("w1@/tmp/w.sock");
  ASSERT_TRUE(pinned.ok());
  EXPECT_EQ(pinned.value().id, "w1");
  EXPECT_EQ(pinned.value().endpoint.socket_path, "/tmp/w.sock");
  EXPECT_TRUE(pinned.value().pinned_id);

  const Result<WorkerConfig> tcp = parse_worker_spec("w2@tcp:9321");
  ASSERT_TRUE(tcp.ok());
  EXPECT_EQ(tcp.value().id, "w2");
  EXPECT_EQ(tcp.value().endpoint.tcp_port, 9321);
  EXPECT_TRUE(tcp.value().endpoint.socket_path.empty());
}

TEST(FleetSpec, RejectsMalformedSpecs) {
  EXPECT_FALSE(parse_worker_spec("").ok());
  EXPECT_FALSE(parse_worker_spec("w1@").ok());
  EXPECT_FALSE(parse_worker_spec("@/tmp/w.sock").ok());
  EXPECT_FALSE(parse_worker_spec("tcp:").ok());
  EXPECT_FALSE(parse_worker_spec("tcp:notaport").ok());
  EXPECT_FALSE(parse_worker_spec("tcp:70000").ok());
}

TEST(FleetSpec, RouterRejectsEmptyAndDuplicateWorkers) {
  RouterOptions none;
  none.socket_path = "/tmp/unused.sock";
  EXPECT_THROW(Router router(none), BadArgumentError);

  RouterOptions dup;
  dup.socket_path = "/tmp/unused.sock";
  dup.workers.push_back(parse_worker_spec("w1@/tmp/a.sock").value());
  dup.workers.push_back(parse_worker_spec("w1@/tmp/b.sock").value());
  EXPECT_THROW(Router router(dup), BadArgumentError);
}

// ------------------------------------------------------------------- e2e

TEST(Fleet, DeterministicShardRoutingAndHotLookups) {
  Scratch scratch;
  std::vector<std::unique_ptr<RunningServer>> workers;
  RouterOptions ropts;
  ropts.socket_path = scratch.sock("router");
  for (const char* id : {"w1", "w2", "w3"}) {
    workers.push_back(
        std::make_unique<RunningServer>(worker_options(scratch, id)));
    ropts.workers.push_back(worker_config(scratch, id));
  }
  ropts.health_interval_ms = 0;  // inline detection only; keeps it quiet
  RunningRouter router(ropts);

  std::map<int, std::string> first_responses;
  for (int i = 0; i < 8; ++i) {
    const Result<std::string> response =
        compile_via(ropts.socket_path, graph_request(i));
    ASSERT_TRUE(response.ok()) << response.error().message;
    first_responses[i] = response.value();
  }

  obs::Json stats = stats_doc(*router.router);
  EXPECT_EQ(field(stats, "requests").as_int(), 8);
  EXPECT_EQ(field(stats, "compiles").as_int(), 8);  // all cold: all forwarded
  EXPECT_EQ(field(stats, "lookup_hits").as_int(), 0);
  EXPECT_EQ(field(stats, "unavailable").as_int(), 0);

  // Forwarded counts land exactly on the ring owners.
  std::map<std::string, std::int64_t> expected;
  for (int i = 0; i < 8; ++i) {
    ++expected[router.router->shard_owner(shard_key(graph_request(i)))];
  }
  for (const auto& [id, w] : field(stats, "workers").members()) {
    EXPECT_EQ(field(w, "forwarded").as_int(), expected[id]) << "worker " << id;
  }

  // Repeats are served from the shard owner's cache (no recompiles) and
  // byte-identical to the cold responses.
  for (int i = 0; i < 8; ++i) {
    const Result<std::string> response =
        compile_via(ropts.socket_path, graph_request(i));
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response.value(), first_responses[i]) << "graph " << i;
  }
  stats = stats_doc(*router.router);
  EXPECT_EQ(field(stats, "compiles").as_int(), 8) << "a repeat was recompiled";
  EXPECT_EQ(field(stats, "lookup_hits").as_int(), 8);
}

TEST(Fleet, PeerHitWarmsTheShardOwner) {
  Scratch scratch;
  std::vector<std::unique_ptr<RunningServer>> workers;
  RouterOptions ropts;
  ropts.socket_path = scratch.sock("router");
  for (const char* id : {"w1", "w2", "w3"}) {
    workers.push_back(
        std::make_unique<RunningServer>(worker_options(scratch, id)));
    ropts.workers.push_back(worker_config(scratch, id));
  }
  ropts.health_interval_ms = 0;
  RunningRouter router(ropts);

  const CompileRequest req = graph_request(0);
  const std::string owner =
      router.router->shard_owner(shard_key(req));
  // Seed the cache of a worker that is NOT the shard owner — the state a
  // fleet resize leaves behind.
  std::string non_owner;
  for (const char* id : {"w1", "w2", "w3"}) {
    if (owner != id) {
      non_owner = id;
      break;
    }
  }
  const Result<std::string> seeded =
      compile_via(scratch.sock(non_owner), req);
  ASSERT_TRUE(seeded.ok());

  // Routed request: owner misses, the peer probe finds the seeded bytes,
  // and the owner is warmed for next time.
  const Result<std::string> routed = compile_via(ropts.socket_path, req);
  ASSERT_TRUE(routed.ok());
  EXPECT_EQ(routed.value(), seeded.value());
  obs::Json stats = stats_doc(*router.router);
  EXPECT_EQ(field(stats, "peer_hits").as_int(), 1);
  EXPECT_EQ(field(stats, "warms").as_int(), 1);
  EXPECT_EQ(field(stats, "compiles").as_int(), 0) << "peer hit recompiled";

  // The warm landed: the owner now answers the shard lookup itself.
  const Result<std::string> again = compile_via(ropts.socket_path, req);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), seeded.value());
  stats = stats_doc(*router.router);
  EXPECT_EQ(field(stats, "lookup_hits").as_int(), 1);
  EXPECT_EQ(field(stats, "compiles").as_int(), 0);
}

TEST(Fleet, NoLiveWorkerYieldsTypedUnavailable) {
  Scratch scratch;
  RouterOptions ropts;
  ropts.socket_path = scratch.sock("router");
  ropts.workers.push_back(worker_config(scratch, "ghost"));  // never started
  ropts.health_interval_ms = 0;
  // One failure opens the breaker — this test pins the instant-dead
  // behaviour of a single-shot outage.
  ropts.breaker_threshold = 1;
  RunningRouter router(ropts);

  const Result<std::string> response =
      compile_via(ropts.socket_path, graph_request(0));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.error().code, ErrorCode::kUnavailable);
  EXPECT_EQ(exit_code_for(response.error().code), 26);
  const obs::Json stats = stats_doc(*router.router);
  EXPECT_EQ(field(stats, "unavailable").as_int(), 1);
  EXPECT_FALSE(field(stats, "workers.ghost.alive").as_bool());
}

TEST(Fleet, HealthProbeRevivesARestartedWorker) {
  Scratch scratch;
  RouterOptions ropts;
  ropts.socket_path = scratch.sock("router");
  ropts.workers.push_back(worker_config(scratch, "w1"));
  ropts.health_interval_ms = 20;
  RunningRouter router(ropts);

  // Worker not started yet: the request fails typed, worker marked dead.
  ASSERT_FALSE(compile_via(ropts.socket_path, graph_request(0)).ok());

  // Start the worker; the prober must bring it back without a restart.
  RunningServer worker(worker_options(scratch, "w1"));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool recovered = false;
  while (std::chrono::steady_clock::now() < deadline) {
    const Result<std::string> response =
        compile_via(ropts.socket_path, graph_request(0));
    if (response.ok()) {
      recovered = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(recovered) << "router never re-routed to the revived worker";
}

TEST(Fleet, PinnedIdMismatchCountsAsDown) {
  Scratch scratch;
  // The worker reports worker_id "actually-w9" but the spec pins "w1".
  ServerOptions wopts = worker_options(scratch, "actually-w9");
  wopts.socket_path = scratch.sock("w1");
  RunningServer worker(std::move(wopts));

  RouterOptions ropts;
  ropts.socket_path = scratch.sock("router");
  ropts.workers.push_back(worker_config(scratch, "w1"));
  ropts.health_interval_ms = 20;
  RunningRouter router(ropts);

  // The prober verifies the pinned id and refuses the mis-wired socket.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool marked_down = false;
  while (std::chrono::steady_clock::now() < deadline) {
    if (!field(stats_doc(*router.router), "workers.w1.alive").as_bool()) {
      marked_down = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(marked_down) << "id mismatch never detected";
}

// The headline failure drill: SIGKILL a worker mid-load; every client
// completes (success or typed error — never a hang), and every response
// after the kill is byte-identical to its pre-kill counterpart.
TEST(Fleet, KilledWorkerMidLoadReroutesWithoutHangingClients) {
  Scratch scratch;
  const std::string victim_sock = scratch.sock("w3");
  const std::string victim_cache = scratch.cache("w3");

  // Fork the victim BEFORE any threads exist in this process.
  const pid_t victim = fork();
  ASSERT_GE(victim, 0) << "fork failed";
  if (victim == 0) {
    // Child: run worker w3 until SIGKILLed. _exit keeps gtest teardown
    // and parent-owned state out of the child.
    try {
      util::reset_shutdown();
      ServerOptions opts;
      opts.socket_path = victim_sock;
      opts.cache_dir = victim_cache;
      opts.worker_id = "w3";
      opts.jobs = 1;
      Server server(opts);
      server.start();
      server.run();
    } catch (...) {
    }
    _exit(0);
  }
  wait_for_pingable(victim_sock);

  std::vector<std::unique_ptr<RunningServer>> workers;
  workers.push_back(
      std::make_unique<RunningServer>(worker_options(scratch, "w1")));
  workers.push_back(
      std::make_unique<RunningServer>(worker_options(scratch, "w2")));

  RouterOptions ropts;
  ropts.socket_path = scratch.sock("router");
  for (const char* id : {"w1", "w2", "w3"}) {
    ropts.workers.push_back(worker_config(scratch, id));
  }
  // The probe period exceeds the load burst on purpose: if the prober
  // could mark w3 dead first, `rerouted` would race it (requests after
  // the mark route straight to survivors and count nothing). With the
  // probe idle, inline failure detection must do the rerouting — the
  // probe-driven path is pinned by HealthProbeRevivesARestartedWorker.
  ropts.health_interval_ms = 60000;
  ropts.worker_timeout_ms = 5000;
  RunningRouter router(ropts);

  constexpr int kGraphs = 10;
  std::vector<std::string> pre_kill(kGraphs);
  for (int i = 0; i < kGraphs; ++i) {
    const Result<std::string> response =
        compile_via(ropts.socket_path, graph_request(i));
    ASSERT_TRUE(response.ok()) << response.error().message;
    pre_kill[i] = response.value();
  }

  // Load from several client threads while the victim dies under them.
  std::vector<std::thread> clients;
  std::vector<int> completed(4, 0);
  std::vector<int> succeeded(4, 0);
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      for (int round = 0; round < 5; ++round) {
        for (int i = 0; i < kGraphs; ++i) {
          try {
            const Result<std::string> response =
                compile_via(ropts.socket_path, graph_request(i));
            if (response.ok()) {
              ++succeeded[t];
              // Deterministic compiles: a re-routed answer is
              // byte-identical even when a different worker produced it.
              EXPECT_EQ(response.value(), pre_kill[i]);
            }
          } catch (const std::exception&) {
            // Transport-level failure still counts as completion — the
            // assertion is "no hang", not "no error".
          }
          ++completed[t];
        }
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ASSERT_EQ(::kill(victim, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(victim, &wstatus, 0), victim);
  ASSERT_TRUE(WIFSIGNALED(wstatus));

  for (auto& c : clients) c.join();
  for (int t = 0; t < 4; ++t) {
    EXPECT_EQ(completed[t], 5 * kGraphs) << "client " << t << " hung";
    EXPECT_GT(succeeded[t], 0);
  }

  // After the dust settles every graph still answers — the dead worker's
  // shards re-route to survivors — and stays byte-identical.
  for (int i = 0; i < kGraphs; ++i) {
    const Result<std::string> response =
        compile_via(ropts.socket_path, graph_request(i));
    ASSERT_TRUE(response.ok()) << "graph " << i << " lost after worker kill: "
                               << response.error().message;
    EXPECT_EQ(response.value(), pre_kill[i]);
  }
  const obs::Json stats = stats_doc(*router.router);
  EXPECT_FALSE(field(stats, "workers.w3.alive").as_bool());
  EXPECT_GT(field(stats, "rerouted").as_int(), 0);
}

}  // namespace
}  // namespace sdf::svc
