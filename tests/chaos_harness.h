// Deterministic chaos harness (docs/RELIABILITY.md, "Chaos testing"):
// a 3-worker in-process fleet whose kill/restart/request schedule is
// drawn from a seeded splitmix64 stream — same seed, same chaos, so a
// failing soak replays byte-for-byte under a debugger.
//
// "Kill" is a graceful stop()+join+destroy of the worker: from the
// router's point of view the socket vanishes mid-conversation exactly
// like a crash, but the process stays sanitizer-clean (no fork, no
// SIGKILL of a thread-sharing child). "Restart" reconstructs the worker
// over the SAME cache directory and worker id, so cache persistence
// across restarts is part of what every soak exercises.
#pragma once

#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/json_report.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/router.h"
#include "service/server.h"
#include "util/shutdown.h"

namespace sdf::svc::chaos {

/// splitmix64 finalizer — the same mixer the fault injector uses.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The `step`-th value of the seeded chaos stream.
inline std::uint64_t draw(std::uint64_t seed, std::uint64_t step) {
  return mix64(seed ^ mix64(step + 1));
}

/// A fresh scratch directory with sockaddr_un-short socket paths.
struct Scratch {
  std::string dir;

  Scratch() {
    static int counter = 0;
    dir = "/tmp/sdfchaos_" + std::to_string(::getpid()) + "_" +
          std::to_string(counter++);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
  }
  ~Scratch() {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }

  [[nodiscard]] std::string sock(const std::string& name) const {
    return dir + "/" + name + ".sock";
  }
  [[nodiscard]] std::string cache(const std::string& name) const {
    return dir + "/" + name + ".cache";
  }
};

/// One worker the chaos schedule can kill and resurrect. Holds its
/// ServerOptions so a restart reuses the same socket, cache directory,
/// and worker id.
class ChaosWorker {
 public:
  explicit ChaosWorker(ServerOptions options) : options_(std::move(options)) {
    start();
  }
  ~ChaosWorker() { stop(); }

  ChaosWorker(const ChaosWorker&) = delete;
  ChaosWorker& operator=(const ChaosWorker&) = delete;

  void start() {
    if (up_) return;
    util::reset_shutdown();
    server_ = std::make_unique<Server>(options_);
    server_->start();
    runner_ = std::thread([this] { server_->run(); });
    up_ = true;
  }

  void stop() {
    if (!up_) return;
    server_->stop();
    runner_.join();
    server_.reset();  // releases the cache lock + unlinks the socket
    up_ = false;
  }

  [[nodiscard]] bool up() const { return up_; }
  [[nodiscard]] Server* server() { return server_.get(); }
  [[nodiscard]] const ServerOptions& options() const { return options_; }

 private:
  ServerOptions options_;
  std::unique_ptr<Server> server_;
  std::thread runner_;
  bool up_ = false;
};

/// A 3-worker fleet behind a router, tuned for fast chaos turnaround:
/// short worker deadlines, a 2-failure breaker, and a 25 ms health
/// prober so recovery happens within a few tens of milliseconds.
class ChaosFleet {
 public:
  static constexpr int kWorkers = 3;

  explicit ChaosFleet(int worker_timeout_ms = 250) {
    for (int i = 0; i < kWorkers; ++i) {
      const std::string id = "w" + std::to_string(i + 1);
      ServerOptions sopts;
      sopts.socket_path = scratch_.sock(id);
      sopts.cache_dir = scratch_.cache(id);
      sopts.worker_id = id;
      sopts.jobs = 1;
      workers_.push_back(std::make_unique<ChaosWorker>(std::move(sopts)));
    }
    RouterOptions ropts;
    ropts.socket_path = scratch_.sock("router");
    for (int i = 0; i < kWorkers; ++i) {
      WorkerConfig cfg;
      cfg.id = "w" + std::to_string(i + 1);
      cfg.endpoint.socket_path = workers_[i]->options().socket_path;
      cfg.pinned_id = true;
      ropts.workers.push_back(cfg);
    }
    ropts.worker_timeout_ms = worker_timeout_ms;
    ropts.breaker_threshold = 2;
    ropts.health_interval_ms = 25;
    util::reset_shutdown();
    router_ = std::make_unique<Router>(ropts);
    router_->start();
    router_runner_ = std::thread([this] { router_->run(); });
  }

  ~ChaosFleet() {
    if (router_runner_.joinable()) {
      router_->stop();
      router_runner_.join();
    }
  }

  ChaosFleet(const ChaosFleet&) = delete;
  ChaosFleet& operator=(const ChaosFleet&) = delete;

  void kill(int i) { workers_[static_cast<std::size_t>(i)]->stop(); }
  void restart(int i) { workers_[static_cast<std::size_t>(i)]->start(); }
  [[nodiscard]] ChaosWorker& worker(int i) {
    return *workers_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] Router* router() { return router_.get(); }
  [[nodiscard]] std::string router_socket() const {
    return scratch_.sock("router");
  }

  /// True once the router's health prober sees every worker routable
  /// (breaker out of the open state) — the fleet has healed.
  [[nodiscard]] bool wait_all_alive(std::chrono::milliseconds timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (std::chrono::steady_clock::now() < deadline) {
      const obs::Json stats = obs::Json::parse(router_->stats_json());
      int alive = 0;
      for (const auto& [id, w] : stats.find("workers")->members()) {
        if (w.find("alive")->as_bool()) ++alive;
      }
      if (alive == kWorkers) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  }

 private:
  Scratch scratch_;
  std::vector<std::unique_ptr<ChaosWorker>> workers_;
  std::unique_ptr<Router> router_;
  std::thread router_runner_;
};

/// A distinct, deterministically-compiled graph per index.
inline CompileRequest chaos_graph(int i) {
  CompileRequest req;
  req.graph_text = "graph chaos" + std::to_string(i) +
                   "\nactor A\nactor B\nactor C\nedge A B " +
                   std::to_string(1 + (i % 3)) + " " +
                   std::to_string(2 + (i % 2)) + "\nedge B C 3 1\n";
  return req;
}

/// One compile over a fresh connection; transport failures come back as
/// the typed diagnostics Client already throws/returns.
inline Result<std::string> compile_once(const std::string& socket_path,
                                        const CompileRequest& req) {
  ClientOptions copts;
  copts.socket_path = socket_path;
  Client client(copts);
  return client.compile(req);
}

}  // namespace sdf::svc::chaos
