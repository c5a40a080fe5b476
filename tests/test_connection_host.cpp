// The connection host shared by the daemon and the router
// (service/transport.h ConnectionHost), and the per-thread resource
// governor under it: the live-connection cap, the accept back-off when
// the process is out of descriptors, and two in-process servers running
// budgeted compiles side by side.
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <ctime>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "chaos_harness.h"
#include "graphs/cddat.h"
#include "graphs/filterbank.h"
#include "graphs/satellite.h"
#include "obs/json_report.h"
#include "pipeline/compile.h"
#include "pipeline/governor.h"
#include "sdf/diagnostics.h"
#include "sdf/io.h"
#include "service/client.h"
#include "service/server.h"
#include "service/transport.h"

namespace sdf::svc {
namespace {

namespace fs = std::filesystem;

using chaos::ChaosWorker;
using chaos::Scratch;

/// Runs `body` in a forked child and returns its exit status; the child
/// reports the first failed step as a nonzero code.
int run_in_child(const std::function<int()>& body) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    int code = 100;
    try {
      code = body();
    } catch (...) {
    }
    ::_exit(code);
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return 101;
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

std::int64_t process_cpu_ms() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000 + ts.tv_nsec / 1000000;
}

int open_fd_count() {
  int n = 0;
  for ([[maybe_unused]] const auto& e :
       fs::directory_iterator("/proc/self/fd")) {
    ++n;
  }
  return n;
}

TEST(ConnectionHost, CapRejectsExcessTypedAndAcceptBacksOffWhenOutOfFds) {
  const int status = run_in_child([]() -> int {
    // A soft limit a few connections above the host's descriptor reserve
    // keeps the cap small; the hard limit stays where it was.
    rlimit lim{};
    if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return 1;
    lim.rlim_cur = static_cast<rlim_t>(open_fd_count()) + 80;
    if (lim.rlim_max != RLIM_INFINITY && lim.rlim_cur > lim.rlim_max) {
      return 1;
    }
    if (::setrlimit(RLIMIT_NOFILE, &lim) != 0) return 1;
    const int cap = ConnectionHost::connection_cap();
    if (cap < 1 || cap > 32) return 2;

    Scratch scratch;
    ServerOptions options;
    options.socket_path = scratch.sock("d");
    ClientOptions copts;
    copts.socket_path = options.socket_path;
    ChaosWorker running(options);

    // 1. Out of descriptors: fill the table but one slot, which the
    // client's socket takes. The daemon's accept() now fails with EMFILE
    // while the listener stays readable; it must back off, not spin. The
    // client thread starts first: sanitizer runtimes need a spare
    // descriptor when a thread starts.
    std::atomic<bool> go{false};
    std::atomic<bool> pinged{false};
    std::thread pending([&] {
      while (!go) std::this_thread::sleep_for(std::chrono::milliseconds(1));
      try {
        Client client(copts);
        pinged = client.ping();
      } catch (const std::exception&) {
      }
    });
    std::vector<int> filler;
    for (;;) {
      const int fd = ::open("/dev/null", O_RDONLY);
      if (fd < 0) break;
      filler.push_back(fd);
    }
    if (filler.empty()) return 3;
    ::close(filler.back());
    filler.pop_back();
    go = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const std::int64_t cpu0 = process_cpu_ms();
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    const std::int64_t spent = process_cpu_ms() - cpu0;
    for (const int fd : filler) ::close(fd);
    pending.join();
    if (spent > 150) return 4;
    if (!pinged) return 5;  // once descriptors free up, it is served
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    // 2. The cap: `cap` live connections are served, the next one gets
    // a typed overloaded error (exit code 24) and is closed.
    std::vector<std::unique_ptr<Client>> held;
    for (int i = 0; i < cap; ++i) {
      held.push_back(std::make_unique<Client>(copts));
      if (!held.back()->ping()) return 6;
    }
    CompileRequest req;
    req.graph_text = "graph tiny\nactor A\nactor B\nedge A B 2 3\n";
    {
      Client excess(copts);
      const Result<std::string> r = excess.compile(req);
      if (r.ok() || r.error().code != ErrorCode::kOverloaded) return 7;
      if (exit_code_for(r.error().code) != 24) return 8;
    }

    // 3. Once the held connections close, the daemon serves normally.
    held.clear();
    bool served = false;
    for (int attempt = 0; attempt < 50 && !served; ++attempt) {
      Client client(copts);
      served = client.compile(req).ok();
      if (!served) std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    if (!served) return 9;
    const obs::Json stats = obs::Json::parse(running.server()->stats_json());
    if (stats.find("connections")->as_int() < cap + 3) return 10;
    return 0;
  });
  EXPECT_EQ(status, 0) << "child failed at step " << status;
}

/// The fields of a compile response that come from the compile itself.
struct Answer {
  std::string schedule;
  std::int64_t shared_size = 0;
  std::int64_t nonshared_bufmem = 0;
  std::int64_t dp_estimate = 0;
  bool degraded = false;

  friend bool operator==(const Answer&, const Answer&) = default;
};

Answer answer_of(const std::string& response) {
  const obs::Json doc = obs::Json::parse(response);
  const obs::Json& results = *doc.find("results");
  Answer a;
  a.schedule = results.find("schedule")->as_string();
  a.shared_size = results.find("shared_size")->as_int();
  a.nonshared_bufmem = results.find("nonshared_bufmem")->as_int();
  a.dp_estimate = results.find("dp_estimate")->as_int();
  a.degraded = results.find("degraded_from") != nullptr ||
               results.find("load_shed") != nullptr;
  return a;
}

TEST(TwoServers, ConcurrentDeadlineCompilesAreIsolatedAndByteIdentical) {
  // Each server's budgeted compiles install a governor on their own pool
  // thread; with two servers in one process those scopes overlap in
  // time, and neither may see (or restore) the other's governor.
  const std::vector<Graph> graphs = {qmf23(3), qmf12(3), qmf235(3),
                                     satellite_receiver(), cd_to_dat()};
  std::vector<std::string> texts;
  std::vector<Answer> expected;
  for (const Graph& g : graphs) {
    texts.push_back(write_graph_text(g));
    const CompileResult res = compile(g, CompileOptions{});
    expected.push_back(Answer{res.schedule.to_string(g), res.shared_size,
                              res.nonshared_bufmem, res.dp_estimate, false});
  }

  Scratch scratch;
  std::vector<std::unique_ptr<ChaosWorker>> servers;
  for (int s = 0; s < 2; ++s) {
    ServerOptions options;
    options.socket_path = scratch.sock("s" + std::to_string(s));
    options.jobs = 2;
    servers.push_back(std::make_unique<ChaosWorker>(options));
  }

  // Two clients per server, every request carrying a generous deadline
  // (it never trips, so every answer is full fidelity).
  constexpr int kClients = 4;
  constexpr int kRounds = 6;
  std::vector<std::vector<std::string>> responses(kClients);
  std::vector<std::string> failures(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ClientOptions copts;
      copts.socket_path = scratch.sock("s" + std::to_string(c % 2));
      Client client(copts);
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < texts.size(); ++i) {
          CompileRequest req;
          req.graph_text = texts[(i + static_cast<std::size_t>(c)) %
                                 texts.size()];
          req.deadline_ms = 2000;
          const Result<std::string> r = client.compile(req);
          if (!r.ok()) {
            failures[c] = r.error().message;
            return;
          }
          responses[c].push_back(r.value());
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  servers.clear();

  std::map<std::string, std::string> by_name;  // graph name -> bytes
  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(failures[c], "") << "client " << c;
    ASSERT_EQ(responses[c].size(), texts.size() * kRounds);
    for (std::size_t k = 0; k < responses[c].size(); ++k) {
      const std::size_t i = (k + static_cast<std::size_t>(c)) % texts.size();
      EXPECT_EQ(answer_of(responses[c][k]), expected[i])
          << graphs[i].name() << " from client " << c;
      const auto [it, fresh] =
          by_name.emplace(graphs[i].name(), responses[c][k]);
      if (!fresh) {
        EXPECT_EQ(it->second, responses[c][k]) << graphs[i].name();
      }
    }
  }
  // Nothing leaked onto this thread from either server.
  EXPECT_EQ(ResourceGovernor::current(), nullptr);
}

}  // namespace
}  // namespace sdf::svc
