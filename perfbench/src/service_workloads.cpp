// service_hot and service_mixed: the compile service driven from outside,
// over its own socket protocol, through svc::Server and svc::Router
// instances the benchmark starts, each in a child process of its own
// (see ServiceProcess).
//
// service_hot: one server (cache dir + hot tier, 2 jobs) pre-warmed with
// the Table 1 suite; 2 persistent clients in a closed loop. Every request
// hits, so no sched/alloc code runs: the control for compile changes.
//
// service_mixed: a router over 2 workers (1 job each), driven open-loop
// at a fixed rate by 4 sender threads, a fresh connection per request.
// ~80% of requests repeat Table 1 graphs (hits); ~20% are unique random
// graphs of 30-120 actors (misses that compile and insert), half of them
// with a generous deadline. Latency runs from each request's due time.
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <thread>

#include "alloc/pool_checker.h"
#include "bench.h"
#include "corpus.h"
#include "pipeline/compile.h"
#include "sdf/io.h"
#include "service/cache.h"
#include "service/client.h"
#include "service/hot_tier.h"
#include "service/protocol.h"
#include "service/qos.h"
#include "service/router.h"
#include "service/server.h"
#include "spans.h"
#include "staged.h"
#include "stats.h"

namespace perfbench {
namespace {

namespace svc = sdf::svc;

/// Set-ups per run (server or fleet start and pre-warm); setup_s is
/// their median.
constexpr int kSetups = 5;
constexpr int kHotClients = 2;
constexpr int kHotJobs = 2;
/// Sample buffer size per client and second; ~4x today's hot rate.
/// Allocated before the loop, so recording a sample never allocates.
constexpr double kMaxClientRate = 30000.0;
/// Latency limit of one service_hot request for slo_frac.
constexpr double kHotLimitUs = 1000.0;

constexpr int kMixedWorkers = 2;
constexpr int kMixedSenders = 4;
/// Open-loop rate of service_mixed: a fifth of the ~1600/s at which the
/// fleet stops keeping up on a 4-core host. Half of it would leave ~24k
/// finished connection threads per 30 s run, which the server and router
/// keep until shutdown (see README.md).
constexpr double kMixedRate = 300.0;
/// One request in kMissEvery is a miss (20%).
constexpr std::size_t kMissEvery = 5;
constexpr int kMinMissActors = 30;
constexpr int kMaxMissActors = 120;
/// Far above any 120-actor compile, so it never trips.
constexpr std::int64_t kGenerousDeadlineMs = 30000;
/// Latency limit of one service_mixed request for slo_frac.
constexpr double kMixedLimitUs = 25000.0;
constexpr int kHopReps = 8;
/// Replayed requests per traced run, bounding span storage.
constexpr std::size_t kMaxReplay = 20000;

/// A svc::Server or svc::Router in a child process of its own, as sdfmemd
/// runs them, started and drained by this object.
///
/// - The benchmark process then holds only the harness (inputs, sample
///   buffers, expected responses), so the child's peak resident set is
///   the service's own. At fork the child shares the harness's
///   anonymous pages; peak_rss_mb() leaves those out.
/// - Two Servers never share a process. The ResourceGovernor scope is
///   process-global and each server serializes only its own deadline
///   compiles, so two in-process servers' concurrent deadline compiles
///   corrupt each other's governor.
///
/// Construct with no other thread running in this process.
template <typename T>
class ServiceProcess {
 public:
  template <typename Options>
  explicit ServiceProcess(const Options& options)
      : socket_(options.socket_path),
        inherited_mb_(status_mb("self", "RssAnon")) {
    int ready[2] = {-1, -1};
    int control[2] = {-1, -1};
    if (::pipe(ready) != 0 || ::pipe(control) != 0) {
      throw std::runtime_error("service process: pipe failed");
    }
    std::fflush(nullptr);
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("service process: fork failed");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(1);
      ::close(ready[0]);
      ::close(control[1]);
      int rc = 0;
      try {
        T service(options);
        service.start();
        std::thread runner([&service] { service.run(); });
        char byte = 1;
        rc = ::write(ready[1], &byte, 1) == 1 ? 0 : 1;
        // Any byte, or EOF, asks for the drain.
        while (::read(control[0], &byte, 1) < 0 && errno == EINTR) {
        }
        service.stop();
        runner.join();
      } catch (...) {
        rc = 1;
      }
      ::_exit(rc);
    }
    ::close(ready[1]);
    ::close(control[0]);
    control_fd_ = control[1];
    char byte = 0;
    const bool started = ::read(ready[0], &byte, 1) == 1;
    ::close(ready[0]);
    if (!started) {
      stop();
      throw std::runtime_error("service process: failed to start");
    }
  }
  ~ServiceProcess() { stop(); }
  ServiceProcess(const ServiceProcess&) = delete;
  ServiceProcess& operator=(const ServiceProcess&) = delete;

  /// The service's stats document (a stats frame over its socket).
  [[nodiscard]] obs::Json stats() const {
    svc::Client client({socket_, 0});
    return obs::Json::parse(client.stats());
  }

  /// The child's peak resident set (VmHWM) less the anonymous pages it
  /// shared with the benchmark at fork, in MiB.
  [[nodiscard]] double peak_rss_mb() const {
    return status_mb(std::to_string(pid_), "VmHWM") - inherited_mb_;
  }

 private:
  void stop() {
    if (control_fd_ < 0) return;
    const char byte = 'q';
    (void)!::write(control_fd_, &byte, 1);
    ::close(control_fd_);
    control_fd_ = -1;
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
  }

  std::string socket_;
  double inherited_mb_ = 0;
  pid_t pid_ = -1;
  int control_fd_ = -1;
};

std::string fresh_dir(const RunConfig& cfg, const std::string& name) {
  const std::string dir = cfg.work_dir + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

svc::CompileRequest request_for(const std::string& text,
                                std::int64_t deadline_ms = 0) {
  svc::CompileRequest req;
  req.graph_text = text;
  req.deadline_ms = deadline_ms;
  return req;
}

/// The cache key the server derives for a request (canonical graph text
/// and option fingerprint).
std::uint64_t request_key(const svc::CompileRequest& req) {
  const std::string canonical =
      sdf::write_graph_text(sdf::parse_graph_text(req.graph_text));
  return svc::cache_key(canonical, svc::option_fingerprint(req));
}

std::int64_t response_shared_size(const std::string& payload) {
  const obs::Json doc = obs::Json::parse(payload);
  const obs::Json* results = doc.find("results");
  const obs::Json* size = results ? results->find("shared_size") : nullptr;
  return size ? size->as_int() : -1;
}

/// The gates every OK service response must pass: its shared_size equals
/// an in-process compile() of the same graph, and that compile's
/// allocation passes the pool check by execution.
void verify_responses(const std::vector<const Input*>& inputs,
                      const std::vector<std::string>& payloads, Outcome& out) {
  // Runs after the measured region, on every core: the fleet is idle.
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<std::string>> found(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = t; i < inputs.size(); i += kThreads) {
        const sdf::CompileResult r = sdf::compile(inputs[i]->graph);
        if (response_shared_size(payloads[i]) != r.shared_size) {
          found[t].push_back(inputs[i]->name +
                             ": response shared_size != compile()");
        }
        const sdf::PoolCheckResult check = sdf::check_allocation_by_execution(
            inputs[i]->graph, r.schedule, r.lifetimes, r.allocation);
        if (!check.ok) {
          found[t].push_back(inputs[i]->name + ": pool check: " + check.error);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const auto& list : found) {
    for (const std::string& d : list) out.diverge(d);
  }
}

/// Adds the latency metrics shared by both service workloads; returns
/// how many latencies are within `limit_us`.
std::int64_t add_latency_metrics(
    Outcome& out, const std::vector<double>& latencies,
    const std::map<const Input*, std::vector<double>>& per_key,
    double ok_per_s, double limit_us) {
  const Summary s = summarize(latencies, 99.0);
  std::vector<double> key_medians;
  for (const auto& [key, samples] : per_key) {
    key_medians.push_back(median(samples));
  }
  std::int64_t within = 0;
  for (const double us : latencies) within += us <= limit_us ? 1 : 0;
  out.add("ops_per_s", ok_per_s, "1/s");
  out.add("p50_us", s.p50, "us");
  out.add("tail_us", s.tail, "us");
  out.add("geomean_us", geomean(key_medians), "us");
  out.detail["samples"] = static_cast<std::int64_t>(s.n);
  out.detail["tail_us"] = s.tail_label();
  out.detail["slo_limit_us"] = limit_us;
  out.detail["slo_within"] = within;
  std::printf("p50_us = %.1f us, %s_us = %.1f us (n=%zu)\n", s.p50,
              s.tail_label().c_str(), s.tail, s.n);
  return within;
}

double slo_frac(std::int64_t within, std::int64_t attempted) {
  return static_cast<double>(within) /
         static_cast<double>(std::max<std::int64_t>(attempted, 1));
}

std::int64_t json_int(const obs::Json& doc, const char* section,
                      const char* key) {
  const obs::Json* s = doc.find(section);
  const obs::Json* v = s ? s->find(key) : nullptr;
  return v ? v->as_int() : 0;
}

/// The benchmark's own cache tiers, which replayed requests run against.
struct ReplayTiers {
  svc::ResultCache cache;
  svc::HotTier hot{32ll << 20};
  explicit ReplayTiers(const std::string& dir) : cache(dir) {}
};

/// One replayed request: the server-side sequence of a compile request,
/// through the public svc:: and sdf:: functions, one span per stage.
/// `response` is what the server answered; a miss compiles (staged, under
/// svc.compile) and stores it. `probe_disk` also times the verified disk
/// read a hot-tier miss would pay.
void replay_request(ReplayTiers& tiers, const std::string& frame_bytes,
                    const std::string& response, std::int64_t request,
                    bool probe_disk) {
  const Span root("svc.request", request);
  svc::Frame frame;
  {
    const Span s("svc.frame", request);
    std::size_t consumed = 0;
    if (svc::decode_frame(frame_bytes, &frame, &consumed) !=
        svc::DecodeStatus::kOk) {
      throw std::runtime_error("replay: request frame does not decode");
    }
  }
  std::optional<svc::CompileRequest> req;
  {
    const Span s("svc.request_parse", request);
    sdf::Result<svc::CompileRequest> parsed =
        svc::parse_compile_request(frame.payload);
    if (!parsed.ok()) throw std::runtime_error("replay: request parse");
    req.emplace(std::move(parsed.value()));
  }
  std::uint64_t key = 0;
  {
    const Span s("svc.canonicalize", request);
    const std::string canonical =
        sdf::write_graph_text(sdf::parse_graph_text(req->graph_text));
    key = svc::cache_key(canonical, svc::option_fingerprint(*req));
  }
  std::optional<std::string> hit;
  {
    const Span s("svc.hot_lookup", request);
    hit = tiers.hot.lookup(key);
  }
  if (!hit) {
    {
      const Span s("svc.disk_lookup", request);
      hit = tiers.cache.lookup(key);
    }
    if (hit) {
      tiers.hot.insert(key, *hit);
    } else {
      {
        const Span s("svc.compile", request);
        staged_compile(req->graph_text, request);
      }
      const Span s("svc.cache_insert", request);
      tiers.cache.insert(key, response);
      tiers.hot.insert(key, response);
      hit = response;
    }
  }
  {
    const Span s("svc.frame", request);
    const std::string out =
        svc::encode_frame(svc::FrameKind::kCompileResponse, *hit);
    if (out.size() < hit->size()) throw std::runtime_error("replay: frame");
  }
  if (probe_disk) {
    const Span s("svc.disk_probe", request);
    if (!tiers.cache.lookup(key)) throw std::runtime_error("replay: disk");
  }
}

/// p50 over requests of a span's per-request self (or total) time.
double span_p50(const std::map<std::string, std::map<std::int64_t, double>>&
                    by_name,
                const std::string& name) {
  const auto it = by_name.find(name);
  if (it == by_name.end()) return 0.0;
  std::vector<double> v;
  for (const auto& [request, us] : it->second) v.push_back(us);
  return median(v);
}

// ------------------------------------------------------------ service_hot

struct HotSample {
  std::uint32_t key = 0;
  float start_s = 0;  ///< send time, from the loop's start
  float us = 0;
  bool ok = false;
};

/// Per-client sample buffers, allocated and written before the loop
/// starts, so that recording a sample never allocates.
struct HotLoop {
  std::vector<std::vector<HotSample>> buffers;
  std::vector<std::size_t> counts;
  std::int64_t mismatches = 0;
  Clock::time_point start;
  double wall_s = 0;
  bool capped = false;  ///< a client filled its buffer and stopped early

  [[nodiscard]] std::vector<HotSample> samples() const {
    std::vector<HotSample> all;
    for (std::size_t c = 0; c < buffers.size(); ++c) {
      all.insert(all.end(), buffers[c].begin(),
                 buffers[c].begin() + static_cast<std::ptrdiff_t>(counts[c]));
    }
    return all;
  }
};

HotLoop hot_loop(std::vector<std::unique_ptr<svc::Client>>& clients,
                 const std::vector<svc::CompileRequest>& requests,
                 const std::vector<std::string>& expected, double seconds,
                 std::uint64_t seed, std::int64_t first_request) {
  HotLoop loop;
  const auto capacity =
      static_cast<std::size_t>(seconds * kMaxClientRate) + 1;
  loop.buffers.assign(clients.size(), std::vector<HotSample>(capacity));
  loop.counts.assign(clients.size(), 0);
  std::vector<std::int64_t> mismatches(clients.size(), 0);
  std::vector<std::thread> threads;
  const auto start = loop.start = Clock::now();
  const auto stop_at = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(seconds));
  std::atomic<std::int64_t> next_request{first_request};
  for (std::size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      std::mt19937_64 rng(seed * 7919 + c);
      std::vector<HotSample>& buffer = loop.buffers[c];
      std::size_t& count = loop.counts[c];
      while (Clock::now() < stop_at && count < buffer.size()) {
        HotSample& s = buffer[count++];
        s.key = static_cast<std::uint32_t>(rng() % requests.size());
        const std::int64_t request = next_request++;
        const auto t0 = Clock::now();
        s.start_s = std::chrono::duration<float>(t0 - start).count();
        std::optional<sdf::Result<std::string>> r;
        {
          const Span span("client.request", request);
          r.emplace(clients[c]->compile(requests[s.key]));
        }
        s.us = static_cast<float>(us_between(t0, Clock::now()));
        s.ok = r->ok();
        if (s.ok && r->value() != expected[s.key]) ++mismatches[c];
      }
    });
  }
  for (std::thread& t : threads) t.join();
  loop.wall_s = seconds_since(start);
  for (std::size_t c = 0; c < clients.size(); ++c) {
    loop.mismatches += mismatches[c];
    loop.capped = loop.capped || loop.counts[c] == loop.buffers[c].size();
  }
  return loop;
}

}  // namespace

Outcome run_service_hot(const RunConfig& cfg) {
  Outcome out;
  const std::vector<Input> inputs = table1_inputs();
  std::vector<svc::CompileRequest> requests;
  for (const Input& in : inputs) requests.push_back(request_for(in.text));

  // Set-up, timed kSetups times: start the server on a fresh cache dir,
  // pre-warm it with the suite, open the persistent client connections.
  std::vector<double> setup_times;
  std::unique_ptr<ServiceProcess<svc::Server>> server;
  std::vector<std::unique_ptr<svc::Client>> clients;
  std::vector<std::string> warm(inputs.size());
  for (int i = 0; i < kSetups; ++i) {
    clients.clear();
    server.reset();
    const std::string dir = fresh_dir(cfg, "hot" + std::to_string(i));
    const auto t0 = Clock::now();
    svc::ServerOptions o;
    o.socket_path = dir + "/s.sock";
    o.cache_dir = dir + "/cache";
    o.jobs = kHotJobs;
    o.queue_capacity = 1024;
    server = std::make_unique<ServiceProcess<svc::Server>>(o);
    svc::Client warmer({o.socket_path, 0});
    for (std::size_t k = 0; k < requests.size(); ++k) {
      sdf::Result<std::string> r = warmer.compile(requests[k]);
      if (!r.ok()) throw std::runtime_error("service_hot: warm-up failed: " +
                                            r.error().message);
      if (i == 0) {
        warm[k] = r.value();
      } else if (warm[k] != r.value()) {
        out.diverge(inputs[k].name + ": cold responses differ across set-ups");
      }
    }
    for (int c = 0; c < kHotClients; ++c) {
      clients.push_back(std::make_unique<svc::Client>(
          svc::ClientOptions{o.socket_path, 0}));
    }
    setup_times.push_back(seconds_since(t0));
  }

  const obs::Json before = server->stats();
  SpanLog& log = SpanLog::instance();
  HotLoop loop;
  double p50_off = 0;
  if (cfg.trace) {
    const std::vector<HotSample> off =
        hot_loop(clients, requests, warm, cfg.seconds / 2, cfg.seed, 0)
            .samples();
    std::vector<double> us;
    for (const HotSample& s : off) us.push_back(s.us);
    p50_off = median(us);
    out.attempted += static_cast<std::int64_t>(off.size());
    for (const HotSample& s : off) out.failed += s.ok ? 0 : 1;
    log.set_enabled(true);
    loop = hot_loop(clients, requests, warm, cfg.seconds / 2, cfg.seed + 1,
                    0);
    log.set_enabled(false);
  } else {
    loop = hot_loop(clients, requests, warm, cfg.seconds, cfg.seed, 0);
  }
  const double rss_mb = server->peak_rss_mb();
  const std::vector<HotSample> samples = loop.samples();
  const obs::Json after = server->stats();
  clients.clear();

  std::vector<double> latencies;
  std::map<const Input*, std::vector<double>> per_key;
  std::int64_t ok = 0, counted = 0;
  for (const HotSample& s : samples) {
    ++out.attempted;
    ++counted;
    if (!s.ok) {
      ++out.failed;
      continue;
    }
    ++ok;
    latencies.push_back(s.us);
    per_key[&inputs[s.key]].push_back(s.us);
  }
  if (loop.mismatches > 0) {
    out.diverge(std::to_string(loop.mismatches) +
                " hot responses differ from the cold response of their key");
  }
  std::vector<const Input*> input_ptrs;
  for (const Input& in : inputs) input_ptrs.push_back(&in);
  verify_responses(input_ptrs, warm, out);

  if (!cfg.trace) {
    std::int64_t shared_words = 0;
    for (const std::string& w : warm) shared_words += response_shared_size(w);
    out.add("setup_s", median(setup_times), "s");
    out.add("peak_rss_mb", rss_mb, "MB");
    const double hot_rps = static_cast<double>(ok) / loop.wall_s;
    const std::int64_t within =
        add_latency_metrics(out, latencies, per_key, hot_rps, kHotLimitUs);
    out.add("shared_words", static_cast<double>(shared_words), "words");
    out.add("slo_frac", slo_frac(within, counted), "ratio");
    std::printf("hot_rps = %.1f 1/s over %.2f s\n", hot_rps, loop.wall_s);
    if (loop.capped) out.detail["capped"] = true;
    return out;
  }

  // Traced: replay the traced half's requests, server side, on the
  // benchmark's own cache tiers pre-filled with the same responses.
  const double p50_on = median(latencies);
  const auto client_spans = log.snapshot();
  std::vector<std::string> frames;
  for (const svc::CompileRequest& req : requests) {
    frames.push_back(svc::encode_frame(svc::FrameKind::kCompileRequest,
                                       svc::encode_compile_request(req)));
  }
  {
    ReplayTiers tiers(fresh_dir(cfg, "hot-replay"));
    for (std::size_t k = 0; k < requests.size(); ++k) {
      const std::uint64_t key = request_key(requests[k]);
      tiers.cache.insert(key, warm[k]);
      tiers.hot.insert(key, warm[k]);
    }
    log.set_enabled(true);
    const std::size_t n = std::min(samples.size(), kMaxReplay);
    for (std::size_t r = 0; r < n; ++r) {
      const std::size_t k = samples[r].key;
      replay_request(tiers, frames[k], warm[k],
                     1000000000 + static_cast<std::int64_t>(r), true);
    }
    log.set_enabled(false);
  }
  const auto self = per_request_us(log.snapshot(), false);
  const double frame = span_p50(self, "svc.frame");
  const double parse = span_p50(self, "svc.request_parse");
  const double canon = span_p50(self, "svc.canonicalize");
  const double hot_lookup = span_p50(self, "svc.hot_lookup");
  const std::int64_t d_requests =
      after.find("requests")->as_int() - before.find("requests")->as_int();
  const std::int64_t d_hits =
      json_int(after, "cache", "hits") - json_int(before, "cache", "hits");
  const std::int64_t d_hot_hits = json_int(after, "cache", "hot_hits") -
                                  json_int(before, "cache", "hot_hits");
  const std::int64_t d_hot_misses = json_int(after, "cache", "hot_misses") -
                                    json_int(before, "cache", "hot_misses");
  out.add("svc.frame_us", frame, "us");
  out.add("svc.request_parse_us", parse, "us");
  out.add("svc.canonicalize_us", canon, "us");
  out.add("svc.hot_lookup_us", hot_lookup, "us");
  out.add("svc.disk_lookup_us", span_p50(self, "svc.disk_probe"), "us");
  out.add("svc.rtt_residual_us",
          p50_off - (frame + parse + canon + hot_lookup), "us");
  out.add("svc.hit_frac",
          d_requests > 0 ? static_cast<double>(d_hits) / d_requests : 0,
          "ratio");
  out.add("svc.hot_hit_frac",
          d_hot_hits + d_hot_misses > 0
              ? static_cast<double>(d_hot_hits) / (d_hot_hits + d_hot_misses)
              : 0,
          "ratio");
  out.add("trace.overhead_frac", p50_off > 0 ? p50_on / p50_off - 1.0 : 0,
          "ratio");
  out.detail["client_spans"] = static_cast<std::int64_t>(client_spans.size());
  out.detail["rtt_p50_untraced_us"] = p50_off;
  out.detail["rtt_p50_traced_us"] = p50_on;
  out.detail["setup_s"] = median(setup_times);
  return out;
}

// ---------------------------------------------------------- service_mixed

namespace {

struct MixedRequest {
  const Input* input = nullptr;  ///< a Table 1 input, or a fresh graph
  bool miss = false;
  svc::CompileRequest req;
  std::string response;  ///< filled by the sender
  Clock::time_point due, done;
  double latency_us = 0;  ///< completion minus due time
  double late_us = 0;     ///< send start minus due time
  bool ok = false;
};

/// The request schedule of one open-loop phase: request i is due at
/// i / rate seconds after the phase starts. Stratified, so that seeds
/// change which graphs a run draws but not how many misses it has or
/// their sizes: each block of kMissEvery requests holds one miss at a
/// seeded position, and miss sizes walk seeded shuffles of every size in
/// [kMinMissActors, kMaxMissActors].
std::vector<MixedRequest> mixed_schedule(const std::vector<Input>& table1,
                                         std::vector<Input>& fresh,
                                         std::size_t count,
                                         std::mt19937_64& rng) {
  std::vector<MixedRequest> out(count);
  std::vector<int> sizes;
  std::size_t misses = 0;
  std::size_t miss_slot = 0;
  for (std::size_t i = 0; i < count; ++i) {
    MixedRequest& m = out[i];
    if (i % kMissEvery == 0) miss_slot = i + rng() % kMissEvery;
    if (i == miss_slot) {
      if (sizes.empty()) {
        for (int a = kMinMissActors; a <= kMaxMissActors; ++a) {
          sizes.push_back(a);
        }
        std::shuffle(sizes.begin(), sizes.end(), rng);
      }
      fresh.push_back(random_input(sizes.back(), rng,
                                   "fresh" + std::to_string(fresh.size())));
      sizes.pop_back();
      m.input = &fresh.back();
      m.miss = true;
      m.req = request_for(fresh.back().text,
                          misses++ % 2 == 0 ? kGenerousDeadlineMs : 0);
    } else {
      m.input = &table1[rng() % table1.size()];
      m.req = request_for(m.input->text);
    }
  }
  return out;
}

/// Runs one open-loop phase at kMixedRate against `socket` from
/// kMixedSenders threads.
double open_loop(std::vector<MixedRequest>& schedule,
                 const std::string& socket, std::int64_t first_request) {
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> senders;
  for (int s = 0; s < kMixedSenders; ++s) {
    senders.emplace_back([&, s] {
      for (std::size_t i = static_cast<std::size_t>(s); i < schedule.size();
           i += kMixedSenders) {
        MixedRequest& m = schedule[i];
        const auto due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            static_cast<double>(i) / kMixedRate));
        std::this_thread::sleep_until(due);
        const auto sent = Clock::now();
        const std::int64_t request =
            first_request + static_cast<std::int64_t>(i);
        const Span root("client.request", request);
        try {
          std::optional<svc::Client> client;
          {
            const Span span("svc.connect", request);
            client.emplace(svc::ClientOptions{socket, 0});
          }
          const Span span("client.roundtrip", request);
          sdf::Result<std::string> r = client->compile(m.req);
          m.ok = r.ok();
          if (m.ok) m.response = std::move(r.value());
        } catch (const std::exception&) {
          m.ok = false;
        }
        const auto done = Clock::now();
        m.due = due;
        m.done = done;
        m.latency_us = us_between(due, done);
        m.late_us = us_between(due, sent);
      }
    });
  }
  for (std::thread& t : senders) t.join();
  return seconds_since(start);
}

/// The service_mixed fleet: a router over worker servers, each in a
/// process of its own.
struct Fleet {
  std::vector<std::unique_ptr<ServiceProcess<svc::Server>>> workers;
  std::unique_ptr<ServiceProcess<svc::Router>> router;
  /// Never started: the router's configuration, for shard owners.
  std::unique_ptr<svc::Router> ring;
  std::map<std::string, std::string> worker_socket;  ///< id -> socket
  std::string router_socket;

  ~Fleet() {
    router.reset();
    workers.clear();
  }

  [[nodiscard]] double peak_rss_mb() const {
    double mb = router->peak_rss_mb();
    for (const auto& w : workers) mb += w->peak_rss_mb();
    return mb;
  }
};

std::unique_ptr<Fleet> start_fleet(const std::string& dir) {
  auto fleet = std::make_unique<Fleet>();
  svc::RouterOptions ro;
  ro.socket_path = dir + "/router.sock";
  for (int w = 0; w < kMixedWorkers; ++w) {
    svc::ServerOptions o;
    o.worker_id = "w" + std::to_string(w);
    o.socket_path = dir + "/" + o.worker_id + ".sock";
    o.cache_dir = dir + "/" + o.worker_id + ".cache";
    o.jobs = 1;
    o.queue_capacity = 1024;
    fleet->workers.push_back(std::make_unique<ServiceProcess<svc::Server>>(o));
    fleet->worker_socket[o.worker_id] = o.socket_path;
    svc::WorkerConfig wc;
    wc.id = o.worker_id;
    wc.endpoint.socket_path = o.socket_path;
    wc.pinned_id = true;
    ro.workers.push_back(wc);
  }
  fleet->router_socket = ro.socket_path;
  fleet->router = std::make_unique<ServiceProcess<svc::Router>>(ro);
  fleet->ring = std::make_unique<svc::Router>(ro);
  return fleet;
}

struct FleetCounts {
  std::int64_t requests = 0, misses = 0, throttle_wait_us = 0;
  std::int64_t shed = 0, max_queue_depth = 0, hot_hits = 0, hot_misses = 0;
  std::int64_t route_requests = 0, route_hits = 0, peer_hits = 0;
  std::int64_t reroutes = 0;
};

/// Worker counters from each worker's stats document, router counters
/// from its routestats document.
FleetCounts fleet_counts(Fleet& fleet) {
  FleetCounts c;
  for (const auto& w : fleet.workers) {
    const obs::Json doc = w->stats();
    const obs::Json* tenant =
        doc.find("tenants")->find(svc::qos::kPublicTenant);
    c.requests += doc.find("requests")->as_int();
    c.misses += tenant->find("cache_misses")->as_int();
    c.throttle_wait_us += tenant->find("throttle_wait_us")->as_int();
    c.shed += doc.find("shed_degraded")->as_int() +
              doc.find("overloaded")->as_int();
    c.max_queue_depth =
        std::max(c.max_queue_depth, doc.find("max_queue_depth")->as_int());
    c.hot_hits += json_int(doc, "cache", "hot_hits");
    c.hot_misses += json_int(doc, "cache", "hot_misses");
  }
  const obs::Json r = fleet.router->stats();
  c.route_requests = r.find("requests")->as_int();
  c.peer_hits = r.find("peer_hits")->as_int();
  c.route_hits = r.find("lookup_hits")->as_int() + c.peer_hits;
  c.reroutes = r.find("rerouted")->as_int();
  return c;
}

double ratio(std::int64_t num, std::int64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

/// Routed hit minus direct-to-owner hit, on the Table 1 keys.
double route_hop_us(Fleet& fleet, const std::vector<Input>& table1) {
  std::vector<double> routed, direct;
  for (const Input& in : table1) {
    const svc::CompileRequest req = request_for(in.text);
    const std::string& owner_socket = fleet.worker_socket.at(
        fleet.ring->shard_owner(request_key(req)));
    for (int r = 0; r < kHopReps; ++r) {
      for (const std::string* socket :
           {static_cast<const std::string*>(&fleet.router_socket),
            &owner_socket}) {
        const auto t0 = Clock::now();
        svc::Client client({*socket, 0});
        if (!client.compile(req).ok()) {
          throw std::runtime_error("route hop probe failed");
        }
        (socket == &owner_socket ? direct : routed)
            .push_back(us_between(t0, Clock::now()));
      }
    }
  }
  return median(routed) - median(direct);
}

}  // namespace

Outcome run_service_mixed(const RunConfig& cfg) {
  Outcome out;
  const std::vector<Input> table1 = table1_inputs();

  std::vector<double> setup_times;
  std::unique_ptr<Fleet> fleet;
  std::vector<std::string> warm(table1.size());
  for (int i = 0; i < kSetups; ++i) {
    fleet.reset();
    const std::string dir = fresh_dir(cfg, "mixed" + std::to_string(i));
    const auto t0 = Clock::now();
    fleet = start_fleet(dir);
    svc::Client warmer({fleet->router_socket, 0});
    for (std::size_t k = 0; k < table1.size(); ++k) {
      sdf::Result<std::string> r = warmer.compile(request_for(table1[k].text));
      if (!r.ok()) throw std::runtime_error("service_mixed: warm-up failed: " +
                                            r.error().message);
      if (i == 0) {
        warm[k] = r.value();
      } else if (warm[k] != r.value()) {
        out.diverge(table1[k].name + ": cold responses differ across set-ups");
      }
    }
    setup_times.push_back(seconds_since(t0));
  }

  // The inputs, after the fleet forked so it shares none of them: the
  // seeded schedule and its fresh graphs. Reserve so the schedule's
  // pointers into `fresh` stay valid.
  std::mt19937_64 rng(cfg.seed);
  std::vector<Input> fresh;
  const std::size_t per_phase = static_cast<std::size_t>(
      kMixedRate * (cfg.trace ? cfg.seconds / 2 : cfg.seconds));
  fresh.reserve(2 * per_phase + 16);
  std::vector<MixedRequest> phase_a =
      mixed_schedule(table1, fresh, per_phase, rng);
  std::vector<MixedRequest> phase_b;
  if (cfg.trace) phase_b = mixed_schedule(table1, fresh, per_phase, rng);

  SpanLog& log = SpanLog::instance();
  const double wall_a = open_loop(phase_a, fleet->router_socket, 0);
  const FleetCounts c1 = fleet_counts(*fleet);
  double wall_b = 0;
  if (cfg.trace) {
    log.set_enabled(true);
    wall_b = open_loop(phase_b, fleet->router_socket, 1000000);
    log.set_enabled(false);
  }
  const FleetCounts c2 = fleet_counts(*fleet);

  // Correctness gates, outside the measured phases.
  std::map<const Input*, std::size_t> table1_index;
  for (std::size_t k = 0; k < table1.size(); ++k) table1_index[&table1[k]] = k;
  std::vector<const Input*> fresh_checked;
  std::vector<std::string> fresh_payloads;
  {
    svc::Client again({fleet->router_socket, 0});
    for (std::vector<MixedRequest>* phase : {&phase_a, &phase_b}) {
      for (MixedRequest& m : *phase) {
        const Input* in = m.input;
        if (!m.ok) continue;
        if (!m.miss) {
          if (m.response != warm[table1_index.at(in)]) {
            out.diverge(in->name + ": hit differs from its cold response");
          }
          continue;
        }
        // The miss's response must equal the now-cached hit for its key.
        sdf::Result<std::string> hit = again.compile(m.req);
        if (!hit.ok() || hit.value() != m.response) {
          out.diverge(in->name + ": cached hit differs from its miss");
        }
        fresh_checked.push_back(in);
        fresh_payloads.push_back(m.response);
      }
    }
  }
  std::vector<const Input*> table1_ptrs;
  for (const Input& in : table1) table1_ptrs.push_back(&in);
  verify_responses(table1_ptrs, warm, out);
  verify_responses(fresh_checked, fresh_payloads, out);

  struct Tally {
    std::vector<double> latencies, miss_latencies;
    std::map<const Input*, std::vector<double>> per_key;
    std::int64_t ok = 0, within = 0, counted = 0;
  };
  const auto collect = [&](const std::vector<MixedRequest>& phase,
                           Tally& t) {
    for (const MixedRequest& m : phase) {
      ++out.attempted;
      ++t.counted;
      if (!m.ok) {
        ++out.failed;
        continue;
      }
      ++t.ok;
      t.latencies.push_back(m.latency_us);
      if (m.miss) t.miss_latencies.push_back(m.latency_us);
      t.per_key[m.input].push_back(m.latency_us);
      t.within += m.latency_us <= kMixedLimitUs ? 1 : 0;
    }
  };

  if (!cfg.trace) {
    Tally t;
    collect(phase_a, t);
    std::int64_t shared_words = 0;
    for (const std::string& w : warm) shared_words += response_shared_size(w);
    out.add("setup_s", median(setup_times), "s");
    out.add("peak_rss_mb", fleet->peak_rss_mb(), "MB");
    (void)add_latency_metrics(out, t.latencies, t.per_key,
                              static_cast<double>(t.ok) / wall_a,
                              kMixedLimitUs);
    out.add("shared_words", static_cast<double>(shared_words), "words");
    out.add("slo_frac", slo_frac(t.within, t.counted), "ratio");
    const Summary miss = summarize(t.miss_latencies);
    std::printf("miss_p50_us = %.1f us (n=%zu)\n", miss.p50, miss.n);
    std::printf("slo_frac = %.4f (limit %.0f us, %lld of %lld)\n",
                slo_frac(t.within, t.counted), kMixedLimitUs,
                static_cast<long long>(t.within),
                static_cast<long long>(t.counted));
    out.detail["rate_per_s"] = kMixedRate;
    out.detail["miss_p50_us"] = miss.p50;
    out.detail["misses"] = static_cast<std::int64_t>(miss.n);
    return out;
  }

  // Traced: phase A was untraced, phase B traced; replay phase B's
  // requests server side on the benchmark's own tiers.
  Tally a, b;
  collect(phase_a, a);
  collect(phase_b, b);
  std::vector<double> late, deadline_miss, plain_miss;
  for (const MixedRequest& m : phase_b) {
    late.push_back(m.late_us);
    if (!m.ok || !m.miss) continue;
    (m.req.deadline_ms > 0 ? deadline_miss : plain_miss)
        .push_back(m.latency_us);
  }
  const double hop = route_hop_us(*fleet, table1);
  const auto client = per_request_us(log.snapshot(), /*total=*/true);
  {
    ReplayTiers tiers(fresh_dir(cfg, "mixed-replay"));
    for (std::size_t k = 0; k < table1.size(); ++k) {
      const std::uint64_t key = request_key(request_for(table1[k].text));
      tiers.cache.insert(key, warm[k]);
      tiers.hot.insert(key, warm[k]);
    }
    log.set_enabled(true);
    const std::size_t n = std::min(phase_b.size(), kMaxReplay);
    for (std::size_t r = 0; r < n; ++r) {
      const MixedRequest& m = phase_b[r];
      if (!m.ok) continue;
      const std::string frame = svc::encode_frame(
          svc::FrameKind::kCompileRequest, svc::encode_compile_request(m.req));
      replay_request(tiers, frame, m.response,
                     2000000 + static_cast<std::int64_t>(r), false);
    }
    log.set_enabled(false);
  }
  const auto spans = log.snapshot();
  const auto self = per_request_us(spans, false);
  const auto total = per_request_us(spans, true);
  // svc.compile covers the staged compile, which parses once more and
  // runs the pool check; the server's compile does neither.
  std::vector<double> server_compile;
  if (const auto it = total.find("svc.compile"); it != total.end()) {
    for (const auto& [request, us] : it->second) {
      double v = us;
      for (const char* extra : {"sdf.parse", "alloc.pool_check"}) {
        const auto e = total.find(extra);
        if (e != total.end() && e->second.count(request)) {
          v -= e->second.at(request);
        }
      }
      server_compile.push_back(v);
    }
  }
  for (const char* stage : kStageNames) {
    out.add(std::string(stage) + "_us", span_p50(self, stage), "us");
  }
  out.add("svc.frame_us", span_p50(self, "svc.frame"), "us");
  out.add("svc.request_parse_us", span_p50(self, "svc.request_parse"), "us");
  out.add("svc.canonicalize_us", span_p50(self, "svc.canonicalize"), "us");
  out.add("svc.hot_lookup_us", span_p50(self, "svc.hot_lookup"), "us");
  out.add("svc.disk_lookup_us", span_p50(self, "svc.disk_lookup"), "us");
  out.add("svc.connect_us", span_p50(client, "svc.connect"), "us");
  out.add("svc.compile_us", median(server_compile), "us");
  out.add("svc.cache_insert_us", span_p50(self, "svc.cache_insert"), "us");
  out.add("svc.admission_wait_us",
          ratio(c2.throttle_wait_us - c1.throttle_wait_us,
                c2.misses - c1.misses),
          "us");
  out.add("svc.deadline_miss_p50_us", median(deadline_miss), "us");
  out.add("svc.plain_miss_p50_us", median(plain_miss), "us");
  out.add("svc.max_queue_depth", static_cast<double>(c2.max_queue_depth),
          "count");
  out.add("svc.shed_frac", ratio(c2.shed - c1.shed, c2.requests - c1.requests),
          "ratio");
  out.add("svc.hit_frac",
          ratio(c2.route_hits - c1.route_hits,
                c2.route_requests - c1.route_requests),
          "ratio");
  out.add("svc.hot_hit_frac",
          ratio(c2.hot_hits - c1.hot_hits,
                (c2.hot_hits + c2.hot_misses) - (c1.hot_hits + c1.hot_misses)),
          "ratio");
  out.add("route.hop_us", hop, "us");
  out.add("route.peer_hit_frac",
          ratio(c2.peer_hits - c1.peer_hits,
                c2.route_requests - c1.route_requests),
          "ratio");
  out.add("route.reroutes", static_cast<double>(c2.reroutes - c1.reroutes),
          "count");
  out.add("gen.late_p99_us", summarize(late).tail, "us");
  const double p50_a = median(a.latencies);
  out.add("trace.overhead_frac",
          p50_a > 0 ? median(b.latencies) / p50_a - 1.0 : 0,
          "ratio");
  out.detail["rate_per_s"] = kMixedRate;
  out.detail["wall_s"] = wall_a + wall_b;
  out.detail["setup_s"] = median(setup_times);
  out.detail["gen_late_tail"] = summarize(late).tail_label();
  out.detail["replayed"] =
      static_cast<std::int64_t>(std::min(phase_b.size(), kMaxReplay));
  return out;
}

}  // namespace perfbench
