// Deterministic trace replay harness for the adaptive control plane
// (docs/CONTROL.md).
//
// Four phases:
//
//   1. Capture. Each Table 1 graph is compiled once per degradation tier
//      (full / capped / degraded) against an in-process daemon, recording
//      the measured wall time per tier and the FNV-1a hash of the
//      full-fidelity response bytes.
//   2. Synthesis. A seeded adversarial workload — a `hog` tenant offering
//      ~10x the `light` tenant's request rate over a cold+hot key mix —
//      is written as a sdfmem.trace.v1 journal (service/trace.h) and read
//      back through the strict trace validator. The timescale derives
//      from the measured walls, so the offered load is adversarial on any
//      machine. SDFMEM_REPLAY_TRACE replaces this phase with an
//      externally recorded trace (e.g. from `serve --record`).
//   3. Simulated A/B. The trace runs through the virtual-time simulator
//      (service/control.h) with the controller off and on, each config
//      TWICE: the two runs' controller decision logs must be
//      byte-identical (always enforced — a nondeterministic controller is
//      a bug, not a tuning problem). The A/B table reports shed rate,
//      degraded fraction, and the light tenant's p95 per config;
//      SDFMEM_SERVICE_CONTROL_GATE=1 enforces the improvement contract:
//      controller-on improves at least one of the three by >= 20% and
//      leaves the others no more than 5% worse.
//   4. Live replay. The trace is re-issued against a real daemon at
//      1x/2x/4x time compression (one connection per recorded lane, so
//      per-lane order is exact), plus a controller-off run at 1x. Every
//      full-fidelity response is hashed and compared against the
//      recorded hash — byte-identity is always enforced.
//
//   SDFMEM_REPLAY_TRACE          replay this trace file instead of synthesizing
//   SDFMEM_REPLAY_SEED           workload seed (default 42)
//   SDFMEM_REPLAY_HOG_REQS       hog request count (default 120)
//   SDFMEM_REPLAY_LIVE           0/1: run the live-replay phase (default 1)
//   SDFMEM_SERVICE_CONTROL_GATE  1: exit 1 when the improvement contract
//                                or the byte-identity/determinism checks fail
//   SDFMEM_BENCH_JSON            write the trajectory as telemetry JSON
//
// Every SDFMEM_* value is validated strictly (util/flags.h); a malformed
// value is a usage error (exit 2), never a silent fallback.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "obs/json_report.h"
#include "obs/metrics.h"
#include "sdf/io.h"
#include "service/client.h"
#include "service/control.h"
#include "service/protocol.h"
#include "service/qos.h"
#include "service/server.h"
#include "service/trace.h"
#include "util/flags.h"
#include "util/hash.h"

namespace sdf::bench {
namespace ctl = svc::ctl;
namespace {

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

bool env_switch(const char* name, bool fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  const std::string_view text(value);
  if (text == "0") return false;
  if (text == "1") return true;
  std::fprintf(stderr, "usage: %s must be 0 or 1, got '%s'\n", name, value);
  std::exit(2);
}

/// Deterministic 64-bit LCG (Knuth MMIX constants); the whole synthesized
/// workload is a pure function of the seed.
struct Lcg {
  std::uint64_t state;
  std::uint64_t next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  }
  std::size_t pick(std::size_t n) { return n == 0 ? 0 : next() % n; }
};

/// One captured graph: request payloads and measured walls per tier.
struct CapturedGraph {
  std::string graph_text;
  std::int64_t actors = 0;
  std::string key_hex;
  std::string request_full;  ///< kCompileRequest payload, tenant unset
  std::int64_t wall_full_ns = 0;
  std::int64_t wall_capped_ns = 0;
  std::int64_t wall_degraded_ns = 0;
  std::string response_hash;  ///< of the full-fidelity response
};

svc::CompileRequest tier_request(const std::string& graph_text, int tier) {
  svc::CompileRequest req;
  req.graph_text = graph_text;
  // The expensive best-quality pipeline — the configuration the server's
  // shed ladder has real room to degrade.
  req.options.order = OrderHeuristic::kRpmcMultistart;
  req.options.optimizer = LoopOptimizer::kChainExact;
  req.options.blocking_factor = 16;
  if (tier == 1) req.options.optimizer = LoopOptimizer::kDppo;
  if (tier == 2) {
    req.options.optimizer = LoopOptimizer::kFlat;
    req.options.order = OrderHeuristic::kTopological;
  }
  return req;
}

/// Compiles every Table 1 graph once per tier against a cache-less
/// in-process daemon, measuring client-observed wall time per tier and
/// hashing the full-fidelity response.
std::vector<CapturedGraph> capture_phase(const std::string& dir) {
  std::vector<CapturedGraph> captured;
  svc::ServerOptions opts;
  opts.socket_path = dir + "/capture.sock";
  opts.jobs = 1;
  opts.queue_capacity = 4096;
  svc::Server server(opts);
  server.start();
  std::thread runner([&server] { server.run(); });
  {
    svc::Client client({opts.socket_path, 0});
    for (const Graph& g : table1_systems()) {
      CapturedGraph cap;
      cap.graph_text = write_graph_text(g);
      cap.actors = static_cast<std::int64_t>(g.num_actors());
      const svc::CompileRequest full = tier_request(cap.graph_text, 0);
      cap.request_full = svc::encode_compile_request(full);
      cap.key_hex = svc::key_hex(
          svc::cache_key(cap.graph_text, svc::option_fingerprint(full)));
      for (int tier = 0; tier < 3; ++tier) {
        const auto t0 = std::chrono::steady_clock::now();
        const Result<std::string> r =
            client.compile(tier_request(cap.graph_text, tier));
        const std::int64_t ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count();
        if (!r.ok()) {
          throw IoError("trace_replay: capture compile failed: " +
                        r.error().message);
        }
        if (tier == 0) {
          cap.wall_full_ns = ns;
          cap.response_hash = svc::key_hex(util::fnv1a64(r.value()));
        } else if (tier == 1) {
          cap.wall_capped_ns = ns;
        } else {
          cap.wall_degraded_ns = ns;
        }
      }
      captured.push_back(std::move(cap));
    }
  }
  server.stop();
  runner.join();
  return captured;
}

/// Synthesizes the seeded 10:1 hog-vs-light workload over the captured
/// graphs, journals it, and reads it back through the strict validator.
svc::Trace synthesize_trace(const std::vector<CapturedGraph>& captured,
                            const std::string& path, std::uint64_t seed,
                            int hog_reqs, std::int64_t hog_gap_us) {
  Lcg rng{seed};
  // The light tenant works a small fixed key set (hot after one pass);
  // the hog sweeps the whole suite with random repeats (cold+hot mix).
  std::vector<std::size_t> light_keys;
  while (light_keys.size() < 3 && light_keys.size() < captured.size()) {
    const std::size_t k = rng.pick(captured.size());
    if (std::find(light_keys.begin(), light_keys.end(), k) ==
        light_keys.end()) {
      light_keys.push_back(k);
    }
  }
  const int light_reqs = std::max(4, hog_reqs / 10);
  const std::int64_t light_gap_us =
      hog_gap_us * hog_reqs / std::max(1, light_reqs);

  const auto make_record = [&](const CapturedGraph& cap,
                               const std::string& tenant,
                               std::int64_t tick_us, std::int64_t lane) {
    svc::TraceRecord rec;
    rec.tick_us = tick_us;
    rec.lane = lane;
    rec.tenant = tenant;
    rec.key_hex = cap.key_hex;
    rec.outcome = "ok";
    rec.full_fidelity = true;
    rec.actors = cap.actors;
    rec.wall_ns = cap.wall_full_ns;
    rec.wall_ns_capped = cap.wall_capped_ns;
    rec.wall_ns_degraded = cap.wall_degraded_ns;
    rec.response_hash = cap.response_hash;
    svc::CompileRequest req = tier_request(cap.graph_text, 0);
    req.tenant = tenant;
    rec.request = svc::encode_compile_request(req);
    return rec;
  };

  std::vector<svc::TraceRecord> records;
  for (int i = 0; i < hog_reqs; ++i) {
    records.push_back(make_record(captured[rng.pick(captured.size())], "hog",
                                  i * hog_gap_us, 1 + (i % 4)));
  }
  for (int i = 0; i < light_reqs; ++i) {
    records.push_back(make_record(
        captured[light_keys[rng.pick(light_keys.size())]], "light",
        i * light_gap_us, 0));
  }

  std::filesystem::remove(path);
  {
    const std::unique_ptr<svc::TraceWriter> writer =
        svc::TraceWriter::create(path);
    for (const svc::TraceRecord& rec : records) writer->append(rec);
  }
  return svc::read_trace(path);
}

/// Tenant registry covering every tenant in the trace: `light` keeps its
/// 8x weight, everything else (the hog included) gets weight 1.
svc::qos::TenantRegistry trace_registry(const svc::Trace& trace) {
  svc::qos::TenantRegistry registry;
  std::set<std::string> names;
  for (const svc::TraceRecord& rec : trace.records) {
    if (!rec.tenant.empty()) names.insert(rec.tenant);
  }
  for (const std::string& name : names) {
    svc::qos::TenantSettings settings;
    settings.weight = name == "light" ? 8.0 : 1.0;
    registry.add(name, settings);
  }
  return registry;
}

struct AbRow {
  std::string label;
  std::int64_t requests = 0;
  double shed_rate = 0;
  double degraded_rate = 0;
  std::int64_t light_p95_us = 0;
  std::int64_t utility_ticks = 0;
};

AbRow summarize(const std::string& label, const ctl::SimResult& sim) {
  AbRow row;
  row.label = label;
  row.requests = sim.requests;
  row.shed_rate = sim.requests == 0
                      ? 0.0
                      : static_cast<double>(sim.overloaded) /
                            static_cast<double>(sim.requests);
  row.degraded_rate = sim.requests == 0
                          ? 0.0
                          : static_cast<double>(sim.shed_degraded) /
                                static_cast<double>(sim.requests);
  const auto light = sim.tenants.find("light");
  row.light_p95_us = light == sim.tenants.end() ? 0 : light->second.p95_us;
  row.utility_ticks = static_cast<std::int64_t>(sim.decisions.size());
  return row;
}

void print_intervals(const char* label, const ctl::SimResult& sim) {
  std::printf("  %s per-interval trajectory (virtual time):\n", label);
  std::printf("  %10s %8s %8s %9s %8s\n", "end_ms", "reqs", "shed",
              "degraded", "p95_us");
  for (const ctl::SimIntervalRow& row : sim.intervals) {
    std::printf("  %10lld %8lld %8lld %9lld %8lld\n",
                static_cast<long long>(row.end_ms),
                static_cast<long long>(row.requests),
                static_cast<long long>(row.overloaded),
                static_cast<long long>(row.shed_degraded),
                static_cast<long long>(row.p95_us));
  }
}

struct LiveResult {
  int compression = 1;
  bool controller_on = true;
  std::int64_t requests = 0;
  std::int64_t ok_full = 0;
  std::int64_t shed_degraded = 0;
  std::int64_t overloaded = 0;
  std::int64_t hash_checked = 0;
  std::int64_t hash_mismatches = 0;
  std::int64_t light_p95_us = 0;
  std::int64_t controller_ticks = 0;
};

/// Replays the trace against a fresh daemon, one client per recorded
/// lane, pacing arrivals at tick_us / compression. Full-fidelity
/// responses are hashed against the recorded hash.
LiveResult replay_live(const svc::Trace& trace, const std::string& dir,
                       std::int64_t default_cost_ms, int compression,
                       bool controller_on) {
  const std::string tag = std::to_string(compression) + "x_" +
                          (controller_on ? "on" : "off");
  svc::ServerOptions opts;
  opts.socket_path = dir + "/replay_" + tag + ".sock";
  opts.cache_dir = dir + "/replay_" + tag + ".cache";
  opts.jobs = 4;
  opts.queue_capacity = 16;
  opts.default_cost_ms = default_cost_ms;
  opts.tenants = trace_registry(trace);
  opts.control = controller_on;
  opts.control_interval_ms = controller_on ? 100 : 0;
  svc::Server server(opts);
  server.start();
  std::thread runner([&server] { server.run(); });

  std::map<std::int64_t, std::vector<const svc::TraceRecord*>> lanes;
  for (const svc::TraceRecord& rec : trace.records) {
    lanes[rec.lane].push_back(&rec);
  }

  LiveResult result;
  result.compression = compression;
  result.controller_on = controller_on;
  std::mutex mu;
  std::vector<std::int64_t> light_us;
  std::vector<std::thread> workers;
  const auto start = std::chrono::steady_clock::now();
  for (const auto& [lane, recs] : lanes) {
    workers.emplace_back([&, records = recs] {
      svc::Client client({opts.socket_path, 0});
      std::int64_t ok_full = 0;
      std::int64_t shed = 0;
      std::int64_t overloaded = 0;
      std::int64_t checked = 0;
      std::int64_t mismatched = 0;
      std::vector<std::int64_t> local_light;
      for (const svc::TraceRecord* rec : records) {
        const auto due =
            start + std::chrono::microseconds(rec->tick_us / compression);
        std::this_thread::sleep_until(due);
        const Result<svc::CompileRequest> req =
            svc::parse_compile_request(rec->request);
        if (!req.ok()) {
          throw IoError("trace_replay: unreplayable record: " +
                        req.error().message);
        }
        const auto t0 = std::chrono::steady_clock::now();
        const Result<std::string> r = client.compile(req.value());
        const std::int64_t us =
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - t0)
                .count();
        if (rec->tenant == "light") local_light.push_back(us);
        if (!r.ok()) {
          if (r.error().code == ErrorCode::kOverloaded) {
            ++overloaded;
            continue;
          }
          throw IoError("trace_replay: replay request failed: " +
                        r.error().message);
        }
        const obs::Json doc = obs::Json::parse(r.value());
        const obs::Json* results = doc.find("results");
        const bool degraded =
            results != nullptr &&
            (results->find("load_shed") != nullptr ||
             results->find("degraded_from") != nullptr ||
             results->find("order_degraded") != nullptr);
        if (degraded) {
          ++shed;
          continue;
        }
        ++ok_full;
        if (!rec->response_hash.empty()) {
          ++checked;
          if (svc::key_hex(util::fnv1a64(r.value())) != rec->response_hash) {
            ++mismatched;
          }
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      result.ok_full += ok_full;
      result.shed_degraded += shed;
      result.overloaded += overloaded;
      result.hash_checked += checked;
      result.hash_mismatches += mismatched;
      light_us.insert(light_us.end(), local_light.begin(),
                      local_light.end());
    });
  }
  for (std::thread& t : workers) t.join();
  result.requests = static_cast<std::int64_t>(trace.records.size());

  const std::string stats = [&] {
    svc::Client client({opts.socket_path, 0});
    return client.stats();
  }();
  const obs::Json doc = obs::Json::parse(stats);
  if (const obs::Json* control = doc.find("control")) {
    if (const obs::Json* ticks = control->find("ticks")) {
      result.controller_ticks = ticks->as_int();
    }
  }
  server.stop();
  runner.join();

  result.light_p95_us = obs::exact_percentile(light_us, 95);
  return result;
}

int body() {
  JsonTrajectory trajectory("trace_replay");
  const auto seed =
      static_cast<std::uint64_t>(env_count("SDFMEM_REPLAY_SEED", 42));
  const int hog_reqs = env_count("SDFMEM_REPLAY_HOG_REQS", 120);
  const bool live = env_switch("SDFMEM_REPLAY_LIVE", true);
  const bool gate = env_switch("SDFMEM_SERVICE_CONTROL_GATE", false);
  const char* external = std::getenv("SDFMEM_REPLAY_TRACE");

  const std::string dir =
      "/tmp/sdfmem_trace_replay_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  // --------------------------------------------------- capture + synthesis
  svc::Trace trace;
  std::int64_t default_cost_ms = 0;
  if (external != nullptr && *external != '\0') {
    trace = svc::read_trace(external);
    std::int64_t cost_sum_ms = 0;
    for (const svc::TraceRecord& rec : trace.records) {
      cost_sum_ms += std::max<std::int64_t>(1, rec.wall_ns / 1000000);
    }
    const std::int64_t avg = trace.records.empty()
                                 ? 1
                                 : cost_sum_ms / static_cast<std::int64_t>(
                                                     trace.records.size());
    default_cost_ms = std::max<std::int64_t>(50, 20 * std::max<std::int64_t>(
                                                          1, avg));
    std::printf("trace_replay: external trace %s: %zu records\n", external,
                trace.records.size());
  } else {
    const std::vector<CapturedGraph> captured = capture_phase(dir);
    std::int64_t wall_sum_ns = 0;
    for (const CapturedGraph& cap : captured) {
      wall_sum_ns += cap.wall_full_ns;
    }
    const std::int64_t avg_full_ms = std::max<std::int64_t>(
        1,
        wall_sum_ns / static_cast<std::int64_t>(captured.size()) / 1000000);
    // Hog inter-arrival at half the mean full compile: a sustained ~2x
    // offered overload on one slot, comfortably servable across 4 slots
    // once admission charges honest costs.
    const std::int64_t hog_gap_us = std::max<std::int64_t>(
        2000, avg_full_ms * 500);
    // The static admission estimate is a deliberate 20x overestimate of
    // the measured mean — the miscalibration the cost model corrects.
    default_cost_ms = std::max<std::int64_t>(50, 20 * avg_full_ms);
    trace = synthesize_trace(captured, dir + "/adversarial.trace", seed,
                             hog_reqs, hog_gap_us);
    std::printf(
        "trace_replay: synthesized %zu records (seed %llu, hog gap %lld "
        "us, mean full compile %lld ms, static cost %lld ms)\n",
        trace.records.size(), static_cast<unsigned long long>(seed),
        static_cast<long long>(hog_gap_us),
        static_cast<long long>(avg_full_ms),
        static_cast<long long>(default_cost_ms));
  }
  std::int64_t span_us = 0;
  for (const svc::TraceRecord& rec : trace.records) {
    span_us = std::max(span_us, rec.tick_us);
  }

  // ------------------------------------------------------------ sim A/B
  ctl::SimOptions sim_opts;
  sim_opts.slots = 4;
  sim_opts.queue_capacity = 16;
  sim_opts.default_cost_ms = default_cost_ms;
  sim_opts.control_interval_ms =
      std::max<std::int64_t>(1, span_us / 1000 / 12);
  sim_opts.tenants = trace_registry(trace);

  int failures = 0;
  const auto run_twice = [&](bool on) {
    ctl::SimOptions o = sim_opts;
    o.controller_on = on;
    const ctl::SimResult first = ctl::simulate_trace(trace, o);
    const ctl::SimResult second = ctl::simulate_trace(trace, o);
    if (first.decisions != second.decisions) {
      std::fprintf(stderr,
                   "trace_replay: FAIL determinism: controller-%s decision "
                   "logs differ between two runs of the same trace\n",
                   on ? "on" : "off");
      ++failures;
    }
    return first;
  };
  const ctl::SimResult sim_off = run_twice(false);
  const ctl::SimResult sim_on = run_twice(true);

  const AbRow off = summarize("controller-off", sim_off);
  const AbRow on = summarize("controller-on", sim_on);
  std::printf("\nsimulated A/B (virtual time, deterministic):\n");
  std::printf("%-16s %8s %9s %10s %12s %7s\n", "config", "reqs",
              "shed", "degraded", "light_p95_us", "ticks");
  for (const AbRow& row : {off, on}) {
    std::printf("%-16s %8lld %8.1f%% %9.1f%% %12lld %7lld\n",
                row.label.c_str(), static_cast<long long>(row.requests),
                100.0 * row.shed_rate, 100.0 * row.degraded_rate,
                static_cast<long long>(row.light_p95_us),
                static_cast<long long>(row.utility_ticks));
  }
  print_intervals("controller-off", sim_off);
  print_intervals("controller-on", sim_on);
  std::printf("  final knobs: capped %lld degraded %lld (x1000)\n",
              static_cast<long long>(sim_on.final_knobs.capped_x1000),
              static_cast<long long>(sim_on.final_knobs.degraded_x1000));

  // Improvement contract: >= 20% better on at least one axis, no more
  // than 5% worse on any.
  const auto improved = [](double off_v, double on_v) {
    return off_v > 0 && (off_v - on_v) / off_v >= 0.20;
  };
  const auto no_worse = [](double off_v, double on_v) {
    return on_v <= off_v * 1.05 + 1e-9;
  };
  const bool any_improved =
      improved(off.shed_rate, on.shed_rate) ||
      improved(off.degraded_rate, on.degraded_rate) ||
      improved(static_cast<double>(off.light_p95_us),
               static_cast<double>(on.light_p95_us));
  const bool none_worse =
      no_worse(off.shed_rate, on.shed_rate) &&
      no_worse(off.degraded_rate, on.degraded_rate) &&
      no_worse(static_cast<double>(off.light_p95_us),
               static_cast<double>(on.light_p95_us));
  const bool off_adversarial = off.shed_rate >= 0.05;
  std::printf("improvement contract: any>=20%%: %s, none>5%% worse: %s "
              "(off shed %.1f%%)\n",
              any_improved ? "yes" : "no", none_worse ? "yes" : "no",
              100.0 * off.shed_rate);
  if (gate) {
    if (!off_adversarial) {
      std::printf("control gate: skipped (off-run shed %.1f%% < 5%% — the "
                  "trace is not adversarial)\n",
                  100.0 * off.shed_rate);
    } else if (!any_improved || !none_worse) {
      std::fprintf(stderr,
                   "trace_replay: FAIL control gate: controller-on must "
                   "improve >= 1 metric by >= 20%% and worsen none by > "
                   "5%%\n");
      ++failures;
    }
  }

  // --------------------------------------------------------- live replay
  obs::Json live_rows = obs::Json::array();
  if (live) {
    std::printf("\nlive replay (one client per lane, paced arrivals):\n");
    std::printf("%-10s %8s %8s %8s %8s %12s %8s %6s\n", "config", "reqs",
                "full", "shed", "over", "light_p95_us", "hashes", "ticks");
    std::vector<LiveResult> runs;
    runs.push_back(replay_live(trace, dir, default_cost_ms, 1, false));
    for (const int compression : {1, 2, 4}) {
      runs.push_back(
          replay_live(trace, dir, default_cost_ms, compression, true));
    }
    for (const LiveResult& run : runs) {
      const std::string label = std::to_string(run.compression) + "x-" +
                                (run.controller_on ? "on" : "off");
      std::printf("%-10s %8lld %8lld %8lld %8lld %12lld %8lld %6lld\n",
                  label.c_str(), static_cast<long long>(run.requests),
                  static_cast<long long>(run.ok_full),
                  static_cast<long long>(run.shed_degraded),
                  static_cast<long long>(run.overloaded),
                  static_cast<long long>(run.light_p95_us),
                  static_cast<long long>(run.hash_checked),
                  static_cast<long long>(run.controller_ticks));
      if (run.hash_mismatches != 0) {
        std::fprintf(stderr,
                     "trace_replay: FAIL byte-identity: %lld of %lld "
                     "full-fidelity responses differ from the recorded "
                     "hash (%s)\n",
                     static_cast<long long>(run.hash_mismatches),
                     static_cast<long long>(run.hash_checked),
                     label.c_str());
        ++failures;
      }
      if (trajectory.active()) {
        obs::Json row = obs::Json::object();
        row["config"] = label;
        row["requests"] = run.requests;
        row["ok_full"] = run.ok_full;
        row["shed_degraded"] = run.shed_degraded;
        row["overloaded"] = run.overloaded;
        row["light_p95_us"] = run.light_p95_us;
        row["hash_checked"] = run.hash_checked;
        row["controller_ticks"] = run.controller_ticks;
        live_rows.push_back(std::move(row));
      }
    }
  }

  if (trajectory.active()) {
    obs::Json ab = obs::Json::object();
    for (const AbRow* row : {&off, &on}) {
      obs::Json r = obs::Json::object();
      r["requests"] = row->requests;
      r["shed_rate"] = row->shed_rate;
      r["degraded_rate"] = row->degraded_rate;
      r["light_p95_us"] = row->light_p95_us;
      ab[row->label] = std::move(r);
    }
    trajectory.results()["sim_ab"] = std::move(ab);
    trajectory.results()["live"] = std::move(live_rows);
    trajectory.results()["records"] =
        static_cast<std::int64_t>(trace.records.size());
    trajectory.results()["default_cost_ms"] = default_cost_ms;
  }

  std::filesystem::remove_all(dir);
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace sdf::bench

int main(int argc, char** argv) {
  return sdf::bench::run_driver(argc, argv, sdf::bench::body);
}
