// sdfmem_cli: command-line front end for the full compiler pipeline.
//
//   sdfmem_cli report   [graph.sdf]   # table-1 style memory report
//   sdfmem_cli schedule [graph.sdf]   # print the optimized looped schedule
//   sdfmem_cli codegen  [graph.sdf]   # emit threaded C on stdout
//   sdfmem_cli dump     [graph.sdf]   # echo the parsed graph
//   sdfmem_cli stats    [graph.sdf]   # per-stage wall times + counters
//   sdfmem_cli batch  <jobs> --out d  # crash-safe batch over .sdf jobs
//   sdfmem_cli resume <journal>       # finish an interrupted batch
//   sdfmem_cli serve  --socket s.sock # compile daemon (docs/SERVICE.md)
//   sdfmem_cli client g.sdf --socket s.sock   # compile via the daemon
//   sdfmem_cli route  --socket r.sock --worker w1@/tmp/w1.sock ...
//                                     # fleet router over N daemons
//
// Batch mode (docs/DURABILITY.md): `<jobs>` is a directory of .sdf files,
// a single .sdf file, or a manifest listing graph paths. Progress is
// journaled to `--journal <path>` (default <out>/batch.journal) so a
// crash or SIGINT/SIGTERM at any point is resumable with `resume`; the
// resumed outputs are byte-identical to an uninterrupted run. `--retries
// N` retries transiently faulted explore tasks with `--backoff-ms B`
// exponential backoff; `--watchdog on` requeues exhausted tasks at the
// degraded flat tier instead of dropping them. An interrupted run exits
// with the documented "interrupted" code (23); a batch with failed jobs
// exits 1 after draining everything else.
//
// Every subcommand but `route` accepts `--trace <file.json>`: telemetry is
// enabled for the run and a `sdfmem.telemetry.v1` report (see
// docs/OBSERVABILITY.md) is written to the file on exit.
//
// Service mode (docs/SERVICE.md): `serve` runs the long-lived compile
// daemon on `--socket <path>` (Unix domain) and/or `--port N` (loopback
// TCP), with a persistent content-addressed result cache under
// `--cache <dir>`, an admission bound of `--queue N` outstanding
// default-cost requests (`--cost-ms N` each), and `--deadline-ms` /
// `--dp-mem-mb` as a server-side ceiling. `--tenants-config file.json`
// loads a sdfmem.tenants.v1 registry (docs/TENANCY.md) and splits the
// admission capacity between tenants under weighted-fair scheduling;
// without it only the `public` tenant exists. SIGINT/SIGTERM drain
// gracefully and exit 23. `client` sends one graph file (raw bytes — a
// malformed graph is diagnosed by the server) and prints the response
// JSON; `--tenant name` tags the request for QoS accounting (unset
// lands in `public`), `--stats` asks for the daemon's live stats
// document instead. `client` reuses `--retries N` / `--backoff-ms B`
// for typed-failure retries with deterministic exponential backoff, and
// `--retry-budget N` bounds the process-wide retry volume
// (docs/RELIABILITY.md); `serve` grows `--scrub-interval N` (ms) to run
// the background cache scrubber that quarantines corrupt objects.
//
// Fleet mode (docs/SERVICE.md, "Fleet mode"): `route` runs the shard
// router over `--worker [id@]{path|tcp:PORT}` workers (repeat the flag
// per worker). Requests are routed by the content-addressed cache key on
// a consistent-hash ring; shard misses probe peers and warm the owner;
// dead workers are health-checked out (`--health-ms N`) and re-routed
// around, and a fleet with no live worker answers with the typed
// `unavailable` error (exit 26) instead of hanging. `serve` grows
// `--worker-id name` (identity echoed in stats for the router's health
// check) and `--hot-mb N` (in-memory LRU hot tier over the disk cache;
// 0 disables, default 32).
//
// Adaptive control (docs/CONTROL.md): `serve --control-interval N` (ms)
// runs the feedback controller that replaces the static `--cost-ms`
// admission estimate with a measured per-size EWMA and nudges the
// degradation trip points and per-tenant share boosts within hard
// clamps; `--control off` pins every knob at its static default.
// `--record file` journals every request as a sdfmem.trace.v1 trace for
// deterministic replay via bench/trace_replay.
//
// `--jobs N` sets the worker-thread count for the parallel paths (design-
// space exploration in `explore`, the two pipeline sides in `report`, the
// serve compile pool); N must be a positive integer — leave the flag
// unset to honor $SDFMEM_JOBS and otherwise run serial. Output is
// byte-identical for every jobs value.
//
// Resource governance (docs/ERRORS.md): `--deadline-ms N` and
// `--dp-mem-mb N` (both strictly positive) install a per-run
// ResourceGovernor; a tripped budget
// degrades the loop optimizer (chainx -> sdppo -> dppo -> flat) instead of
// failing, and the degradation chain is reported in the output and in the
// trace file. `--json` switches errors to a machine-readable
// {"error": {code, message, loc}} object on stdout; exit codes are per
// ErrorCode (0 ok, 2 usage, 11..21 — see docs/ERRORS.md). The
// SDFMEM_FAULTS / SDFMEM_FAULT_SEED environment variables arm deterministic
// fault injection (util/fault.h).
//
// With no graph file, a built-in demo (the satellite receiver) is used so
// the tool is runnable out of the box.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include <fstream>

#include "codegen/c_codegen.h"
#include "graphs/satellite.h"
#include "obs/counters.h"
#include "obs/json_report.h"
#include "obs/trace.h"
#include "pipeline/batch.h"
#include "pipeline/compile.h"
#include "pipeline/explore.h"
#include "pipeline/governor.h"
#include "lifetime/schedule_tree.h"
#include "sdf/diagnostics.h"
#include "sdf/dot.h"
#include "sdf/io.h"
#include "sdf/transform.h"
#include "service/client.h"
#include "service/retry.h"
#include "service/router.h"
#include "service/server.h"
#include "service/transport.h"
#include "util/fault.h"
#include "util/flags.h"
#include "util/shutdown.h"
#include "util/thread_pool.h"

namespace {

constexpr int kUsageExit = 2;

void usage() {
  std::fprintf(
      stderr,
      "usage: sdfmem_cli "
      "<report|schedule|codegen|dump|explore|gantt|dot|hsdf|stats> "
      "[graph.sdf] [--trace file.json] [--jobs N]\n"
      "                  [--deadline-ms N] [--dp-mem-mb N] [--json]\n"
      "       sdfmem_cli batch <jobs-dir|manifest|graph.sdf> --out <dir>\n"
      "                  [--journal file] [--retries N] [--backoff-ms N]\n"
      "                  [--watchdog on|off] [--jobs N] [...]\n"
      "       sdfmem_cli resume <journal> [--jobs N]\n"
      "       sdfmem_cli serve [--socket path] [--port N] [--cache dir]\n"
      "                  [--queue N] [--cost-ms N] [--jobs N]\n"
      "                  [--deadline-ms N] [--dp-mem-mb N]\n"
      "                  [--tenants-config file.json] [--worker-id name]\n"
      "                  [--hot-mb N] [--scrub-interval N]\n"
      "                  [--control on|off] [--control-interval N]\n"
      "                  [--record trace.journal]\n"
      "       sdfmem_cli route [--socket path] [--port N]\n"
      "                  --worker [id@]{path|tcp:PORT} [--worker ...]\n"
      "                  [--health-ms N] [--worker-timeout-ms N]\n"
      "                  [--breaker-threshold N]\n"
      "       sdfmem_cli client [graph.sdf] (--socket path | --port N)\n"
      "                  [--tenant name] [--stats] [--json]\n"
      "                  [--retries N] [--backoff-ms N] [--retry-budget N]\n");
}

/// Prints the collected spans (indented by depth) and all counters/gauges.
void print_stats() {
  using namespace sdf;
  std::printf("\nstage timings:\n");
  for (const obs::SpanRecord& rec : obs::spans()) {
    std::printf("  %*s%-*s %10.3f ms\n", rec.depth * 2, "",
                32 - rec.depth * 2, rec.name.c_str(),
                static_cast<double>(rec.duration_ns()) / 1e6);
  }
  std::printf("\ncounters:\n");
  for (const auto& [name, value] : obs::counters()) {
    std::printf("  %-36s %12lld\n", name.c_str(),
                static_cast<long long>(value));
  }
  if (!obs::gauges().empty()) {
    std::printf("\ngauges:\n");
    for (const auto& [name, value] : obs::gauges()) {
      std::printf("  %-36s %12lld\n", name.c_str(),
                  static_cast<long long>(value));
    }
  }
}

/// Emits one diagnostic the way the run was asked to: a {"error": ...}
/// object on stdout under --json, a human line on stderr otherwise.
/// Returns the process exit code for the diagnostic.
int report_error(const sdf::Diagnostic& diag, bool json) {
  using namespace sdf;
  if (json) {
    obs::Json doc = obs::Json::object();
    doc["error"] = diagnostic_to_json(diag);
    std::printf("%s\n", doc.dump(2).c_str());
  } else {
    std::fprintf(stderr, "error[%s]: %s\n",
                 std::string(error_code_name(diag.code)).c_str(),
                 diag.message.c_str());
    if (!diag.actor.empty()) {
      std::fprintf(stderr, "  actor: %s\n", diag.actor.c_str());
    }
    if (!diag.edge.empty()) {
      std::fprintf(stderr, "  edge: %s\n", diag.edge.c_str());
    }
  }
  return exit_code_for(diag.code);
}

/// Builds the telemetry report (with graph context, when a graph is in
/// play) and writes it to `path`. A write failure — ENOSPC, closed pipe,
/// unwritable path — comes back as a structured kIo diagnostic for
/// report_error() instead of a silently truncated report.
std::optional<sdf::Diagnostic> write_trace(const std::string& path,
                                           const sdf::Graph* g,
                                           const std::string& degraded_from,
                                           bool order_degraded) {
  using namespace sdf;
  obs::Json doc = obs::report();
  doc["tool"] = "sdfmem_cli";
  if (g != nullptr) {
    obs::Json graph = obs::Json::object();
    graph["name"] = g->name();
    graph["actors"] = static_cast<std::int64_t>(g->num_actors());
    graph["edges"] = static_cast<std::int64_t>(g->num_edges());
    doc["graph"] = std::move(graph);
  }
  if (!degraded_from.empty()) doc["degraded_from"] = degraded_from;
  if (order_degraded) doc["order_degraded"] = true;
  return obs::write_file_checked(path, doc);
}

/// Flushes everything the mode wrote to stdout and surfaces a kIo
/// diagnostic when any of it was lost (closed pipe, full disk). Returns
/// the process exit code: 0 on success.
int finish_stdout(bool json_errors) {
  using namespace sdf;
  std::cout.flush();
  const bool cout_bad = !std::cout;
  if (std::fflush(stdout) != 0 || std::ferror(stdout) != 0 || cout_bad) {
    Diagnostic diag;
    diag.code = ErrorCode::kIo;
    diag.message = "stdout write failed (closed pipe or full disk); "
                   "output is incomplete";
    return report_error(diag, json_errors);
  }
  return 0;
}

/// Parses a non-negative integer flag value; nullopt (after a usage
/// message) when the text is not a non-negative integer.
std::optional<std::int64_t> parse_count(const char* flag, const char* text) {
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || v < 0) {
    std::fprintf(stderr, "error: %s expects a non-negative integer, got %s\n",
                 flag, text);
    usage();
    return std::nullopt;
  }
  return v;
}

/// Parses a strictly positive integer flag value (util/flags.h); nullopt
/// (after a usage message) on zero, negatives, or anything non-numeric —
/// the values atoi() used to swallow silently.
std::optional<std::int64_t> parse_positive(const char* flag,
                                           const char* text) {
  const auto v = sdf::util::parse_positive_flag(text);
  if (!v) {
    std::fprintf(stderr, "error: %s expects a positive integer, got %s\n",
                 flag, text);
    usage();
    return std::nullopt;
  }
  return v;
}

/// Raw bytes of a file, unparsed — the client ships graph text verbatim
/// so a malformed graph is diagnosed by the server, not the client.
std::string read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw sdf::IoError("cannot open " + path);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (in.bad()) throw sdf::IoError("cannot read " + path);
  return data;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sdf;

  std::vector<std::string> positional;
  std::string trace_path;
  int jobs_flag = 0;  // 0 = $SDFMEM_JOBS or serial
  ResourceBudget budget;
  bool json_errors = false;
  std::string out_dir;
  std::string journal_path;
  int retries = 0;
  int backoff_ms = 0;
  bool watchdog = false;
  std::string socket_path;
  int tcp_port = 0;
  std::string cache_dir;
  int queue_capacity = 16;
  std::int64_t cost_ms = 1000;
  bool stats_request = false;
  std::string tenant;
  std::string tenants_config_path;
  std::string worker_id;
  std::int64_t hot_mb = -1;  // -1 = ServerOptions default
  std::vector<std::string> worker_specs;
  int health_ms = 250;
  int worker_timeout_ms = 60000;
  int breaker_threshold = 3;
  std::int64_t retry_budget = 32;
  int scrub_interval_ms = 0;
  int control_interval_ms = 0;
  bool control_on = true;
  bool control_flag_seen = false;
  std::string record_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out") {
      if (i + 1 >= argc) {
        usage();
        return kUsageExit;
      }
      out_dir = argv[++i];
    } else if (arg == "--journal") {
      if (i + 1 >= argc) {
        usage();
        return kUsageExit;
      }
      journal_path = argv[++i];
    } else if (arg == "--retries") {
      if (i + 1 >= argc) {
        usage();
        return kUsageExit;
      }
      const auto v = parse_count("--retries", argv[++i]);
      if (!v) return kUsageExit;
      retries = static_cast<int>(*v);
    } else if (arg == "--backoff-ms") {
      if (i + 1 >= argc) {
        usage();
        return kUsageExit;
      }
      const auto v = parse_count("--backoff-ms", argv[++i]);
      if (!v) return kUsageExit;
      backoff_ms = static_cast<int>(*v);
    } else if (arg == "--watchdog") {
      if (i + 1 >= argc) {
        usage();
        return kUsageExit;
      }
      const std::string v = argv[++i];
      if (v != "on" && v != "off") {
        std::fprintf(stderr, "error: --watchdog expects on|off, got %s\n",
                     v.c_str());
        usage();
        return kUsageExit;
      }
      watchdog = v == "on";
    } else if (arg == "--trace") {
      if (i + 1 >= argc) {
        usage();
        return kUsageExit;
      }
      trace_path = argv[++i];
    } else if (arg == "--jobs") {
      if (i + 1 >= argc) {
        usage();
        return kUsageExit;
      }
      const auto v = parse_positive("--jobs", argv[++i]);
      if (!v) return kUsageExit;
      jobs_flag = static_cast<int>(*v);
    } else if (arg == "--deadline-ms") {
      if (i + 1 >= argc) {
        usage();
        return kUsageExit;
      }
      const auto v = parse_positive("--deadline-ms", argv[++i]);
      if (!v) return kUsageExit;
      budget.deadline_ms = *v;
    } else if (arg == "--dp-mem-mb") {
      if (i + 1 >= argc) {
        usage();
        return kUsageExit;
      }
      const auto v = parse_positive("--dp-mem-mb", argv[++i]);
      if (!v) return kUsageExit;
      budget.dp_mem_bytes = *v * 1024 * 1024;
    } else if (arg == "--socket") {
      if (i + 1 >= argc) {
        usage();
        return kUsageExit;
      }
      socket_path = argv[++i];
    } else if (arg == "--port") {
      if (i + 1 >= argc) {
        usage();
        return kUsageExit;
      }
      const auto v = parse_positive("--port", argv[++i]);
      if (!v || *v > 65535) {
        if (v) {
          std::fprintf(stderr, "error: --port expects a port <= 65535\n");
          usage();
        }
        return kUsageExit;
      }
      tcp_port = static_cast<int>(*v);
    } else if (arg == "--cache") {
      if (i + 1 >= argc) {
        usage();
        return kUsageExit;
      }
      cache_dir = argv[++i];
    } else if (arg == "--queue") {
      if (i + 1 >= argc) {
        usage();
        return kUsageExit;
      }
      const auto v = parse_count("--queue", argv[++i]);
      if (!v) return kUsageExit;
      queue_capacity = static_cast<int>(*v);
    } else if (arg == "--cost-ms") {
      if (i + 1 >= argc) {
        usage();
        return kUsageExit;
      }
      const auto v = parse_positive("--cost-ms", argv[++i]);
      if (!v) return kUsageExit;
      cost_ms = *v;
    } else if (arg == "--tenant") {
      if (i + 1 >= argc) {
        usage();
        return kUsageExit;
      }
      tenant = argv[++i];
      if (!util::valid_tenant_name(tenant)) {
        std::fprintf(stderr,
                     "error: --tenant expects 1-64 chars of [a-z0-9_-], "
                     "got %s\n",
                     tenant.c_str());
        usage();
        return kUsageExit;
      }
    } else if (arg == "--tenants-config") {
      if (i + 1 >= argc) {
        usage();
        return kUsageExit;
      }
      tenants_config_path = argv[++i];
    } else if (arg == "--worker-id") {
      if (i + 1 >= argc) {
        usage();
        return kUsageExit;
      }
      worker_id = argv[++i];
    } else if (arg == "--hot-mb") {
      if (i + 1 >= argc) {
        usage();
        return kUsageExit;
      }
      const auto v = parse_count("--hot-mb", argv[++i]);
      if (!v) return kUsageExit;
      hot_mb = *v;
    } else if (arg == "--worker") {
      if (i + 1 >= argc) {
        usage();
        return kUsageExit;
      }
      worker_specs.emplace_back(argv[++i]);
    } else if (arg == "--health-ms") {
      if (i + 1 >= argc) {
        usage();
        return kUsageExit;
      }
      const auto v = parse_positive("--health-ms", argv[++i]);
      if (!v) return kUsageExit;
      health_ms = static_cast<int>(*v);
    } else if (arg == "--worker-timeout-ms") {
      if (i + 1 >= argc) {
        usage();
        return kUsageExit;
      }
      const auto v = parse_positive("--worker-timeout-ms", argv[++i]);
      if (!v) return kUsageExit;
      worker_timeout_ms = static_cast<int>(*v);
    } else if (arg == "--breaker-threshold") {
      if (i + 1 >= argc) {
        usage();
        return kUsageExit;
      }
      const auto v = parse_positive("--breaker-threshold", argv[++i]);
      if (!v) return kUsageExit;
      breaker_threshold = static_cast<int>(*v);
    } else if (arg == "--retry-budget") {
      if (i + 1 >= argc) {
        usage();
        return kUsageExit;
      }
      const auto v = parse_count("--retry-budget", argv[++i]);
      if (!v) return kUsageExit;
      retry_budget = *v;
    } else if (arg == "--scrub-interval") {
      if (i + 1 >= argc) {
        usage();
        return kUsageExit;
      }
      const auto v = parse_count("--scrub-interval", argv[++i]);
      if (!v) return kUsageExit;
      scrub_interval_ms = static_cast<int>(*v);
    } else if (arg == "--control-interval") {
      if (i + 1 >= argc) {
        usage();
        return kUsageExit;
      }
      const auto v = parse_positive("--control-interval", argv[++i]);
      if (!v) return kUsageExit;
      control_interval_ms = static_cast<int>(*v);
    } else if (arg == "--control") {
      if (i + 1 >= argc) {
        usage();
        return kUsageExit;
      }
      const auto v = util::parse_on_off(argv[i + 1]);
      if (!v) {
        std::fprintf(stderr, "error: --control expects on|off, got %s\n",
                     argv[i + 1]);
        usage();
        return kUsageExit;
      }
      ++i;
      control_on = *v;
      control_flag_seen = true;
    } else if (arg == "--record") {
      if (i + 1 >= argc) {
        usage();
        return kUsageExit;
      }
      record_path = argv[++i];
    } else if (arg == "--stats") {
      stats_request = true;
    } else if (arg == "--json") {
      json_errors = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "error: unknown flag %s\n", arg.c_str());
      usage();
      return kUsageExit;
    } else {
      positional.push_back(arg);
    }
  }
  const int jobs = util::ThreadPool::resolve_jobs(jobs_flag);

  const std::string mode = positional.empty() ? "report" : positional[0];
  if (mode != "report" && mode != "schedule" && mode != "codegen" &&
      mode != "dump" && mode != "explore" && mode != "gantt" &&
      mode != "dot" && mode != "hsdf" && mode != "stats" &&
      mode != "batch" && mode != "resume" && mode != "serve" &&
      mode != "route" && mode != "client") {
    usage();
    return kUsageExit;
  }

  try {
    fault::configure_from_env();
  } catch (const std::exception& e) {
    return report_error(diagnostic_from_exception(e), json_errors);
  }

  if (mode == "serve") {
    if (socket_path.empty() && tcp_port == 0) {
      std::fprintf(stderr, "error: serve requires --socket and/or --port\n");
      usage();
      return kUsageExit;
    }
    util::install_shutdown_handlers();
    if (!trace_path.empty()) {
      obs::set_enabled(true);
      obs::reset();
    }
    try {
      svc::ServerOptions sopts;
      sopts.socket_path = socket_path;
      sopts.tcp_port = tcp_port;
      sopts.cache_dir = cache_dir;
      sopts.jobs = jobs;
      sopts.queue_capacity = queue_capacity;
      sopts.default_cost_ms = cost_ms;
      sopts.budget = budget;
      sopts.worker_id = worker_id;
      sopts.scrub_interval_ms = scrub_interval_ms;
      sopts.control = control_on;
      // `--control on` alone enables the loop at the documented default
      // interval; `--control-interval N` sets both.
      if (control_flag_seen && control_on && control_interval_ms == 0) {
        control_interval_ms = 1000;
      }
      sopts.control_interval_ms = control_interval_ms;
      sopts.record_path = record_path;
      if (hot_mb >= 0) sopts.hot_tier_bytes = hot_mb * (1ll << 20);
      if (!tenants_config_path.empty()) {
        const Result<svc::qos::TenantRegistry> registry =
            svc::qos::TenantRegistry::parse(
                read_file_bytes(tenants_config_path));
        if (!registry.ok()) {
          return report_error(registry.error(), json_errors);
        }
        sopts.tenants = registry.value();
      }
      svc::Server server(sopts);
      server.start();
      // The readiness line goes to stderr so scripts can wait on it
      // without disturbing anything piped from stdout.
      std::fprintf(stderr, "sdfmemd: listening%s%s%s\n",
                   socket_path.empty() ? "" : " on ",
                   socket_path.c_str(),
                   tcp_port != 0 ? " (tcp)" : "");
      std::fflush(stderr);
      server.run();
    } catch (const std::exception& e) {
      return report_error(diagnostic_from_exception(e), json_errors);
    }
    if (!trace_path.empty()) {
      if (const auto diag = write_trace(trace_path, nullptr, "", false)) {
        return report_error(*diag, json_errors);
      }
    }
    if (util::shutdown_requested()) {
      std::fprintf(stderr, "sdfmemd: drained\n");
      return exit_code_for(ErrorCode::kInterrupted);
    }
    return 0;
  }

  if (mode == "route") {
    if (socket_path.empty() && tcp_port == 0) {
      std::fprintf(stderr, "error: route requires --socket and/or --port\n");
      usage();
      return kUsageExit;
    }
    if (worker_specs.empty()) {
      std::fprintf(stderr, "error: route requires at least one --worker\n");
      usage();
      return kUsageExit;
    }
    if (!trace_path.empty()) {
      std::fprintf(stderr,
                   "error: route takes no --trace; read its totals with "
                   "client --stats\n");
      usage();
      return kUsageExit;
    }
    util::install_shutdown_handlers();
    try {
      svc::RouterOptions ropts;
      ropts.socket_path = socket_path;
      ropts.tcp_port = tcp_port;
      ropts.health_interval_ms = health_ms;
      ropts.worker_timeout_ms = worker_timeout_ms;
      ropts.breaker_threshold = breaker_threshold;
      for (const std::string& spec : worker_specs) {
        const Result<svc::WorkerConfig> worker = svc::parse_worker_spec(spec);
        if (!worker.ok()) return report_error(worker.error(), json_errors);
        ropts.workers.push_back(worker.value());
      }
      svc::Router router(ropts);
      router.start();
      std::fprintf(stderr, "sdfmem-router: listening%s%s%s (%zu workers)\n",
                   socket_path.empty() ? "" : " on ",
                   socket_path.c_str(),
                   tcp_port != 0 ? " (tcp)" : "",
                   ropts.workers.size());
      std::fflush(stderr);
      router.run();
    } catch (const std::exception& e) {
      return report_error(diagnostic_from_exception(e), json_errors);
    }
    if (util::shutdown_requested()) {
      std::fprintf(stderr, "sdfmem-router: drained\n");
      return exit_code_for(ErrorCode::kInterrupted);
    }
    return 0;
  }

  if (mode == "client") {
    try {
      // The daemon hanging up mid-send must surface as a typed kIo
      // diagnostic (retryable), not a SIGPIPE kill.
      svc::ignore_sigpipe();
      svc::ClientOptions copts;
      copts.socket_path = socket_path;
      copts.tcp_port = tcp_port;
      if (stats_request) {
        svc::Client client(copts);
        std::printf("%s\n", client.stats().c_str());
        return finish_stdout(json_errors);
      }
      svc::CompileRequest req;
      req.graph_text = positional.size() > 1
                           ? read_file_bytes(positional[1])
                           : write_graph_text(satellite_receiver());
      req.deadline_ms = budget.deadline_ms;
      req.dp_mem_bytes = budget.dp_mem_bytes;
      req.tenant = tenant;  // empty keeps the wire payload at schema v1
      // max_retries = 0 (the default) is exactly one attempt — the
      // pre-retry behaviour.
      svc::RetryPolicy rpolicy;
      rpolicy.max_retries = retries;
      if (backoff_ms > 0) rpolicy.base_backoff_ms = backoff_ms;
      svc::RetryBudget rbudget(retry_budget);
      svc::RetryingClient client(copts, rpolicy, &rbudget);
      const Result<std::string> response = client.compile(req);
      if (!response.ok()) {
        return report_error(response.error(), json_errors);
      }
      std::printf("%s\n", response.value().c_str());
    } catch (const std::exception& e) {
      return report_error(diagnostic_from_exception(e), json_errors);
    }
    return finish_stdout(json_errors);
  }

  if (mode == "batch" || mode == "resume") {
    if (positional.size() < 2) {
      usage();
      return kUsageExit;
    }
    util::install_shutdown_handlers();
    if (!trace_path.empty()) {
      obs::set_enabled(true);
      obs::reset();
    }
    BatchResult batch_result;
    std::string resume_hint;
    try {
      if (mode == "batch") {
        if (out_dir.empty()) {
          std::fprintf(stderr, "error: batch requires --out <dir>\n");
          usage();
          return kUsageExit;
        }
        BatchOptions bopts;
        bopts.out_dir = out_dir;
        bopts.journal_path = journal_path;
        bopts.jobs = jobs;
        bopts.max_point_retries = retries;
        bopts.retry_backoff_ms = backoff_ms;
        bopts.watchdog_requeue = watchdog;
        bopts.budget = budget;
        resume_hint = journal_path.empty() ? out_dir + "/batch.journal"
                                           : journal_path;
        batch_result = run_batch(scan_jobs(positional[1]), bopts);
      } else {
        resume_hint = positional[1];
        batch_result =
            resume_batch(positional[1], jobs_flag != 0 ? jobs : 0);
      }
    } catch (const std::exception& e) {
      return report_error(diagnostic_from_exception(e), json_errors);
    }
    std::printf(
        "batch: %lld job(s): %lld ok, %lld failed, %lld already done\n",
        static_cast<long long>(batch_result.jobs_total),
        static_cast<long long>(batch_result.jobs_ok),
        static_cast<long long>(batch_result.jobs_failed),
        static_cast<long long>(batch_result.jobs_skipped));
    for (const std::string& name : batch_result.failed_jobs) {
      std::fprintf(stderr, "failed: %s\n", name.c_str());
    }
    if (!trace_path.empty()) {
      if (const auto diag = write_trace(trace_path, nullptr, "", false)) {
        return report_error(*diag, json_errors);
      }
    }
    if (batch_result.interrupted) {
      std::fprintf(stderr,
                   "interrupted: resume with `sdfmem_cli resume %s`\n",
                   resume_hint.c_str());
      return exit_code_for(ErrorCode::kInterrupted);
    }
    if (const int io_exit = finish_stdout(json_errors); io_exit != 0) {
      return io_exit;
    }
    return batch_result.jobs_failed > 0 ? 1 : 0;
  }

  Graph g;
  try {
    g = positional.size() > 1 ? load_graph(positional[1])
                              : satellite_receiver();
  } catch (const std::exception& e) {
    return report_error(diagnostic_from_exception(e), json_errors);
  }

  if (!trace_path.empty() || mode == "stats") {
    obs::set_enabled(true);
    obs::reset();
  }

  // The governor is installed for everything downstream of parsing; a
  // tripped budget degrades the compile (see pipeline/compile.cpp), and
  // only a trip at the ladder's floor surfaces as resource-exhausted.
  ResourceGovernor governor(budget);
  const ResourceGovernor::Scope governed(governor);

  std::string degraded_from;
  bool order_degraded = false;
  const auto note_degradation = [&](const CompileResult& res) {
    degraded_from = res.degradation_path();
    order_degraded = res.order_degraded;
    if (!degraded_from.empty() && !json_errors) {
      std::fprintf(stderr, "note: optimizer degraded (%s -> %s)\n",
                   degraded_from.c_str(),
                   std::string(optimizer_name(res.effective_optimizer))
                       .c_str());
    }
  };

  try {
    if (mode == "dump") {
      std::cout << write_graph_text(g);
    } else if (mode == "dot") {
      std::cout << graph_to_dot(g);
    } else if (mode == "hsdf") {
      const HsdfExpansion x =
          expand_to_homogeneous(g, repetitions_vector(g));
      std::cout << write_graph_text(x.graph);
    } else if (mode == "stats") {
      const CompileResult res = compile(g);
      note_degradation(res);
      std::printf("graph:          %s (%zu actors, %zu edges)\n",
                  g.name().c_str(), g.num_actors(), g.num_edges());
      std::printf("schedule:       %s\n", res.schedule.to_string(g).c_str());
      std::printf("non-shared:     %lld tokens\n",
                  static_cast<long long>(res.nonshared_bufmem));
      std::printf("shared pool:    %lld tokens\n",
                  static_cast<long long>(res.shared_size));
      if (!degraded_from.empty()) {
        std::printf("degraded from:  %s\n", degraded_from.c_str());
      }
      print_stats();
    } else if (mode == "schedule") {
      const CompileResult res = compile(g);
      note_degradation(res);
      std::cout << res.schedule.to_string(g) << "\n";
    } else if (mode == "gantt") {
      const CompileResult res = compile(g);
      note_degradation(res);
      const ScheduleTree tree(g, res.schedule);
      std::cout << res.schedule.to_string(g) << "\n"
                << lifetime_gantt(g, res.lifetimes, tree.total_duration(),
                                  &res.allocation);
    } else if (mode == "explore") {
      ExploreOptions eopts;
      eopts.jobs = jobs;
      const ExploreResult r = explore_designs(g, eopts);
      std::printf("%zu strategies; pareto frontier:\n", r.points.size());
      for (const DesignPoint& p : r.frontier) {
        std::printf("  code %6lld  sharedMem %6lld   %s%s%s\n",
                    static_cast<long long>(p.code_size),
                    static_cast<long long>(p.shared_memory),
                    p.strategy.c_str(),
                    p.degraded_from.empty() ? "" : "  degraded:",
                    p.degraded_from.c_str());
      }
      if (r.points_dropped > 0) {
        std::fprintf(stderr, "note: %lld design point(s) dropped (budget)\n",
                     static_cast<long long>(r.points_dropped));
      }
    } else if (mode == "codegen") {
      const CompileResult res = compile(g);
      note_degradation(res);
      std::cout << generate_c_source(g, res.q, res.schedule, res.lifetimes,
                                     res.allocation);
    } else {
      const CompileResult res = compile(g);
      note_degradation(res);
      const Table1Row row = table1_row(g, jobs);
      std::printf("graph:          %s (%zu actors, %zu edges)\n",
                  g.name().c_str(), g.num_actors(), g.num_edges());
      std::printf("schedule:       %s\n", res.schedule.to_string(g).c_str());
      std::printf("non-shared:     %lld tokens (best of RPMC/APGAN + DPPO)\n",
                  static_cast<long long>(row.best_nonshared()));
      std::printf("shared pool:    %lld tokens (best first-fit)\n",
                  static_cast<long long>(row.best_shared()));
      std::printf("BMLB:           %lld tokens\n",
                  static_cast<long long>(row.bmlb));
      std::printf("improvement:    %.1f%%\n", row.improvement_percent());
    }
  } catch (const std::exception& e) {
    return report_error(diagnostic_from_exception(e), json_errors);
  }

  if (!trace_path.empty()) {
    if (const auto diag =
            write_trace(trace_path, &g, degraded_from, order_degraded)) {
      return report_error(*diag, json_errors);
    }
  }
  return finish_stdout(json_errors);
}
