// perfbench: the repository benchmark program (see perfbench/README.md).
//
//   perfbench --workload compile_scaled|service_hot|service_mixed
//             --seed N --seconds S --trace 0|1 --work-dir DIR
//             [--spans FILE] [--tiny]
//
// Prints human-readable rows, then a `record:` line with the full result
// (host facts, seed, details), then one JSON line with exactly the keys
// correct, attempted, failed and metrics. Exits 1 when a correctness gate
// diverged, 2 on a usage error.
#include <malloc.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <string_view>
#include <thread>

#include "bench.h"
#include "spans.h"

namespace perfbench {

double status_mb(const std::string& pid, const std::string& field) {
  std::ifstream status("/proc/" + pid + "/status");
  const std::string prefix = field + ":";
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(prefix, 0) == 0) {
      // kB -> MiB
      return std::strtod(line.c_str() + prefix.size(), nullptr) / 1024.0;
    }
  }
  return 0.0;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_catalog() {
  static const std::vector<std::pair<std::string, std::string>> catalog = {
      {"sdf.parse_us", "us"},
      {"sdf.repetitions_us", "us"},
      {"sched.order_us", "us"},
      {"sched.loop_dp_us", "us"},
      {"sched.simulate_us", "us"},
      {"lifetime.extract_us", "us"},
      {"alloc.wig_us", "us"},
      {"alloc.first_fit_us", "us"},
      {"alloc.bounds_us", "us"},
      {"alloc.pool_check_us", "us"},
      {"pipeline.glue_us", "us"},
      {"sdf.actors", "count"},
      {"sched.firings", "count"},
      {"lifetime.buffers", "count"},
      {"alloc.wig_edges", "count"},
      {"alloc.wig_density", "ratio"},
      {"alloc.pool_check_frac", "ratio"},
      {"svc.frame_us", "us"},
      {"svc.request_parse_us", "us"},
      {"svc.canonicalize_us", "us"},
      {"svc.hot_lookup_us", "us"},
      {"svc.disk_lookup_us", "us"},
      {"svc.rtt_residual_us", "us"},
      {"svc.hit_frac", "ratio"},
      {"svc.hot_hit_frac", "ratio"},
      {"svc.connect_us", "us"},
      {"svc.compile_us", "us"},
      {"svc.cache_insert_us", "us"},
      {"svc.admission_wait_us", "us"},
      {"svc.deadline_miss_p50_us", "us"},
      {"svc.plain_miss_p50_us", "us"},
      {"svc.max_queue_depth", "count"},
      {"svc.shed_frac", "ratio"},
      {"route.hop_us", "us"},
      {"route.peer_hit_frac", "ratio"},
      {"route.reroutes", "count"},
      {"gen.late_p99_us", "us"},
      {"trace.overhead_frac", "ratio"},
  };
  return catalog;
}

namespace {

const std::vector<std::pair<std::string, std::string>>& end_to_end_catalog() {
  static const std::vector<std::pair<std::string, std::string>> catalog = {
      {"setup_s", "s"},       {"peak_rss_mb", "MB"}, {"ops_per_s", "1/s"},
      {"p50_us", "us"},       {"tail_us", "us"},     {"geomean_us", "us"},
      {"shared_words", "words"}, {"slo_frac", "ratio"},
  };
  return catalog;
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "compile_scaled|service_hot|service_mixed --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--spans FILE] "
               "[--tiny]\n",
               why.c_str());
  std::exit(2);
}

RunConfig parse_args(int argc, char** argv) {
  RunConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--tiny") {
      cfg.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + std::string(arg));
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      cfg.workload = value;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), &end);
      if (cfg.seconds <= 0) usage("--seconds must be positive");
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      cfg.trace = value == "1";
    } else if (arg == "--work-dir") {
      cfg.work_dir = value;
    } else if (arg == "--spans") {
      cfg.spans_path = value;
    } else {
      usage("unknown argument " + std::string(arg));
    }
    if (end != nullptr && *end != '\0') usage("bad number: " + value);
  }
  if (cfg.work_dir.empty()) usage("--work-dir is required");
  return cfg;
}

/// CPU time the hypervisor gave to other guests, summed over all CPUs, in
/// seconds (the steal column of /proc/stat); 0 where unavailable.
double stolen_cpu_s() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
         softirq = 0, steal = 0;
  if (!(stat >> cpu >> user >> nice >> system >> idle >> iowait >> irq >>
        softirq >> steal)) {
    return 0.0;
  }
  return steal / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/// `steal_frac` is the share of the run's CPU time the hypervisor gave
/// to other guests: on a shared host such runs read slower, and compare
/// leaves them out.
obs::Json host_facts(double steal_frac) {
  obs::Json host = obs::Json::object();
  host["steal_frac"] = steal_frac;
  host["nproc"] =
      static_cast<std::int64_t>(std::thread::hardware_concurrency());
  host["build_type"] = PERFBENCH_BUILD_TYPE;
  host["compiler"] = PERFBENCH_COMPILER;
  utsname u{};
  if (::uname(&u) == 0) {
    host["kernel"] = std::string(u.sysname) + " " + u.release;
    host["machine"] = std::string(u.machine);
  }
  // Whether address-space layout randomization is on for this process
  // (run.py turns it off; ADDR_NO_RANDOMIZE in <linux/personality.h>).
  std::ifstream personality("/proc/self/personality");
  unsigned long persona = 0;
  if (personality >> std::hex >> persona) {
    host["aslr"] = (persona & 0x0040000ul) == 0;
  }
  return host;
}

int run(const RunConfig& cfg) {
  Outcome out;
  const auto start = Clock::now();
  const double stolen_before = stolen_cpu_s();
  if (cfg.workload == "compile_scaled") {
    out = run_compile_scaled(cfg);
  } else if (cfg.workload == "service_hot") {
    out = run_service_hot(cfg);
  } else if (cfg.workload == "service_mixed") {
    out = run_service_mixed(cfg);
  } else {
    usage("unknown workload '" + cfg.workload + "'");
  }
  const double steal_frac =
      (stolen_cpu_s() - stolen_before) /
      (seconds_since(start) *
       std::max(1u, std::thread::hardware_concurrency()));

  // Every metric of the run's set, in catalog order; a per-layer metric
  // whose layer this workload does not run reads 0.
  const auto& catalog = cfg.trace ? per_layer_catalog() : end_to_end_catalog();
  obs::Json metrics = obs::Json::object();
  std::set<std::string> known;
  for (const auto& [name, unit] : catalog) {
    known.insert(name);
    const Metric* found = nullptr;
    for (const Metric& m : out.metrics) {
      if (m.name == name) found = &m;
    }
    if (found == nullptr && !cfg.trace) {
      out.diverge("end-to-end metric " + name + " was not measured");
    }
    if (found != nullptr && found->unit != unit) {
      out.diverge("metric " + name + " has unit " + found->unit);
    }
    obs::Json entry = obs::Json::object();
    entry["value"] = found ? found->value : 0.0;
    entry["unit"] = unit;
    metrics[name] = std::move(entry);
    std::printf("%-26s %16.6f %s\n", name.c_str(), found ? found->value : 0.0,
                unit.c_str());
  }
  for (const Metric& m : out.metrics) {
    if (!known.count(m.name)) out.diverge("uncatalogued metric " + m.name);
  }
  for (const std::string& d : out.divergences) {
    std::fprintf(stderr, "perfbench: DIVERGENCE: %s\n", d.c_str());
  }
  if (!cfg.spans_path.empty() && cfg.trace) {
    if (!SpanLog::instance().write_json(cfg.spans_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   cfg.spans_path.c_str());
      return 1;
    }
  }

  const bool correct = out.divergences.empty();
  obs::Json record = obs::Json::object();
  record["workload"] = cfg.workload;
  record["seed"] = static_cast<std::int64_t>(cfg.seed);
  record["seconds"] = cfg.seconds;
  record["trace"] = cfg.trace;
  record["host"] = host_facts(steal_frac);
  record["detail"] = std::move(out.detail);
  obs::Json divergences = obs::Json::array();
  for (const std::string& d : out.divergences) divergences.push_back(d);
  record["divergences"] = std::move(divergences);
  record["spans_dropped"] =
      static_cast<std::int64_t>(SpanLog::instance().dropped());
  std::printf("record: %s\n", record.dump().c_str());

  obs::Json result = obs::Json::object();
  result["correct"] = correct;
  result["attempted"] = out.attempted;
  result["failed"] = out.failed;
  result["metrics"] = std::move(metrics);
  std::printf("%s\n", result.dump().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::RunConfig cfg = perfbench::parse_args(argc, argv);
  // Fixed allocator thresholds, inherited by the forked services. glibc
  // otherwise moves them with the history of frees, so whether a compile
  // hands its memory back to the kernel and faults it in again depends
  // on what ran before it. Page faults are slow and uneven in a VM: with
  // the moving thresholds the same corpus build took 3.7-5.1 ms from run
  // to run on a 4-core host, with these 3.3-3.6 ms.
  ::mallopt(M_MMAP_THRESHOLD, 32 << 20);  // glibc's largest
  ::mallopt(M_TRIM_THRESHOLD, 1 << 30);
  try {
    std::filesystem::create_directories(cfg.work_dir);
    const int rc = perfbench::run(cfg);
    std::filesystem::remove_all(cfg.work_dir);
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    std::filesystem::remove_all(cfg.work_dir);
    return 1;
  }
}
