// compile_scaled: the in-process compile() with default CompileOptions,
// one thread, closed loop, whole passes over a fixed corpus (the Table 1
// systems plus the scaled filterbanks and random graphs). No service code
// runs, so it is the control for service changes.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <numeric>
#include <random>

#include "alloc/pool_checker.h"
#include "bench.h"
#include "corpus.h"
#include "pipeline/compile.h"
#include "sdf/io.h"
#include "spans.h"
#include "staged.h"
#include "stats.h"

namespace perfbench {
namespace {

/// Corpus builds repeat for at least this long, spread over the CPUs.
/// A single build takes a few ms, too short to time once.
constexpr double kSetupSeconds = 1.0;
/// Latency limit of one graph's compile for slo_frac. On a 4-core host
/// qmf12_7d takes 1.0-1.4 s and random1000 3.3-4.7 s, so neither sits
/// near it, and either crossing it moves slo_frac by 1/26.
constexpr double kCompileLimitUs = 2.5e6;
/// Minimum length of one visit to a graph (back-to-back compiles).
constexpr double kVisitUs = 5000.0;

/// Pins the calling thread to one CPU of those it may run on, chosen by
/// index modulo their number; the destructor restores the original set.
/// On a shared host each vCPU's speed changes within seconds with what
/// other guests run beside it (the same small compile takes 35 us on one
/// vCPU and 55 us on another at the same moment). Timing a graph on
/// every CPU and keeping its best visit measures the program, not which
/// vCPU the scheduler chose.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&all_);
    if (::sched_getaffinity(0, sizeof all_, &all_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() { unpin(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  [[nodiscard]] std::size_t size() const {
    return std::max<std::size_t>(cpus_.size(), 1);
  }
  void pin(std::size_t index) const {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[index % cpus_.size()], &one);
    ::sched_setaffinity(0, sizeof one, &one);
  }
  void unpin() const {
    if (!cpus_.empty()) ::sched_setaffinity(0, sizeof all_, &all_);
  }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_;
};

std::vector<std::size_t> shuffled(std::size_t n, std::mt19937_64& rng) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), rng);
  return order;
}

/// Builds the corpus repeatedly on each CPU in turn; returns it and the
/// lowest of the per-CPU median build times.
std::vector<Input> timed_setup(const RunConfig& cfg, const CpuRotation& cpus,
                               double* setup_s) {
  std::vector<Input> corpus;
  double best = 0;
  for (std::size_t c = 0; c < cpus.size(); ++c) {
    cpus.pin(c);
    std::vector<double> times;
    const auto start = Clock::now();
    do {
      const auto t0 = Clock::now();
      corpus = compile_corpus(cfg.tiny);
      times.push_back(seconds_since(t0));
    } while (seconds_since(start) <
             kSetupSeconds / static_cast<double>(cpus.size()));
    const double m = median(times);
    if (best == 0 || m < best) best = m;
  }
  cpus.unpin();
  *setup_s = best;
  return corpus;
}

Outcome untraced(const RunConfig& cfg) {
  Outcome out;
  const CpuRotation cpus;
  double setup_s = 0;
  const std::vector<Input> corpus = timed_setup(cfg, cpus, &setup_s);
  const std::size_t n = corpus.size();

  // Each pass visits every graph in a seeded order. A visit runs on one
  // CPU and repeats the compile back to back for at least kVisitUs, so
  // small graphs are timed warm; its time is the median of its compiles.
  // A graph gets one visit per pass, on the pass's CPU, or, when it is
  // small, one on each CPU until kVisitUs per CPU is spent. Its time is
  // its best visit.
  std::mt19937_64 rng(cfg.seed);
  std::vector<double> best(n, 0);  // 0: none yet
  std::vector<std::int64_t> visits(n, 0);
  std::vector<std::int64_t> shared(n, -1);
  std::size_t passes = 0;
  const double graph_budget_us = kVisitUs * static_cast<double>(cpus.size());
  const auto start = Clock::now();
  do {
    for (const std::size_t i : shuffled(n, rng)) {
      const auto graph_start = Clock::now();
      for (std::size_t v = 0;
           v < cpus.size() &&
           (v == 0 || us_between(graph_start, Clock::now()) < graph_budget_us);
           ++v) {
        cpus.pin(passes + v);
        std::vector<double> reps;
        const auto visit = Clock::now();
        do {
          ++out.attempted;
          const auto t0 = Clock::now();
          std::optional<sdf::CompileResult> r;
          try {
            r.emplace(sdf::compile(corpus[i].graph));
          } catch (const std::exception& e) {
            ++out.failed;
            out.diverge(corpus[i].name + ": compile failed: " + e.what());
            break;
          }
          reps.push_back(us_between(t0, Clock::now()));
          if (shared[i] >= 0) {
            if (shared[i] != r->shared_size) {
              out.diverge(corpus[i].name + ": shared_size differs across runs");
            }
            continue;
          }
          // Correctness gate, after the first compile's timing: its
          // allocation is replayed by execution.
          shared[i] = r->shared_size;
          const sdf::PoolCheckResult check = sdf::check_allocation_by_execution(
              corpus[i].graph, r->schedule, r->lifetimes, r->allocation);
          if (!check.ok) {
            out.diverge(corpus[i].name + ": pool check: " + check.error);
          }
        } while (us_between(visit, Clock::now()) < kVisitUs);
        if (reps.empty()) continue;
        const double m = median(reps);
        if (best[i] == 0 || m < best[i]) best[i] = m;
        ++visits[i];
      }
    }
    ++passes;
  } while (seconds_since(start) < cfg.seconds);
  cpus.unpin();

  const std::vector<double>& times = best;  ///< per graph, in us
  obs::Json rows = obs::Json::array();
  std::int64_t shared_words = 0;
  std::printf("%-14s %7s %12s %12s\n", "graph", "actors", "time_us",
              "shared_size");
  for (std::size_t i = 0; i < n; ++i) {
    const double m = times[i];  // 0: failed
    shared_words += std::max<std::int64_t>(shared[i], 0);
    std::printf("%-14s %7zu %12.1f %12lld\n", corpus[i].name.c_str(),
                corpus[i].graph.num_actors(), m,
                static_cast<long long>(shared[i]));
    obs::Json row = obs::Json::object();
    row["graph"] = corpus[i].name;
    row["actors"] = static_cast<std::int64_t>(corpus[i].graph.num_actors());
    row["visits"] = visits[i];
    row["time_us"] = m;
    row["shared_size"] = shared[i];
    rows.push_back(std::move(row));
  }
  std::vector<double> sorted = times;
  std::sort(sorted.begin(), sorted.end());
  // One pass at each graph's time: steadier than a pass's wall.
  const double corpus_s =
      std::accumulate(times.begin(), times.end(), 0.0) / 1e6;
  const double geo_us = geomean(times);
  const auto within =
      std::count_if(times.begin(), times.end(),
                    [](double m) { return m <= kCompileLimitUs; });

  out.add("setup_s", setup_s, "s");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
  out.add("ops_per_s", static_cast<double>(n) / corpus_s, "1/s");
  out.add("p50_us", percentile_sorted(sorted, 50), "us");
  out.add("tail_us", percentile_sorted(sorted, 90), "us");
  out.add("geomean_us", geo_us, "us");
  out.add("shared_words", static_cast<double>(shared_words), "words");
  out.add("slo_frac", static_cast<double>(within) / static_cast<double>(n),
          "ratio");

  std::printf("corpus_s = %.4f s (sum of per-graph times, %lld passes)\n",
              corpus_s, static_cast<long long>(passes));
  std::printf("compile_geomean_ms = %.4f ms (%zu graphs)\n", geo_us / 1000.0,
              n);
  std::printf("shared_words = %lld words\n",
              static_cast<long long>(shared_words));
  out.detail["graphs"] = std::move(rows);
  out.detail["passes"] = static_cast<std::int64_t>(passes);
  out.detail["cpus"] = static_cast<std::int64_t>(cpus.size());
  out.detail["corpus_s"] = corpus_s;
  out.detail["compile_geomean_ms"] = geo_us / 1000.0;
  out.detail["p50_us"] = "median over graphs of each graph's compile time";
  out.detail["tail_us"] = "p90 over graphs of each graph's compile time";
  out.detail["slo_frac"] = "share of graphs compiled within the limit";
  out.detail["slo_limit_us"] = kCompileLimitUs;
  return out;
}

Outcome traced(const RunConfig& cfg) {
  Outcome out;
  double setup_s = 0;
  const std::vector<Input> corpus = timed_setup(cfg, CpuRotation(), &setup_s);
  const std::size_t n = corpus.size();
  SpanLog& log = SpanLog::instance();

  std::mt19937_64 rng(cfg.seed);
  std::vector<std::vector<double>> compile_us(n), staged_off(n), staged_on(n);
  std::vector<StagedResult> staged(n);
  std::map<std::int64_t, std::size_t> request_graph;
  std::int64_t next_request = 0;
  // compile() runs on the graph as parsed from its text, like the staged
  // replay, so the two time the same graph object layout.
  std::vector<sdf::Graph> parsed;
  for (const Input& in : corpus) {
    parsed.push_back(sdf::parse_graph_text(in.text));
  }
  // One compile() and two staged replays, spans off then on; false when
  // the graph failed.
  const auto measure = [&](std::size_t i) {
    ++out.attempted;
    try {
      auto t0 = Clock::now();
      // Keep only the size: a live result would make the staged replays
      // below fault in fresh pages where compile() reused freed ones.
      const std::int64_t shared_size = sdf::compile(parsed[i]).shared_size;
      compile_us[i].push_back(us_between(t0, Clock::now()));

      t0 = Clock::now();
      staged[i] = staged_compile(corpus[i].text, -1);
      staged_off[i].push_back(us_between(t0, Clock::now()));

      const std::int64_t request = next_request++;
      request_graph[request] = i;
      log.set_enabled(true);
      t0 = Clock::now();
      {
        const Span root("pipeline.compile", request);
        staged[i] = staged_compile(corpus[i].text, request);
      }
      staged_on[i].push_back(us_between(t0, Clock::now()));
      log.set_enabled(false);

      if (staged[i].shared_size != shared_size) {
        out.diverge(corpus[i].name + ": staged shared_size differs");
      }
      if (!staged[i].pool_ok) out.diverge(corpus[i].name + ": pool check");
      return true;
    } catch (const std::exception& e) {
      log.set_enabled(false);
      ++out.failed;
      out.diverge(corpus[i].name + ": " + e.what());
      return false;
    }
  };
  const auto start = Clock::now();
  do {
    for (const std::size_t i : shuffled(n, rng)) {
      const auto visit = Clock::now();
      while (measure(i) && us_between(visit, Clock::now()) < kVisitUs) {
      }
    }
  } while (seconds_since(start) < cfg.seconds);

  const auto self = per_request_us(log.snapshot(), /*total=*/false);
  // stage -> graph -> self-time samples
  std::map<std::string, std::vector<std::vector<double>>> stage_samples;
  for (const char* stage : kStageNames) {
    auto& per_graph = stage_samples[stage];
    per_graph.resize(n);
    const auto it = self.find(stage);
    if (it == self.end()) continue;
    for (const auto& [request, us] : it->second) {
      per_graph[request_graph.at(request)].push_back(us);
    }
  }

  std::map<std::string, double> stage_sum;
  double compile_sum = 0, glue_sum = 0, on_sum = 0, off_sum = 0;
  std::int64_t actors = 0, firings = 0, buffers = 0, edges = 0;
  double pairs = 0;
  obs::Json rows = obs::Json::array();
  std::printf("%-14s %10s", "graph", "compile_us");
  for (const char* stage : kStageNames) std::printf(" %16s", stage);
  std::printf("\n");
  for (std::size_t i = 0; i < n; ++i) {
    const double c = median(compile_us[i]);
    double inside = 0;
    obs::Json row = obs::Json::object();
    row["graph"] = corpus[i].name;
    row["compile_us"] = c;
    std::printf("%-14s %10.1f", corpus[i].name.c_str(), c);
    for (const char* stage : kStageNames) {
      const double s = median(stage_samples[stage][i]);
      stage_sum[stage] += s;
      row[std::string(stage) + "_us"] = s;
      std::printf(" %16.1f", s);
      // compile() starts from a parsed graph and runs no pool check.
      const std::string_view name(stage);
      if (name != "sdf.parse" && name != "alloc.pool_check") inside += s;
    }
    std::printf("\n");
    compile_sum += c;
    glue_sum += c - inside;
    on_sum += median(staged_on[i]);
    off_sum += median(staged_off[i]);
    const StagedResult& st = staged[i];
    actors += st.actors;
    firings += st.firings;
    buffers += st.buffers;
    edges += st.wig_edges;
    pairs += 0.5 * static_cast<double>(st.buffers) *
             static_cast<double>(st.buffers - 1);
    row["actors"] = st.actors;
    row["firings"] = st.firings;
    row["buffers"] = st.buffers;
    row["wig_edges"] = st.wig_edges;
    rows.push_back(std::move(row));
  }

  for (const char* stage : kStageNames) {
    out.add(std::string(stage) + "_us", stage_sum[stage], "us");
  }
  out.add("pipeline.glue_us", glue_sum, "us");
  out.add("sdf.actors", static_cast<double>(actors), "count");
  out.add("sched.firings", static_cast<double>(firings), "count");
  out.add("lifetime.buffers", static_cast<double>(buffers), "count");
  out.add("alloc.wig_edges", static_cast<double>(edges), "count");
  out.add("alloc.wig_density",
          pairs > 0 ? static_cast<double>(edges) / pairs : 0, "ratio");
  out.add("alloc.pool_check_frac",
          compile_sum > 0 ? stage_sum["alloc.pool_check"] / compile_sum : 0,
          "ratio");
  out.add("trace.overhead_frac", off_sum > 0 ? on_sum / off_sum - 1.0 : 0,
          "ratio");
  out.detail["graphs"] = std::move(rows);
  out.detail["setup_s"] = setup_s;
  out.detail["per_layer"] =
      "sums over the corpus of each graph's median stage self time";
  return out;
}

}  // namespace

Outcome run_compile_scaled(const RunConfig& cfg) {
  return cfg.trace ? traced(cfg) : untraced(cfg);
}

}  // namespace perfbench
