#include "pipeline/explore.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>
#include <utility>

#include "alloc/first_fit.h"
#include "alloc/intersection_graph.h"
#include "lifetime/schedule_tree.h"
#include "merge/buffer_merge.h"
#include "obs/counters.h"
#include "obs/trace.h"
#include "pipeline/explore_cache.h"
#include "pipeline/governor.h"
#include "sched/nappearance.h"
#include "sched/simulator.h"
#include "util/fault.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace sdf {
namespace {

/// Canonical enumeration order of the sweep; the reduction emits points in
/// exactly this nesting, so parallel runs reproduce the serial output.
constexpr OrderHeuristic kOrders[] = {OrderHeuristic::kApgan,
                                      OrderHeuristic::kRpmc,
                                      OrderHeuristic::kRpmcMultistart};
constexpr LoopOptimizer kOptimizers[] = {LoopOptimizer::kSdppo,
                                         LoopOptimizer::kDppo,
                                         LoopOptimizer::kFlat};
constexpr std::size_t kNumOrders = std::size(kOrders);
constexpr std::size_t kNumOptimizers = std::size(kOptimizers);

// Fault-context salts: every logical unit of the sweep (warm-order i,
// warm-base i, point task i, retry attempt, watchdog requeue) gets a
// context key that depends only on its enumeration index, never on which
// worker runs it — injected faults fire at the same unit for any `jobs`,
// keeping the sweep byte-identical. Retry attempts get their own context
// (kRetrySalt + (i << 5) + attempt) so each attempt re-draws the fault
// decision: `explore_point:n` with n > 1 then behaves like a transient
// fault, n == 1 like a persistent one.
constexpr std::uint64_t kWarmOrderSalt = 0x1000000;
constexpr std::uint64_t kWarmBaseSalt = 0x2000000;
constexpr std::uint64_t kPointSalt = 0x3000000;
constexpr std::uint64_t kRetrySalt = 0x4000000;
constexpr std::uint64_t kWatchdogSalt = 0x5000000;

/// Retry attempts above this would collide in the kRetrySalt keying.
constexpr int kMaxRetries = 30;

/// Shared-memory size of a schedule: lifetimes + best-of-two first-fit
/// orders, optionally after CBP merging.
std::int64_t shared_size_of(const Graph& g, const Repetitions& q,
                            const Schedule& schedule, bool merge) {
  const ScheduleTree tree(g, schedule);
  std::vector<BufferLifetime> lifetimes = extract_lifetimes(g, q, tree);
  IntersectionGraph wig;
  if (merge) {
    const MergeResult merged =
        merge_buffers(g, tree, lifetimes, cbp_all_consuming(g));
    lifetimes = merged_lifetimes(merged);
    wig = build_intersection_graph_generic(lifetimes);
  } else {
    wig = build_intersection_graph(tree, lifetimes);
  }
  return std::min(
      first_fit(wig, lifetimes, FirstFitOrder::kByDuration).total_size,
      first_fit(wig, lifetimes, FirstFitOrder::kByStartTime).total_size);
}

/// One independent unit of the fan-out: everything downstream of the
/// memoized base compile for a fixed (order, optimizer, budget).
struct TaskSpec {
  OrderHeuristic order;
  LoopOptimizer optimizer;
  std::int64_t budget;
};

/// A design point plus the schedule that produced it (kept out of
/// DesignPoint so the reduction can decide what to retain).
struct Evaluated {
  DesignPoint point;
  Schedule schedule;
};

/// Evaluates the 0..2 design points of one task, reading only immutable
/// inputs and the (computed-once) cache — safe from any worker thread.
std::vector<Evaluated> evaluate_task(const Graph& g, const Repetitions& q,
                                     const CodeSizeModel& model,
                                     bool try_merging, ExploreCache& cache,
                                     const TaskSpec& task) {
  std::vector<Evaluated> out;
  const CompileResult& base = cache.base(task.order, task.optimizer);

  Schedule schedule = base.schedule;
  std::string suffix;
  if (task.budget > 0) {
    const NAppearanceResult relaxed =
        relax_appearances(g, q, base.schedule, task.budget);
    if (relaxed.rewrites == 0) return out;  // same point as budget 0
    schedule = relaxed.schedule;
    suffix = "+nap" + std::to_string(task.budget);
  }
  // n-appearance schedules are no longer SAS; the lifetime pipeline
  // requires single appearances, so those points report the non-shared
  // cost as their memory (the honest implementable number without
  // per-instance lifetime support).
  const bool sas = schedule.is_single_appearance(g.num_actors());
  for (const bool merge : {false, true}) {
    if (merge && (!try_merging || !sas)) continue;
    DesignPoint point;
    point.strategy = std::string(order_name(task.order)) + "+" +
                     std::string(optimizer_name(task.optimizer)) + suffix +
                     (merge ? "+merge" : "");
    point.degraded_from = base.degradation_path();
    point.code_size = inline_code_size(schedule, model);
    point.nonshared_memory = simulate(g, schedule).buffer_memory;
    point.shared_memory = sas ? shared_size_of(g, q, schedule, merge)
                              : point.nonshared_memory;
    out.push_back(Evaluated{std::move(point), schedule});
    if (!sas) break;  // merge loop meaningless without lifetimes
  }
  return out;
}

}  // namespace

ExploreResult explore_designs(const Graph& g, const ExploreOptions& options) {
  const obs::Span span("pipeline.explore");
  const auto wall_start = std::chrono::steady_clock::now();

  CodeSizeModel model = options.model;
  if (model.actor_size.empty()) model = CodeSizeModel::uniform(g, 10);
  const Repetitions q = repetitions_vector(g);

  std::vector<TaskSpec> tasks;
  tasks.reserve(kNumOrders * kNumOptimizers *
                options.appearance_budgets.size());
  for (const OrderHeuristic order : kOrders) {
    for (const LoopOptimizer optimizer : kOptimizers) {
      for (const std::int64_t budget : options.appearance_budgets) {
        tasks.push_back(TaskSpec{order, optimizer, budget});
      }
    }
  }

  // Per-task slot, pre-sized so workers never touch shared state. A task
  // is either restored from a prior run's journal (outcome used verbatim,
  // schedules re-parsed from their printed form) or freshly evaluated
  // (live Schedule objects kept aside in `schedules`).
  struct TaskSlot {
    TaskOutcome outcome;
    std::vector<Schedule> schedules;  ///< aligned with outcome.points (fresh)
    bool restored = false;
    bool completed = false;  ///< false only when cancellation skipped it
  };
  std::vector<TaskSlot> slots(tasks.size());
  if (options.restore != nullptr) {
    for (const auto& [index, outcome] : *options.restore) {
      if (index >= slots.size()) continue;  // stale journal; batch validates
      slots[index].outcome = outcome;
      slots[index].restored = true;
      slots[index].completed = true;
    }
  }
  const bool any_fresh = std::any_of(slots.begin(), slots.end(),
                                     [](const TaskSlot& s) {
                                       return !s.restored;
                                     });

  ExploreCache cache(g, options.share_dp_bases);
  const int jobs = util::ThreadPool::resolve_jobs(options.jobs);
  std::optional<util::ThreadPool> pool;
  if (jobs > 1 && any_fresh) pool.emplace(jobs);
  util::ThreadPool* workers = pool ? &*pool : nullptr;
  ResourceGovernor* const governor = ResourceGovernor::current();  // per task

  // Phase 1+2: warm the memo cache breadth-first — all orderings, then all
  // loop-DP bases — so the point fan-out below never duplicates a compile
  // (and the cache miss count is exactly #orderings + #bases, independent
  // of thread count). A fully restored sweep skips the warm-up: nothing
  // below would compile anyway.
  if (any_fresh) {
    {
      const obs::Span warm("pipeline.explore.warm_orders");
      util::parallel_for(workers, kNumOrders, [&](std::size_t i) {
        const ResourceGovernor::Scope governed(governor);
        const fault::Context fault_ctx(kWarmOrderSalt + i);
        (void)cache.lexorder(kOrders[i]);
      });
    }
    {
      const obs::Span warm("pipeline.explore.warm_bases");
      util::parallel_for(workers, kNumOrders * kNumOptimizers,
                         [&](std::size_t i) {
                           const ResourceGovernor::Scope governed(governor);
                           const fault::Context fault_ctx(kWarmBaseSalt + i);
                           (void)cache.base(kOrders[i / kNumOptimizers],
                                            kOptimizers[i % kNumOptimizers]);
                         });
    }
  }

  // One evaluation attempt under its own fault context. Returns nullopt on
  // a budget trip or injected fault (both surface as ResourceExhausted).
  const auto run_attempt =
      [&](std::uint64_t context_key, std::size_t i, const TaskSpec& spec)
      -> std::optional<std::vector<Evaluated>> {
    const fault::Context fault_ctx(context_key);
    try {
      if (fault::should_fail("explore_point")) {
        throw ResourceExhaustedError(
            "explore: injected fault at point task " + std::to_string(i));
      }
      return evaluate_task(g, q, model, options.try_merging, cache, spec);
    } catch (const ResourceExhaustedError&) {
      return std::nullopt;
    }
  };
  const auto cancelled_now = [&options]() {
    return options.cancel != nullptr &&
           options.cancel->load(std::memory_order_relaxed);
  };

  // Phase 3: fan the independent design points out across the pool. Each
  // task writes its own pre-sized slot; no cross-task communication, so
  // the surviving points and every tally are identical for any `jobs`.
  // Attempt 0 runs in the same fault context as the pre-durability sweep
  // (kPointSalt + i), keeping default-option output byte-identical; each
  // retry and the watchdog requeue draw fresh contexts.
  if (any_fresh) {
    const obs::Span fan("pipeline.explore.points");
    const int max_retries =
        std::clamp(options.max_point_retries, 0, kMaxRetries);
    util::parallel_for(workers, tasks.size(), [&](std::size_t i) {
      const ResourceGovernor::Scope governed(governor);
      TaskSlot& slot = slots[i];
      if (slot.restored) return;
      if (cancelled_now()) return;  // stop admitting; slot stays incomplete
      const obs::Span point_span("pipeline.explore.point");
      TaskOutcome& outcome = slot.outcome;

      std::optional<std::vector<Evaluated>> got =
          run_attempt(kPointSalt + i, i, tasks[i]);
      for (int attempt = 1; !got && attempt <= max_retries; ++attempt) {
        if (cancelled_now()) break;  // drain without spinning the backoff
        if (options.retry_backoff_ms > 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(
              static_cast<std::int64_t>(options.retry_backoff_ms)
              << (attempt - 1)));
        }
        ++outcome.retries;
        got = run_attempt(kRetrySalt + (static_cast<std::uint64_t>(i) << 5) +
                              static_cast<std::uint64_t>(attempt),
                          i, tasks[i]);
      }
      if (!got && options.watchdog_requeue &&
          tasks[i].optimizer != LoopOptimizer::kFlat) {
        // Ladder floor: kFlat never consults the governor, so the requeued
        // attempt cannot trip the same deadline again (unless its period
        // has more than 2^22 firings for simulate() to walk).
        const TaskSpec degraded{tasks[i].order, LoopOptimizer::kFlat,
                                tasks[i].budget};
        got = run_attempt(kWatchdogSalt + i, i, degraded);
        if (got) outcome.requeued = true;
      }
      if (!got) {
        outcome.dropped = true;
      } else {
        outcome.points.reserve(got->size());
        slot.schedules.reserve(got->size());
        for (Evaluated& e : *got) {
          if (outcome.requeued) {
            e.point.degraded_from =
                std::string(optimizer_name(tasks[i].optimizer)) +
                ">watchdog";
          }
          TaskOutcome::Point p;
          p.strategy = e.point.strategy;
          p.code_size = e.point.code_size;
          p.shared_memory = e.point.shared_memory;
          p.nonshared_memory = e.point.nonshared_memory;
          p.degraded_from = e.point.degraded_from;
          if (options.on_task_done) p.schedule_text = e.schedule.to_string(g);
          outcome.points.push_back(std::move(p));
          slot.schedules.push_back(std::move(e.schedule));
        }
      }
      slot.completed = true;
      if (options.on_task_done) options.on_task_done(i, outcome);
    });
  }
  pool.reset();  // join workers before the single-threaded reduction

  // Deterministic reduction: concatenate per-task results in enumeration
  // order. Schedules are kept aside so `points` can stay schedule-free;
  // restored tasks re-hydrate theirs from the recorded printed form.
  ExploreResult result;
  result.tasks_total = static_cast<std::int64_t>(tasks.size());
  std::vector<Schedule> schedules;
  for (TaskSlot& slot : slots) {
    if (!slot.completed) {
      result.cancelled = true;
      continue;
    }
    const TaskOutcome& o = slot.outcome;
    if (slot.restored) ++result.tasks_restored;
    result.retries += o.retries;
    if ((o.dropped || o.requeued) && o.retries > 0) {
      ++result.retries_exhausted;
    }
    if (o.requeued) ++result.watchdog_requeues;
    if (o.dropped) ++result.points_dropped;
    for (std::size_t k = 0; k < o.points.size(); ++k) {
      const TaskOutcome::Point& p = o.points[k];
      DesignPoint point;
      point.strategy = p.strategy;
      point.code_size = p.code_size;
      point.shared_memory = p.shared_memory;
      point.nonshared_memory = p.nonshared_memory;
      point.degraded_from = p.degraded_from;
      result.points.push_back(std::move(point));
      if (slot.restored) {
        schedules.push_back(p.schedule_text.empty()
                                ? Schedule{}
                                : parse_schedule(g, p.schedule_text));
      } else {
        schedules.push_back(std::move(slot.schedules[k]));
      }
    }
  }
  if (result.points_dropped > 0) {
    obs::count("pipeline.explore.points_dropped", result.points_dropped);
  }
  if (result.retries > 0) {
    obs::count("pipeline.explore.retries", result.retries);
  }
  if (result.retries_exhausted > 0) {
    obs::count("pipeline.explore.retries_exhausted",
               result.retries_exhausted);
  }
  if (result.watchdog_requeues > 0) {
    obs::count("pipeline.explore.watchdog_requeues",
               result.watchdog_requeues);
  }
  if (result.tasks_restored > 0) {
    obs::count("pipeline.explore.tasks_restored", result.tasks_restored);
  }

  // Pareto: minimize both axes; dedupe identical (code, memory) pairs.
  for (DesignPoint& p : result.points) {
    p.pareto = true;
    for (const DesignPoint& other : result.points) {
      const bool dominates =
          (other.code_size <= p.code_size &&
           other.shared_memory <= p.shared_memory) &&
          (other.code_size < p.code_size ||
           other.shared_memory < p.shared_memory);
      if (dominates) {
        p.pareto = false;
        break;
      }
    }
  }
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    const DesignPoint& p = result.points[i];
    if (!p.pareto) continue;
    const bool duplicate =
        std::any_of(result.frontier.begin(), result.frontier.end(),
                    [&](const DesignPoint& f) {
                      return f.code_size == p.code_size &&
                             f.shared_memory == p.shared_memory;
                    });
    if (duplicate) continue;
    result.frontier.push_back(p);
    result.frontier.back().schedule = schedules[i];
  }
  std::sort(result.frontier.begin(), result.frontier.end(),
            [](const DesignPoint& a, const DesignPoint& b) {
              if (a.code_size != b.code_size) {
                return a.code_size < b.code_size;
              }
              return a.shared_memory < b.shared_memory;
            });
  if (options.keep_point_schedules) {
    for (std::size_t i = 0; i < result.points.size(); ++i) {
      result.points[i].schedule = std::move(schedules[i]);
    }
  }

  obs::count("pipeline.explore.points",
             static_cast<std::int64_t>(result.points.size()));
  obs::gauge("pipeline.explore.frontier_size",
             static_cast<std::int64_t>(result.frontier.size()));
  obs::count("pipeline.explore.cache_hit", cache.hits());
  obs::count("pipeline.explore.cache_miss", cache.misses());
  obs::count("dp.arena.slab_hits", cache.slab_hits());
  obs::count("dp.arena.slab_misses", cache.slab_misses());
  obs::count("dp.arena.slab_evictions", cache.slab_evictions());
  obs::count("dp.arena.slab_skips", cache.slab_skips());
  if (obs::enabled()) {
    obs::gauge("pipeline.explore.jobs", jobs);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    if (secs > 0.0) {
      obs::gauge("pipeline.explore.points_per_sec",
                 static_cast<std::int64_t>(
                     static_cast<double>(result.points.size()) / secs));
    }
  }
  return result;
}

}  // namespace sdf
