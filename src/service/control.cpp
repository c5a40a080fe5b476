#include "service/control.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <set>
#include <utility>

#include "obs/metrics.h"
#include "service/protocol.h"

namespace sdf::svc::ctl {

bool shed_to_tier(CompileOptions& options,
                  qos::AdmissionController::PressureTier tier) noexcept {
  using Tier = qos::AdmissionController::PressureTier;
  if (tier == Tier::kNormal) return false;
  // Ladder rank; higher = more expensive.
  const auto rank = [](LoopOptimizer opt) {
    switch (opt) {
      case LoopOptimizer::kChainExact: return 3;
      case LoopOptimizer::kSdppo: return 2;
      case LoopOptimizer::kDppo: return 1;
      case LoopOptimizer::kFlat: return 0;
    }
    return 0;
  };
  const LoopOptimizer cap =
      tier == Tier::kCapped ? LoopOptimizer::kDppo : LoopOptimizer::kFlat;
  bool changed = false;
  if (rank(options.optimizer) > rank(cap)) {
    options.optimizer = cap;
    changed = true;
  }
  if (tier == Tier::kDegraded &&
      options.order != OrderHeuristic::kTopological) {
    options.order = OrderHeuristic::kTopological;
    changed = true;
  }
  return changed;
}

// ---------------------------------------------------------------------------
// CostModel

int cost_bucket(std::int64_t actors) noexcept {
  if (actors < 2) return 0;
  int b = 0;
  while (actors > 1 && b < kCostBuckets - 1) {
    actors >>= 1;
    ++b;
  }
  return b;
}

std::int64_t cost_bucket_floor(int b) noexcept {
  if (b <= 0) return 1;
  if (b >= kCostBuckets) b = kCostBuckets - 1;
  return std::int64_t{1} << b;
}

void CostModel::record(std::int64_t actors, std::int64_t wall_ns) noexcept {
  if (wall_ns < 0) return;
  CostBucket& b = buckets_[static_cast<std::size_t>(cost_bucket(actors))];
  if (b.samples == 0) {
    b.ewma_ns = wall_ns;
  } else {
    b.ewma_ns += (wall_ns - b.ewma_ns) / 8;
  }
  ++b.samples;
}

std::int64_t CostModel::estimate_ms(std::int64_t actors,
                                    std::int64_t fallback_ms) const noexcept {
  const CostBucket& b =
      buckets_[static_cast<std::size_t>(cost_bucket(actors))];
  if (b.samples == 0) return fallback_ms;
  const std::int64_t ms = (b.ewma_ns + 999'999) / 1'000'000;
  return std::clamp<std::int64_t>(ms, 1, kEstimateCapMs);
}

// ---------------------------------------------------------------------------
// Controller

std::int64_t utility_x1000(const IntervalMetrics& m) noexcept {
  if (m.requests <= 0) return 0;
  const std::int64_t full = m.requests - m.overloaded - m.shed_degraded;
  return (full * 1000 + m.shed_degraded * 500 - m.overloaded * 2000) /
         m.requests;
}

Controller::Controller(ControllerConfig config) : config_(config) {
  if (config_.hysteresis < 1) config_.hysteresis = 1;
}

Decision Controller::tick(const IntervalMetrics& m) {
  ++ticks_;
  Decision d;
  d.reason = "hold";
  if (m.requests > 0) {
    d.shed_x1000 = m.overloaded * 1000 / m.requests;
    d.degraded_x1000 = m.shed_degraded * 1000 / m.requests;
  }
  d.utility_x1000 = utility_x1000(m);

  if (m.requests < config_.min_requests) {
    // A near-idle window carries no signal; it must also not carry a
    // streak across a lull (that is how flapping starts).
    relief_streak_ = 0;
    recover_streak_ = 0;
    starve_streak_.clear();
    calm_streak_.clear();
    d.reason = "quiet";
    d.knobs = knobs_;
    return d;
  }

  const Clamps& c = config_.clamps;
  const bool relief = d.shed_x1000 > config_.shed_hi_x1000;
  const bool recover = d.shed_x1000 < config_.shed_lo_x1000 &&
                       d.degraded_x1000 > config_.degraded_hi_x1000;
  relief_streak_ = relief ? relief_streak_ + 1 : 0;
  recover_streak_ = recover ? recover_streak_ + 1 : 0;

  const auto step = [&](std::int64_t& knob, std::int64_t delta,
                        std::int64_t lo, std::int64_t hi) {
    const std::int64_t want = knob + delta;
    const std::int64_t next = std::clamp(want, lo, hi);
    if (next != want) ++d.clamped;
    if (next != knob) {
      knob = next;
      ++d.adjustments;
    }
  };

  if (relief_streak_ >= config_.hysteresis) {
    step(knobs_.capped_x1000, -config_.trip_step_x1000, c.capped_min_x1000,
         c.capped_max_x1000);
    step(knobs_.degraded_x1000, -config_.trip_step_x1000,
         c.degraded_min_x1000, c.degraded_max_x1000);
    relief_streak_ = 0;  // each applied step re-arms the hysteresis
    d.reason = "relief";
  } else if (recover_streak_ >= config_.hysteresis) {
    step(knobs_.capped_x1000, config_.trip_step_x1000, c.capped_min_x1000,
         c.capped_max_x1000);
    step(knobs_.degraded_x1000, config_.trip_step_x1000,
         c.degraded_min_x1000, c.degraded_max_x1000);
    recover_streak_ = 0;
    d.reason = "recover";
  }
  // The ladder must stay ordered no matter how the clamps interact.
  if (knobs_.degraded_x1000 < knobs_.capped_x1000 + 50) {
    knobs_.degraded_x1000 =
        std::min(c.degraded_max_x1000, knobs_.capped_x1000 + 50);
  }

  bool boosted = false;
  for (const auto& [name, treq] : m.tenant_requests) {
    if (treq < config_.min_requests) {
      starve_streak_[name] = 0;
      calm_streak_[name] = 0;
      continue;
    }
    const auto ov_it = m.tenant_overloaded.find(name);
    const std::int64_t tov =
        ov_it == m.tenant_overloaded.end() ? 0 : ov_it->second;
    const std::int64_t t_shed = tov * 1000 / treq;
    const std::int64_t others_req = m.requests - treq;
    const std::int64_t others_ov = m.overloaded - tov;
    const std::int64_t others_shed =
        others_req > 0 ? others_ov * 1000 / others_req : 0;
    // Starving: this tenant sheds hard while the rest of the system is
    // healthy — its share, not global capacity, is the bottleneck.
    const bool starving = t_shed > config_.shed_hi_x1000 &&
                          others_shed < config_.shed_lo_x1000;
    const bool calm = t_shed < config_.shed_lo_x1000;
    int& starve = starve_streak_[name];
    int& calm_s = calm_streak_[name];
    starve = starving ? starve + 1 : 0;
    calm_s = calm ? calm_s + 1 : 0;
    const auto [it, inserted] = knobs_.boost_x1000.try_emplace(name, 1000);
    if (starve >= config_.hysteresis) {
      const int before = d.adjustments;
      step(it->second, config_.boost_step_x1000, c.boost_min_x1000,
           c.boost_max_x1000);
      starve = 0;
      boosted = boosted || d.adjustments != before;
    } else if (calm_s >= config_.hysteresis && it->second > c.boost_min_x1000) {
      step(it->second, -config_.boost_step_x1000, c.boost_min_x1000,
           c.boost_max_x1000);
      calm_s = 0;
      boosted = true;
    }
    if (it->second <= 1000) knobs_.boost_x1000.erase(it);
  }
  if (boosted && d.reason == "hold") d.reason = "boost";

  adjustments_ += d.adjustments;
  clamped_ += d.clamped;
  d.knobs = knobs_;
  return d;
}

std::string Controller::decision_line(std::int64_t tick_index,
                                      const IntervalMetrics& m,
                                      const Decision& d) {
  std::string line = "tick=" + std::to_string(tick_index);
  line += " req=" + std::to_string(m.requests);
  line += " shed_x1000=" + std::to_string(d.shed_x1000);
  line += " deg_x1000=" + std::to_string(d.degraded_x1000);
  line += " util_x1000=" + std::to_string(d.utility_x1000);
  line += " capped_x1000=" + std::to_string(d.knobs.capped_x1000);
  line += " degraded_x1000=" + std::to_string(d.knobs.degraded_x1000);
  line += " boosts=";
  if (d.knobs.boost_x1000.empty()) {
    line += "-";
  } else {
    bool first = true;
    for (const auto& [name, boost] : d.knobs.boost_x1000) {
      if (!first) line += ",";
      first = false;
      line += name + ":" + std::to_string(boost);
    }
  }
  line += " adj=" + std::to_string(d.adjustments);
  line += " clamped=" + std::to_string(d.clamped);
  line += " reason=" + d.reason;
  return line;
}

// ---------------------------------------------------------------------------
// simulate_trace

namespace {

using Tier = qos::AdmissionController::PressureTier;

/// Per-record precomputation: what a degraded tier would change, and the
/// service time it would take.
struct SimRecord {
  const TraceRecord* rec = nullptr;
  std::string tenant;
  bool parseable = false;
  bool capped_changes = false;    ///< kCapped tier alters the options
  bool degraded_changes = false;  ///< kDegraded tier alters the options
  std::int64_t wall_full_ns = 0;
  std::int64_t wall_capped_ns = 0;
  std::int64_t wall_degraded_ns = 0;
};

struct Admitted {
  std::size_t idx = 0;  ///< index into the SimRecord vector
  std::int64_t arrival_us = 0;
  std::int64_t cost_ms = 0;
  std::int64_t service_us = 1;
  bool degraded = false;
  std::string tenant;
};

}  // namespace

SimResult simulate_trace(const Trace& trace, const SimOptions& options) {
  SimResult out;
  const int compression = options.compression > 0 ? options.compression : 1;
  const std::int64_t capacity_ms =
      static_cast<std::int64_t>(options.queue_capacity) *
      options.default_cost_ms;
  const double total_weight = options.tenants.total_weight();
  const std::int64_t interval_us =
      std::max<std::int64_t>(1, options.control_interval_ms) * 1000;

  // Precompute degradability and per-tier service times per record.
  std::vector<SimRecord> records;
  records.reserve(trace.records.size());
  for (const TraceRecord& rec : trace.records) {
    SimRecord sr;
    sr.rec = &rec;
    sr.tenant = rec.tenant.empty() ? std::string(qos::kPublicTenant)
                                   : rec.tenant;
    Result<CompileRequest> parsed = parse_compile_request(rec.request);
    if (parsed.ok() && !rec.key_hex.empty()) {
      sr.parseable = true;
      CompileOptions capped = parsed.value().options;
      CompileOptions degraded = capped;
      sr.capped_changes = shed_to_tier(capped, Tier::kCapped);
      sr.degraded_changes = shed_to_tier(degraded, Tier::kDegraded);
    }
    sr.wall_full_ns = std::max<std::int64_t>(rec.wall_ns, 1000);
    sr.wall_capped_ns =
        rec.wall_ns_capped > 0 ? rec.wall_ns_capped : sr.wall_full_ns;
    sr.wall_degraded_ns =
        rec.wall_ns_degraded > 0 ? rec.wall_ns_degraded : sr.wall_full_ns;
    records.push_back(sr);
  }

  // Virtual state.
  qos::WeightedFairQueue wfq;
  for (const auto& [name, settings] : options.tenants.tenants()) {
    wfq.add_tenant(name, settings.weight,
                   qos::TokenBucket(settings.rate_ms_per_sec,
                                    settings.burst_ms));
  }
  int free_slots = std::max(1, options.slots);
  using Completion = std::pair<std::int64_t, std::uint64_t>;  // (time, seq)
  std::priority_queue<Completion, std::vector<Completion>,
                      std::greater<Completion>>
      completions;
  std::map<std::uint64_t, Admitted> admitted;
  std::map<std::string, std::int64_t> backlog_ms;
  std::set<std::string> cached;
  CostModel cost_model;
  Controller controller(options.controller);
  Knobs knobs;  // static defaults while the controller is off

  IntervalMetrics win;
  std::vector<std::int64_t> win_latencies;
  std::int64_t next_tick_us = interval_us;
  std::int64_t tick_index = 0;
  std::map<std::string, std::vector<std::int64_t>> tenant_latencies;
  std::vector<std::int64_t> all_latencies;

  const auto share_ms = [&](const std::string& tenant) -> std::int64_t {
    const qos::TenantSettings* settings = options.tenants.find(tenant);
    if (settings == nullptr || total_weight <= 0) return 0;
    std::int64_t share = static_cast<std::int64_t>(
        static_cast<double>(capacity_ms) * settings->weight / total_weight);
    const auto it = knobs.boost_x1000.find(tenant);
    if (it != knobs.boost_x1000.end()) share = share * it->second / 1000;
    return share;
  };

  const auto serve_latency = [&](const std::string& tenant,
                                 std::int64_t us) {
    tenant_latencies[tenant].push_back(us);
    all_latencies.push_back(us);
    win_latencies.push_back(us);
  };

  const auto try_dispatch = [&](std::int64_t now_us) {
    while (free_slots > 0) {
      std::optional<qos::QueueItem> item = wfq.pop(now_us);
      if (!item) break;
      const Admitted& a = admitted.at(item->seq);
      completions.emplace(now_us + a.service_us, item->seq);
      --free_slots;
    }
  };

  const auto complete = [&](std::int64_t now_us, std::uint64_t seq) {
    const auto it = admitted.find(seq);
    const Admitted a = it->second;
    admitted.erase(it);
    ++free_slots;
    backlog_ms[a.tenant] -= a.cost_ms;
    serve_latency(a.tenant, now_us - a.arrival_us);
    const SimRecord& sr = records[a.idx];
    if (!a.degraded) {
      ++out.served_full;
      cached.insert(sr.rec->key_hex);
    }
    // Mirror the server: the model learns the wall time of whatever
    // compile actually ran, degraded tiers included.
    cost_model.record(sr.rec->actors, a.service_us * 1000);
    try_dispatch(now_us);
  };

  const auto flush_interval = [&](std::int64_t end_us) {
    win.p95_us = obs::exact_percentile(win_latencies, 95);
    SimIntervalRow row;
    row.end_ms = end_us / 1000;
    row.requests = win.requests;
    row.overloaded = win.overloaded;
    row.shed_degraded = win.shed_degraded;
    row.cache_hits = win.cache_hits;
    row.p95_us = win.p95_us;
    out.intervals.push_back(row);
  };

  const auto do_tick = [&](std::int64_t tick_us) {
    flush_interval(tick_us);
    if (options.controller_on) {
      const Decision d = controller.tick(win);
      knobs = d.knobs;
      out.decisions.push_back(
          Controller::decision_line(tick_index, win, d));
    }
    ++tick_index;
    win = IntervalMetrics{};
    win_latencies.clear();
    next_tick_us += interval_us;
  };

  // Virtual-time cursor: the time of the last processed event. Only ever
  // advances, which keeps the WeightedFairQueue's bucket refills monotone.
  std::int64_t sim_now = 0;

  // Drains every event at or before `upto_us`, completions first, then
  // controller ticks, then throttle-release retries — a fixed order, so
  // equal-time events replay identically.
  const auto drain_until = [&](std::int64_t upto_us) {
    constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();
    for (;;) {
      const std::int64_t t_completion =
          completions.empty() ? kNever : completions.top().first;
      std::int64_t t_bucket = kNever;
      if (free_slots > 0 && !wfq.empty()) {
        // A throttled head becomes affordable at a known refill instant.
        const std::optional<std::int64_t> ready = wfq.next_ready_us(sim_now);
        if (ready) t_bucket = std::max(*ready, sim_now);
      }
      const std::int64_t t_next =
          std::min({t_completion, next_tick_us, t_bucket});
      if (t_next > upto_us) return;
      sim_now = std::max(sim_now, t_next);
      if (t_next == t_completion) {
        const std::uint64_t seq = completions.top().second;
        completions.pop();
        complete(t_next, seq);
      } else if (t_next == next_tick_us) {
        do_tick(t_next);
      } else {
        const std::size_t before = wfq.size();
        try_dispatch(t_next);
        if (wfq.size() == before) return;  // defensive: no progress
      }
    }
  };

  for (std::size_t i = 0; i < records.size(); ++i) {
    const SimRecord& sr = records[i];
    const std::int64_t arrival_us = sr.rec->tick_us / compression;
    drain_until(arrival_us);

    const std::string& tenant = sr.tenant;
    ++out.requests;
    ++win.requests;
    ++win.tenant_requests[tenant];
    SimTenantTotals& tt = out.tenants[tenant];
    ++tt.requests;
    if (!sr.parseable) continue;  // recorded errors never reach admission
    if (cached.count(sr.rec->key_hex) != 0) {
      ++out.cache_hits;
      ++win.cache_hits;
      ++tt.cache_hits;
      serve_latency(tenant, 0);
      continue;
    }
    const bool use_model = options.controller_on;
    const std::int64_t cost_ms =
        sr.rec->deadline_ms > 0
            ? sr.rec->deadline_ms
            : (use_model ? cost_model.estimate_ms(sr.rec->actors,
                                                  options.default_cost_ms)
                         : options.default_cost_ms);
    const std::int64_t share = share_ms(tenant);
    std::int64_t& backlog = backlog_ms[tenant];
    if (backlog + cost_ms > share) {
      ++out.overloaded;
      ++win.overloaded;
      ++win.tenant_overloaded[tenant];
      ++tt.overloaded;
      continue;
    }
    const std::int64_t after = backlog + cost_ms;
    Tier tier = Tier::kNormal;
    if (share > 0) {
      if (after * 1000 >= share * knobs.degraded_x1000) {
        tier = Tier::kDegraded;
      } else if (after * 1000 >= share * knobs.capped_x1000) {
        tier = Tier::kCapped;
      }
    }
    Admitted a;
    a.idx = i;
    a.arrival_us = arrival_us;
    a.cost_ms = cost_ms;
    a.tenant = tenant;
    std::int64_t wall_ns = sr.wall_full_ns;
    if (tier == Tier::kCapped && sr.capped_changes) {
      a.degraded = true;
      wall_ns = sr.wall_capped_ns;
    } else if (tier == Tier::kDegraded && sr.degraded_changes) {
      a.degraded = true;
      wall_ns = sr.wall_degraded_ns;
    }
    a.service_us = std::max<std::int64_t>(1, wall_ns / 1000);
    if (a.degraded) {
      ++out.shed_degraded;
      ++win.shed_degraded;
      ++tt.shed_degraded;
    }
    backlog += cost_ms;
    const std::uint64_t seq = wfq.push(tenant, cost_ms);
    admitted.emplace(seq, std::move(a));
    try_dispatch(arrival_us);
  }

  // Drain the tail: completions and any throttle-released queue items;
  // controller ticks continue while work remains.
  while (!completions.empty() || !wfq.empty()) {
    std::int64_t horizon = -1;
    if (!completions.empty()) horizon = completions.top().first;
    if (free_slots > 0 && !wfq.empty()) {
      const std::optional<std::int64_t> ready = wfq.next_ready_us(sim_now);
      const std::int64_t t_bucket =
          ready ? std::max(*ready, sim_now) : sim_now;
      horizon = horizon < 0 ? t_bucket : std::min(horizon, t_bucket);
    }
    if (horizon < 0) break;  // defensive: queued work with no slot or event
    const std::size_t queued_before = wfq.size();
    const std::size_t running_before = completions.size();
    drain_until(horizon);
    if (wfq.size() == queued_before && completions.size() == running_before) {
      break;  // defensive: the queue cannot make progress
    }
  }
  if (win.requests > 0 || !win_latencies.empty()) {
    flush_interval(next_tick_us);
    if (options.controller_on) {
      // The trailing partial window still gets a decision line so two
      // replays agree on the complete log, not just its prefix.
      const Decision d = controller.tick(win);
      out.decisions.push_back(Controller::decision_line(tick_index, win, d));
    }
  }

  out.p50_us = obs::exact_percentile(all_latencies, 50);
  out.p95_us = obs::exact_percentile(all_latencies, 95);
  for (auto& [name, totals] : out.tenants) {
    const auto it = tenant_latencies.find(name);
    if (it == tenant_latencies.end()) continue;
    totals.p50_us = obs::exact_percentile(it->second, 50);
    totals.p95_us = obs::exact_percentile(it->second, 95);
  }
  out.final_knobs = knobs;
  return out;
}

}  // namespace sdf::svc::ctl
