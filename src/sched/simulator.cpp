#include "sched/simulator.h"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "pipeline/governor.h"
#include "util/status.h"

namespace sdf {
namespace {

/// Firings between two deadline checks of the installed governor.
constexpr std::int64_t kDeadlineStride = 4096;

/// Periods of at most this many firings (about 0.1 s unoptimised) are
/// always walked to the end, deadline or not.
constexpr std::int64_t kUncheckedFirings = std::int64_t{1} << 22;

/// Shared walker: fires actors in schedule order, calling `on_fire(actor)`
/// after each successful firing. Returns false (with `error`) on underflow.
/// A period longer than kUncheckedFirings checks the thread's governor
/// every kDeadlineStride firings and throws ResourceExhaustedError once its
/// deadline has passed. Shorter periods never check, so a compile that the
/// degradation ladder stepped down to kFlat past its deadline still
/// finishes with a valid result. The check reads the deadline directly:
/// governor_checkpoint() would also fire the injected dp_deadline fault,
/// and the simulation runs after the ladder has settled.
template <typename OnFire>
bool run_schedule(const Graph& g, const Schedule& s,
                  std::vector<std::int64_t>& tokens, std::string& error,
                  OnFire&& on_fire) {
  // total_firings() also throws on a period past INT64_MAX firings.
  const ResourceGovernor* governor = s.total_firings() > kUncheckedFirings
                                         ? ResourceGovernor::current()
                                         : nullptr;
  std::int64_t until_check = kDeadlineStride;
  auto fire = [&](ActorId a) -> bool {
    if (governor != nullptr && --until_check == 0) {
      until_check = kDeadlineStride;
      if (governor->deadline_expired()) {
        throw ResourceExhaustedError(
            "sched.simulate: deadline of " +
            std::to_string(governor->budget().deadline_ms) +
            " ms exceeded (" + std::to_string(governor->elapsed_ms()) +
            " ms elapsed)");
      }
    }
    for (EdgeId eid : g.in_edges(a)) {
      const Edge& e = g.edge(eid);
      if (tokens[static_cast<std::size_t>(eid)] < e.cns) {
        std::ostringstream os;
        os << "actor " << g.actor(a).name << " fired with "
           << tokens[static_cast<std::size_t>(eid)] << " < " << e.cns
           << " tokens on edge " << g.actor(e.src).name << "->"
           << g.actor(e.snk).name;
        error = os.str();
        return false;
      }
    }
    for (EdgeId eid : g.in_edges(a)) {
      tokens[static_cast<std::size_t>(eid)] -= g.edge(eid).cns;
    }
    for (EdgeId eid : g.out_edges(a)) {
      tokens[static_cast<std::size_t>(eid)] += g.edge(eid).prod;
    }
    on_fire(a);
    return true;
  };

  auto walk = [&](auto&& self, const Schedule& node) -> bool {
    for (std::int64_t i = 0; i < node.count(); ++i) {
      if (node.is_leaf()) {
        if (!fire(node.actor())) return false;
      } else {
        for (const Schedule& child : node.body()) {
          if (!self(self, child)) return false;
        }
      }
    }
    return true;
  };
  return walk(walk, s);
}

}  // namespace

SimulationResult simulate(const Graph& g, const Schedule& s) {
  SimulationResult result;
  std::vector<std::int64_t> tokens(g.num_edges());
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    tokens[e] = g.edge(static_cast<EdgeId>(e)).delay;
  }
  result.max_tokens = tokens;

  const bool ok = run_schedule(
      g, s, tokens, result.error, [&](ActorId a) {
        ++result.firings;
        for (EdgeId eid : g.out_edges(a)) {
          auto& peak = result.max_tokens[static_cast<std::size_t>(eid)];
          peak = std::max(peak, tokens[static_cast<std::size_t>(eid)]);
        }
      });

  result.valid = ok;
  result.buffer_memory = std::accumulate(result.max_tokens.begin(),
                                         result.max_tokens.end(),
                                         std::int64_t{0});
  return result;
}

bool is_valid_schedule(const Graph& g, const Repetitions& q,
                       const Schedule& s) {
  if (q.size() != g.num_actors()) return false;
  const Repetitions fired = s.firing_vector(g.num_actors());
  for (std::size_t a = 0; a < q.size(); ++a) {
    if (fired[a] != q[a]) return false;
  }

  std::vector<std::int64_t> tokens(g.num_edges());
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    tokens[e] = g.edge(static_cast<EdgeId>(e)).delay;
  }
  std::string error;
  if (!run_schedule(g, s, tokens, error, [](ActorId) {})) return false;

  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    if (tokens[e] != g.edge(static_cast<EdgeId>(e)).delay) return false;
  }
  return true;
}

TokenTrace trace_tokens(const Graph& g, const Schedule& s,
                        std::size_t firing_limit) {
  TokenTrace trace;
  std::vector<std::int64_t> tokens(g.num_edges());
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    tokens[e] = g.edge(static_cast<EdgeId>(e)).delay;
  }
  trace.counts.push_back(tokens);

  std::string error;
  const auto total = static_cast<std::size_t>(s.total_firings());
  if (total > firing_limit) return trace;  // valid stays false

  trace.valid = run_schedule(g, s, tokens, error, [&](ActorId a) {
    trace.firing_seq.push_back(a);
    trace.counts.push_back(tokens);
  });
  return trace;
}

std::int64_t max_live_tokens(const TokenTrace& trace) {
  std::int64_t peak = 0;
  for (const auto& snapshot : trace.counts) {
    peak = std::max(peak, std::accumulate(snapshot.begin(), snapshot.end(),
                                          std::int64_t{0}));
  }
  return peak;
}

}  // namespace sdf
