#include "staged.h"

#include <numeric>
#include <optional>
#include <stdexcept>
#include <vector>

#include "alloc/clique.h"
#include "alloc/first_fit.h"
#include "alloc/intersection_graph.h"
#include "alloc/pool_checker.h"
#include "lifetime/lifetime_extract.h"
#include "lifetime/schedule_tree.h"
#include "sched/bounds.h"
#include "sched/rpmc.h"
#include "sched/sdppo.h"
#include "sched/simulator.h"
#include "sdf/io.h"
#include "sdf/repetitions.h"
#include "spans.h"
#include "util/arena.h"

namespace perfbench {

StagedResult staged_compile(std::string_view graph_text,
                            std::int64_t request) {
  using namespace sdf;
  StagedResult out;
  Graph g;
  {
    const Span s("sdf.parse", request);
    g = parse_graph_text(graph_text);
  }
  Repetitions q;
  {
    const Span s("sdf.repetitions", request);
    q = repetitions_vector(g);
  }
  std::vector<ActorId> order;
  {
    const Span s("sched.order", request);
    order = rpmc(g, q).lexorder;
  }
  Schedule schedule;
  {
    const Span s("sched.loop_dp", request);
    util::Arena arena("perfbench.dp");
    schedule = sdppo(g, q, order, &arena).schedule;
  }
  {
    const Span s("sched.simulate", request);
    if (!simulate(g, schedule).valid) {
      throw std::runtime_error("staged compile: invalid schedule");
    }
  }
  std::vector<BufferLifetime> lifetimes;
  std::optional<ScheduleTree> tree;
  {
    const Span s("lifetime.extract", request);
    tree.emplace(g, schedule);
    lifetimes = extract_lifetimes(g, q, *tree);
  }
  IntersectionGraph wig;
  {
    const Span s("alloc.wig", request);
    wig = build_intersection_graph(*tree, lifetimes);
  }
  Allocation alloc;
  {
    const Span s("alloc.first_fit", request);
    alloc = first_fit(wig, lifetimes, FirstFitOrder::kByDuration);
  }
  {
    const Span s("alloc.bounds", request);
    out.mcw_optimistic = mcw_optimistic(lifetimes);
    out.mcw_pessimistic = mcw_pessimistic(lifetimes);
    out.bmlb = bmlb(g);
  }
  out.shared_size = alloc.total_size;
  {
    const Span s("alloc.pool_check", request);
    out.pool_ok =
        check_allocation_by_execution(g, schedule, lifetimes, alloc).ok;
  }
  out.actors = static_cast<std::int64_t>(g.num_actors());
  out.firings = std::accumulate(q.begin(), q.end(), std::int64_t{0});
  out.buffers = static_cast<std::int64_t>(lifetimes.size());
  for (const auto& adj : wig.adjacency) {
    out.wig_edges += static_cast<std::int64_t>(adj.size());
  }
  out.wig_edges /= 2;
  return out;
}

}  // namespace perfbench
