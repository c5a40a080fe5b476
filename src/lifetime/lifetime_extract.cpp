#include "lifetime/lifetime_extract.h"

#include <stdexcept>

namespace sdf {
namespace {

/// Earliest stop time of the buffer (u,v): end of the last firing of v
/// within one body iteration of the least common parent (Fig. 16, with the
/// missing loop advance `tmp <- parent(tmp)` restored).
std::int64_t interval_stop(const ScheduleTree& tree, TreeNodeId lca,
                           TreeNodeId leaf_v) {
  const TreeNodeId lca_right = tree.node(lca).right;
  std::int64_t stop = tree.node(lca_right).stop;
  TreeNodeId tmp = leaf_v;
  while (tmp != lca_right) {
    const TreeNodeId p = tree.node(tmp).parent;
    if (p == kNoTreeNode) {
      throw std::logic_error("interval_stop: walked past the least parent");
    }
    if (tree.node(p).left == tmp) {
      stop -= tree.node(tree.node(p).right).dur;
    }
    tmp = p;
  }
  return stop;
}

}  // namespace

std::vector<BufferLifetime> extract_lifetimes(const Graph& g,
                                              const Repetitions& q,
                                              const ScheduleTree& tree) {
  std::vector<BufferLifetime> lifetimes;
  lifetimes.reserve(g.num_edges());
  const std::int64_t period = tree.total_duration();

  for (std::size_t eid = 0; eid < g.num_edges(); ++eid) {
    const Edge& e = g.edge(static_cast<EdgeId>(eid));
    BufferLifetime b;
    b.edge = static_cast<EdgeId>(eid);

    if (e.src == e.snk) {
      // Self-loop: actor-internal state, live across the whole period.
      if (e.delay <= 0) {
        throw std::invalid_argument(
            "extract_lifetimes: delayless self-loop deadlocks");
      }
      b.width = e.delay;
      b.interval = PeriodicInterval::solid(0, period);
      b.lca = kNoTreeNode;
      lifetimes.push_back(std::move(b));
      continue;
    }

    const TreeNodeId leaf_u = tree.leaf_of(e.src);
    const TreeNodeId leaf_v = tree.leaf_of(e.snk);
    if (leaf_u == kNoTreeNode || leaf_v == kNoTreeNode) {
      throw std::invalid_argument(
          "extract_lifetimes: schedule does not cover edge endpoints");
    }
    const TreeNodeId lca = tree.least_common_parent(leaf_u, leaf_v);
    const std::int64_t lca_iterations = tree.iterations_of(lca);
    const std::int64_t total = tnse(g, q, static_cast<EdgeId>(eid));
    if (total % lca_iterations != 0) {
      throw std::logic_error(
          "extract_lifetimes: TNSE not divisible by loop iterations "
          "(schedule fires src a non-multiple count per iteration)");
    }

    if (e.delay > 0) {
      // Conservative model for initial tokens (Sec. 5): live right from
      // the beginning and kept for the whole period.
      b.width = total / lca_iterations + e.delay;
      b.interval = PeriodicInterval::solid(0, period);
      b.lca = kNoTreeNode;
      lifetimes.push_back(std::move(b));
      continue;
    }

    // Delayless edge: src must precede snk under the least parent.
    if (!tree.is_ancestor_or_self(tree.node(lca).left, leaf_u) ||
        !tree.is_ancestor_or_self(tree.node(lca).right, leaf_v)) {
      throw std::invalid_argument(
          "extract_lifetimes: schedule is not topological for edge " +
          g.actor(e.src).name + "->" + g.actor(e.snk).name);
    }

    const std::int64_t start = tree.node(leaf_u).start;
    const std::int64_t stop = interval_stop(tree, lca, leaf_v);
    if (stop <= start) {
      throw std::logic_error("extract_lifetimes: non-positive lifetime");
    }

    // Periodicity: every enclosing loop of the least parent (inclusive)
    // with a loop factor > 1 contributes one mixed-radix component.
    std::vector<std::int64_t> periods;
    std::vector<std::int64_t> counts;
    for (TreeNodeId w = lca; w != kNoTreeNode; w = tree.node(w).parent) {
      const TreeNode& node = tree.node(w);
      if (node.loop > 1) {
        periods.push_back(node.dur / node.loop);
        counts.push_back(node.loop);
      }
    }

    b.width = total / lca_iterations;
    b.interval = PeriodicInterval(start, stop - start, std::move(periods),
                                  std::move(counts));
    b.lca = lca;
    lifetimes.push_back(std::move(b));
  }
  return lifetimes;
}

bool lifetimes_overlap(const ScheduleTree& tree, const BufferLifetime& a,
                       const BufferLifetime& b) {
  if (a.lca == kNoTreeNode || b.lca == kNoTreeNode) {
    // Whole-period lifetimes overlap everything.
    return true;
  }
  const BufferLifetime* hi = nullptr;  // buffer whose lca is the ancestor
  const BufferLifetime* lo = nullptr;
  if (tree.is_ancestor_or_self(a.lca, b.lca)) {
    hi = &a;
    lo = &b;
  } else if (tree.is_ancestor_or_self(b.lca, a.lca)) {
    hi = &b;
    lo = &a;
  } else {
    return false;  // disjoint subtrees execute at disjoint times
  }
  // Translation symmetry across the loops enclosing hi->lca: comparing
  // against hi's first burst [s, s+d) decides for all bursts. A burst of
  // lo meets it iff that burst starts in (s - dur(lo), s + d), so one
  // greedy decomposition settles the pair.
  const std::int64_t s = hi->interval.first_start();
  const auto next = lo->interval.next_start_at_or_after(
      s - lo->interval.burst_duration() + 1);
  return next.has_value() && *next < s + hi->interval.burst_duration();
}

}  // namespace sdf
