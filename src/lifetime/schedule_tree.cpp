#include "lifetime/schedule_tree.h"

#include <stdexcept>

#include "util/status.h"

namespace sdf {

ScheduleTree::ScheduleTree(const Graph& g, const Schedule& s) {
  if (!s.is_single_appearance(g.num_actors())) {
    throw std::invalid_argument(
        "ScheduleTree: schedule is not single-appearance");
  }
  leaf_of_.assign(g.num_actors(), kNoTreeNode);
  root_ = build(g, s, kNoTreeNode, 0);
  compute_times();
}

TreeNodeId ScheduleTree::build(const Graph& g, const Schedule& s,
                               TreeNodeId parent, std::int32_t depth) {
  const auto id = static_cast<TreeNodeId>(nodes_.size());
  nodes_.emplace_back();
  nodes_[static_cast<std::size_t>(id)].parent = parent;
  nodes_[static_cast<std::size_t>(id)].depth = depth;

  if (s.is_leaf()) {
    auto& n = nodes_[static_cast<std::size_t>(id)];
    n.actor = s.actor();
    n.leaf_count = s.count();
    n.loop = 1;
    leaf_of_[static_cast<std::size_t>(s.actor())] = id;
    return id;
  }

  nodes_[static_cast<std::size_t>(id)].loop = s.count();
  const auto& body = s.body();
  if (body.size() == 1) {
    // Degenerate single-child loop: treat as (count child)(implicit);
    // binarize by splicing the child up with merged loop factor. To keep
    // node semantics simple we instead wrap: loop node whose left child is
    // the body and whose right child is absent is not representable, so
    // merge counts directly.
    Schedule merged = body.front();
    if (merged.is_leaf()) {
      auto& n = nodes_[static_cast<std::size_t>(id)];
      n.actor = merged.actor();
      n.leaf_count = merged.count() * s.count();
      n.loop = 1;
      leaf_of_[static_cast<std::size_t>(merged.actor())] = id;
      return id;
    }
    merged.set_count(merged.count() * s.count());
    nodes_.pop_back();
    return build(g, merged, parent, depth);
  }

  // Right-leaning binarization of bodies with > 2 children.
  const TreeNodeId left = build(g, body.front(), id, depth + 1);
  TreeNodeId right;
  if (body.size() == 2) {
    right = build(g, body[1], id, depth + 1);
  } else {
    Schedule rest = Schedule::sequence(
        std::vector<Schedule>(body.begin() + 1, body.end()));
    right = build(g, rest, id, depth + 1);
  }
  auto& n = nodes_[static_cast<std::size_t>(id)];
  n.left = left;
  n.right = right;
  return id;
}

void ScheduleTree::compute_times() {
  // Bottom-up durations and subtree id ranges (children are created after
  // parents, so reverse index order is a valid post-order).
  for (std::size_t i = nodes_.size(); i-- > 0;) {
    TreeNode& n = nodes_[i];
    n.last = static_cast<TreeNodeId>(i);
    if (n.is_leaf()) continue;  // dur(leaf) = 1
    const TreeNode& r = nodes_[static_cast<std::size_t>(n.right)];
    n.last = r.last;
    if (__builtin_add_overflow(nodes_[static_cast<std::size_t>(n.left)].dur,
                               r.dur, &n.dur) ||
        __builtin_mul_overflow(n.loop, n.dur, &n.dur)) {
      throw ArithmeticOverflowError("ScheduleTree: duration overflow");
    }
  }
  // Top-down starts (parents precede children in index order).
  for (TreeNode& n : nodes_) {
    if (__builtin_add_overflow(n.start, n.dur, &n.stop)) {
      throw ArithmeticOverflowError("ScheduleTree: stop time overflow");
    }
    if (n.is_leaf()) continue;
    auto& l = nodes_[static_cast<std::size_t>(n.left)];
    auto& r = nodes_[static_cast<std::size_t>(n.right)];
    l.start = n.start;
    if (__builtin_add_overflow(n.start, l.dur, &r.start)) {
      throw ArithmeticOverflowError("ScheduleTree: start time overflow");
    }
  }
}

TreeNodeId ScheduleTree::least_common_parent(TreeNodeId a,
                                             TreeNodeId b) const {
  while (!is_ancestor_or_self(a, b)) {
    a = nodes_[static_cast<std::size_t>(a)].parent;
  }
  return a;
}

std::int64_t ScheduleTree::iterations_of(TreeNodeId v) const {
  std::int64_t product = 1;
  for (; v != kNoTreeNode; v = nodes_[static_cast<std::size_t>(v)].parent) {
    if (__builtin_mul_overflow(product,
                               nodes_[static_cast<std::size_t>(v)].loop,
                               &product)) {
      throw ArithmeticOverflowError("ScheduleTree: iteration count overflow");
    }
  }
  return product;
}

}  // namespace sdf
