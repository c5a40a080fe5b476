#include "lifetime/schedule_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>

#include "test_util.h"
#include "util/status.h"

namespace sdf {
namespace {

using testing::fig2_graph;

TEST(ScheduleTree, PaperTimeBaseExample) {
  // Sec. 8.1: 2(A 3B) takes 4 time steps; first A at time 0, the 3B leaf
  // of the last iteration spans [3, 4).
  Graph g;
  const ActorId a = g.add_actor("A");
  const ActorId b = g.add_actor("B");
  g.add_edge(a, b, 3, 1);
  const Schedule s = Schedule::loop(
      2, {Schedule::leaf(a, 1), Schedule::leaf(b, 3)});
  const ScheduleTree tree(g, s);
  EXPECT_EQ(tree.total_duration(), 4);
  const TreeNode& leaf_a = tree.node(tree.leaf_of(a));
  const TreeNode& leaf_b = tree.node(tree.leaf_of(b));
  EXPECT_EQ(leaf_a.start, 0);
  EXPECT_EQ(leaf_a.dur, 1);
  EXPECT_EQ(leaf_b.start, 1);
  EXPECT_EQ(leaf_b.stop, 2);  // first iteration span
}

TEST(ScheduleTree, DurationsCompose) {
  // ((2 (3B)(5C))(7A)): dur(B)=dur(C)=1, inner loop dur = 2*(1+1)=4,
  // root = 1*(4+1) = 5.
  const Graph g = fig2_graph();
  const Schedule s = parse_schedule(g, "(2 (3B)(5C))(7A)");
  const ScheduleTree tree(g, s);
  EXPECT_EQ(tree.total_duration(), 5);
  EXPECT_EQ(tree.node(tree.root()).loop, 1);
  const TreeNode& root = tree.node(tree.root());
  EXPECT_EQ(tree.node(root.left).dur, 4);
  EXPECT_EQ(tree.node(root.right).dur, 1);
}

TEST(ScheduleTree, StartStopFirstIteration) {
  const Graph g = fig2_graph();
  const Schedule s = parse_schedule(g, "(2 (3B)(5C))(7A)");
  const ScheduleTree tree(g, s);
  const TreeNode& leaf_b = tree.node(tree.leaf_of(1));
  const TreeNode& leaf_c = tree.node(tree.leaf_of(2));
  const TreeNode& leaf_a = tree.node(tree.leaf_of(0));
  EXPECT_EQ(leaf_b.start, 0);
  EXPECT_EQ(leaf_c.start, 1);
  EXPECT_EQ(leaf_a.start, 4);
  EXPECT_EQ(leaf_a.stop, 5);
}

TEST(ScheduleTree, LeafResidualCountsAreOneStep) {
  const Graph g = fig2_graph();
  const Schedule s = parse_schedule(g, "(3A)(6B)(2C)");
  const ScheduleTree tree(g, s);
  EXPECT_EQ(tree.total_duration(), 3);  // three leaves, one step each
}

TEST(ScheduleTree, BinarizationPreservesLeafOrderAndTimes) {
  // A 4-leaf flat sequence binarizes right-leaning; starts must be 0,1,2,3.
  Graph g;
  std::vector<ActorId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(g.add_actor(std::string(1, static_cast<char>('A' + i))));
  }
  for (int i = 0; i + 1 < 4; ++i) g.connect(ids[static_cast<std::size_t>(i)],
                                            ids[static_cast<std::size_t>(i + 1)]);
  const Schedule s = parse_schedule(g, "A B C D");
  const ScheduleTree tree(g, s);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(tree.node(tree.leaf_of(ids[static_cast<std::size_t>(i)])).start,
              i);
  }
}

TEST(ScheduleTree, LeastCommonParent) {
  const Graph g = fig2_graph();
  const Schedule s = parse_schedule(g, "(2 (3B)(5C))(7A)");
  const ScheduleTree tree(g, s);
  const TreeNodeId lb = tree.leaf_of(1);
  const TreeNodeId lc = tree.leaf_of(2);
  const TreeNodeId la = tree.leaf_of(0);
  const TreeNodeId bc = tree.least_common_parent(lb, lc);
  EXPECT_EQ(tree.node(bc).loop, 2);  // the (2 ...) loop
  EXPECT_EQ(tree.least_common_parent(lb, la), tree.root());
  EXPECT_EQ(tree.least_common_parent(lb, lb), lb);
}

TEST(ScheduleTree, AncestorQueries) {
  const Graph g = fig2_graph();
  const Schedule s = parse_schedule(g, "(2 (3B)(5C))(7A)");
  const ScheduleTree tree(g, s);
  const TreeNodeId lb = tree.leaf_of(1);
  EXPECT_TRUE(tree.is_ancestor_or_self(tree.root(), lb));
  EXPECT_TRUE(tree.is_ancestor_or_self(lb, lb));
  EXPECT_FALSE(tree.is_ancestor_or_self(lb, tree.root()));
  EXPECT_FALSE(tree.is_ancestor_or_self(lb, tree.leaf_of(2)));
}

TEST(ScheduleTree, IterationsOfMultipliesAncestorLoops) {
  Graph g;
  const ActorId a = g.add_actor("A");
  const ActorId b = g.add_actor("B");
  g.add_edge(a, b, 1, 1);
  // (3 (2 (A)(B))): iterations of the inner loop node = 6.
  const Schedule s = Schedule::loop(
      3, {Schedule::loop(2, {Schedule::leaf(a), Schedule::leaf(b)})});
  const ScheduleTree tree(g, s);
  const TreeNodeId inner = tree.least_common_parent(tree.leaf_of(a),
                                                    tree.leaf_of(b));
  EXPECT_EQ(tree.iterations_of(inner), 6);
  EXPECT_EQ(tree.iterations_of(tree.leaf_of(a)), 6);
}

TEST(ScheduleTree, SingleChildLoopsMerge) {
  Graph g;
  const ActorId a = g.add_actor("A");
  // (3 (2A)) must collapse to a single 6A leaf.
  const Schedule s = Schedule::loop(3, {Schedule::leaf(a, 2)});
  const ScheduleTree tree(g, s);
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.node(tree.root()).leaf_count, 6);
  EXPECT_EQ(tree.total_duration(), 1);
}

TEST(ScheduleTree, RejectsNonSas) {
  Graph g;
  const ActorId a = g.add_actor("A");
  const ActorId b = g.add_actor("B");
  g.add_edge(a, b, 1, 1);
  const Schedule s = Schedule::sequence(
      {Schedule::leaf(a), Schedule::leaf(b), Schedule::leaf(a)});
  EXPECT_THROW(ScheduleTree(g, s), std::invalid_argument);
}

TEST(ScheduleTree, DepthsAreConsistent) {
  const Graph g = fig2_graph();
  const ScheduleTree tree(g, parse_schedule(g, "(3 (A)(2B))(2C)"));
  for (std::size_t i = 0; i < tree.size(); ++i) {
    const TreeNode& n = tree.node(static_cast<TreeNodeId>(i));
    if (n.parent != kNoTreeNode) {
      EXPECT_EQ(n.depth, tree.node(n.parent).depth + 1);
    } else {
      EXPECT_EQ(n.depth, 0);
    }
    if (!n.is_leaf()) {
      EXPECT_EQ(tree.node(n.left).parent, static_cast<TreeNodeId>(i));
      EXPECT_EQ(tree.node(n.right).parent, static_cast<TreeNodeId>(i));
      EXPECT_EQ(n.dur, n.loop * (tree.node(n.left).dur +
                                 tree.node(n.right).dur));
    }
  }
}

/// Reference ancestor test: walk parent pointers from `v`.
bool ancestor_by_parent_walk(const ScheduleTree& tree, TreeNodeId anc,
                             TreeNodeId v) {
  for (; v != kNoTreeNode; v = tree.node(v).parent) {
    if (v == anc) return true;
  }
  return false;
}

/// Random nested SAS over `actors`: each body splits its range into 2-4
/// contiguous groups; one actor becomes a leaf (count 1-3), more a loop
/// (factor 1-3).
Schedule random_sas(std::mt19937& rng, const std::vector<ActorId>& actors,
                    std::size_t lo, std::size_t hi) {
  auto draw = [&](int a, int b) {
    return std::uniform_int_distribution<int>(a, b)(rng);
  };
  if (hi - lo == 1) return Schedule::leaf(actors[lo], draw(1, 3));
  const auto parts = static_cast<std::size_t>(
      draw(2, static_cast<int>(std::min<std::size_t>(4, hi - lo))));
  std::vector<std::size_t> cuts{lo, hi};
  while (cuts.size() < parts + 1) {
    const auto c = static_cast<std::size_t>(
        draw(static_cast<int>(lo) + 1, static_cast<int>(hi) - 1));
    if (std::find(cuts.begin(), cuts.end(), c) == cuts.end()) {
      cuts.push_back(c);
    }
  }
  std::sort(cuts.begin(), cuts.end());
  std::vector<Schedule> body;
  for (std::size_t p = 0; p + 1 < cuts.size(); ++p) {
    body.push_back(random_sas(rng, actors, cuts[p], cuts[p + 1]));
  }
  return Schedule::loop(draw(1, 3), std::move(body));
}

TEST(ScheduleTree, AncestorTestMatchesParentWalkOnRandomTrees) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 40; ++trial) {
    Graph g;
    const int n = 2 + trial;
    std::vector<ActorId> actors;
    for (int a = 0; a < n; ++a) {
      actors.push_back(g.add_actor("a" + std::to_string(a)));
    }
    std::shuffle(actors.begin(), actors.end(), rng);
    const ScheduleTree tree(
        g, random_sas(rng, actors, 0, static_cast<std::size_t>(n)));
    const auto size = static_cast<TreeNodeId>(tree.size());
    for (TreeNodeId u = 0; u < size; ++u) {
      for (TreeNodeId v = 0; v < size; ++v) {
        ASSERT_EQ(tree.is_ancestor_or_self(u, v),
                  ancestor_by_parent_walk(tree, u, v))
            << "trial " << trial << " u=" << u << " v=" << v;
      }
      // The least common parent of u and a random w is a common ancestor
      // under the reference walk, and neither child of it is one.
      const TreeNodeId w = static_cast<TreeNodeId>(
          std::uniform_int_distribution<int>(0, size - 1)(rng));
      const TreeNodeId lcp = tree.least_common_parent(u, w);
      EXPECT_TRUE(ancestor_by_parent_walk(tree, lcp, u));
      EXPECT_TRUE(ancestor_by_parent_walk(tree, lcp, w));
      const TreeNode& l = tree.node(lcp);
      if (!l.is_leaf()) {
        EXPECT_FALSE(ancestor_by_parent_walk(tree, l.left, u) &&
                     ancestor_by_parent_walk(tree, l.left, w));
        EXPECT_FALSE(ancestor_by_parent_walk(tree, l.right, u) &&
                     ancestor_by_parent_walk(tree, l.right, w));
      }
    }
  }
}

TEST(ScheduleTree, DurationOverflowIsTyped) {
  Graph g;
  const ActorId a = g.add_actor("A");
  const ActorId b = g.add_actor("B");
  const ActorId c = g.add_actor("C");
  // (2^32 (2^32 A B) C): the inner loop lasts 2^33 steps, the outer
  // 2^32 * (2^33 + 1) — past INT64_MAX.
  const std::int64_t big = std::int64_t{1} << 32;
  const Schedule nested = Schedule::loop(
      big, {Schedule::loop(big, {Schedule::leaf(a), Schedule::leaf(b)}),
            Schedule::leaf(c)});
  EXPECT_THROW(ScheduleTree(g, nested), ArithmeticOverflowError);
  // One step short of the limit still builds.
  const Schedule edge = Schedule::loop(
      (std::int64_t{1} << 62) - 1, {Schedule::leaf(a), Schedule::leaf(b)});
  const ScheduleTree tree(g, Schedule::sequence({edge, Schedule::leaf(c)}));
  EXPECT_EQ(tree.total_duration(), std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(tree.iterations_of(tree.leaf_of(a)), (std::int64_t{1} << 62) - 1);
}

}  // namespace
}  // namespace sdf
