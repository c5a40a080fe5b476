#include "alloc/intersection_graph.h"

#include <gtest/gtest.h>

#include <random>

#include "graphs/cddat.h"
#include "graphs/filterbank.h"
#include "graphs/random_sdf.h"
#include "graphs/satellite.h"
#include "pipeline/compile.h"
#include "sched/apgan.h"
#include "sched/sdppo.h"
#include "sdf/analysis.h"
#include "test_util.h"

namespace sdf {
namespace {

std::pair<IntersectionGraph, std::vector<BufferLifetime>> wig_for(
    const Graph& g, const Schedule& s) {
  const Repetitions q = repetitions_vector(g);
  const ScheduleTree tree(g, s);
  auto lifetimes = extract_lifetimes(g, q, tree);
  auto wig = build_intersection_graph(tree, lifetimes);
  return {std::move(wig), std::move(lifetimes)};
}

TEST(IntersectionGraph, FlatFig2AllOverlap) {
  const Graph g = testing::fig2_graph();
  const auto [wig, lifetimes] =
      wig_for(g, parse_schedule(g, "(3A)(6B)(2C)"));
  ASSERT_EQ(wig.size(), 2u);
  EXPECT_TRUE(wig.adjacent(0, 1));
  EXPECT_TRUE(wig.adjacent(1, 0));
  EXPECT_EQ(wig.weights, (std::vector<std::int64_t>{30, 30}));
}

TEST(IntersectionGraph, AdjacencyIsSymmetricAndIrreflexive) {
  const Graph g = satellite_receiver();
  const Repetitions q = repetitions_vector(g);
  const ApganResult a = apgan(g, q);
  const ScheduleTree tree(g, a.schedule);
  const auto lifetimes = extract_lifetimes(g, q, tree);
  const IntersectionGraph wig = build_intersection_graph(tree, lifetimes);
  for (std::size_t i = 0; i < wig.size(); ++i) {
    for (std::int32_t j : wig.adjacency[i]) {
      EXPECT_NE(static_cast<std::size_t>(j), i);
      EXPECT_TRUE(wig.adjacent(j, static_cast<std::int32_t>(i)));
    }
  }
}

TEST(IntersectionGraph, TreeAwareMatchesGenericOnPracticalGraphs) {
  for (const Graph& g : {cd_to_dat(), satellite_receiver()}) {
    const Repetitions q = repetitions_vector(g);
    const SdppoResult opt = sdppo(g, q, apgan(g, q).lexorder);
    const ScheduleTree tree(g, opt.schedule);
    const auto lifetimes = extract_lifetimes(g, q, tree);
    const IntersectionGraph fast = build_intersection_graph(tree, lifetimes);
    const IntersectionGraph slow = build_intersection_graph_generic(lifetimes);
    EXPECT_EQ(fast.adjacency, slow.adjacency) << g.name();
  }
}

TEST(IntersectionGraph, TreeAwareMatchesGenericAtScale) {
  // Deep right-leaning trees: a 188-actor filterbank and a seeded
  // 250-actor random graph, each under its compiled schedule.
  std::vector<Graph> graphs;
  graphs.push_back(qmf12(5));
  RandomSdfOptions options;
  options.num_actors = 250;
  std::mt19937 rng(250);
  graphs.push_back(random_sdf_graph(options, rng));
  for (const Graph& g : graphs) {
    const CompileResult r = compile(g);
    const ScheduleTree tree(g, r.schedule);
    const IntersectionGraph fast = build_intersection_graph(tree, r.lifetimes);
    const IntersectionGraph slow =
        build_intersection_graph_generic(r.lifetimes);
    ASSERT_GT(fast.size(), 200u) << g.name();
    EXPECT_EQ(fast.adjacency, slow.adjacency) << g.name();
    EXPECT_EQ(fast.adjacency, r.wig.adjacency) << g.name();
  }
}

TEST(IntersectionGraph, DisjointChainsShareNothing) {
  Graph g;
  const ActorId a = g.add_actor("A");
  const ActorId b = g.add_actor("B");
  const ActorId c = g.add_actor("C");
  const ActorId d = g.add_actor("D");
  g.add_edge(a, b, 1, 1);
  g.add_edge(c, d, 1, 1);
  const Schedule s = parse_schedule(g, "A B C D");
  const auto [wig, lifetimes] = wig_for(g, s);
  EXPECT_TRUE(wig.adjacency[0].empty());
  EXPECT_TRUE(wig.adjacency[1].empty());
}

TEST(IntersectionGraph, DelayBufferConflictsWithEverything) {
  Graph g;
  const ActorId a = g.add_actor("A");
  const ActorId b = g.add_actor("B");
  const ActorId c = g.add_actor("C");
  g.add_edge(a, b, 1, 1, 1);  // delayed: whole-period lifetime
  g.add_edge(b, c, 1, 1);
  const auto [wig, lifetimes] = wig_for(g, parse_schedule(g, "A B C"));
  EXPECT_TRUE(wig.adjacent(0, 1));
}

}  // namespace
}  // namespace sdf
