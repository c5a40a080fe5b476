#include "pipeline/compile.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "alloc/clique.h"
#include "alloc/pool_checker.h"
#include "graphs/cddat.h"
#include "graphs/filterbank.h"
#include "graphs/homogeneous.h"
#include "graphs/ptolemy.h"
#include "graphs/satellite.h"
#include "pipeline/governor.h"
#include "sched/simulator.h"
#include "sdf/analysis.h"
#include "sdf/io.h"

namespace sdf {
namespace {

class PipelineOnGraph : public ::testing::TestWithParam<int> {
 public:
  static Graph graph_for(int index) {
    switch (index) {
      case 0: return cd_to_dat();
      case 1: return satellite_receiver();
      case 2: return qmf12(2);
      case 3: return qmf23(2);
      case 4: return qmf235(2);
      case 5: return nqmf23(3);
      case 6: return modem_16qam();
      case 7: return pam4_xmitrec();
      case 8: return block_vox();
      case 9: return overlap_add_fft();
      case 10: return phased_array();
      case 11: return homogeneous_mesh(4, 4);
      default: return qmf12(3);
    }
  }
};

TEST_P(PipelineOnGraph, EveryConfigurationProducesValidResults) {
  const Graph g = graph_for(GetParam());
  const Repetitions q = repetitions_vector(g);
  for (const OrderHeuristic order :
       {OrderHeuristic::kApgan, OrderHeuristic::kRpmc,
        OrderHeuristic::kTopological}) {
    for (const LoopOptimizer optimizer :
         {LoopOptimizer::kDppo, LoopOptimizer::kSdppo,
          LoopOptimizer::kFlat}) {
      CompileOptions options;
      options.order = order;
      options.optimizer = optimizer;
      const CompileResult res = compile(g, options);
      EXPECT_TRUE(is_valid_schedule(g, q, res.schedule)) << g.name();
      EXPECT_TRUE(res.schedule.is_single_appearance(g.num_actors()));
      EXPECT_TRUE(allocation_is_valid(res.wig, res.allocation)) << g.name();
      EXPECT_EQ(res.shared_size, res.allocation.total_size);
      EXPECT_LE(res.mcw_optimistic, res.mcw_pessimistic) << g.name();
      EXPECT_LE(res.mcw_optimistic, res.shared_size) << g.name();
      EXPECT_GE(res.nonshared_bufmem, res.bmlb) << g.name();
    }
  }
}

TEST_P(PipelineOnGraph, SharedNeverBeatenByNonShared) {
  // First-fit over overlapping lifetimes can never exceed the non-shared
  // sum (placing everything disjointly is always feasible), and in
  // practice lands well below.
  const Graph g = graph_for(GetParam());
  const CompileResult res = compile(g);
  std::int64_t width_sum = 0;
  for (const BufferLifetime& b : res.lifetimes) width_sum += b.width;
  EXPECT_LE(res.shared_size, width_sum);
}

INSTANTIATE_TEST_SUITE_P(PracticalSystems, PipelineOnGraph,
                         ::testing::Range(0, 12));

TEST(Pipeline, Table1RowColumnsAreCoherent) {
  const Graph g = satellite_receiver();
  const Table1Row row = table1_row(g);
  EXPECT_EQ(row.system, "satrec");
  EXPECT_GT(row.dppo_r, 0);
  EXPECT_GT(row.dppo_a, 0);
  EXPECT_LE(row.bmlb, row.best_nonshared());
  EXPECT_LE(row.best_shared(),
            std::min({row.ffdur_r, row.ffstart_r, row.ffdur_a,
                      row.ffstart_a}));
  EXPECT_LE(row.mco_r, row.mcp_r);
  EXPECT_LE(row.mco_a, row.mcp_a);
  EXPECT_GT(row.improvement_percent(), 0.0);
}

TEST(Pipeline, SharedBeatsNonSharedOnPracticalSystems) {
  // The paper's headline: substantial shared-memory reduction on every
  // practical system (Table 1 improvements range 27-83%).
  for (const Graph& g :
       {satellite_receiver(), qmf12(3), qmf23(2), nqmf23(4)}) {
    const Table1Row row = table1_row(g);
    EXPECT_LT(row.best_shared(), row.best_nonshared()) << g.name();
    EXPECT_GT(row.improvement_percent(), 20.0) << g.name();
  }
}

TEST(Pipeline, HomogeneousMeshMatchesPaperFormulas) {
  // The paper's "complete suite" takes the best of the first-fit
  // enumeration orders; ffdur alone can be one location above M+1 on odd
  // chain lengths.
  for (int m : {2, 3, 5}) {
    for (int n : {2, 3, 6}) {
      const Graph g = homogeneous_mesh(m, n);
      CompileOptions options;
      options.order = OrderHeuristic::kTopological;
      const CompileResult res = compile(g, options);
      EXPECT_EQ(res.nonshared_bufmem, homogeneous_mesh_nonshared(m, n));
      const std::int64_t ffstart =
          first_fit(res.wig, res.lifetimes, FirstFitOrder::kByStartTime)
              .total_size;
      EXPECT_EQ(std::min(res.shared_size, ffstart),
                homogeneous_mesh_shared(m))
          << "M=" << m << " N=" << n;
    }
  }
}

TEST(Pipeline, CompileWithOrderRespectsCustomOrder) {
  const Graph g = cd_to_dat();
  const auto order = *topological_sort(g);
  const CompileResult res = compile_with_order(g, order);
  EXPECT_EQ(res.lexorder, order);
}

TEST(Pipeline, CompileRejectsCyclicGraphs) {
  Graph g;
  const ActorId a = g.add_actor("A");
  const ActorId b = g.add_actor("B");
  g.connect(a, b);
  g.connect(b, a);
  EXPECT_THROW(compile(g), std::invalid_argument);
}

TEST(Pipeline, CompileRejectsInconsistentGraphs) {
  Graph g;
  const ActorId a = g.add_actor("A");
  const ActorId b = g.add_actor("B");
  const ActorId c = g.add_actor("C");
  g.add_edge(a, b, 1, 1);
  g.add_edge(b, c, 2, 1);
  g.add_edge(a, c, 1, 1);
  EXPECT_THROW(compile(g), std::runtime_error);
}

TEST(Pipeline, ChainExactOptimizerUsedOnChains) {
  const Graph g = cd_to_dat();
  const Repetitions q = repetitions_vector(g);
  CompileOptions opts;
  opts.optimizer = LoopOptimizer::kChainExact;
  const CompileResult exact = compile(g, opts);
  EXPECT_TRUE(is_valid_schedule(g, q, exact.schedule));
  opts.optimizer = LoopOptimizer::kSdppo;
  const CompileResult heuristic = compile(g, opts);
  // The Sec. 6 DP's estimate can only improve on EQ 5.
  EXPECT_LE(exact.dp_estimate, heuristic.dp_estimate);
  EXPECT_TRUE(allocation_is_valid(exact.wig, exact.allocation));
}

TEST(Pipeline, ChainExactFallsBackOffChain) {
  const Graph g = satellite_receiver();
  CompileOptions opts;
  opts.optimizer = LoopOptimizer::kChainExact;
  const CompileResult res = compile(g, opts);
  EXPECT_TRUE(allocation_is_valid(res.wig, res.allocation));
  EXPECT_GT(res.dp_estimate, 0);
}

TEST(Pipeline, BlockingFactorScalesPeriod) {
  const Graph g = cd_to_dat();
  CompileOptions opts;
  const CompileResult base = compile(g, opts);
  for (const std::int64_t j : {2, 4}) {
    opts.blocking_factor = j;
    const CompileResult blocked = compile(g, opts);
    // J periods per schedule iteration.
    EXPECT_EQ(blocked.schedule.total_firings(),
              base.schedule.total_firings() * j);
    EXPECT_TRUE(allocation_is_valid(blocked.wig, blocked.allocation));
    // Memory can only grow with blocking.
    EXPECT_GE(blocked.shared_size, base.shared_size);
    EXPECT_GE(blocked.nonshared_bufmem, base.nonshared_bufmem);
  }
  opts.blocking_factor = 0;
  EXPECT_THROW(compile(g, opts), std::invalid_argument);
}

TEST(Pipeline, BlockedAllocationSurvivesPoolExecution) {
  const Graph g = qmf23(2);
  CompileOptions opts;
  opts.blocking_factor = 3;
  const CompileResult res = compile(g, opts);
  const PoolCheckResult check = check_allocation_by_execution(
      g, res.schedule, res.lifetimes, res.allocation);
  EXPECT_TRUE(check.ok) << check.error;
}

TEST(Pipeline, AllocationOrderOptionChangesEnumeration) {
  const Graph g = satellite_receiver();
  CompileOptions dur;
  dur.allocation_order = FirstFitOrder::kByDuration;
  CompileOptions start;
  start.allocation_order = FirstFitOrder::kByStartTime;
  const CompileResult rd = compile(g, dur);
  const CompileResult rs = compile(g, start);
  EXPECT_TRUE(allocation_is_valid(rd.wig, rd.allocation));
  EXPECT_TRUE(allocation_is_valid(rs.wig, rs.allocation));
}

// A 5-actor graph whose period is ~1e13 firings. Ordering, the loop DP
// and allocation each finish in well under a millisecond; only the
// simulator's own deadline check can bound a budgeted compile of it.
TEST(Pipeline, DeadlineBoundsTheSimulationOfAHugePeriod) {
  const Graph g = parse_graph_text(
      "graph unnamed\n"
      "actor a0\nactor a1\nactor a2\nactor a3\nactor a4\n"
      "edge a0 a1 56423 217\n"
      "edge a0 a2 29 11\n"
      "edge a1 a3 3253 6562\n"
      "edge a2 a4 9477 87562 541376\n");
  for (const LoopOptimizer opt :
       {LoopOptimizer::kFlat, LoopOptimizer::kDppo, LoopOptimizer::kSdppo,
        LoopOptimizer::kChainExact}) {
    SCOPED_TRACE(std::string(optimizer_name(opt)));
    CompileOptions opts;
    opts.optimizer = opt;
    ResourceBudget budget;
    budget.deadline_ms = 200;
    ResourceGovernor governor(budget);
    const ResourceGovernor::Scope scope(governor);
    const auto t0 = std::chrono::steady_clock::now();
    const Result<CompileResult> res = compile_checked(g, opts);
    const auto elapsed_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0)
            .count();
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error().code, ErrorCode::kResourceExhausted);
    EXPECT_LT(elapsed_ms, 5000);
  }
}

// A deadline that has already passed degrades every DP rung to kFlat; the
// simulator then walks qmf235(5)'s 50000 firings (more than one 4096-firing
// check stride, fewer than the 2^22 that it bounds) and the compile still
// ends valid instead of failing.
TEST(Pipeline, DeadlineDegradedCompileOfALongPeriodStillFinishes) {
  const Graph g = qmf235(5);
  for (const LoopOptimizer opt :
       {LoopOptimizer::kDppo, LoopOptimizer::kSdppo,
        LoopOptimizer::kChainExact}) {
    SCOPED_TRACE(std::string(optimizer_name(opt)));
    CompileOptions opts;
    opts.optimizer = opt;
    ResourceBudget budget;
    budget.deadline_ms = 1;
    ResourceGovernor governor(budget);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_TRUE(governor.deadline_expired());
    const ResourceGovernor::Scope scope(governor);
    const Result<CompileResult> res = compile_checked(g, opts);
    ASSERT_TRUE(res.ok()) << res.error().message;
    const CompileResult& r = res.value();
    EXPECT_EQ(r.effective_optimizer, LoopOptimizer::kFlat);
    EXPECT_FALSE(r.degraded_from.empty());
    EXPECT_EQ(r.schedule.total_firings(), 50000);
    EXPECT_GT(r.nonshared_bufmem, 0);
    EXPECT_TRUE(allocation_is_valid(r.wig, r.allocation));
  }
}

}  // namespace
}  // namespace sdf
