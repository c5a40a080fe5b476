// The Fig. 21 pipeline replayed stage by stage through the library's
// public functions, with a span around each stage. It makes the same
// calls compile() makes with default CompileOptions (rpmc + sdppo +
// ffdur), so its stage times split a compile() of the same graph.
#pragma once

#include <cstdint>
#include <string_view>

namespace perfbench {

struct StagedResult {
  std::int64_t shared_size = 0;
  std::int64_t mcw_optimistic = 0;
  std::int64_t mcw_pessimistic = 0;
  std::int64_t bmlb = 0;
  std::int64_t actors = 0;
  std::int64_t firings = 0;  ///< sum of the repetitions vector
  std::int64_t buffers = 0;
  std::int64_t wig_edges = 0;
  bool pool_ok = false;
};

/// Parses `graph_text` and runs every stage, each under a span named
/// after its layer (sdf.parse, sdf.repetitions, sched.order,
/// sched.loop_dp, sched.simulate, lifetime.extract, alloc.wig,
/// alloc.first_fit, alloc.bounds, alloc.pool_check). Throws what the
/// stages throw.
StagedResult staged_compile(std::string_view graph_text, std::int64_t request);

/// The stage span names, in pipeline order.
inline constexpr const char* kStageNames[] = {
    "sdf.parse",        "sdf.repetitions", "sched.order",
    "sched.loop_dp",    "sched.simulate",  "lifetime.extract",
    "alloc.wig",        "alloc.first_fit", "alloc.bounds",
    "alloc.pool_check"};

}  // namespace perfbench
