// Token-accurate execution of looped schedules.
//
// This is the ground-truth oracle for everything else in the library: it
// verifies that a schedule is valid (never fires an actor without enough
// input tokens, returns every edge to its initial token count), measures
// max_tokens(e, S) for the non-shared buffer metric (EQ 1), and records the
// fine-grained token profile of Fig. 3's "finest granularity" model.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sched/schedule.h"
#include "sdf/graph.h"

namespace sdf {

/// Result of simulating one period of a looped schedule.
struct SimulationResult {
  bool valid = false;
  std::string error;  ///< set when !valid (first violation found)

  /// max_tokens(e, S): peak token count per edge over the period,
  /// including initial delays. Indexed by EdgeId.
  std::vector<std::int64_t> max_tokens;

  /// Sum of max_tokens over all edges — bufmem(S) under the non-shared
  /// model (EQ 1).
  std::int64_t buffer_memory = 0;

  /// Number of firings executed.
  std::int64_t firings = 0;
};

/// Simulates one period. Always runs to the end of the schedule or the
/// first violation. Cost: O(total firings * average degree). Throws
/// ArithmeticOverflowError when the firing count overflows int64, and
/// ResourceExhaustedError when a period of more than 2^22 firings outruns
/// the installed governor's deadline (shorter periods always finish).
[[nodiscard]] SimulationResult simulate(const Graph& g, const Schedule& s);

/// True iff `s` is a valid schedule: simulation succeeds, every actor fires
/// exactly q(a) times (one period), and all edges return to del(e) tokens
/// (the last condition is implied by firing counts for consistent graphs,
/// but is checked independently as a defense-in-depth invariant).
[[nodiscard]] bool is_valid_schedule(const Graph& g, const Repetitions& q,
                                     const Schedule& s);

/// Fine-grained liveness trace: tokens[e][t] = token count of edge e after
/// firing t (t = 0 is the initial state). Memory O(|E| * firings); for
/// tests and the coarse-vs-fine model study only.
struct TokenTrace {
  bool valid = false;
  std::vector<ActorId> firing_seq;
  /// counts[t][e]: token count on edge e after the first t firings.
  std::vector<std::vector<std::int64_t>> counts;
};

[[nodiscard]] TokenTrace trace_tokens(const Graph& g, const Schedule& s,
                                      std::size_t firing_limit = 1u << 20);

/// Peak of the *sum* of live tokens over the trace — the fine-grained
/// model's lower bound on shared memory (Sec. 5, finest granularity).
[[nodiscard]] std::int64_t max_live_tokens(const TokenTrace& trace);

}  // namespace sdf
