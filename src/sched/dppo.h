// Dynamic Programming Post Optimization under the non-shared buffer model
// (Sec. 4, EQ 2-4; [3][19]).
//
// Given a lexical order (A_1..A_n), computes the order-optimal loop
// hierarchy: minimize the sum over edges of max_tokens under the "one
// buffer per edge" metric. O(n^2) table, O(n^3) time, O(1) split cost via
// 2D prefix sums over edge weights. The tables live in a bump arena
// (util/arena.h) as flat structure-of-arrays triangles; results are
// byte-identical to the original container-based implementation (pinned
// by tests/test_dp_differential.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "sched/dp_tables.h"
#include "sched/sas.h"
#include "sdf/graph.h"
#include "sdf/repetitions.h"
#include "util/arena.h"

namespace sdf {

/// Columns filled per row sweep of the interval DP (sched/dppo.cpp): one
/// block's fused split-cost scratch and the rows it reads stay cache-hot
/// across the block (docs/ARCHITECTURE.md, "DP memory model").
inline constexpr std::size_t kDpBlock = 16;

/// Result of a DPPO run.
struct DppoResult {
  std::int64_t cost = 0;      ///< bufmem (EQ 1) of the order-optimal SAS
  Schedule schedule;          ///< the optimized R-schedule (normalized)
  SplitTable splits;          ///< parenthesization used
};

/// Precomputed split-cost oracle shared by DPPO, SDPPO and the exact
/// chain DP:
/// cost(i,k,j) = sum over edges src in order[i..k], snk in order[k+1..j]
/// of TNSE(e)/g_ij + delay(e), plus range-gcd and emptiness queries.
///
/// Throws ArithmeticOverflowError when the total split weight (TNSE plus
/// delay over all edges) reaches INT64_MAX / 4, the DP's infinity.
///
/// With `arena` the prefix/gcd tables are carved from it (the per-compile
/// fast path); without one they live on the heap — that mode backs the
/// slabs pipeline/explore_cache shares between neighboring explore points.
class SplitCosts {
 public:
  SplitCosts(const Graph& g, const Repetitions& q,
             const std::vector<ActorId>& order,
             util::Arena* arena = nullptr);

  /// gcd of q over order[i..j].
  [[nodiscard]] std::int64_t gij(std::size_t i, std::size_t j) const {
    return gcd_[tri_at(n_, i, j)];
  }

  /// Sum of TNSE over split-crossing edges (NOT divided by the gcd).
  [[nodiscard]] std::int64_t tnse_sum(std::size_t i, std::size_t k,
                                      std::size_t j) const {
    return rect(tnse_prefix_.data(), i, k, j);
  }
  /// Sum of delays over split-crossing edges.
  [[nodiscard]] std::int64_t delay_sum(std::size_t i, std::size_t k,
                                       std::size_t j) const {
    return rect(delay_prefix_.data(), i, k, j);
  }
  /// Number of split-crossing edges (E_s of EQ 4); 0 means "no internal
  /// edges" for the Sec. 5.1 factoring heuristic.
  [[nodiscard]] std::int64_t edge_count(std::size_t i, std::size_t k,
                                        std::size_t j) const {
    return rect(count_prefix_.data(), i, k, j);
  }

  /// Full split cost c_ij[k] (EQ 3 plus delay carry).
  [[nodiscard]] std::int64_t cost(std::size_t i, std::size_t k,
                                  std::size_t j) const {
    return split_cost(i, k, j, gij(i, j));
  }

  /// cost() with the cell-invariant g_ij hoisted out of the k-loop. For
  /// g == 1 (the overwhelmingly common case — any range containing two
  /// coprime repetition counts) the TNSE and delay rectangles collapse
  /// into one query on the combined-weight square: t / 1 + d == (t + d),
  /// so results are unchanged while the inner loop does half the loads
  /// and skips the idiv.
  [[nodiscard]] std::int64_t split_cost(std::size_t i, std::size_t k,
                                        std::size_t j,
                                        std::int64_t gcd_ij) const {
    if (gcd_ij == 1) return rect(wsum_prefix_.data(), i, k, j);
    return rect(tnse_prefix_.data(), i, k, j) / gcd_ij +
           rect(delay_prefix_.data(), i, k, j);
  }

  [[nodiscard]] std::size_t size() const { return n_; }

  /// Resident table bytes — what a cached slab costs against the
  /// governor's dp_mem budget (pipeline/explore_cache.h).
  [[nodiscard]] std::int64_t bytes() const {
    return static_cast<std::int64_t>(
        (4 * stride_ * stride_ + 2 * tri_cells(n_)) *
        sizeof(std::int64_t));
  }

 private:
  // interval_dp() (sched/dppo.cpp), the one kernel behind dppo() and
  // sdppo(), fills kDpBlock columns per row sweep and builds each block's
  // fused (row minus diagonal) scratch straight from the row-major squares
  // below, so it reads them directly rather than through rect().
  template <bool kShared, bool kRecord>
  friend std::int64_t interval_dp(const Graph&, const Repetitions&,
                                  const std::vector<ActorId>&, util::Arena*,
                                  const SplitCosts*, SplitTable*, Schedule*);

  // Rectangle sum over pos(src) in [i, k], pos(snk) in [k+1, j] on a flat
  // (n+1) x (n+1) prefix square: prefix[a][b] = sum over edges with
  // pos(src) <= a-1 and pos(snk) <= b-1.
  [[nodiscard]] std::int64_t rect(const std::int64_t* prefix, std::size_t i,
                                  std::size_t k, std::size_t j) const {
    const std::int64_t* hi = prefix + (k + 1) * stride_;
    const std::int64_t* lo = prefix + i * stride_;
    return hi[j + 1] - lo[j + 1] - hi[k + 1] + lo[k + 1];
  }

  std::size_t n_;
  std::size_t stride_;  ///< n_ + 1 (prefix squares are 1-based-guarded)
  util::ArenaVector<std::int64_t> tnse_prefix_;
  util::ArenaVector<std::int64_t> delay_prefix_;
  util::ArenaVector<std::int64_t> wsum_prefix_;  ///< tnse + delay combined
  util::ArenaVector<std::int64_t> count_prefix_;
  util::ArenaVector<std::int64_t> gcd_;  ///< upper triangle, tri_at order
  /// floor(2^64 / gcd_[c]) per triangle cell (0 where gcd == 1): the
  /// 128-bit division is paid once here, not per cell in the DP loop.
  util::ArenaVector<std::uint64_t> gcd_inv_;
};

/// Runs DPPO over the given lexical order. `order` must be a topological
/// order of `g` (delayless acyclic theory; edges with delays contribute
/// `delay` extra locations to every split they cross).
/// Throws std::invalid_argument when `order` is not topological.
///
/// `arena` (optional) hosts the DP tables; the pipeline threads its
/// per-compile arena through so the degradation ladder reuses warm
/// chunks. `shared_costs` (optional) skips rebuilding the SplitCosts
/// oracle when the caller already holds a slab for this exact
/// (graph, q, order); it is ignored unless its size matches.
[[nodiscard]] DppoResult dppo(const Graph& g, const Repetitions& q,
                              const std::vector<ActorId>& order,
                              util::Arena* arena = nullptr,
                              const SplitCosts* shared_costs = nullptr);

/// Estimate-only DPPO: the same table fill as dppo() but without split
/// bookkeeping or schedule reconstruction — just EQ 2's optimal cost.
/// Identical governor checkpoints and telemetry, so swapping it in for a
/// dppo() call whose schedule is discarded changes no observable
/// behavior. This is the hot path of ordering searches that score many
/// candidate orders (sched/rpmc.h).
[[nodiscard]] std::int64_t dppo_cost(const Graph& g, const Repetitions& q,
                                     const std::vector<ActorId>& order,
                                     util::Arena* arena = nullptr,
                                     const SplitCosts* shared_costs =
                                         nullptr);

}  // namespace sdf
