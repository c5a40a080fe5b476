#include "sched/dppo.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "obs/counters.h"
#include "pipeline/governor.h"
#include "sched/sdppo.h"
#include "sdf/analysis.h"
#include "util/status.h"

namespace sdf {
namespace {

// The DP tables' "no split yet" value. SplitCosts rejects orders whose
// total split weight reaches it, so every real cost stays below it.
constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 4;

// Fills `out` (a flat (n+1) x (n+1) row-major square) with 2D prefix sums
// of weight(e): out[a*(n+1)+b] = sum over edges with pos(src) <= a-1 and
// pos(snk) <= b-1 (1-based guards simplify the rectangle query).
template <typename WeightFn>
void build_prefix(const Graph& g, const std::vector<ActorId>& order,
                  const std::int32_t* pos,
                  util::ArenaVector<std::int64_t>& out, WeightFn&& weight) {
  const std::size_t n = order.size();
  const std::size_t stride = n + 1;
  out.assign(stride * stride, 0);
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    const Edge& edge = g.edge(static_cast<EdgeId>(e));
    const auto ps = static_cast<std::size_t>(
        pos[static_cast<std::size_t>(edge.src)]);
    const auto pt = static_cast<std::size_t>(
        pos[static_cast<std::size_t>(edge.snk)]);
    out[(ps + 1) * stride + (pt + 1)] += weight(static_cast<EdgeId>(e));
  }
  for (std::size_t a = 1; a <= n; ++a) {
    std::int64_t* row = out.data() + a * stride;
    const std::int64_t* above = row - stride;
    for (std::size_t b = 1; b <= n; ++b) {
      // Each partial sum is at most the final value, so no step can
      // overflow once the total weight fits (checked by SplitCosts).
      row[b] += (above[b] - above[b - 1]) + row[b - 1];
    }
  }
}

}  // namespace

SplitCosts::SplitCosts(const Graph& g, const Repetitions& q,
                       const std::vector<ActorId>& order, util::Arena* arena)
    : n_(order.size()),
      stride_(order.size() + 1),
      tnse_prefix_(util::ArenaAllocator<std::int64_t>(arena)),
      delay_prefix_(util::ArenaAllocator<std::int64_t>(arena)),
      wsum_prefix_(util::ArenaAllocator<std::int64_t>(arena)),
      count_prefix_(util::ArenaAllocator<std::int64_t>(arena)),
      gcd_(util::ArenaAllocator<std::int64_t>(arena)),
      gcd_inv_(util::ArenaAllocator<std::uint64_t>(arena)) {
  util::ArenaVector<std::int32_t> pos(
      (util::ArenaAllocator<std::int32_t>(arena)));
  pos.assign(g.num_actors(), -1);
  for (std::size_t i = 0; i < n_; ++i) {
    pos[static_cast<std::size_t>(order[i])] = static_cast<std::int32_t>(i);
  }

  // Every prefix sum, split cost and DP table value is at most the total
  // weight (each edge counts once), so one check covers them all.
  std::int64_t total = 0;
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    if (__builtin_add_overflow(total, tnse(g, q, static_cast<EdgeId>(e)),
                               &total) ||
        __builtin_add_overflow(total, g.edge(static_cast<EdgeId>(e)).delay,
                               &total) ||
        total >= kInf) {
      throw ArithmeticOverflowError("SplitCosts: total split weight overflow");
    }
  }
  build_prefix(g, order, pos.data(), tnse_prefix_,
               [&](EdgeId e) { return tnse(g, q, e); });
  build_prefix(g, order, pos.data(), delay_prefix_,
               [&](EdgeId e) { return g.edge(e).delay; });
  build_prefix(g, order, pos.data(), wsum_prefix_,
               [&](EdgeId e) { return tnse(g, q, e) + g.edge(e).delay; });
  build_prefix(g, order, pos.data(), count_prefix_,
               [](EdgeId) { return 1; });

  gcd_.assign(tri_cells(n_), 0);
  for (std::size_t i = 0; i < n_; ++i) {
    std::int64_t acc = 0;
    std::int64_t* row = gcd_.data() + tri_at(n_, i, i);
    for (std::size_t j = i; j < n_; ++j) {
      acc = std::gcd(acc, q[static_cast<std::size_t>(order[j])]);
      row[j - i] = acc;
    }
  }
  gcd_inv_.assign(tri_cells(n_), 0);
  for (std::size_t c = 0; c < gcd_.size(); ++c) {
    if (gcd_[c] > 1) {
      gcd_inv_[c] = static_cast<std::uint64_t>(
          (static_cast<unsigned __int128>(1) << 64) /
          static_cast<std::uint64_t>(gcd_[c]));
    }
  }
}

// The one interval-DP kernel behind dppo()/dppo_cost() (EQ 2, kShared =
// false) and sdppo()/sdppo_estimate() (EQ 5, kShared = true): a
// column-blocked table fill over fused row-minus-diagonal scratch
// (docs/ARCHITECTURE.md, "DP memory model"). Returns the optimal cost.
// With kRecord it also records each cell's split into `splits` and
// rebuilds `schedule` from them; without, both are unused.
template <bool kShared, bool kRecord>
std::int64_t interval_dp(const Graph& g, const Repetitions& q,
                         const std::vector<ActorId>& order,
                         util::Arena* arena, const SplitCosts* shared_costs,
                         SplitTable* splits, Schedule* schedule) {
  const char* const site = kShared ? "sched.sdppo" : "sched.dppo";
  if (!is_topological_order(g, order)) {
    throw BadOrderError(kShared ? "sdppo: order is not a topological order"
                                : "dppo: order is not a topological order");
  }
  const std::size_t n = order.size();

  // Governance: the tables below are carved from the arena, so every
  // chunk acquisition is charged against the governor's dp_mem budget (and
  // is the "dp_mem" fault point); each cell is a cooperative deadline
  // checkpoint (see pipeline/governor.h and util/arena.h).
  util::Arena local_arena(site);
  util::Arena& a = arena != nullptr ? *arena : local_arena;
  const util::Arena::Scope dp_scope(a);

  std::optional<SplitCosts> own_costs;
  if (shared_costs == nullptr || shared_costs->size() != n) {
    own_costs.emplace(g, q, order, &a);
  }
  const SplitCosts& costs = own_costs ? *own_costs : *shared_costs;

  // Structure-of-arrays triangles: the cost table is mirrored row-major
  // (b_row) and column-major (b_col) so the k-loop streams both b[i][k]
  // and b[k+1][j] contiguously. Only the diagonal needs initializing: the
  // fill writes every longer range before any cell reads it. The split
  // array exists only when a schedule is wanted.
  const std::size_t stride = n + 1;
  const std::size_t cells_total = tri_cells(n);
  std::int64_t* b_row = a.alloc_array<std::int64_t>(cells_total);
  std::int64_t* b_col = a.alloc_array<std::int64_t>(cells_total);
  for (std::size_t i = 0; i < n; ++i) {
    b_row[tri_at(n, i, i)] = 0;
    b_col[tri_col_at(i, i)] = 0;
  }
  // Per-block fused split-cost scratch, one n-long row per block column:
  // fw[c * n + m] = wsum[m][j0 + c + 1] - wsum[m][m] for column j0 + c
  // (ft/fd likewise over the TNSE and delay squares).
  const std::size_t width = std::min(kDpBlock, n);
  std::int64_t* fw = a.alloc_array<std::int64_t>(width * n);
  std::int64_t* ft = a.alloc_array<std::int64_t>(width * n);
  std::int64_t* fd = a.alloc_array<std::int64_t>(width * n);
  std::uint32_t* split =
      kRecord ? a.alloc_array<std::uint32_t>(cells_total) : nullptr;

  // Minimizes total(k) over the splits k of cell (i, j) and, with kRecord,
  // records the winner: the first minimum, except that EQ 5 breaks ties
  // toward fewer crossing edges (they leave the halves fully overlayable
  // and avoid needless factoring). Edge counts are read only at ties —
  // the first minimum's lazily at its first tie.
  auto fill_cell = [&](std::size_t i, std::size_t j, auto&& total) {
    std::int64_t best = kInf;
    if constexpr (!kRecord) {
      for (std::size_t k = i; k < j; ++k) best = std::min(best, total(k));
    } else {
      std::size_t best_k = i;
      std::int64_t best_edges = -1;  // unknown until the first tie
      for (std::size_t k = i; k < j; ++k) {
        const std::int64_t t = total(k);
        if (t < best) {
          best = t;
          best_k = k;
          best_edges = -1;
        } else if (kShared && t == best) {
          if (best_edges < 0) best_edges = costs.edge_count(i, best_k, j);
          const std::int64_t edges = costs.edge_count(i, k, j);
          if (edges < best_edges) {
            best_edges = edges;
            best_k = k;
          }
        }
      }
      split[tri_at(n, i, j)] = static_cast<std::uint32_t>(best_k);
    }
    return best;
  };
  // EQ 2 sums the halves' buffers; EQ 5 overlays them, so only the larger
  // half counts. Crossing buffers stay live across both either way.
  auto combine = [](std::int64_t left, std::int64_t right) {
    return kShared ? std::max(left, right) : left + right;
  };

  // Column-blocked fill. For each block of kDpBlock columns [j0, j1), i
  // sweeps down from j1 - 2 and fills (i, j) for j ascending in the block:
  // b[i][k] then comes from this sweep or an earlier block, and b[k+1][j]
  // from a higher row of this block. Row i of b and of the prefix squares
  // is thus streamed once per block, and the block's fused scratch makes
  // the common gcd == 1 split cost two streaming loads and a cell
  // constant. Same per-(i,k,j) integer arithmetic as split_cost():
  // identical results, identical checkpoint and telemetry counts.
  const std::int64_t* wsum = costs.wsum_prefix_.data();
  const std::int64_t* tnse_sq = costs.tnse_prefix_.data();
  const std::int64_t* delay_sq = costs.delay_prefix_.data();
  std::int64_t cells = 0;
  std::int64_t split_candidates = 0;
  for (std::size_t j0 = 0; j0 < n; j0 += kDpBlock) {
    const std::size_t j1 = std::min(j0 + kDpBlock, n);
    // gcd of a range divides every sub-range's gcd, so gij(j-1, j) == 1
    // forces gij(i, j) == 1 for all i: a block of such columns never
    // reads ft/fd. (Column 0 has no cells.)
    bool any_gcd = false;
    for (std::size_t j = std::max<std::size_t>(j0, 1); j < j1; ++j) {
      any_gcd |= costs.gij(j - 1, j) != 1;
    }
    // Column j reads scratch rows m = k + 1 in [1, j] only.
    for (std::size_t m = 1; m < j1; ++m) {
      const std::size_t c0 = m > j0 ? m - j0 : 0;
      const std::int64_t* w = wsum + m * stride + j0 + 1;
      const std::int64_t wd = wsum[m * stride + m];
      for (std::size_t c = c0; c < j1 - j0; ++c) fw[c * n + m] = w[c] - wd;
      if (any_gcd) {
        const std::int64_t* t = tnse_sq + m * stride + j0 + 1;
        const std::int64_t* d = delay_sq + m * stride + j0 + 1;
        const std::int64_t td = tnse_sq[m * stride + m];
        const std::int64_t dd = delay_sq[m * stride + m];
        for (std::size_t c = c0; c < j1 - j0; ++c) {
          ft[c * n + m] = t[c] - td;
          fd[c * n + m] = d[c] - dd;
        }
      }
    }
    for (std::size_t i = j1 - 1; i-- > 0;) {
      const std::int64_t* row_i = b_row + tri_at(n, i, i) - i;  // b[i][k]
      const std::int64_t* w_row = wsum + i * stride;
      for (std::size_t j = std::max(j0, i + 1); j < j1; ++j) {
        governor_checkpoint(site);
        ++cells;
        split_candidates += static_cast<std::int64_t>(j - i);
        const std::int64_t* col_j = b_col + tri_col_at(0, j);  // b[k+1][j]
        const std::size_t off = (j - j0) * n;
        const std::int64_t gcd_ij = costs.gij(i, j);
        std::int64_t best;
        if (gcd_ij == 1) {
          const std::int64_t* fw_j = fw + off;
          const std::int64_t w_base = w_row[j + 1];
          best = fill_cell(i, j, [&](std::size_t k) {
            return combine(row_i[k], col_j[k + 1]) + fw_j[k + 1] - w_base +
                   w_row[k + 1];
          });
        } else {
          // t / gcd as a multiply-high by inv = floor(2^64 / gcd): for t in
          // [0, 2^63), floor(inv * t / 2^64) is floor(t / gcd) or one
          // less, so one remainder check restores the exact truncating
          // quotient, byte-identical to the idiv.
          const std::uint64_t inv = costs.gcd_inv_[tri_at(n, i, j)];
          const auto div = static_cast<std::uint64_t>(gcd_ij);
          const std::int64_t* ft_j = ft + off;
          const std::int64_t* fd_j = fd + off;
          const std::int64_t* t_row = tnse_sq + i * stride;
          const std::int64_t* d_row = delay_sq + i * stride;
          const std::int64_t t_base = t_row[j + 1];
          const std::int64_t d_base = d_row[j + 1];
          best = fill_cell(i, j, [&](std::size_t k) {
            const auto t = static_cast<std::uint64_t>(ft_j[k + 1] - t_base +
                                                      t_row[k + 1]);
            const std::int64_t d = fd_j[k + 1] - d_base + d_row[k + 1];
            auto quot = static_cast<std::uint64_t>(
                (static_cast<unsigned __int128>(inv) * t) >> 64);
            if (t - quot * div >= div) ++quot;
            return combine(row_i[k], col_j[k + 1]) +
                   static_cast<std::int64_t>(quot) + d;
          });
        }
        b_row[tri_at(n, i, j)] = best;
        b_col[tri_col_at(i, j)] = best;
      }
    }
  }
  obs::count(kShared ? "sched.sdppo.cells" : "sched.dppo.cells", cells);
  obs::count(kShared ? "sched.sdppo.splits" : "sched.dppo.splits",
             split_candidates);
  const std::int64_t cost = n >= 2 ? b_row[tri_at(n, 0, n - 1)] : 0;
  if constexpr (kRecord) {
    splits->at.assign(n, std::vector<std::size_t>(n, 0));
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        splits->at[i][j] = split[tri_at(n, i, j)];
      }
    }
    FactorPredicate factor;
    if (kShared) {
      // Sec. 5.1 heuristic: factor only when the split has internal edges.
      factor = [&](std::size_t i, std::size_t k, std::size_t j) {
        return costs.edge_count(i, k, j) > 0;
      };
    }
    *schedule = schedule_from_splits(g, q, order, *splits, factor);
  }
  return cost;
}

DppoResult dppo(const Graph& g, const Repetitions& q,
                const std::vector<ActorId>& order, util::Arena* arena,
                const SplitCosts* shared_costs) {
  DppoResult result;
  result.cost = interval_dp<false, true>(g, q, order, arena, shared_costs,
                                         &result.splits, &result.schedule);
  return result;
}

std::int64_t dppo_cost(const Graph& g, const Repetitions& q,
                       const std::vector<ActorId>& order, util::Arena* arena,
                       const SplitCosts* shared_costs) {
  return interval_dp<false, false>(g, q, order, arena, shared_costs, nullptr,
                                   nullptr);
}

SdppoResult sdppo(const Graph& g, const Repetitions& q,
                  const std::vector<ActorId>& order, util::Arena* arena,
                  const SplitCosts* shared_costs) {
  SdppoResult result;
  result.estimate = interval_dp<true, true>(
      g, q, order, arena, shared_costs, &result.splits, &result.schedule);
  return result;
}

std::int64_t sdppo_estimate(const Graph& g, const Repetitions& q,
                            const std::vector<ActorId>& order,
                            util::Arena* arena,
                            const SplitCosts* shared_costs) {
  return interval_dp<true, false>(g, q, order, arena, shared_costs, nullptr,
                                  nullptr);
}

}  // namespace sdf
