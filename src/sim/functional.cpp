#include "sim/functional.h"

#include <cstdint>
#include <deque>
#include <numeric>
#include <sstream>

namespace sdf {
namespace {

TokenValue initial_token_value(EdgeId e, std::int64_t position) {
  return -(static_cast<TokenValue>(e) * 1000 + position) - 1;
}

/// Fires the schedule, reading/writing through the provided callbacks.
/// read(e) pops one token; write(e, v) pushes one. Returns false + error
/// via `err` on kernel misbehavior.
template <typename ReadFn, typename WriteFn>
bool execute(const Graph& g, const Schedule& schedule,
             const KernelTable& kernels, ReadFn&& read, WriteFn&& write,
             std::string& err) {
  auto fire = [&](ActorId a) -> bool {
    std::vector<std::vector<TokenValue>> inputs;
    inputs.reserve(g.in_edges(a).size());
    for (EdgeId e : g.in_edges(a)) {
      std::vector<TokenValue> tokens;
      tokens.reserve(static_cast<std::size_t>(g.edge(e).cns));
      for (std::int64_t t = 0; t < g.edge(e).cns; ++t) {
        tokens.push_back(read(e));
      }
      inputs.push_back(std::move(tokens));
    }
    const std::vector<std::vector<TokenValue>> outputs =
        kernels[static_cast<std::size_t>(a)](inputs);
    if (outputs.size() != g.out_edges(a).size()) {
      err = "kernel of actor " + g.actor(a).name +
            " produced the wrong number of output streams";
      return false;
    }
    for (std::size_t i = 0; i < outputs.size(); ++i) {
      const EdgeId e = g.out_edges(a)[i];
      if (outputs[i].size() != static_cast<std::size_t>(g.edge(e).prod)) {
        err = "kernel of actor " + g.actor(a).name +
              " produced the wrong token count";
        return false;
      }
      for (const TokenValue v : outputs[i]) write(e, v);
    }
    return true;
  };
  auto walk = [&](auto&& self, const Schedule& node) -> bool {
    for (std::int64_t i = 0; i < node.count(); ++i) {
      if (node.is_leaf()) {
        if (!fire(node.actor())) return false;
      } else {
        for (const Schedule& child : node.body()) {
          if (!self(self, child)) return false;
        }
      }
    }
    return true;
  };
  return walk(walk, schedule);
}

}  // namespace

KernelTable default_kernels(const Graph& g) {
  KernelTable kernels;
  kernels.reserve(g.num_actors());
  for (std::size_t a = 0; a < g.num_actors(); ++a) {
    const auto id = static_cast<ActorId>(a);
    const std::size_t num_out = g.out_edges(id).size();
    std::vector<std::int64_t> out_rates;
    for (EdgeId e : g.out_edges(id)) out_rates.push_back(g.edge(e).prod);
    kernels.push_back(
        [a, num_out, out_rates](
            const std::vector<std::vector<TokenValue>>& inputs) {
          // Wrapping hash: the arithmetic runs in uint64_t, where
          // overflow is defined, and casts back to the token type.
          std::uint64_t mix = 0;
          for (const auto& stream : inputs) {
            for (const TokenValue v : stream) {
              mix = mix * 31 + static_cast<std::uint64_t>(v);
            }
          }
          std::vector<std::vector<TokenValue>> outputs(num_out);
          for (std::size_t j = 0; j < num_out; ++j) {
            for (std::int64_t t = 0; t < out_rates[j]; ++t) {
              outputs[j].push_back(static_cast<TokenValue>(
                  mix * 31 + static_cast<std::uint64_t>(a) * 7 +
                  static_cast<std::uint64_t>(j) * 3 +
                  static_cast<std::uint64_t>(t)));
            }
          }
          return outputs;
        });
  }
  return kernels;
}

FunctionalRunResult run_reference(const Graph& g, const Schedule& schedule,
                                  const KernelTable& kernels) {
  FunctionalRunResult result;
  if (kernels.size() != g.num_actors()) {
    result.error = "kernel table size mismatch";
    return result;
  }
  std::vector<std::deque<TokenValue>> fifo(g.num_edges());
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    for (std::int64_t d = 0; d < g.edge(static_cast<EdgeId>(e)).delay;
         ++d) {
      fifo[e].push_back(initial_token_value(static_cast<EdgeId>(e), d));
    }
  }
  const bool ok = execute(
      g, schedule, kernels,
      [&](EdgeId e) -> TokenValue {
        auto& queue = fifo[static_cast<std::size_t>(e)];
        if (queue.empty()) {
          result.error = "reference run underflow on edge " +
                         std::to_string(e);
          return 0;
        }
        const TokenValue v = queue.front();
        queue.pop_front();
        result.consumed.push_back(v);
        return v;
      },
      [&](EdgeId e, TokenValue v) {
        fifo[static_cast<std::size_t>(e)].push_back(v);
      },
      result.error);
  result.ok = ok && result.error.empty();
  return result;
}

FunctionalRunResult run_pooled_and_compare(
    const Graph& g, const Schedule& schedule, const KernelTable& kernels,
    const std::vector<BufferLifetime>& lifetimes, const Allocation& alloc) {
  FunctionalRunResult result;
  if (lifetimes.size() != g.num_edges() ||
      alloc.offsets.size() != lifetimes.size()) {
    result.error = "lifetimes/allocation mismatch";
    return result;
  }
  const FunctionalRunResult reference =
      run_reference(g, schedule, kernels);
  if (!reference.ok) {
    result.error = "reference run failed: " + reference.error;
    return result;
  }

  std::vector<TokenValue> pool(static_cast<std::size_t>(alloc.total_size),
                               0);
  std::vector<std::int64_t> width(g.num_edges());
  std::vector<std::int64_t> offset(g.num_edges());
  for (const BufferLifetime& b : lifetimes) {
    width[static_cast<std::size_t>(b.edge)] = b.width;
    offset[static_cast<std::size_t>(b.edge)] =
        alloc.offsets[static_cast<std::size_t>(b.edge)];
  }
  std::vector<std::int64_t> wr(g.num_edges(), 0), rd(g.num_edges(), 0);
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    const Edge& edge = g.edge(static_cast<EdgeId>(e));
    for (std::int64_t d = 0; d < edge.delay; ++d) {
      pool[static_cast<std::size_t>(offset[e] + d % width[e])] =
          initial_token_value(static_cast<EdgeId>(e), d);
    }
    wr[e] = edge.delay;
  }

  std::size_t cursor = 0;  // position in the reference consumption stream
  std::ostringstream err;
  bool mismatch = false;
  const bool ok = execute(
      g, schedule, kernels,
      [&](EdgeId e) -> TokenValue {
        const auto ie = static_cast<std::size_t>(e);
        const TokenValue v = pool[static_cast<std::size_t>(
            offset[ie] + (rd[ie] % width[ie]))];
        ++rd[ie];
        if (cursor >= reference.consumed.size()) {
          if (!mismatch) err << "pooled run consumed extra tokens";
          mismatch = true;
        } else if (v != reference.consumed[cursor] && !mismatch) {
          const Edge& edge = g.edge(e);
          err << "value mismatch on edge " << g.actor(edge.src).name << "->"
              << g.actor(edge.snk).name << " token " << rd[ie] - 1
              << ": pooled " << v << " vs reference "
              << reference.consumed[cursor];
          mismatch = true;
        }
        ++cursor;
        result.consumed.push_back(v);
        return v;
      },
      [&](EdgeId e, TokenValue v) {
        const auto ie = static_cast<std::size_t>(e);
        pool[static_cast<std::size_t>(offset[ie] + (wr[ie] % width[ie]))] =
            v;
        ++wr[ie];
      },
      result.error);
  if (!ok) return result;
  if (mismatch) {
    result.error = err.str();
    return result;
  }
  if (cursor != reference.consumed.size()) {
    result.error = "pooled run consumed fewer tokens than the reference";
    return result;
  }
  result.ok = true;
  return result;
}

}  // namespace sdf
