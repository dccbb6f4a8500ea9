#include "broker/length_constrained.hpp"

#include <algorithm>
#include <stdexcept>

#include "broker/dominated.hpp"
#include "broker/path_length.hpp"
#include "graph/bfs.hpp"
#include "graph/engine.hpp"
#include "graph/sampling.hpp"

namespace bsr::broker {

using bsr::graph::CsrGraph;
using bsr::graph::kUnreachable;
using bsr::graph::NodeId;
using bsr::graph::Rng;

LengthRepairResult repair_path_lengths(const CsrGraph& g, const BrokerSet& b,
                                       Rng& rng, const LengthRepairOptions& options) {
  if (options.epsilon <= 0.0 || options.sources == 0 || options.max_rounds == 0) {
    throw std::invalid_argument("repair_path_lengths: bad options");
  }

  LengthRepairResult result;
  result.brokers = b;

  // Pin one evaluation source set for the whole repair: the deviation is a
  // sampled statistic, and re-sampling each round would let noise mask (or
  // fake) progress. With pinned sources the true deviation is monotone
  // non-increasing as brokers are added.
  const auto eval_sources = bsr::graph::sample_distinct(
      rng, g.num_vertices(),
      static_cast<NodeId>(std::min<std::size_t>(options.sources, g.num_vertices())));
  const auto evaluate = [&]() {
    return compare_path_lengths(g, result.brokers, eval_sources).max_deviation;
  };
  result.initial_deviation = evaluate();
  result.final_deviation = result.initial_deviation;

  // Two independent workspaces: the free and dominated BFS results must stay
  // live simultaneously for the inflation scan (no dense copy needed).
  bsr::graph::engine::Workspace free_ws(g.num_vertices());
  bsr::graph::engine::Workspace dom_ws(g.num_vertices());
  // BrokerSet::add never reallocates the mask, so this filter tracks every
  // promotion made below.
  const bsr::graph::engine::DominatedEdgeFilter filter{&result.brokers.mask()};

  for (std::uint32_t round = 0;
       round < options.max_rounds && result.final_deviation > options.epsilon &&
       result.added < options.max_added;
       ++round) {
    ++result.rounds;
    // Find inflated pairs: free distance finite, dominating distance larger
    // (or absent). Sample sources; for each, pick the worst-inflated target.
    const auto sources = bsr::graph::sample_distinct(
        rng, g.num_vertices(),
        static_cast<NodeId>(std::min<std::size_t>(options.pairs_per_round,
                                                  g.num_vertices())));
    for (const NodeId src : sources) {
      if (result.added >= options.max_added) break;
      bsr::graph::engine::bfs(g, src, free_ws, bsr::graph::engine::AllEdges{});
      bsr::graph::engine::bfs(g, src, dom_ws, filter);

      NodeId worst = kUnreachable;
      std::int64_t worst_inflation = 0;
      for (NodeId v = 0; v < g.num_vertices(); ++v) {
        if (v == src || !free_ws.visited(v)) continue;
        const std::int64_t dominated =
            dom_ws.visited(v) ? dom_ws.dist_unchecked(v) : g.num_vertices();
        const std::int64_t inflation =
            dominated - static_cast<std::int64_t>(free_ws.dist_unchecked(v));
        if (inflation > worst_inflation) {
          worst_inflation = inflation;
          worst = v;
        }
      }
      if (worst == kUnreachable) continue;

      // Promote alternate interior vertices of the free shortest path so the
      // whole path becomes dominating.
      const auto path = bsr::graph::bfs_shortest_path(g, src, worst);
      for (std::size_t i = 0; i + 1 < path.size() && result.added < options.max_added;
           ++i) {
        if (!result.brokers.dominates_edge(path[i], path[i + 1])) {
          if (result.brokers.add(path[i + 1])) ++result.added;
        }
      }
    }
    result.final_deviation = evaluate();
  }

  result.feasible = result.final_deviation <= options.epsilon;
  return result;
}

}  // namespace bsr::broker
