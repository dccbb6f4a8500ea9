#include "broker/mcbg_approx.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "broker/coverage.hpp"
#include "broker/greedy_mcb.hpp"
#include "graph/engine.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"

namespace bsr::broker {

using bsr::graph::CsrGraph;
using bsr::graph::NodeId;
namespace engine = bsr::graph::engine;

std::uint32_t mcbg_preselect_budget(std::uint32_t k, std::uint32_t beta) {
  if (beta == 0) throw std::invalid_argument("mcbg_preselect_budget: beta = 0");
  const std::uint32_t per_broker_cost = (beta + 1) / 2;  // ⌈β/2⌉ - 1 extra + itself
  // x + (x-1)(c-1) <= k with c = ⌈β/2⌉  ⇒  x <= (k + c - 1) / c.
  const std::uint32_t c = per_broker_cost;
  if (c <= 1) return k;
  return std::max<std::uint32_t>(1, (k + c - 1) / c);
}

namespace {

struct StitchPlan {
  std::vector<NodeId> added;  // B″ for this root
  std::uint32_t unreachable = 0;
};

/// For one candidate root, walk every other pre-selected broker's shortest
/// path to the root (the BFS tree `ws` holds) and promote alternate
/// interior nodes so each hop is dominated by B' ∪ B″.
StitchPlan stitch_for_root(const CsrGraph& g, const BrokerSet& preselected,
                           NodeId root, const engine::Workspace& ws) {
  BSR_COUNT(McbgStitchRounds);
  StitchPlan plan;
  std::vector<bool> in_set(g.num_vertices(), false);
  for (const NodeId b : preselected.members()) in_set[b] = true;

  std::vector<NodeId> path;
  for (const NodeId v : preselected.members()) {
    if (v == root) continue;
    if (!ws.visited(v)) {
      ++plan.unreachable;
      continue;
    }
    path.clear();
    for (NodeId w = v; w != root; w = ws.parent(w)) path.push_back(w);
    path.push_back(root);
    // Walk hops v..root; when neither endpoint of hop (path[i], path[i+1])
    // is in the set, promote the far endpoint — it also dominates the next
    // hop, which is what bounds the cost by ⌈len/2⌉ - 1.
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      if (!in_set[path[i]] && !in_set[path[i + 1]]) {
        in_set[path[i + 1]] = true;
        plan.added.push_back(path[i + 1]);
      }
    }
  }
  BSR_COUNT_N(McbgStitchPromotions, plan.added.size());
  return plan;
}

/// Best stitching plan (over candidate roots) for a pre-selection prefix.
StitchPlan best_stitch(const CsrGraph& g, const BrokerSet& preselected,
                       std::uint32_t max_roots) {
  const std::uint32_t roots_to_try =
      max_roots == 0 ? static_cast<std::uint32_t>(preselected.size())
                     : std::min<std::uint32_t>(
                           max_roots, static_cast<std::uint32_t>(preselected.size()));
  StitchPlan best;
  bool have_best = false;
  engine::Workspace ws;
  for (std::uint32_t i = 0; i < roots_to_try; ++i) {
    const NodeId root = preselected.members()[i];
    engine::bfs(g, root, ws, engine::AllEdges{});
    StitchPlan plan = stitch_for_root(g, preselected, root, ws);
    if (!have_best || plan.added.size() < best.added.size()) {
      best = std::move(plan);
      have_best = true;
      if (best.added.empty()) break;  // cannot do better
    }
  }
  return best;
}

}  // namespace

McbgResult mcbg_approx(const CsrGraph& g, std::uint32_t k, const McbgOptions& options) {
  BSR_SPAN("broker.mcbg");
  if (g.num_vertices() == 0) throw std::invalid_argument("mcbg_approx: empty graph");
  if (options.beta == 0) throw std::invalid_argument("mcbg_approx: beta = 0");

  McbgResult result;
  result.brokers = BrokerSet(g.num_vertices());
  if (k == 0) return result;

  const std::uint32_t x_star = mcbg_preselect_budget(k, options.beta);
  const std::uint32_t x_max = options.use_full_budget ? k : x_star;

  // One greedy run at the largest pre-selection; smaller pre-selections are
  // its prefixes (the greedy sequence does not depend on the budget).
  const GreedyMcbResult greedy = greedy_mcb(g, x_max);
  const auto greedy_size = static_cast<std::uint32_t>(greedy.brokers.size());

  const auto assemble = [&](const BrokerSet& preselected,
                            StitchPlan plan) -> McbgResult {
    McbgResult out;
    BrokerSet combined = preselected;
    for (const NodeId v : plan.added) combined.add(v);
    out.preselected = static_cast<std::uint32_t>(preselected.size());
    out.stitching = static_cast<std::uint32_t>(plan.added.size());
    out.unreachable_preselected = plan.unreachable;
    out.brokers = std::move(combined);
    out.coverage = coverage(g, out.brokers);
    return out;
  };

  const auto try_x =
      [&](std::uint32_t x) -> std::optional<std::pair<BrokerSet, StitchPlan>> {
    const BrokerSet preselected = greedy.brokers.prefix(std::min(x, greedy_size));
    if (preselected.size() <= 1) return std::make_pair(preselected, StitchPlan{});
    StitchPlan plan = best_stitch(g, preselected, options.max_roots);
    if (preselected.size() + plan.added.size() > k) return std::nullopt;
    return std::make_pair(preselected, std::move(plan));
  };

  // Largest feasible pre-selection: stitching cost grows with x, so a
  // binary search over [1, x_max] finds the boundary with O(log k) stitch
  // evaluations. (Monotonicity is heuristic; the budget check in try_x
  // keeps the result valid regardless.)
  if (auto full = try_x(std::min(x_max, greedy_size))) {
    result = assemble(full->first, std::move(full->second));
    return result;
  }
  std::uint32_t lo = 1, hi = std::min(x_max, greedy_size);
  std::optional<std::pair<BrokerSet, StitchPlan>> best;
  while (lo < hi) {
    const std::uint32_t mid = lo + (hi - lo + 1) / 2;
    if (auto attempt = try_x(mid)) {
      best = std::move(attempt);
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  if (!best) best = try_x(lo);
  if (best) result = assemble(best->first, std::move(best->second));
  return result;
}

}  // namespace bsr::broker
