#include "sim/router.hpp"

#include "graph/check.hpp"
#include "graph/engine.hpp"
#include "graph/sampling.hpp"
#include "obs/journal.hpp"
#include "obs/stats.hpp"

namespace bsr::sim {

using bsr::graph::NodeId;

const char* to_string(RouteTier tier) noexcept {
  switch (tier) {
    case RouteTier::kDominated: return "dominated";
    case RouteTier::kDegraded: return "degraded";
    case RouteTier::kFreeFallback: return "free-fallback";
    case RouteTier::kUnreachable: return "unreachable";
  }
  return "?";
}

const char* to_string(HealthOutcome outcome) noexcept {
  switch (outcome) {
    case HealthOutcome::kOk: return "ok";
    case HealthOutcome::kMisrouted: return "misrouted";
    case HealthOutcome::kShunned: return "shunned";
    case HealthOutcome::kUnreachable: return "unreachable";
  }
  return "?";
}

Router::Router(const bsr::graph::CsrGraph& g, const bsr::broker::BrokerSet& brokers)
    : Router(g, brokers, nullptr) {}

Router::Router(const bsr::graph::CsrGraph& g, const bsr::broker::BrokerSet& brokers,
               const bsr::graph::FaultPlane* faults)
    : graph_(&g), brokers_(&brokers), ws_(g.num_vertices()) {
  set_fault_plane(faults);
}

void Router::set_fault_plane(const bsr::graph::FaultPlane* faults) {
  BSR_DCHECK(faults == nullptr || &faults->graph() == graph_);
  faults_ = faults;
}

void Router::set_health_view(const HealthView* view) {
  BSR_DCHECK(view == nullptr || view->routable.size() == graph_->num_vertices());
  health_view_ = view;
}

Route Router::route_impl(NodeId src, NodeId dst, bool dominated) {
  BSR_DCHECK(src < graph_->num_vertices() && dst < graph_->num_vertices());
  Route route;
  if (faults_ != nullptr && (!faults_->vertex_ok(src) || !faults_->vertex_ok(dst))) {
    return route;  // a down endpoint cannot originate or terminate traffic
  }
  if (src == dst) {
    route.path = {src};
    return route;
  }
  // Static four-way dispatch: the filter inlines into the scan loop, so the
  // plain free-route case pays nothing for broker/fault support.
  namespace engine = bsr::graph::engine;
  const auto scan = [&](auto admit) {
    engine::bfs(*graph_, src, ws_, admit, engine::TargetStop{dst});
    return Route{ws_.path_to(dst)};
  };
  const engine::DominatedEdgeFilter dom{&brokers_->mask()};
  if (dominated) {
    if (faults_ != nullptr) {
      return scan(engine::BothFilters{dom, engine::FaultAwareFilter{faults_}});
    }
    return scan(dom);
  }
  if (faults_ != nullptr) return scan(engine::FaultAwareFilter{faults_});
  return scan(engine::AllEdges{});
}

Route Router::route_healed(NodeId src, NodeId dst, std::uint32_t max_heals,
                           std::uint32_t& healed_links) {
  // BFS over (vertex, heals used) states: dominated edges only, vertices
  // must be up, and crossing a *failed* dominated link consumes one heal.
  // The first state of dst discovered (any heal count) is the min-hop
  // degraded route.
  namespace engine = bsr::graph::engine;
  const std::uint32_t layers = max_heals + 1;
  BSR_GAUGE_MAX(RouterStateHighWater, std::size_t{graph_->num_vertices()} * layers);
  const std::uint32_t goal = engine::product_bfs(
      *graph_, layers, src, ws_,
      [&](NodeId u, std::uint32_t heals, std::size_t slot, NodeId v) {
        if (!brokers_->dominates_edge(u, v) || !faults_->vertex_ok(v)) {
          return engine::kNoState;
        }
        if (faults_->edge_up_at(u, slot)) return heals;
        return heals == max_heals ? engine::kNoState : heals + 1;
      },
      engine::TargetStop{dst});
  if (goal == engine::kNoState) return {};  // unreachable within the heal budget
  healed_links = goal % layers;
  return Route{engine::product_path(ws_, layers, goal)};
}

Route Router::route_free(NodeId src, NodeId dst) {
  return route_impl(src, dst, /*dominated=*/false);
}

Route Router::route_dominated(NodeId src, NodeId dst) {
  return route_impl(src, dst, /*dominated=*/true);
}

TieredRoute Router::route_with_degradation(NodeId src, NodeId dst,
                                           const DegradationPolicy& policy) {
  BSR_COUNT(RouterRoutes);
  TieredRoute out;
  out.route = route_dominated(src, dst);
  if (out.route.reachable()) {
    out.tier = RouteTier::kDominated;
    BSR_COUNT(RouterTierDominated);
    BSR_HISTO(RouterHops, out.route.hops());
    return out;
  }
  if (faults_ != nullptr && !faults_->pristine() && policy.heal_attempts > 0 &&
      faults_->vertex_ok(src) && faults_->vertex_ok(dst) && src != dst) {
    out.route = route_healed(src, dst, policy.heal_attempts, out.healed_links);
    if (out.route.reachable()) {
      out.tier = RouteTier::kDegraded;
      BSR_COUNT(RouterTierDegraded);
      BSR_HISTO(RouterHops, out.route.hops());
      return out;
    }
  }
  if (policy.allow_free_fallback) {
    out.route = route_free(src, dst);
    if (out.route.reachable()) {
      out.tier = RouteTier::kFreeFallback;
      BSR_COUNT(RouterTierFallback);
      BSR_HISTO(RouterHops, out.route.hops());
      return out;
    }
  }
  out.tier = RouteTier::kUnreachable;
  BSR_COUNT(RouterTierUnreachable);
  return out;
}

HealthRouteResult Router::route_with_health(NodeId src, NodeId dst) {
  BSR_DCHECK(health_view_ != nullptr);
  BSR_DCHECK(src < graph_->num_vertices() && dst < graph_->num_vertices());
  BSR_COUNT(RouterRoutes);
  HealthRouteResult out;
  if (src == dst) {
    out.route.path = {src};
    out.outcome = HealthOutcome::kOk;
    return out;
  }
  // Belief: dominated BFS restricted to edges with a *routable* broker
  // endpoint, with no fault consultation — the control plane knows only what
  // the view says. The routable bitmap is already broker-AND-healthy, so the
  // plain dominated filter over it is exactly the believed plane.
  namespace engine = bsr::graph::engine;
  engine::bfs(*graph_, src, ws_, engine::DominatedEdgeFilter{&health_view_->routable},
              engine::TargetStop{dst});
  out.route.path = ws_.path_to(dst);
  if (out.route.reachable()) {
    if (faults_ != nullptr) {
      for (std::size_t i = 0; i + 1 < out.route.path.size(); ++i) {
        const NodeId u = out.route.path[i];
        const NodeId v = out.route.path[i + 1];
        if (!faults_->vertex_ok(u) || !faults_->vertex_ok(v) ||
            !faults_->edge_ok(u, v)) {
          ++out.dead_hops;
        }
      }
    }
    BSR_COUNT_N(RouterDeadHops, out.dead_hops);
    BSR_HISTO(RouterHops, out.route.hops());
    out.outcome = out.dead_hops > 0 ? HealthOutcome::kMisrouted : HealthOutcome::kOk;
    // Verdict events carry the pair packed (src << 32) | dst; the router has
    // no clock of its own, so records land at the journal clock.
    if (out.outcome == HealthOutcome::kMisrouted) {
      BSR_EVENT_NOW(RouteMisrouted,
                    (std::uint64_t{src} << 32) | std::uint64_t{dst}, 0);
    } else {
      BSR_EVENT_NOW(RouteOk, (std::uint64_t{src} << 32) | std::uint64_t{dst}, 0);
    }
    return out;
  }
  // Belief found nothing: ask the oracle whether real capacity was shunned.
  out.outcome = route_dominated(src, dst).reachable() ? HealthOutcome::kShunned
                                                      : HealthOutcome::kUnreachable;
  if (out.outcome == HealthOutcome::kShunned) {
    BSR_EVENT_NOW(RouteShunned, (std::uint64_t{src} << 32) | std::uint64_t{dst}, 0);
  } else {
    BSR_EVENT_NOW(RouteUnreachable,
                  (std::uint64_t{src} << 32) | std::uint64_t{dst}, 0);
  }
  return out;
}

std::optional<std::uint32_t> Router::stretch(NodeId src, NodeId dst) {
  const Route free_route = route_free(src, dst);
  if (!free_route.reachable()) return std::nullopt;
  const Route dominated_route = route_dominated(src, dst);
  if (!dominated_route.reachable()) return std::nullopt;
  return dominated_route.hops() - free_route.hops();
}

TierShares sample_tier_shares(Router& router, bsr::graph::Rng& rng,
                              std::size_t num_pairs,
                              const DegradationPolicy& policy) {
  TierShares shares;
  const auto pairs =
      bsr::graph::sample_pairs(rng, router.graph().num_vertices(), num_pairs);
  for (const auto& [src, dst] : pairs) {
    const TieredRoute r = router.route_with_degradation(src, dst, policy);
    ++shares.pairs;
    switch (r.tier) {
      case RouteTier::kDominated: ++shares.dominated; break;
      case RouteTier::kDegraded: ++shares.degraded; break;
      case RouteTier::kFreeFallback: ++shares.free_fallback; break;
      case RouteTier::kUnreachable: ++shares.unreachable; break;
    }
  }
  return shares;
}

HealthShares sample_health_shares(Router& router, bsr::graph::Rng& rng,
                                  std::size_t num_pairs) {
  HealthShares shares;
  const auto pairs =
      bsr::graph::sample_pairs(rng, router.graph().num_vertices(), num_pairs);
  for (const auto& [src, dst] : pairs) {
    const HealthRouteResult r = router.route_with_health(src, dst);
    ++shares.pairs;
    shares.dead_hops += r.dead_hops;
    switch (r.outcome) {
      case HealthOutcome::kOk: ++shares.ok; break;
      case HealthOutcome::kMisrouted: ++shares.misrouted; break;
      case HealthOutcome::kShunned: ++shares.shunned; break;
      case HealthOutcome::kUnreachable: ++shares.unreachable; break;
    }
  }
  return shares;
}

}  // namespace bsr::sim
