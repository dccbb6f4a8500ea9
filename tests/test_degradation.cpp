#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "broker/maxsg.hpp"
#include "graph/bfs.hpp"
#include "graph/engine.hpp"
#include "graph/fault_plane.hpp"
#include "graph/sampling.hpp"
#include "sim/router.hpp"
#include "test_util.hpp"

namespace bsr::sim {
namespace {

using bsr::broker::BrokerSet;
using bsr::graph::CsrGraph;
using bsr::graph::FaultPlane;
using bsr::graph::NodeId;
using bsr::graph::Rng;
using bsr::test::make_connected_random;
using bsr::test::make_path;

TEST(Degradation, IntactPlaneServesDominatedTier) {
  const CsrGraph g = make_path(4);
  BrokerSet b(4);
  b.add(1);
  b.add(2);
  FaultPlane plane(g);
  Router router(g, b, &plane);
  const TieredRoute r = router.route_with_degradation(0, 3, {});
  EXPECT_EQ(r.tier, RouteTier::kDominated);
  EXPECT_EQ(r.healed_links, 0u);
  ASSERT_TRUE(r.route.reachable());
  EXPECT_EQ(r.route.hops(), 3u);
}

TEST(Degradation, FailedLinkConsumesOneHealAttempt) {
  const CsrGraph g = make_path(4);
  BrokerSet b(4);
  b.add(1);
  b.add(2);
  FaultPlane plane(g);
  ASSERT_TRUE(plane.fail_edge(1, 2));
  Router router(g, b, &plane);

  DegradationPolicy one_heal;
  one_heal.heal_attempts = 1;
  const TieredRoute degraded = router.route_with_degradation(0, 3, one_heal);
  EXPECT_EQ(degraded.tier, RouteTier::kDegraded);
  EXPECT_EQ(degraded.healed_links, 1u);
  ASSERT_TRUE(degraded.route.reachable());
  EXPECT_EQ(degraded.route.path, (std::vector<NodeId>{0, 1, 2, 3}));

  // With no heals, the free plane is also severed at 1-2: nothing connects.
  DegradationPolicy no_heals;
  no_heals.heal_attempts = 0;
  const TieredRoute lost = router.route_with_degradation(0, 3, no_heals);
  EXPECT_EQ(lost.tier, RouteTier::kUnreachable);
  EXPECT_FALSE(lost.route.reachable());
}

TEST(Degradation, UndominatedPairFallsBackToFreePlane) {
  const CsrGraph g = make_path(4);
  BrokerSet b(4);
  b.add(1);  // edge 2-3 is undominated — no dominating path to 3
  FaultPlane plane(g);
  Router router(g, b, &plane);

  const TieredRoute r = router.route_with_degradation(0, 3, {});
  EXPECT_EQ(r.tier, RouteTier::kFreeFallback);
  ASSERT_TRUE(r.route.reachable());
  EXPECT_EQ(r.route.hops(), 3u);

  DegradationPolicy strict;
  strict.allow_free_fallback = false;
  EXPECT_EQ(router.route_with_degradation(0, 3, strict).tier,
            RouteTier::kUnreachable);
}

TEST(Degradation, HealsDoNotLiftDominationRequirement) {
  // Edge 2-3 is undominated and *intact*: a degraded route may only cross
  // failed dominated links, so (0, 3) must still fall back to the free plane.
  const CsrGraph g = make_path(4);
  BrokerSet b(4);
  b.add(1);
  FaultPlane plane(g);
  ASSERT_TRUE(plane.fail_edge(0, 1));
  Router router(g, b, &plane);
  DegradationPolicy generous;
  generous.heal_attempts = 10;
  generous.allow_free_fallback = false;
  EXPECT_EQ(router.route_with_degradation(0, 3, generous).tier,
            RouteTier::kUnreachable);
}

TEST(Degradation, FailedEndpointIsUnreachable) {
  const CsrGraph g = make_path(4);
  BrokerSet b(4);
  b.add(1);
  b.add(2);
  FaultPlane plane(g);
  plane.fail_vertex(3);
  Router router(g, b, &plane);
  DegradationPolicy generous;
  generous.heal_attempts = 5;
  EXPECT_EQ(router.route_with_degradation(0, 3, generous).tier,
            RouteTier::kUnreachable);
  EXPECT_EQ(router.route_with_degradation(3, 0, generous).tier,
            RouteTier::kUnreachable);
}

TEST(Degradation, SamePairIsTriviallyDominated) {
  const CsrGraph g = make_path(4);
  BrokerSet b(4);
  FaultPlane plane(g);
  plane.fail_edge(0, 1);
  Router router(g, b, &plane);
  const TieredRoute r = router.route_with_degradation(2, 2, {});
  EXPECT_EQ(r.tier, RouteTier::kDominated);
  EXPECT_EQ(r.route.path, (std::vector<NodeId>{2}));
}

TEST(Degradation, RoutesSatisfyTierInvariants) {
  const CsrGraph g = make_connected_random(50, 0.1, 19);
  const BrokerSet b = bsr::broker::maxsg(g, 10).brokers;
  FaultPlane plane(g);
  Rng rng(20);
  for (const bsr::graph::Edge& e : g.edges()) {
    if (rng.bernoulli(0.2)) plane.fail_edge(e.u, e.v);
  }
  Router router(g, b, &plane);
  DegradationPolicy policy;
  policy.heal_attempts = 2;

  for (NodeId src = 0; src < 25; ++src) {
    const NodeId dst = 49 - src;
    const TieredRoute r = router.route_with_degradation(src, dst, policy);
    if (!r.route.reachable()) {
      EXPECT_EQ(r.tier, RouteTier::kUnreachable);
      continue;
    }
    ASSERT_EQ(r.route.path.front(), src);
    ASSERT_EQ(r.route.path.back(), dst);
    std::uint32_t failed_hops = 0;
    for (std::size_t i = 0; i + 1 < r.route.path.size(); ++i) {
      const NodeId u = r.route.path[i];
      const NodeId v = r.route.path[i + 1];
      ASSERT_TRUE(g.has_edge(u, v)) << u << "-" << v;
      EXPECT_TRUE(plane.vertex_ok(u));
      EXPECT_TRUE(plane.vertex_ok(v));
      if (!plane.edge_ok(u, v)) ++failed_hops;
      if (r.tier != RouteTier::kFreeFallback) {
        EXPECT_TRUE(b.dominates_edge(u, v));
      }
    }
    switch (r.tier) {
      case RouteTier::kDominated:
        EXPECT_EQ(failed_hops, 0u);
        EXPECT_EQ(r.healed_links, 0u);
        break;
      case RouteTier::kDegraded:
        EXPECT_GE(failed_hops, 1u);
        EXPECT_LE(failed_hops, policy.heal_attempts);
        EXPECT_EQ(failed_hops, r.healed_links);
        break;
      case RouteTier::kFreeFallback:
        EXPECT_EQ(failed_hops, 0u);
        // A fallback pair must genuinely lack an intact dominated route.
        EXPECT_FALSE(router.route_dominated(src, dst).reachable());
        break;
      case RouteTier::kUnreachable:
        ADD_FAILURE() << "reachable route tagged unreachable";
        break;
    }
  }
}

TEST(Degradation, TiersMatchBruteForceOnRebuiltGraph) {
  const CsrGraph g = make_connected_random(40, 0.12, 23);
  const BrokerSet b = bsr::broker::maxsg(g, 8).brokers;
  FaultPlane plane(g);
  Rng rng(24);
  for (const bsr::graph::Edge& e : g.edges()) {
    if (rng.bernoulli(0.3)) plane.fail_edge(e.u, e.v);
  }
  const CsrGraph damaged = plane.materialize();
  Router fault_router(g, b, &plane);
  Router brute_router(damaged, b);

  DegradationPolicy no_heals;  // kDominated / kFreeFallback must agree exactly
  no_heals.heal_attempts = 0;
  for (NodeId src = 0; src < 20; ++src) {
    const NodeId dst = 39 - src;
    const TieredRoute r = fault_router.route_with_degradation(src, dst, no_heals);
    const bool brute_dominated = brute_router.route_dominated(src, dst).reachable();
    const bool brute_free = brute_router.route_free(src, dst).reachable();
    if (brute_dominated) {
      EXPECT_EQ(r.tier, RouteTier::kDominated);
    } else if (brute_free) {
      EXPECT_EQ(r.tier, RouteTier::kFreeFallback);
    } else {
      EXPECT_EQ(r.tier, RouteTier::kUnreachable);
    }
  }
}

TEST(Degradation, LargerHealBudgetNeverWorsensTier) {
  const CsrGraph g = make_connected_random(40, 0.1, 29);
  const BrokerSet b = bsr::broker::maxsg(g, 8).brokers;
  FaultPlane plane(g);
  Rng rng(30);
  for (const bsr::graph::Edge& e : g.edges()) {
    if (rng.bernoulli(0.25)) plane.fail_edge(e.u, e.v);
  }
  Router router(g, b, &plane);
  for (NodeId src = 0; src < 15; ++src) {
    const NodeId dst = 39 - src;
    DegradationPolicy small, large;
    small.heal_attempts = 1;
    large.heal_attempts = 4;
    const auto tier_small = router.route_with_degradation(src, dst, small).tier;
    const auto tier_large = router.route_with_degradation(src, dst, large).tier;
    EXPECT_LE(static_cast<int>(tier_large), static_cast<int>(tier_small));
  }
}

TEST(Degradation, WithoutFaultPlaneCollapsesToTwoTiers) {
  const CsrGraph g = make_path(4);
  BrokerSet b(4);
  b.add(1);
  Router router(g, b);  // no plane at all
  EXPECT_EQ(router.route_with_degradation(0, 2, {}).tier, RouteTier::kDominated);
  EXPECT_EQ(router.route_with_degradation(0, 3, {}).tier,
            RouteTier::kFreeFallback);
}

TEST(Degradation, TierSharesSumToSampledPairs) {
  const CsrGraph g = make_connected_random(60, 0.08, 31);
  const BrokerSet b = bsr::broker::maxsg(g, 12).brokers;
  FaultPlane plane(g);
  Rng fail_rng(32);
  for (const bsr::graph::Edge& e : g.edges()) {
    if (fail_rng.bernoulli(0.2)) plane.fail_edge(e.u, e.v);
  }
  Router router(g, b, &plane);
  Rng pair_rng(33);
  const TierShares shares = sample_tier_shares(router, pair_rng, 200, {});
  EXPECT_EQ(shares.pairs, 200u);
  EXPECT_EQ(shares.dominated + shares.degraded + shares.free_fallback +
                shares.unreachable,
            shares.pairs);
  EXPECT_DOUBLE_EQ(shares.fraction(shares.dominated) +
                       shares.fraction(shares.degraded) +
                       shares.fraction(shares.free_fallback) +
                       shares.fraction(shares.unreachable),
                   1.0);
}

TEST(Degradation, TierTracksInterleavedFailHealSequence) {
  // One pair walked through the whole tier ladder and back: each fail
  // pushes (0, 3) down a tier, each heal lifts it — the router re-reads the
  // plane on every call, so tiers must track the interleaving exactly.
  const CsrGraph g = make_path(4);
  BrokerSet b(4);
  b.add(1);
  b.add(2);
  FaultPlane plane(g);
  Router router(g, b, &plane);
  DegradationPolicy policy;
  policy.heal_attempts = 1;
  const auto tier = [&] {
    return router.route_with_degradation(0, 3, policy).tier;
  };

  EXPECT_EQ(tier(), RouteTier::kDominated);
  ASSERT_TRUE(plane.fail_edge(1, 2));
  EXPECT_EQ(tier(), RouteTier::kDegraded);  // one heal bridges the cut
  ASSERT_TRUE(plane.fail_edge(2, 3));
  EXPECT_EQ(tier(), RouteTier::kUnreachable);  // two cuts beat the budget
  ASSERT_TRUE(plane.heal_edge(1, 2));
  EXPECT_EQ(tier(), RouteTier::kDegraded);  // heal arrives mid-degradation
  ASSERT_TRUE(plane.heal_edge(2, 3));
  EXPECT_EQ(tier(), RouteTier::kDominated);  // full recovery

  // Vertex loss interleaved with link loss: failing broker 2 severs the
  // dominated plane outright; healing it mid-sequence restores service even
  // while an (undominated-tier) link fault persists elsewhere.
  ASSERT_TRUE(plane.fail_vertex(2));
  EXPECT_EQ(tier(), RouteTier::kUnreachable);
  ASSERT_TRUE(plane.fail_edge(0, 1));
  ASSERT_TRUE(plane.heal_vertex(2));
  EXPECT_EQ(tier(), RouteTier::kDegraded);  // back up, healing the 0-1 cut
  ASSERT_TRUE(plane.heal_edge(0, 1));
  EXPECT_EQ(tier(), RouteTier::kDominated);
  EXPECT_TRUE(plane.pristine());
}

TEST(Degradation, RandomFailHealStormMatchesMaterializedTruth) {
  // Interleave random fails and heals; after every step the incremental
  // router must agree tier-for-tier with a fresh router on the materialized
  // damaged graph (no stale state can survive a heal).
  const CsrGraph g = make_connected_random(30, 0.12, 47);
  const BrokerSet b = bsr::broker::maxsg(g, 6).brokers;
  FaultPlane plane(g);
  Router router(g, b, &plane);
  Rng rng(48);
  DegradationPolicy no_heals;
  no_heals.heal_attempts = 0;

  std::vector<bsr::graph::Edge> down;
  const auto edges = g.edges();
  for (int step = 0; step < 60; ++step) {
    if (down.empty() || rng.bernoulli(0.6)) {
      const auto& e = edges[rng.uniform(edges.size())];
      if (plane.fail_edge(e.u, e.v)) down.push_back(e);
    } else {
      const auto pick = rng.uniform(down.size());
      plane.heal_edge(down[pick].u, down[pick].v);
      down.erase(down.begin() + static_cast<std::ptrdiff_t>(pick));
    }

    const CsrGraph damaged = plane.materialize();
    Router brute(damaged, b);
    for (NodeId src = 0; src < 10; ++src) {
      const NodeId dst = 29 - src;
      const auto tier = router.route_with_degradation(src, dst, no_heals).tier;
      if (brute.route_dominated(src, dst).reachable()) {
        EXPECT_EQ(tier, RouteTier::kDominated);
      } else if (brute.route_free(src, dst).reachable()) {
        EXPECT_EQ(tier, RouteTier::kFreeFallback);
      } else {
        EXPECT_EQ(tier, RouteTier::kUnreachable);
      }
    }
  }
}

/// The path s..t read by hand off an exhaustive engine BFS through `admit`.
template <class Filter>
std::vector<NodeId> exhaustive_tree_path(const CsrGraph& g, NodeId s, NodeId t,
                                         Filter admit) {
  bsr::graph::engine::Workspace ws;
  bsr::graph::engine::bfs(g, s, ws, admit);
  if (!ws.visited(t)) return {};
  std::vector<NodeId> path{t};
  for (NodeId w = t; w != s; w = ws.parent(w)) path.push_back(ws.parent(w));
  std::reverse(path.begin(), path.end());
  return path;
}

TEST(Degradation, RoutesEqualExhaustiveTreePaths) {
  // Router routes stop at dst. Each must still be the path the full BFS tree
  // through the same filter holds: free and dominated routes under a fault
  // plane (failed links, a failed broker, failed non-brokers), and the
  // believed route of a stale health view that quarantines a live broker
  // and still trusts the failed one.
  namespace engine = bsr::graph::engine;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const CsrGraph g = make_connected_random(90, 0.05, seed + 40);
    const NodeId n = g.num_vertices();
    const BrokerSet b = bsr::broker::maxsg(g, 12).brokers;
    FaultPlane plane(g);
    Rng rng(seed + 50);
    for (const bsr::graph::Edge& e : g.edges()) {
      if (rng.bernoulli(0.1)) plane.fail_edge(e.u, e.v);
    }
    plane.fail_vertex(b.members()[0]);
    for (NodeId v = 1; v < n; v += 17) {
      if (!b.contains(v)) plane.fail_vertex(v);
    }
    HealthView view;
    view.routable = b.mask();
    view.routable[b.members()[1]] = false;
    Router router(g, b, &plane);
    router.set_health_view(&view);

    const engine::DominatedEdgeFilter dom{&b.mask()};
    const engine::FaultAwareFilter up{&plane};
    const engine::DominatedEdgeFilter believed{&view.routable};
    for (const auto& [src, dst] : bsr::graph::sample_pairs(rng, n, 150)) {
      EXPECT_EQ(router.route_free(src, dst).path,
                exhaustive_tree_path(g, src, dst, up));
      EXPECT_EQ(router.route_dominated(src, dst).path,
                exhaustive_tree_path(g, src, dst, engine::BothFilters{dom, up}));
      EXPECT_EQ(router.route_with_health(src, dst).route.path,
                exhaustive_tree_path(g, src, dst, believed));
    }
  }
}

TEST(Degradation, RouteTierToStringIsStable) {
  EXPECT_STREQ(to_string(RouteTier::kDominated), "dominated");
  EXPECT_STREQ(to_string(RouteTier::kDegraded), "degraded");
  EXPECT_STREQ(to_string(RouteTier::kFreeFallback), "free-fallback");
  EXPECT_STREQ(to_string(RouteTier::kUnreachable), "unreachable");
}

}  // namespace
}  // namespace bsr::sim
