// Differential tests: the valley-free searches and the kDegraded tier's
// heal-budget search, which run on engine::product_bfs, against the
// standalone searches they replaced (reference_product_search.hpp), over
// seeded random graphs, relationship labels, broker sets and fault states.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "broker/broker_set.hpp"
#include "graph/fault_plane.hpp"
#include "graph/rng.hpp"
#include "reference_product_search.hpp"
#include "sim/router.hpp"
#include "test_util.hpp"
#include "topology/relationships.hpp"

namespace bsr {
namespace {

using broker::BrokerSet;
using graph::CsrGraph;
using graph::Edge;
using graph::FaultPlane;
using graph::NodeId;
using graph::Rng;
using sim::RouteTier;
using topology::EdgeRel;
using topology::EdgeRelations;

constexpr std::uint64_t kSeeds = 40;

struct Case {
  CsrGraph graph;
  EdgeRelations rels;
  BrokerSet brokers;
};

/// A seeded graph of 30-75 vertices, connected or not, with uniformly random
/// relationship labels and about a third of the vertices brokers.
Case make_case(std::uint64_t seed) {
  const auto n = static_cast<NodeId>(30 + seed % 4 * 15);
  CsrGraph g = seed % 2 == 0 ? bsr::test::make_random(n, 0.08, seed)
                             : bsr::test::make_connected_random(n, 0.05, seed);
  Rng rng(seed * 7919 + 1);
  const auto edges = g.edges();
  std::vector<EdgeRel> labels(edges.size());
  for (EdgeRel& label : labels) label = static_cast<EdgeRel>(rng.uniform(3));
  BrokerSet brokers(n);
  for (NodeId v = 0; v < n; ++v) {
    if (rng.bernoulli(0.35)) brokers.add(v);
  }
  EdgeRelations rels(g, edges, labels);
  return {std::move(g), std::move(rels), std::move(brokers)};
}

using EdgeOkFn = std::function<bool(NodeId, NodeId)>;

TEST(ProductSearch, ValleyFreeDistancesMatchReference) {
  // Every source under four settings: no predicate, the dominated edge_ok,
  // a third of the edges exempt from policy, and both (as Fig. 5b runs it).
  std::size_t narrowed = 0, widened = 0;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const Case c = make_case(seed);
    const CsrGraph& g = c.graph;
    const EdgeOkFn dominated = [&c](NodeId u, NodeId v) {
      return c.brokers.dominates_edge(u, v);
    };
    const topology::EdgeOverrideFn exempt = [seed](NodeId u, NodeId v) {
      if (u > v) std::swap(u, v);
      std::uint64_t state = seed ^ ((std::uint64_t{u} << 32) | v);
      return graph::splitmix64(state) % 3 == 0;
    };
    const std::vector<std::pair<EdgeOkFn, topology::EdgeOverrideFn>> settings = {
        {{}, {}}, {dominated, {}}, {{}, exempt}, {dominated, exempt}};
    for (NodeId src = 0; src < g.num_vertices(); ++src) {
      std::vector<std::vector<std::uint32_t>> dists;
      for (std::size_t i = 0; i < settings.size(); ++i) {
        const auto& [edge_ok, override_edge] = settings[i];
        dists.push_back(
            topology::valley_free_distances(g, c.rels, src, edge_ok, override_edge));
        EXPECT_EQ(dists.back(), test::reference::valley_free_distances(
                                    g, c.rels, src, edge_ok, override_edge))
            << "seed " << seed << " source " << src << " setting " << i;
      }
      if (dists[1] != dists[0]) ++narrowed;
      if (dists[2] != dists[0]) ++widened;
    }
  }
  // Both predicates change the answer for many sources, so each is tested.
  EXPECT_GT(narrowed, 500u);
  EXPECT_GT(widened, 500u);
}

TEST(ProductSearch, ValleyFreePathsMatchReference) {
  std::size_t reached = 0, unreached = 0, same = 0;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const Case c = make_case(seed);
    const NodeId n = c.graph.num_vertices();
    Rng rng(seed + 5);
    for (int i = 0; i < 200; ++i) {
      const auto src = static_cast<NodeId>(rng.uniform(n));
      const auto dst = i % 10 == 0 ? src : static_cast<NodeId>(rng.uniform(n));
      const auto path = topology::valley_free_path(c.graph, c.rels, src, dst);
      EXPECT_EQ(path, test::reference::valley_free_path(c.graph, c.rels, src, dst))
          << "seed " << seed << " pair " << src << "->" << dst;
      if (src == dst) {
        ++same;
      } else if (path.empty()) {
        ++unreached;
      } else {
        ++reached;
      }
    }
  }
  EXPECT_GT(reached, 1000u);
  EXPECT_GT(unreached, 100u);
  EXPECT_GT(same, 100u);
}

TEST(ProductSearch, HealRoutesMatchReference) {
  // Wherever the dominated tier fails, the tier, path and healed_links are
  // what the reference heal search (then the free plane) gives, for heal
  // budgets 0-3 over failed links and failed vertices.
  std::size_t degraded = 0, multi_heal = 0, not_degraded = 0;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const Case c = make_case(seed);
    const CsrGraph& g = c.graph;
    const NodeId n = g.num_vertices();
    FaultPlane plane(g);
    Rng rng(seed + 11);
    const double link_p = 0.1 + 0.1 * static_cast<double>(seed % 3);
    for (const Edge& e : g.edges()) {
      if (rng.bernoulli(link_p)) plane.fail_edge(e.u, e.v);
    }
    for (NodeId v = 0; v < n; ++v) {
      if (rng.bernoulli(0.05)) plane.fail_vertex(v);
    }
    sim::Router router(g, c.brokers, &plane);
    for (std::uint32_t heals = 0; heals <= 3; ++heals) {
      sim::DegradationPolicy policy;
      policy.heal_attempts = heals;
      for (NodeId src = 0; src < n; src += 2) {
        for (NodeId dst = 0; dst < n; dst += 3) {
          const sim::TieredRoute r = router.route_with_degradation(src, dst, policy);
          if (r.tier == RouteTier::kDominated) continue;
          std::uint32_t ref_heals = 0;
          sim::Route ref;
          if (!plane.pristine() && heals > 0 && plane.vertex_ok(src) &&
              plane.vertex_ok(dst) && src != dst) {
            ref = test::reference::route_healed(g, c.brokers, plane, src, dst, heals,
                                                ref_heals);
          }
          if (ref.reachable()) {
            ++degraded;
            if (ref_heals >= 2) ++multi_heal;
            EXPECT_EQ(r.tier, RouteTier::kDegraded);
            EXPECT_EQ(r.route.path, ref.path);
            EXPECT_EQ(r.healed_links, ref_heals);
          } else {
            ++not_degraded;
            const sim::Route free = router.route_free(src, dst);
            EXPECT_EQ(r.tier, free.reachable() ? RouteTier::kFreeFallback
                                               : RouteTier::kUnreachable);
            EXPECT_EQ(r.route.path, free.path);
            EXPECT_EQ(r.healed_links, 0u);
          }
        }
      }
    }
  }
  EXPECT_GT(degraded, 1000u);
  EXPECT_GT(multi_heal, 100u);
  EXPECT_GT(not_degraded, 1000u);
}

}  // namespace
}  // namespace bsr
