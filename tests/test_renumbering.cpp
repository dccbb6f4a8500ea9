// Locality renumbering: permutation validity, structural round-trips, and
// the determinism contract — relabel -> solve -> unlabel must equal the
// direct solve bit-for-bit for every solver that accepts a Renumbering.
#include "graph/renumbering.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "broker/broker_set.hpp"
#include "broker/greedy_mcb.hpp"
#include "broker/maxsg.hpp"
#include "broker/resilience.hpp"
#include "graph/engine.hpp"
#include "graph/fault_plane.hpp"
#include "graph/rng.hpp"
#include "reference_ingest.hpp"
#include "sim/router.hpp"
#include "test_util.hpp"
#include "topology/internet.hpp"
#include "topology/renumber.hpp"
#include "topology/serialization.hpp"

namespace bsr::graph {
namespace {

using bsr::test::make_connected_random;
using bsr::test::make_random;
using bsr::test::make_star;

/// Restores the environment-derived thread count even if a test fails.
struct ThreadGuard {
  ~ThreadGuard() { engine::set_num_threads(0); }
};

std::vector<NodeId> shuffled_order(NodeId n, std::uint64_t seed) {
  std::vector<NodeId> order(n);
  for (NodeId v = 0; v < n; ++v) order[v] = v;
  Rng rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = rng.uniform(i);
    std::swap(order[i - 1], order[j]);
  }
  return order;
}

TEST(Renumbering, IdentityIsNoOp) {
  const CsrGraph g = make_connected_random(64, 0.08, 7);
  const Renumbering id = Renumbering::identity(g.num_vertices());
  EXPECT_TRUE(id.is_identity());
  const CsrGraph h = id.apply(g);
  // Byte-for-byte: same offsets layout, same adjacency content.
  ASSERT_EQ(h.num_vertices(), g.num_vertices());
  ASSERT_EQ(h.num_edges(), g.num_edges());
  for (NodeId v = 0; v < g.num_vertices(); ++v) {
    const auto a = g.neighbors(v);
    const auto b = h.neighbors(v);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "adjacency differs at v=" << v;
  }
}

TEST(Renumbering, FromNewOrderRejectsNonPermutations) {
  EXPECT_THROW(Renumbering::from_new_order({0, 0, 1}), std::invalid_argument);
  EXPECT_THROW(Renumbering::from_new_order({0, 3, 1}), std::invalid_argument);
  EXPECT_NO_THROW(Renumbering::from_new_order({2, 0, 1}));
}

TEST(Renumbering, MapsAreMutualInverses) {
  const Renumbering r = Renumbering::from_new_order(shuffled_order(50, 3));
  for (NodeId v = 0; v < 50; ++v) {
    EXPECT_EQ(r.to_old(r.to_new(v)), v);
    EXPECT_EQ(r.to_new(r.to_old(v)), v);
  }
}

TEST(Renumbering, ApplyPreservesStructure) {
  const CsrGraph g = make_random(90, 0.06, 11);
  const Renumbering r = Renumbering::from_new_order(shuffled_order(90, 4));
  const CsrGraph h = r.apply(g);
  ASSERT_EQ(h.num_edges(), g.num_edges());
  for (NodeId u = 0; u < g.num_vertices(); ++u) {
    EXPECT_EQ(h.degree(r.to_new(u)), g.degree(u));
    for (const NodeId v : g.neighbors(u)) {
      EXPECT_TRUE(h.has_edge(r.to_new(u), r.to_new(v)));
    }
  }
}

TEST(Renumbering, DegreeDescendingPacksHubsFirst) {
  const CsrGraph g = make_star(40);  // vertex 0 is the hub already
  const Renumbering r = Renumbering::degree_descending(g);
  EXPECT_EQ(r.to_old(0), 0u);  // highest degree keeps slot 0
  const CsrGraph h = r.apply(g);
  for (NodeId v = 1; v < h.num_vertices(); ++v) {
    EXPECT_LE(h.degree(v), h.degree(0));
  }
}

TEST(Renumbering, BfsOrderCoversUnreachedVertices) {
  // Two components: BFS order from component A, stragglers appended in
  // ascending id order — still a valid permutation.
  const CsrGraph g = make_random(60, 0.03, 5);
  const Renumbering r = Renumbering::bfs_order(g, 0);
  std::vector<NodeId> seen(60, 0);
  for (NodeId v = 0; v < 60; ++v) seen[r.to_old(v)] += 1;
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                          [](NodeId c) { return c == 1; }));
}

TEST(Renumbering, BrokerSetRoundTrip) {
  const Renumbering r = Renumbering::from_new_order(shuffled_order(30, 9));
  bsr::broker::BrokerSet b(30);
  b.add(4);
  b.add(17);
  b.add(2);
  const auto mapped = bsr::broker::renumber_to_new(r, b);
  const auto back = bsr::broker::renumber_to_old(r, mapped);
  ASSERT_EQ(back.size(), b.size());
  EXPECT_TRUE(std::equal(back.members().begin(), back.members().end(),
                         b.members().begin()));
  EXPECT_TRUE(mapped.contains(r.to_new(17)));
}

TEST(Renumbering, MaxsgRoundTripMatchesDirectSolve) {
  ThreadGuard guard;
  for (std::uint64_t seed : {1ull, 21ull}) {
    const CsrGraph g = make_connected_random(220, 0.025, seed);
    const Renumbering r = Renumbering::degree_descending(g);
    const CsrGraph h = r.apply(g);
    const auto direct = bsr::broker::maxsg(g, 16);
    for (const int threads : {1, 4}) {
      engine::set_num_threads(threads);
      bsr::broker::MaxSgOptions options;
      options.renumbering = &r;
      const auto via = bsr::broker::maxsg(h, 16, options);
      ASSERT_EQ(via.brokers.size(), direct.brokers.size());
      EXPECT_TRUE(std::equal(via.brokers.members().begin(),
                             via.brokers.members().end(),
                             direct.brokers.members().begin()))
          << "seed=" << seed << " threads=" << threads;
      EXPECT_EQ(via.component_curve, direct.component_curve);
      EXPECT_EQ(via.final_component, direct.final_component);
      EXPECT_EQ(via.coverage, direct.coverage);
    }
  }
}

TEST(Renumbering, GreedyRoundTripMatchesDirectSolve) {
  ThreadGuard guard;
  const CsrGraph g = make_connected_random(180, 0.03, 13);
  const Renumbering r = Renumbering::degree_descending(g);
  const CsrGraph h = r.apply(g);
  const auto direct = bsr::broker::greedy_mcb(g, 12);
  for (const int threads : {1, 3}) {
    engine::set_num_threads(threads);
    const auto via = bsr::broker::greedy_mcb(h, 12, &r);
    ASSERT_EQ(via.brokers.size(), direct.brokers.size());
    EXPECT_TRUE(std::equal(via.brokers.members().begin(),
                           via.brokers.members().end(),
                           direct.brokers.members().begin()));
    EXPECT_EQ(via.coverage_curve, direct.coverage_curve);
    EXPECT_EQ(via.coverage, direct.coverage);
  }
}

TEST(Renumbering, ResilienceCurveInvariantUnderRelabeling) {
  const CsrGraph g = make_connected_random(150, 0.04, 17);
  const Renumbering r = Renumbering::degree_descending(g);
  const CsrGraph h = r.apply(g);
  const auto brokers = bsr::broker::greedy_mcb(g, 10).brokers;
  const std::vector<std::size_t> steps = {0, 2, 4, 6};
  Rng rng_a(99);
  Rng rng_b(99);
  const auto direct = bsr::broker::resilience_curve(
      g, brokers, steps, bsr::broker::FailureMode::kRandom, rng_a);
  const auto via = bsr::broker::resilience_curve(
      h, bsr::broker::renumber_to_new(r, brokers), steps,
      bsr::broker::FailureMode::kRandom, rng_b);
  EXPECT_EQ(via.failures, direct.failures);
  EXPECT_EQ(via.connectivity, direct.connectivity);  // exact, not approximate
}

TEST(Renumbering, RouterTiersInvariantUnderRelabeling) {
  const CsrGraph g = make_connected_random(100, 0.05, 23);
  const NodeId n = g.num_vertices();
  const Renumbering r = Renumbering::degree_descending(g);
  const CsrGraph h = r.apply(g);
  const auto brokers = bsr::broker::greedy_mcb(g, 8).brokers;
  const auto brokers_new = bsr::broker::renumber_to_new(r, brokers);

  FaultPlane plane_old(g);
  FaultPlane plane_new(h);
  Rng rng(7);
  for (const Edge& e : g.edges()) {
    if (rng.bernoulli(0.1)) {
      plane_old.fail_edge(e.u, e.v);
      const Edge m = r.map_edge_to_new(e);
      plane_new.fail_edge(m.u, m.v);
    }
  }

  bsr::sim::Router router_old(g, brokers, &plane_old);
  bsr::sim::Router router_new(h, brokers_new, &plane_new);
  const bsr::sim::DegradationPolicy policy;
  for (NodeId src = 0; src < n; src += 13) {
    for (NodeId dst = 1; dst < n; dst += 17) {
      if (src == dst) continue;
      const auto a = router_old.route_with_degradation(src, dst, policy);
      const auto b = router_new.route_with_degradation(r.to_new(src),
                                                       r.to_new(dst), policy);
      EXPECT_EQ(b.tier, a.tier) << src << "->" << dst;
      EXPECT_EQ(b.route.hops(), a.route.hops()) << src << "->" << dst;
    }
  }
}

TEST(Renumbering, TopologyRenumberPreservesContract) {
  const auto topo =
      bsr::topology::make_internet(bsr::topology::InternetConfig{}.scaled(0.01));
  const auto rt = bsr::topology::renumber_topology(topo);
  const NodeId n = topo.num_vertices();
  ASSERT_EQ(rt.topo.num_vertices(), n);
  ASSERT_EQ(rt.topo.graph.num_edges(), topo.graph.num_edges());
  EXPECT_EQ(rt.topo.num_ases, topo.num_ases);
  // Segmented relabeling keeps the AS/IXP id ranges (is_ixp stays valid) and
  // permutes metadata alongside.
  for (NodeId v = 0; v < n; ++v) {
    const NodeId old_id = rt.renumbering.to_old(v);
    EXPECT_EQ(rt.topo.is_ixp(v), topo.is_ixp(old_id));
    EXPECT_EQ(rt.topo.meta[v].tier, topo.meta[old_id].tier);
    EXPECT_EQ(rt.topo.meta[v].type, topo.meta[old_id].type);
  }
  // Relationship labels survive with their orientation.
  std::size_t checked = 0;
  for (const Edge& e : topo.graph.edges()) {
    if (++checked > 500) break;
    const bool provider_old = topo.relations.is_provider_of(e.u, e.v);
    EXPECT_EQ(rt.topo.relations.is_provider_of(rt.renumbering.to_new(e.u),
                                               rt.renumbering.to_new(e.v)),
              provider_old);
  }
  // Locality must improve on the generator's creation-order labels.
  EXPECT_LT(average_neighbor_gap(rt.topo.graph),
            average_neighbor_gap(topo.graph));
}

TEST(Renumbering, RenumberedTopologySerializationRoundTrip) {
  const auto topo =
      bsr::topology::make_internet(bsr::topology::InternetConfig{}.scaled(0.005));
  const auto rt = bsr::topology::renumber_topology(topo);
  std::stringstream ss;
  bsr::topology::save_topology(ss, rt.topo);
  const auto loaded = bsr::topology::load_topology(ss);
  ASSERT_EQ(loaded.num_vertices(), rt.topo.num_vertices());
  ASSERT_EQ(loaded.graph.num_edges(), rt.topo.graph.num_edges());
  EXPECT_EQ(loaded.num_ases, rt.topo.num_ases);
  EXPECT_EQ(loaded.graph.edges(), rt.topo.graph.edges());
  for (NodeId v = 0; v < loaded.num_vertices(); v += 7) {
    EXPECT_EQ(loaded.meta[v].tier, rt.topo.meta[v].tier);
  }
}

TEST(Renumbering, ApplyMatchesPerListSortReference) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const CsrGraph g = make_random(120 + 40 * static_cast<NodeId>(seed), 0.04, seed);
    const Renumbering ren =
        Renumbering::from_new_order(shuffled_order(g.num_vertices(), seed + 100));
    EXPECT_TRUE(ren.apply(g) == bsr::test::reference::relabel(g, ren)) << "seed " << seed;
  }
}

TEST(Renumbering, ApplyReportsWhereEverySlotWent) {
  const CsrGraph g = make_random(200, 0.05, 41);
  const Renumbering ren = Renumbering::from_new_order(shuffled_order(200, 42));
  // The owner of every adjacency slot, so a slot names its directed edge.
  const auto owners = [](const CsrGraph& graph) {
    std::vector<NodeId> owner(graph.adjacency().size());
    for (NodeId v = 0; v < graph.num_vertices(); ++v) {
      for (auto s = graph.offsets()[v]; s < graph.offsets()[v + 1]; ++s) owner[s] = v;
    }
    return owner;
  };
  const auto old_owner = owners(g);
  std::vector<std::uint64_t> old_of(g.adjacency().size(), ~0ull);
  std::vector<bool> swapped_of(g.adjacency().size(), false);
  const CsrGraph h = ren.apply(g, [&](std::uint64_t old_slot, std::uint64_t new_slot,
                                      bool swapped) {
    ASSERT_EQ(old_of[new_slot], ~0ull) << "new slot reported twice";
    old_of[new_slot] = old_slot;
    swapped_of[new_slot] = swapped;
  });
  const auto new_owner = owners(h);
  for (std::uint64_t s = 0; s < old_of.size(); ++s) {
    ASSERT_NE(old_of[s], ~0ull);
    // The new slot holds the same undirected edge, seen from its other end.
    const NodeId a = old_owner[old_of[s]];
    const NodeId b = g.adjacency()[old_of[s]];
    EXPECT_EQ(new_owner[s], ren.to_new(b));
    EXPECT_EQ(h.adjacency()[s], ren.to_new(a));
    EXPECT_EQ(swapped_of[s], (a < b) != (ren.to_new(a) < ren.to_new(b)));
  }
}

TEST(Renumbering, TopologyRenumberMatchesLookupReference) {
  for (const std::uint64_t seed : {1ull, 7ull, 23ull, 9001ull}) {
    auto config = bsr::topology::InternetConfig{}.scaled(0.01);
    config.seed = seed;
    const auto topo = bsr::topology::make_internet(config);
    const auto got = bsr::topology::renumber_topology(topo);
    const auto want = bsr::test::reference::renumber_topology(topo);
    SCOPED_TRACE("seed " + std::to_string(seed));
    bsr::test::expect_same_topology(got.topo, want.topo);
    EXPECT_TRUE(std::ranges::equal(got.renumbering.to_new_map(),
                                   want.renumbering.to_new_map()));
    EXPECT_TRUE(std::ranges::equal(got.renumbering.to_old_map(),
                                   want.renumbering.to_old_map()));
  }
}

TEST(Renumbering, NeighborGapMetricsAgree) {
  const CsrGraph g = make_connected_random(80, 0.05, 29);
  const std::uint64_t total = total_neighbor_gap(g);
  const double avg = average_neighbor_gap(g);
  EXPECT_DOUBLE_EQ(avg, static_cast<double>(total) /
                            static_cast<double>(2 * g.num_edges()));
  EXPECT_EQ(average_neighbor_gap(CsrGraph()), 0.0);
}

}  // namespace
}  // namespace bsr::graph
