#include "sim/latency.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "broker/maxsg.hpp"
#include "broker/verify.hpp"

namespace bsr::sim {
namespace {

using bsr::broker::BrokerSet;
using bsr::graph::NodeId;
using bsr::graph::Rng;

topology::InternetTopology small_topo(std::uint64_t seed) {
  auto cfg = topology::InternetConfig{}.scaled(0.02);
  cfg.seed = seed;
  return topology::make_internet(cfg);
}

TEST(LatencyModel, SymmetricAndPositive) {
  const auto topo = small_topo(1);
  Rng rng(2);
  const LatencyModel model(topo, {}, rng);
  std::size_t checked = 0;
  for (NodeId u = 0; u < topo.num_vertices() && checked < 500; ++u) {
    for (const NodeId v : topo.graph.neighbors(u)) {
      EXPECT_GT(model.latency(u, v), 0.0);
      EXPECT_DOUBLE_EQ(model.latency(u, v), model.latency(v, u));
      ++checked;
    }
  }
  EXPECT_GT(checked, 100u);
}

TEST(LatencyModel, TierStructureRespected) {
  const auto topo = small_topo(3);
  LatencyModelConfig config;
  config.jitter = 0.0;  // deterministic bases
  Rng rng(4);
  const LatencyModel model(topo, config, rng);
  // Find a core (tier-1/tier-1-ish) edge and a stub edge; the core edge
  // must carry the long-haul base.
  double core_latency = 0.0, stub_latency = 0.0;
  for (NodeId u = 0; u < topo.num_vertices(); ++u) {
    for (const NodeId v : topo.graph.neighbors(u)) {
      if (u >= v) continue;
      const bool u_t1 = topo.meta[u].tier == topology::Tier::kTier1;
      const bool v_stub = !topo.is_ixp(v) && topo.meta[v].tier == topology::Tier::kStub;
      if (u_t1) core_latency = model.latency(u, v);
      if (v_stub && !u_t1 && !topo.is_ixp(u) &&
          topo.meta[u].tier == topology::Tier::kStub) {
        stub_latency = model.latency(u, v);
      }
    }
  }
  ASSERT_GT(core_latency, 0.0);
  if (stub_latency > 0.0) {
    EXPECT_GT(core_latency, stub_latency);
  }
}

TEST(LatencyModel, PathLatencySumsHops) {
  const auto topo = small_topo(5);
  LatencyModelConfig config;
  config.jitter = 0.0;
  Rng rng(6);
  const LatencyModel model(topo, config, rng);
  // Any 2-hop path via a common neighbor.
  const NodeId u = 0;
  const NodeId mid = topo.graph.neighbors(u)[0];
  const NodeId w = topo.graph.neighbors(mid)[0];
  const std::vector<NodeId> path{u, mid, w};
  EXPECT_DOUBLE_EQ(model.path_latency(path),
                   model.latency(u, mid) + model.latency(mid, w));
}

TEST(LatencyModel, RejectsNonEdgesInEveryBuild) {
  const auto topo = small_topo(9);
  Rng rng(10);
  const LatencyModel model(topo, {}, rng);
  const auto& g = topo.graph;
  // The first vertex past 0 that is not its neighbour: a lookup that lands
  // inside 0's list without finding the id.
  const auto nbrs0 = g.neighbors(0);
  NodeId far = 1;
  while (std::binary_search(nbrs0.begin(), nbrs0.end(), far)) ++far;
  ASSERT_LT(far, g.num_vertices());
  EXPECT_THROW((void)model.latency(0, far), std::invalid_argument);
  EXPECT_THROW((void)model.latency(far, 0), std::invalid_argument);
  EXPECT_THROW((void)model.latency(0, 0), std::invalid_argument);  // no self-loops
  // Past the end of the last vertex's list, which ends the adjacency array.
  const NodeId last = g.num_vertices() - 1;
  const auto nbrs_last = g.neighbors(last);
  ASSERT_FALSE(nbrs_last.empty());
  const NodeId below = nbrs_last.back() + 1;
  if (below != last) {
    ASSERT_LT(below, last);
    EXPECT_THROW((void)model.latency(last, below), std::invalid_argument);
  }
  EXPECT_THROW((void)model.latency(last, last), std::invalid_argument);
  // A real edge still answers.
  EXPECT_GT(model.latency(0, nbrs0.front()), 0.0);
}

TEST(LatencyModel, RejectsOutOfRangeIds) {
  const auto topo = small_topo(11);
  Rng rng(12);
  const LatencyModel model(topo, {}, rng);
  const NodeId n = topo.num_vertices();
  EXPECT_THROW((void)model.latency(n, 0), std::invalid_argument);
  EXPECT_THROW((void)model.latency(0, n), std::invalid_argument);
  EXPECT_THROW((void)model.latency(n + 7, n + 9), std::invalid_argument);
}

TEST(LatencyModel, PathLatencyRejectsANonEdgeHop) {
  const auto topo = small_topo(13);
  Rng rng(14);
  const LatencyModel model(topo, {}, rng);
  const auto& g = topo.graph;
  const NodeId mid = g.neighbors(0)[0];
  const auto nbrs_mid = g.neighbors(mid);
  NodeId far = 0;
  while (far == mid || std::binary_search(nbrs_mid.begin(), nbrs_mid.end(), far)) ++far;
  const std::vector<NodeId> path{0, mid, far};
  EXPECT_THROW((void)model.path_latency(path), std::invalid_argument);
  const std::vector<NodeId> off_graph{0, mid, g.num_vertices()};
  EXPECT_THROW((void)model.path_latency(off_graph), std::invalid_argument);
}

TEST(LatencyRouting, FreePlaneBeatsOrMatchesDominated) {
  const auto topo = small_topo(7);
  Rng rng(8);
  const LatencyModel model(topo, {}, rng);
  const auto brokers = bsr::broker::maxsg(topo.graph, 20).brokers;
  int compared = 0;
  for (NodeId dst = 100; dst < 160 && compared < 20; dst += 3) {
    const auto free_route = route_min_latency(topo.graph, model, 50, dst, nullptr);
    const auto brokered = route_min_latency(topo.graph, model, 50, dst, &brokers);
    if (!free_route.reachable() || !brokered.reachable()) continue;
    ++compared;
    EXPECT_LE(free_route.latency_ms, brokered.latency_ms + 1e-9);
    EXPECT_TRUE(bsr::broker::is_dominating_path(topo.graph, brokers, brokered.path));
    EXPECT_NEAR(brokered.latency_ms, model.path_latency(brokered.path), 1e-9);
  }
  EXPECT_GT(compared, 5);
}

TEST(LatencyRouting, UnreachableHandled) {
  const auto topo = small_topo(9);
  Rng rng(10);
  const LatencyModel model(topo, {}, rng);
  const BrokerSet none(topo.num_vertices());
  const auto route = route_min_latency(topo.graph, model, 0, 1, &none);
  // With no brokers the dominated plane is empty (unless src-dst adjacent
  // and... no: domination needs a broker endpoint, so no edge qualifies).
  EXPECT_FALSE(route.reachable());
  const auto bad = route_min_latency(topo.graph, model, 0, topo.num_vertices(), nullptr);
  EXPECT_FALSE(bad.reachable());
}

TEST(LatencyModel, RejectsNegativeJitter) {
  const auto topo = small_topo(11);
  Rng rng(12);
  LatencyModelConfig config;
  config.jitter = -0.1;
  EXPECT_THROW(LatencyModel(topo, config, rng), std::invalid_argument);
}

}  // namespace
}  // namespace bsr::sim
