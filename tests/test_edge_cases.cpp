// Cross-module edge cases and misuse paths not covered by the per-module
// suites: buffer reuse, degenerate sizes, and API misuse that must fail
// loudly rather than corrupt state.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "broker/dominated.hpp"
#include "broker/greedy_mcb.hpp"
#include "graph/dijkstra.hpp"
#include "graph/distance_histogram.hpp"
#include "graph/engine.hpp"
#include "graph/fault_plane.hpp"
#include "io/table.hpp"
#include "test_util.hpp"

namespace bsr {
namespace {

using bsr::graph::CsrGraph;
using bsr::graph::GraphBuilder;
using bsr::graph::kUnreachable;
using bsr::graph::NodeId;
using bsr::test::make_connected_random;
using bsr::test::make_path;
using bsr::test::make_star;
namespace engine = bsr::graph::engine;

TEST(EdgeCases, WorkspaceInterleavesPlainAndFilteredRuns) {
  const CsrGraph g = make_path(6);
  bsr::graph::FaultPlane plane(g);
  plane.fail_edge(0, 1);
  engine::Workspace ws;
  engine::bfs(g, 0, ws, engine::AllEdges{});
  EXPECT_EQ(ws.dist(5), 5u);
  // A filtered run must fully reset the previous run's state...
  engine::bfs(g, 5, ws, engine::FaultAwareFilter{&plane});
  EXPECT_EQ(ws.dist(0), kUnreachable);
  EXPECT_EQ(ws.dist(1), 4u);
  // ...and a plain run after that must see no leftover blocks.
  engine::bfs(g, 0, ws, engine::AllEdges{});
  EXPECT_EQ(ws.dist(5), 5u);
}

TEST(EdgeCases, BoundedBfsZeroDepth) {
  const CsrGraph g = make_star(5);
  engine::Workspace ws;
  engine::bfs_bounded(g, 0, 0, ws, engine::AllEdges{});
  EXPECT_EQ(ws.dist(0), 0u);
  for (NodeId v = 1; v < 5; ++v) EXPECT_EQ(ws.dist(v), kUnreachable);
}

TEST(EdgeCases, TwoVertexGraphCdf) {
  GraphBuilder b(2);
  b.add_edge(0, 1);
  const auto cdf = bsr::graph::distance_cdf_exact(b.build());
  EXPECT_DOUBLE_EQ(cdf.at(1), 1.0);
  EXPECT_DOUBLE_EQ(cdf.reachable, 1.0);
}

TEST(EdgeCases, DijkstraHugeWeightsNoOverflow) {
  const CsrGraph g = make_path(4);
  const auto result = bsr::graph::dijkstra(
      g, 0, [](NodeId, NodeId) { return 1e308 / 16; });
  EXPECT_TRUE(std::isfinite(result.distance[3]));
  EXPECT_GT(result.distance[3], 1e307);
}

TEST(EdgeCases, DijkstraInfiniteWeightActsAsCut) {
  const CsrGraph g = make_path(4);
  const auto weight = [](NodeId u, NodeId v) {
    if ((u == 1 && v == 2) || (u == 2 && v == 1)) {
      return std::numeric_limits<double>::infinity();
    }
    return 1.0;
  };
  const auto result = bsr::graph::dijkstra(g, 0, weight);
  EXPECT_DOUBLE_EQ(result.distance[1], 1.0);
  EXPECT_EQ(result.distance[3], bsr::graph::kInfDistance);
}

TEST(EdgeCases, GreedyOnSingletonGraph) {
  GraphBuilder b(1);
  const auto result = broker::greedy_mcb(b.build(), 3);
  EXPECT_EQ(result.coverage, 1u);
  EXPECT_EQ(result.brokers.size(), 1u);
}

TEST(EdgeCases, SaturatedConnectivityOnSingleton) {
  GraphBuilder b(1);
  const CsrGraph g = b.build();
  broker::BrokerSet set(1);
  set.add(0);
  EXPECT_DOUBLE_EQ(broker::saturated_connectivity(g, set), 0.0);
}

TEST(EdgeCases, BrokerOnlyShareWithEmptyInputs) {
  const CsrGraph g = make_star(4);
  bsr::graph::Rng rng(1);
  const auto none = broker::broker_only_share(g, broker::BrokerSet(4), rng, 100);
  EXPECT_EQ(none.pairs_connected, 0u);
  EXPECT_DOUBLE_EQ(none.broker_only, 0.0);
}

TEST(EdgeCases, TableRowBuilderWrongArityIsSwallowedNotFatal) {
  io::Table table({"a", "b"});
  { table.row().cell("only-one"); }  // destructor must not throw/terminate
  EXPECT_EQ(table.num_rows(), 0u);   // the malformed row was dropped
  table.row().cell("x").cell("y");
  EXPECT_EQ(table.num_rows(), 1u);
}

TEST(EdgeCases, TablePrintEmptyBody) {
  io::Table table({"only", "headers"});
  std::ostringstream oss;
  table.print(oss);
  EXPECT_NE(oss.str().find("only"), std::string::npos);
}

TEST(EdgeCases, DominatedFilterOutlivesScopeSafely) {
  // The filter binds the BrokerSet's mask by pointer — same-scope use is the
  // contract; verify repeated invocation sees mutations of the bound set.
  const CsrGraph g = make_connected_random(20, 0.2, 5);
  broker::BrokerSet set(g.num_vertices());
  const engine::DominatedEdgeFilter filter{&set.mask()};
  const NodeId v = g.neighbors(0)[0];
  EXPECT_FALSE(filter(0, 0, v));
  set.add(0);
  EXPECT_TRUE(filter(0, 0, v));  // sees the updated set
}

TEST(EdgeCases, PrefixOfEmptySet) {
  const broker::BrokerSet empty(5);
  EXPECT_TRUE(empty.prefix(3).empty());
}

}  // namespace
}  // namespace bsr
