#include "graph/bfs.hpp"

#include <gtest/gtest.h>

#include "graph/engine.hpp"
#include "graph/fault_plane.hpp"
#include "graph/graph_builder.hpp"
#include "test_util.hpp"

namespace bsr::graph {
namespace {

using bsr::test::make_connected_random;
using bsr::test::make_cycle;
using bsr::test::make_path;
using bsr::test::make_random;
using bsr::test::make_star;
using bsr::test::naive_bfs;

TEST(Bfs, PathGraphDistances) {
  const CsrGraph g = make_path(5);
  const auto dist = bfs_distances(g, 0);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(dist[v], v);
}

TEST(Bfs, UnreachableVertices) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  const CsrGraph g = b.build();
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], kUnreachable);
  EXPECT_EQ(dist[3], kUnreachable);
}

TEST(Bfs, DistancesFreshAcrossSources) {
  // Successive calls share the thread's scratch workspace; no state from
  // the previous source may leak into the next result.
  const CsrGraph g = make_cycle(8);
  const auto d0 = bfs_distances(g, 0);
  EXPECT_EQ(d0[4], 4u);
  const auto d3 = bfs_distances(g, 3);
  EXPECT_EQ(d3[3], 0u);
  EXPECT_EQ(d3[7], 4u);
  EXPECT_EQ(d3[0], 3u);
}

TEST(Bfs, FilteredBfsRespectsFilter) {
  const CsrGraph g = make_path(5);
  FaultPlane plane(g);
  plane.fail_edge(2, 3);  // everything past vertex 2 becomes unreachable
  engine::Workspace ws;
  engine::bfs(g, 0, ws, engine::FaultAwareFilter{&plane});
  EXPECT_EQ(ws.dist(2), 2u);
  EXPECT_EQ(ws.dist(3), kUnreachable);
  EXPECT_EQ(ws.dist(4), kUnreachable);
}

TEST(Bfs, ShortestPathEndpoints) {
  const CsrGraph g = make_cycle(6);
  const auto path = bfs_shortest_path(g, 0, 3);
  ASSERT_EQ(path.size(), 4u);
  EXPECT_EQ(path.front(), 0u);
  EXPECT_EQ(path.back(), 3u);
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    EXPECT_TRUE(g.has_edge(path[i], path[i + 1]));
  }
}

TEST(Bfs, ShortestPathTrivialAndUnreachable) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  const CsrGraph g = b.build();
  EXPECT_EQ(bfs_shortest_path(g, 1, 1), std::vector<NodeId>{1});
  EXPECT_TRUE(bfs_shortest_path(g, 0, 2).empty());
}

TEST(Bfs, StarGraphAllWithinTwo) {
  const CsrGraph g = make_star(20);
  const auto dist = bfs_distances(g, 5);
  EXPECT_EQ(dist[0], 1u);
  for (NodeId v = 1; v < 20; ++v) {
    if (v != 5) EXPECT_EQ(dist[v], 2u);
  }
}

class BfsRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BfsRandomTest, MatchesNaiveReference) {
  const CsrGraph g = make_random(60, 0.08, GetParam());
  for (NodeId s = 0; s < g.num_vertices(); s += 7) {
    const auto fast = bfs_distances(g, s);
    const auto reference = naive_bfs(g, s);
    for (NodeId v = 0; v < g.num_vertices(); ++v) {
      EXPECT_EQ(fast[v], reference[v]) << "source " << s << " vertex " << v;
    }
  }
}

TEST_P(BfsRandomTest, ShortestPathLengthMatchesDistance) {
  const CsrGraph g = make_connected_random(40, 0.1, GetParam());
  const auto dist = bfs_distances(g, 0);
  for (NodeId t = 1; t < g.num_vertices(); t += 5) {
    const auto path = bfs_shortest_path(g, 0, t);
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.size() - 1, dist[t]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BfsRandomTest, ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace bsr::graph
