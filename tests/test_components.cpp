#include "graph/components.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "graph/engine.hpp"
#include "graph/graph_builder.hpp"
#include "graph/rollback_union_find.hpp"
#include "test_util.hpp"

namespace bsr::graph {
namespace {

using bsr::test::make_complete;
using bsr::test::make_path;
using bsr::test::make_random;
using bsr::test::naive_bfs;

TEST(Components, SingleComponent) {
  const CsrGraph g = make_path(6);
  const Components c = connected_components(g);
  EXPECT_EQ(c.count, 1u);
  EXPECT_EQ(c.largest_size(), 6u);
}

TEST(Components, DisjointPieces) {
  GraphBuilder b(7);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(3, 4);
  // 5, 6 isolated
  const CsrGraph g = b.build();
  const Components c = connected_components(g);
  EXPECT_EQ(c.count, 4u);
  EXPECT_EQ(c.largest_size(), 3u);
  EXPECT_EQ(c.size[c.largest()], 3u);
  // Labels consistent within components.
  EXPECT_EQ(c.label[0], c.label[2]);
  EXPECT_EQ(c.label[3], c.label[4]);
  EXPECT_NE(c.label[0], c.label[3]);
  EXPECT_NE(c.label[5], c.label[6]);
}

TEST(Components, SizesSumToVertexCount) {
  const CsrGraph g = make_random(50, 0.03, 5);
  const Components c = connected_components(g);
  const auto total = std::accumulate(c.size.begin(), c.size.end(), 0u);
  EXPECT_EQ(total, g.num_vertices());
}

TEST(Components, FilteredUnionRespectsFilter) {
  const CsrGraph g = make_complete(5);
  // Only edges incident to vertex 0 admitted -> one star component.
  std::vector<bool> hub(5, false);
  hub[0] = true;
  RollbackUnionFind star(5);
  engine::unite_edges(g, star, engine::DominatedEdgeFilter{&hub});
  EXPECT_EQ(star.num_components(), 1u);
  const std::vector<bool> nobody(5, false);
  RollbackUnionFind none(5);
  engine::unite_edges(g, none, engine::DominatedEdgeFilter{&nobody});
  EXPECT_EQ(none.num_components(), 5u);
}

TEST(Components, LargestComponentVertices) {
  GraphBuilder b(6);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  b.add_edge(3, 4);
  const CsrGraph g = b.build();
  const auto verts = largest_component_vertices(g);
  EXPECT_EQ(verts, (std::vector<NodeId>{2, 3, 4}));
}

TEST(Components, EmptyGraphLargestThrows) {
  const Components c;
  EXPECT_EQ(c.largest_size(), 0u);
  EXPECT_THROW((void)c.largest(), std::logic_error);
}

class ComponentsRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ComponentsRandomTest, AgreesWithBfsReachability) {
  const CsrGraph g = make_random(45, 0.05, GetParam());
  const Components c = connected_components(g);
  for (NodeId s = 0; s < g.num_vertices(); s += 9) {
    const auto dist = naive_bfs(g, s);
    for (NodeId v = 0; v < g.num_vertices(); ++v) {
      EXPECT_EQ(dist[v] != kUnreachable, c.label[v] == c.label[s]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ComponentsRandomTest,
                         ::testing::Values(101, 202, 303, 404));

}  // namespace
}  // namespace bsr::graph
