#include "graph/csr_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "graph/graph_builder.hpp"
#include "reference_ingest.hpp"
#include "test_util.hpp"

namespace bsr::graph {
namespace {

TEST(CsrGraph, EmptyGraph) {
  const CsrGraph g;
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.empty());
}

TEST(CsrGraph, SingleEdge) {
  GraphBuilder b(2);
  b.add_edge(0, 1);
  const CsrGraph g = b.build();
  EXPECT_EQ(g.num_vertices(), 2u);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
}

TEST(CsrGraph, BuilderDeduplicatesEdges) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 0);
  b.add_edge(0, 1);
  const CsrGraph g = b.build();
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(CsrGraph, BuilderDropsSelfLoops) {
  GraphBuilder b(3);
  b.add_edge(1, 1);
  b.add_edge(0, 2);
  const CsrGraph g = b.build();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_FALSE(g.has_edge(1, 1));
}

TEST(CsrGraph, BuilderRejectsOutOfRange) {
  GraphBuilder b(3);
  EXPECT_THROW(b.add_edge(0, 3), std::out_of_range);
  EXPECT_THROW(b.add_edge(5, 0), std::out_of_range);
}

TEST(CsrGraph, NeighborsSortedUnique) {
  GraphBuilder b(6);
  b.add_edge(3, 5);
  b.add_edge(3, 1);
  b.add_edge(3, 4);
  b.add_edge(3, 1);
  const CsrGraph g = b.build();
  const auto nbrs = g.neighbors(3);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  EXPECT_EQ(nbrs.size(), 3u);
}

TEST(CsrGraph, EdgesReturnsCanonicalSorted) {
  const CsrGraph g = bsr::test::make_cycle(4);
  const auto edges = g.edges();
  ASSERT_EQ(edges.size(), 4u);
  EXPECT_TRUE(std::is_sorted(edges.begin(), edges.end()));
  for (const Edge& e : edges) EXPECT_LT(e.u, e.v);
}

TEST(CsrGraph, IsolatedVertexHasNoNeighbors) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  const CsrGraph g = b.build();
  EXPECT_EQ(g.degree(2), 0u);
  EXPECT_TRUE(g.neighbors(2).empty());
}

TEST(CsrGraph, ValidationRejectsBadOffsets) {
  // Offsets not ending at adjacency size.
  EXPECT_THROW(CsrGraph({0, 1}, {}), std::invalid_argument);
  // Non-monotone offsets.
  EXPECT_THROW(CsrGraph({0, 2, 1, 4}, {1, 2, 0, 0}), std::invalid_argument);
}

TEST(CsrGraph, ValidationRejectsOutOfRangeNeighbor) {
  EXPECT_THROW(CsrGraph({0, 1, 2}, {1, 5}), std::invalid_argument);
}

TEST(CsrGraph, ValidationRejectsSelfLoop) {
  EXPECT_THROW(CsrGraph({0, 1, 2}, {0, 0}), std::invalid_argument);
}

TEST(CsrGraph, ValidationRejectsUnsortedAdjacency) {
  // Vertex 0 adjacent to {2, 1} unsorted.
  EXPECT_THROW(CsrGraph({0, 2, 3, 4}, {2, 1, 0, 0}), std::invalid_argument);
}

TEST(CsrGraph, BuilderReusableAfterBuild) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  const CsrGraph g1 = b.build();
  b.add_edge(2, 3);
  const CsrGraph g2 = b.build();
  EXPECT_EQ(g1.num_edges(), 1u);
  EXPECT_EQ(g2.num_edges(), 2u);
}

TEST(CsrGraph, CompleteGraphDegrees) {
  const CsrGraph g = bsr::test::make_complete(7);
  EXPECT_EQ(g.num_edges(), 21u);
  for (NodeId v = 0; v < 7; ++v) EXPECT_EQ(g.degree(v), 6u);
}

class CsrRandomGraphTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CsrRandomGraphTest, AdjacencySymmetric) {
  const CsrGraph g = bsr::test::make_random(40, 0.15, GetParam());
  for (NodeId u = 0; u < g.num_vertices(); ++u) {
    for (const NodeId v : g.neighbors(u)) {
      EXPECT_TRUE(g.has_edge(v, u)) << "edge (" << u << "," << v << ") asymmetric";
    }
  }
}

TEST_P(CsrRandomGraphTest, DegreeSumEqualsTwiceEdges) {
  const CsrGraph g = bsr::test::make_random(40, 0.15, GetParam());
  std::uint64_t degree_sum = 0;
  for (NodeId v = 0; v < g.num_vertices(); ++v) degree_sum += g.degree(v);
  EXPECT_EQ(degree_sum, 2 * g.num_edges());
}

TEST_P(CsrRandomGraphTest, BuilderMatchesSortUniqueReference) {
  // Random multigraph input: repeats, both orientations and self-loops.
  bsr::graph::Rng rng(GetParam());
  const auto n = static_cast<NodeId>(1 + rng.uniform(60));
  GraphBuilder b(n);
  std::vector<Edge> raw;
  const std::size_t count = rng.uniform(400);
  for (std::size_t i = 0; i < count; ++i) {
    const auto u = static_cast<NodeId>(rng.uniform(n));
    const auto v = rng.bernoulli(0.1) ? u : static_cast<NodeId>(rng.uniform(n));
    b.add_edge(u, v);
    raw.push_back(Edge{u, v});
    if (rng.bernoulli(0.3)) {
      b.add_edge(v, u);
      raw.push_back(Edge{v, u});
    }
  }
  EXPECT_TRUE(b.build() == bsr::test::reference::build_csr(n, raw));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsrRandomGraphTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(CsrGraph, SortedEdgeFillRejectsNonCanonicalLists) {
  using bsr::graph::csr_from_sorted_edges;
  const std::vector<Edge> good{{0, 1}, {0, 2}, {1, 2}};
  const CsrGraph g = csr_from_sorted_edges(3, good);
  EXPECT_EQ(g.edges(), good);
  EXPECT_THROW((void)csr_from_sorted_edges(3, std::vector<Edge>{{0, 2}, {0, 1}}),
               std::invalid_argument);
  EXPECT_THROW((void)csr_from_sorted_edges(3, std::vector<Edge>{{0, 1}, {0, 1}}),
               std::invalid_argument);
  EXPECT_THROW((void)csr_from_sorted_edges(3, std::vector<Edge>{{1, 0}}),
               std::invalid_argument);
  EXPECT_THROW((void)csr_from_sorted_edges(3, std::vector<Edge>{{1, 1}}),
               std::invalid_argument);
  EXPECT_THROW((void)csr_from_sorted_edges(3, std::vector<Edge>{{0, 3}}),
               std::invalid_argument);
  EXPECT_TRUE(csr_from_sorted_edges(0, {}) == CsrGraph(std::vector<std::uint64_t>{0}, {}));
}

#if BSR_DCHECK_ENABLED
// Debug / BSR_ENABLE_DCHECKS builds abort on out-of-range accessor use; in
// release builds the checks compile away and these tests vanish with them.
TEST(CsrGraphDeathTest, DegreeOutOfRangeAborts) {
  const CsrGraph g = bsr::test::make_path(3);
  EXPECT_DEATH((void)g.degree(3), "BSR_DCHECK");
}

TEST(CsrGraphDeathTest, NeighborsOutOfRangeAborts) {
  const CsrGraph g = bsr::test::make_path(3);
  EXPECT_DEATH((void)g.neighbors(99), "BSR_DCHECK");
}
#endif

}  // namespace
}  // namespace bsr::graph
