#include "topology/relationships.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "graph/bfs.hpp"
#include "graph/graph_builder.hpp"
#include "test_util.hpp"
#include "topology/internet.hpp"
#include "topology/renumber.hpp"

namespace bsr::topology {
namespace {

using bsr::graph::CsrGraph;
using bsr::graph::Edge;
using bsr::graph::GraphBuilder;
using bsr::graph::kUnreachable;
using bsr::graph::NodeId;

/// Builds a small hierarchy:
///        0      (tier-1)
///       / \     (0 provides to 1 and 2; 1-2 peer)
///      1   2
///     /     \   (1 provides to 3, 2 provides to 4)
///    3       4
struct Hierarchy {
  CsrGraph graph;
  EdgeRelations rels;

  Hierarchy() {
    GraphBuilder b(5);
    b.add_edge(0, 1);
    b.add_edge(0, 2);
    b.add_edge(1, 2);
    b.add_edge(1, 3);
    b.add_edge(2, 4);
    graph = b.build();
    const std::vector<Edge> edges = graph.edges();
    std::vector<EdgeRel> labels;
    for (const Edge& e : edges) {
      if (e.u == 1 && e.v == 2) {
        labels.push_back(EdgeRel::kPeer);
      } else {
        labels.push_back(EdgeRel::kUProviderOfV);  // lower id is the provider
      }
    }
    rels = EdgeRelations(graph, edges, labels);
  }
};

TEST(EdgeRelations, LookupAndDirection) {
  const Hierarchy h;
  EXPECT_TRUE(h.rels.is_peer(1, 2));
  EXPECT_TRUE(h.rels.is_peer(2, 1));
  EXPECT_TRUE(h.rels.is_provider_of(0, 1));
  EXPECT_FALSE(h.rels.is_provider_of(1, 0));
  EXPECT_TRUE(h.rels.is_provider_of(1, 3));
  EXPECT_FALSE(h.rels.is_provider_of(3, 1));
}

TEST(EdgeRelations, PeerFraction) {
  const Hierarchy h;
  EXPECT_NEAR(h.rels.peer_fraction(), 1.0 / 5.0, 1e-12);
}

TEST(EdgeRelations, ConstructionValidation) {
  const CsrGraph g = bsr::test::make_path(3);
  const auto edges = g.edges();
  std::vector<EdgeRel> labels(edges.size(), EdgeRel::kPeer);
  labels.pop_back();
  EXPECT_THROW(EdgeRelations(g, edges, labels), std::invalid_argument);

  // Non-canonical edge.
  const std::vector<Edge> bad{{1, 0}, {1, 2}};
  const std::vector<EdgeRel> two(2, EdgeRel::kPeer);
  EXPECT_THROW(EdgeRelations(g, bad, two), std::invalid_argument);

  // Edge not in the graph.
  const std::vector<Edge> missing{{0, 1}, {0, 2}};
  EXPECT_THROW(EdgeRelations(g, missing, two), std::invalid_argument);

  // A duplicated edge would leave (1, 2) at its default label; an unsorted
  // list breaks the documented contract even where every edge exists.
  const std::vector<Edge> duplicated{{0, 1}, {0, 1}};
  EXPECT_THROW(EdgeRelations(g, duplicated, two), std::invalid_argument);
  const std::vector<Edge> unsorted{{1, 2}, {0, 1}};
  EXPECT_THROW(EdgeRelations(g, unsorted, two), std::invalid_argument);
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  const CsrGraph disjoint = b.build();
  const std::vector<Edge> disjoint_unsorted{{2, 3}, {0, 1}};
  EXPECT_THROW(EdgeRelations(disjoint, disjoint_unsorted, two), std::invalid_argument);
  const std::vector<Edge> out_of_range{{0, 1}, {1, 7}};
  EXPECT_THROW(EdgeRelations(g, out_of_range, two), std::invalid_argument);
}

TEST(EdgeRelations, QueriesRejectNonEdges) {
  // Path 0-1-2 plus isolated vertex 3.
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  const CsrGraph g = b.build();
  const auto edges = g.edges();
  const std::vector<EdgeRel> labels{EdgeRel::kUProviderOfV, EdgeRel::kPeer};
  const EdgeRelations rels(g, edges, labels);
  EXPECT_TRUE(rels.is_provider_of(0, 1));
  EXPECT_TRUE(rels.is_peer(2, 1));
  EXPECT_THROW((void)rels.is_provider_of(0, 2), std::invalid_argument);
  EXPECT_THROW((void)rels.rel_canonical(2, 3), std::invalid_argument);
  EXPECT_THROW((void)rels.is_peer(3, 3), std::invalid_argument);
  EXPECT_THROW((void)rels.rel_canonical(0, 4), std::invalid_argument);
  EXPECT_THROW((void)rels.rel_canonical(9, 1), std::invalid_argument);
  EXPECT_THROW((void)EdgeRelations().rel_canonical(0, 1), std::invalid_argument);
}

TEST(EdgeRelations, SlotLabelsMatchEdgeListConstruction) {
  const Hierarchy h;
  const auto slots = h.rels.canonical_rels();
  ASSERT_EQ(slots.size(), h.graph.adjacency().size());
  const EdgeRelations from_slots(h.graph,
                                 std::vector<EdgeRel>(slots.begin(), slots.end()));
  EXPECT_TRUE(from_slots == h.rels);
  EXPECT_TRUE(from_slots.is_peer(1, 2));
  EXPECT_TRUE(from_slots.is_provider_of(2, 4));

  // One label per slot, and both slots of an edge must agree.
  EXPECT_THROW(EdgeRelations(h.graph, std::vector<EdgeRel>(3, EdgeRel::kPeer)),
               std::invalid_argument);
  std::vector<EdgeRel> disagree(slots.begin(), slots.end());
  disagree[h.graph.offsets()[3]] = EdgeRel::kPeer;  // 3's slot for edge (1, 3)
  EXPECT_THROW(EdgeRelations(h.graph, disagree), std::invalid_argument);
}

TEST(EdgeRelations, ReversedFlipsProviderDirection) {
  EXPECT_EQ(reversed(EdgeRel::kUProviderOfV), EdgeRel::kVProviderOfU);
  EXPECT_EQ(reversed(EdgeRel::kVProviderOfU), EdgeRel::kUProviderOfV);
  EXPECT_EQ(reversed(EdgeRel::kPeer), EdgeRel::kPeer);
}

TEST(ValleyFree, UphillThenDownhillAllowed) {
  const Hierarchy h;
  // 3 -> 1 (up) -> 0 (up) -> 2 (down) -> 4 (down) is valid (the peer
  // shortcut via 1-2 is shorter; see PeerShortcutUsableOnce).
  const auto dist = valley_free_distances(h.graph, h.rels, 3);
  EXPECT_LE(dist[4], 4u);
  EXPECT_EQ(dist[0], 2u);
}

TEST(ValleyFree, PeerShortcutUsableOnce) {
  const Hierarchy h;
  // 3 -> 1 (up) -> 2 (peer) -> 4 (down) is also valid, length 3.
  const auto dist = valley_free_distances(h.graph, h.rels, 3);
  EXPECT_EQ(dist[4], 3u);
}

TEST(ValleyFree, NoValleyThroughCustomer) {
  // Two providers of a shared customer cannot transit through it.
  GraphBuilder b(3);
  b.add_edge(0, 2);
  b.add_edge(1, 2);
  const CsrGraph g = b.build();
  const auto edges = g.edges();
  const std::vector<EdgeRel> labels(edges.size(), EdgeRel::kUProviderOfV);
  const EdgeRelations rels(g, edges, labels);
  const auto dist = valley_free_distances(g, rels, 0);
  EXPECT_EQ(dist[2], 1u);            // down to the customer: fine
  EXPECT_EQ(dist[1], kUnreachable);  // back up from the customer: valley!
}

TEST(ValleyFree, TwoPeerHopsForbidden) {
  // 0 -peer- 1 -peer- 2: 0 cannot reach 2.
  const CsrGraph g = bsr::test::make_path(3);
  const auto edges = g.edges();
  const std::vector<EdgeRel> labels(edges.size(), EdgeRel::kPeer);
  const EdgeRelations rels(g, edges, labels);
  const auto dist = valley_free_distances(g, rels, 0);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], kUnreachable);
}

TEST(ValleyFree, OverrideEdgesBypassPolicy) {
  const CsrGraph g = bsr::test::make_path(3);
  const auto edges = g.edges();
  const std::vector<EdgeRel> labels(edges.size(), EdgeRel::kPeer);
  const EdgeRelations rels(g, edges, labels);
  const auto dist = valley_free_distances(
      g, rels, 0, {}, [](NodeId, NodeId) { return true; });
  EXPECT_EQ(dist[2], 2u);  // overrides make the path free
}

TEST(ValleyFree, EdgeFilterRestrictsFurther) {
  const Hierarchy h;
  // Forbid every edge: nothing reachable.
  const auto dist = valley_free_distances(
      h.graph, h.rels, 3, [](NodeId, NodeId) { return false; }, {});
  EXPECT_EQ(dist[1], kUnreachable);
  EXPECT_EQ(dist[3], 0u);
}

TEST(ValleyFree, RejectsOutOfRangeSource) {
  // The state arrays hold n * 3 entries; a source past the last vertex must
  // be refused in every build, not index past them.
  const Hierarchy h;
  const NodeId n = h.graph.num_vertices();
  EXPECT_THROW((void)valley_free_distances(h.graph, h.rels, n), std::invalid_argument);
  EXPECT_THROW((void)valley_free_distances(h.graph, h.rels, n + 1000),
               std::invalid_argument);
  EXPECT_EQ(valley_free_distances(h.graph, h.rels, n - 1)[n - 1], 0u);
}

TEST(ValleyFree, RejectsRelationsOfAnotherGraph) {
  // Renumbering keeps every slot count but moves the lists, so the
  // original labels no longer line up with the renumbered graph's slots:
  // both searches must refuse the pair instead of reading wrong labels.
  auto cfg = InternetConfig{}.scaled(0.02);
  cfg.seed = 5;
  const auto topo = make_internet(cfg);
  const auto renumbered = renumber_topology(topo);
  const CsrGraph& g = renumbered.topo.graph;
  ASSERT_EQ(g.adjacency().size(), topo.graph.adjacency().size());
  ASSERT_FALSE(std::ranges::equal(g.adjacency(), topo.graph.adjacency()));
  EXPECT_THROW((void)valley_free_distances(g, topo.relations, 0), std::invalid_argument);
  EXPECT_THROW((void)valley_free_path(g, topo.relations, 0, 1), std::invalid_argument);
  EXPECT_EQ(valley_free_distances(g, renumbered.topo.relations, 0)[0], 0u);

  // Relations of a sparser graph on the same vertices: their rows are
  // shorter than the denser graph's lists.
  const CsrGraph path = bsr::test::make_path(5);
  const CsrGraph complete = bsr::test::make_complete(5);
  const EdgeRelations rels(path, path.edges(),
                           std::vector<EdgeRel>(path.num_edges(), EdgeRel::kPeer));
  EXPECT_THROW((void)valley_free_distances(complete, rels, 0), std::invalid_argument);
  EXPECT_THROW((void)valley_free_path(complete, rels, 0, 4), std::invalid_argument);
}

TEST(EdgeRelations, AlignedOnlyWithTheGraphItSnapshots) {
  const CsrGraph path = bsr::test::make_path(5);
  const CsrGraph cycle = bsr::test::make_cycle(5);
  const EdgeRelations rels(path, path.edges(),
                           std::vector<EdgeRel>(path.num_edges(), EdgeRel::kPeer));
  EXPECT_TRUE(rels.aligned_with(path));
  EXPECT_FALSE(rels.aligned_with(cycle));
  EXPECT_FALSE(rels.aligned_with(bsr::test::make_path(6)));
  EXPECT_FALSE(EdgeRelations{}.aligned_with(path));
}

TEST(ValleyFreePath, ReconstructsAdmissiblePath) {
  const Hierarchy h;
  const auto path = valley_free_path(h.graph, h.rels, 3, 4);
  ASSERT_GE(path.size(), 2u);
  EXPECT_EQ(path.front(), 3u);
  EXPECT_EQ(path.back(), 4u);
  // Path length must match the distance oracle.
  const auto dist = valley_free_distances(h.graph, h.rels, 3);
  EXPECT_EQ(path.size() - 1, dist[4]);
  // Every hop must be a real edge.
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    EXPECT_TRUE(h.graph.has_edge(path[i], path[i + 1]));
  }
}

TEST(ValleyFreePath, EmptyWhenPolicyBlocks) {
  // Two peers of peers: unreachable (TwoPeerHopsForbidden case).
  const CsrGraph g = bsr::test::make_path(3);
  const auto edges = g.edges();
  const std::vector<EdgeRel> labels(edges.size(), EdgeRel::kPeer);
  const EdgeRelations rels(g, edges, labels);
  EXPECT_TRUE(valley_free_path(g, rels, 0, 2).empty());
  EXPECT_EQ(valley_free_path(g, rels, 1, 1), std::vector<NodeId>{1});
  EXPECT_TRUE(valley_free_path(g, rels, 0, 99).empty());
}

TEST(ValleyFreePath, LengthsMatchDistancesOnRandomGraphs) {
  auto cfg = InternetConfig{}.scaled(0.01);
  cfg.seed = 77;
  const auto topo = make_internet(cfg);
  const auto dist = valley_free_distances(topo.graph, topo.relations, 5);
  for (NodeId dst = 0; dst < topo.num_vertices(); dst += 37) {
    const auto path = valley_free_path(topo.graph, topo.relations, 5, dst);
    if (dist[dst] == kUnreachable) {
      EXPECT_TRUE(path.empty());
    } else if (dst != 5) {
      ASSERT_FALSE(path.empty());
      EXPECT_EQ(path.size() - 1, dist[dst]) << "dst " << dst;
    }
  }
}

TEST(Inference, DegreeGapImpliesProvider) {
  const CsrGraph g = bsr::test::make_star(8);
  const auto edges = g.edges();
  const auto inferred = infer_relationships_by_degree(g, edges, 2.0);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    // Center (id 0, degree 7) vs leaves (degree 1): center is provider.
    EXPECT_EQ(inferred[i], EdgeRel::kUProviderOfV);
  }
}

TEST(Inference, BalancedDegreesImplyPeering) {
  const CsrGraph g = bsr::test::make_cycle(6);
  const auto inferred = infer_relationships_by_degree(g, g.edges(), 2.0);
  for (const EdgeRel rel : inferred) EXPECT_EQ(rel, EdgeRel::kPeer);
}

TEST(Inference, RejectsBadRatio) {
  const CsrGraph g = bsr::test::make_cycle(4);
  EXPECT_THROW(infer_relationships_by_degree(g, g.edges(), 0.5),
               std::invalid_argument);
}

TEST(Inference, RecoversGroundTruthOnInternetTopology) {
  auto cfg = InternetConfig{}.scaled(0.02);
  cfg.seed = 31;
  const auto topo = make_internet(cfg);
  const auto edges = topo.graph.edges();
  const auto inferred = infer_relationships_by_degree(topo.graph, edges);
  // The degree heuristic cannot see hub-to-stub peering (the IXP-derived
  // mesh), so overall label accuracy is moderate; what must hold is the
  // *direction* of true transit edges: when both truth and inference agree
  // an edge is provider-customer, the provider side should rarely invert.
  std::size_t agree = 0, transit_classified = 0, inverted = 0;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const EdgeRel truth = topo.relations.rel_canonical(edges[i].u, edges[i].v);
    if (truth == inferred[i]) ++agree;
    if (truth != EdgeRel::kPeer && inferred[i] != EdgeRel::kPeer) {
      ++transit_classified;
      if (truth != inferred[i]) ++inverted;
    }
  }
  ASSERT_GT(transit_classified, 100u);
  EXPECT_LT(static_cast<double>(inverted) / transit_classified, 0.10);
  EXPECT_GT(static_cast<double>(agree) / edges.size(), 0.30);
}

}  // namespace
}  // namespace bsr::topology
