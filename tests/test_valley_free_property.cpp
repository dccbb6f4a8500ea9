// Property test: the state-expanded valley-free BFS agrees with brute-force
// path enumeration on small random graphs with random relationship labels.
#include <gtest/gtest.h>

#include <vector>

#include "graph/bfs.hpp"
#include "test_util.hpp"
#include "topology/relationships.hpp"

namespace bsr::topology {
namespace {

using bsr::graph::CsrGraph;
using bsr::graph::Edge;
using bsr::graph::kUnreachable;
using bsr::graph::NodeId;
using bsr::graph::Rng;

struct LabeledGraph {
  CsrGraph graph;
  EdgeRelations rels;
};

LabeledGraph make_labeled(std::uint64_t seed) {
  const CsrGraph g = bsr::test::make_connected_random(10, 0.25, seed);
  const auto edges = g.edges();
  Rng rng(seed * 31 + 7);
  std::vector<EdgeRel> labels;
  labels.reserve(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const auto roll = rng.uniform(3);
    labels.push_back(static_cast<EdgeRel>(roll));
  }
  return {g, EdgeRelations(g, edges, labels)};
}

/// Brute force: DFS over *simple* paths tracking the valley-free phase.
/// Phase: 0 = climbing, 1 = peer hop used, 2 = descending.
void enumerate(const LabeledGraph& lg, NodeId u, int phase,
               std::vector<bool>& on_path, std::vector<bool>& reachable) {
  reachable[u] = true;
  for (const NodeId v : lg.graph.neighbors(u)) {
    if (on_path[v]) continue;
    const bool v_provides_u = lg.rels.is_provider_of(v, u);
    const bool peer = lg.rels.is_peer(u, v);
    int next_phase = -1;
    if (peer) {
      if (phase == 0) next_phase = 1;
    } else if (v_provides_u) {
      if (phase == 0) next_phase = 0;
    } else {
      next_phase = 2;  // p2c from any phase
    }
    if (next_phase < 0) continue;
    on_path[v] = true;
    enumerate(lg, v, next_phase, on_path, reachable);
    on_path[v] = false;
  }
}

class ValleyFreePropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ValleyFreePropertyTest, BfsMatchesBruteForceReachability) {
  const LabeledGraph lg = make_labeled(GetParam());
  const NodeId n = lg.graph.num_vertices();
  for (NodeId src = 0; src < n; ++src) {
    std::vector<bool> reachable(n, false), on_path(n, false);
    on_path[src] = true;
    enumerate(lg, src, 0, on_path, reachable);

    const auto dist = valley_free_distances(lg.graph, lg.rels, src);
    for (NodeId v = 0; v < n; ++v) {
      // The BFS explores walks, not simple paths — any vertex reachable by
      // a valley-free walk is reachable by a valley-free simple path
      // (dropping a cycle never invalidates the phase sequence), so the
      // reachable sets must agree exactly.
      EXPECT_EQ(dist[v] != kUnreachable, reachable[v])
          << "seed " << GetParam() << " src " << src << " dst " << v;
    }
  }
}

TEST_P(ValleyFreePropertyTest, PolicyNeverBeatsFreeRouting) {
  const LabeledGraph lg = make_labeled(GetParam() + 100);
  for (NodeId src = 0; src < lg.graph.num_vertices(); src += 3) {
    const auto free_copy = bsr::graph::bfs_distances(lg.graph, src);
    const auto policy = valley_free_distances(lg.graph, lg.rels, src);
    for (NodeId v = 0; v < lg.graph.num_vertices(); ++v) {
      if (policy[v] == kUnreachable) continue;
      EXPECT_GE(policy[v], free_copy[v]) << "policy found a shorter path?!";
    }
  }
}

TEST_P(ValleyFreePropertyTest, FullOverrideEqualsFreeRouting) {
  const LabeledGraph lg = make_labeled(GetParam() + 200);
  const auto everything = [](NodeId, NodeId) { return true; };
  for (NodeId src = 0; src < lg.graph.num_vertices(); src += 4) {
    const auto free_copy = bsr::graph::bfs_distances(lg.graph, src);
    const auto overridden =
        valley_free_distances(lg.graph, lg.rels, src, {}, everything);
    for (NodeId v = 0; v < lg.graph.num_vertices(); ++v) {
      EXPECT_EQ(overridden[v], free_copy[v]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValleyFreePropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace bsr::topology
