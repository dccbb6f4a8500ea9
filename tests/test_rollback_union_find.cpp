#include "graph/rollback_union_find.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "graph/rng.hpp"

namespace bsr::graph {
namespace {

/// Brute-force Σ (size choose 2) from component_size per vertex.
std::uint64_t brute_connected_pairs(const RollbackUnionFind& uf) {
  std::uint64_t pairs = 0;
  for (NodeId v = 0; v < uf.size(); ++v) {
    if (uf.find(v) == v) {
      const std::uint64_t s = uf.root_size(v);
      pairs += s * (s - 1) / 2;
    }
  }
  return pairs;
}

TEST(RollbackUnionFind, ConnectedPairsTracksBruteForce) {
  Rng rng(77);
  RollbackUnionFind uf(40);
  EXPECT_EQ(uf.connected_pairs(), 0u);
  for (int i = 0; i < 100; ++i) {
    uf.unite(static_cast<NodeId>(rng.uniform(40)),
             static_cast<NodeId>(rng.uniform(40)));
    EXPECT_EQ(uf.connected_pairs(), brute_connected_pairs(uf));
  }
}

TEST(RollbackUnionFind, RollbackRestoresExactState) {
  // After rollback(cp), the forest must be byte-equivalent to replaying only
  // the unions applied before cp onto a fresh instance — parents included,
  // not merely the partition.
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const NodeId n = 2 + static_cast<NodeId>(rng.uniform(50));
    RollbackUnionFind uf(n);
    std::vector<std::pair<NodeId, NodeId>> prefix;
    const int before = static_cast<int>(rng.uniform(40));
    for (int i = 0; i < before; ++i) {
      const auto u = static_cast<NodeId>(rng.uniform(n));
      const auto v = static_cast<NodeId>(rng.uniform(n));
      uf.unite(u, v);
      prefix.emplace_back(u, v);
    }
    const auto cp = uf.checkpoint();
    for (int i = 0; i < 60; ++i) {
      uf.unite(static_cast<NodeId>(rng.uniform(n)),
               static_cast<NodeId>(rng.uniform(n)));
    }
    uf.rollback(cp);

    RollbackUnionFind fresh(n);
    for (const auto& [u, v] : prefix) fresh.unite(u, v);
    EXPECT_EQ(uf.num_components(), fresh.num_components());
    EXPECT_EQ(uf.connected_pairs(), fresh.connected_pairs());
    EXPECT_EQ(uf.largest_component_size(), fresh.largest_component_size());
    for (NodeId v = 0; v < n; ++v) {
      EXPECT_EQ(uf.find(v), fresh.find(v));
      EXPECT_EQ(uf.component_size(v), fresh.component_size(v));
    }
  }
}

TEST(RollbackUnionFind, NestedCheckpointsUnwindInAnyOrder) {
  RollbackUnionFind uf(8);
  uf.unite(0, 1);
  const auto cp1 = uf.checkpoint();
  uf.unite(2, 3);
  const auto cp2 = uf.checkpoint();
  uf.unite(0, 2);
  EXPECT_TRUE(uf.connected(1, 3));
  uf.rollback(cp2);
  EXPECT_FALSE(uf.connected(1, 3));
  EXPECT_TRUE(uf.connected(2, 3));
  // Rolling straight past cp2 from a later state is also legal.
  uf.unite(4, 5);
  uf.unite(5, 6);
  uf.rollback(cp1);
  EXPECT_TRUE(uf.connected(0, 1));
  EXPECT_FALSE(uf.connected(2, 3));
  EXPECT_FALSE(uf.connected(4, 5));
  EXPECT_EQ(uf.connected_pairs(), 1u);
  EXPECT_EQ(uf.num_components(), 7u);
}

TEST(RollbackUnionFind, RollbackToZeroIsFullReset) {
  RollbackUnionFind uf(10);
  for (NodeId v = 0; v + 1 < 10; ++v) uf.unite(v, v + 1);
  EXPECT_EQ(uf.num_components(), 1u);
  uf.rollback(0);
  EXPECT_EQ(uf.num_components(), 10u);
  EXPECT_EQ(uf.connected_pairs(), 0u);
  EXPECT_EQ(uf.largest_component_size(), 1u);
  for (NodeId v = 0; v < 10; ++v) EXPECT_EQ(uf.find(v), v);
}

TEST(RollbackUnionFind, ResetReusesAcrossSizes) {
  RollbackUnionFind uf(4);
  uf.unite(0, 1);
  uf.reset(6);
  EXPECT_EQ(uf.size(), 6u);
  EXPECT_EQ(uf.num_components(), 6u);
  EXPECT_EQ(uf.connected_pairs(), 0u);
  EXPECT_EQ(uf.checkpoint(), 0u);  // undo log cleared
  uf.unite(4, 5);
  EXPECT_TRUE(uf.connected(4, 5));
  uf.reset(2);
  EXPECT_EQ(uf.size(), 2u);
  EXPECT_FALSE(uf.connected(0, 1));
}

TEST(RollbackUnionFind, LargestComponentSize) {
  RollbackUnionFind uf(7);
  EXPECT_EQ(uf.largest_component_size(), 1u);
  uf.unite(0, 1);
  uf.unite(1, 2);
  uf.unite(4, 5);
  EXPECT_EQ(uf.largest_component_size(), 3u);
  RollbackUnionFind empty(0);
  EXPECT_EQ(empty.largest_component_size(), 0u);
}

}  // namespace
}  // namespace bsr::graph
