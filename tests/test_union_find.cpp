// RollbackUnionFind used as a plain union-find, with no checkpoints: the way
// component labelling, the dominated evaluator, weighted connectivity and
// repair sweeps use it. Rollback behaviour is in test_rollback_union_find.
#include "graph/rollback_union_find.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace bsr::graph {
namespace {

TEST(UnionFind, StartsAsSingletons) {
  RollbackUnionFind uf(5);
  EXPECT_EQ(uf.num_components(), 5u);
  for (NodeId v = 0; v < 5; ++v) {
    EXPECT_EQ(uf.find(v), v);
    EXPECT_EQ(uf.component_size(v), 1u);
  }
}

TEST(UnionFind, UniteMergesAndReportsNew) {
  RollbackUnionFind uf(4);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_FALSE(uf.unite(1, 0));
  EXPECT_TRUE(uf.connected(0, 1));
  EXPECT_FALSE(uf.connected(0, 2));
  EXPECT_EQ(uf.num_components(), 3u);
}

TEST(UnionFind, ComponentSizesAccumulate) {
  RollbackUnionFind uf(6);
  uf.unite(0, 1);
  uf.unite(2, 3);
  uf.unite(0, 2);
  EXPECT_EQ(uf.component_size(3), 4u);
  EXPECT_EQ(uf.component_size(5), 1u);
  EXPECT_EQ(uf.num_components(), 3u);  // {0,1,2,3}, {4}, {5}
}

TEST(UnionFind, TransitiveConnectivity) {
  RollbackUnionFind uf(10);
  for (NodeId v = 0; v + 1 < 10; ++v) uf.unite(v, v + 1);
  EXPECT_TRUE(uf.connected(0, 9));
  EXPECT_EQ(uf.num_components(), 1u);
  EXPECT_EQ(uf.component_size(4), 10u);
}

TEST(UnionFind, ResetRestoresSingletons) {
  RollbackUnionFind uf(3);
  uf.unite(0, 1);
  uf.reset(4);
  EXPECT_EQ(uf.size(), 4u);
  EXPECT_EQ(uf.num_components(), 4u);
  EXPECT_FALSE(uf.connected(0, 1));
  EXPECT_EQ(uf.connected_pairs(), 0u);
}

TEST(UnionFind, LargeChainKeepsFirstRoot) {
  // Union by size with ties attaching the second root under the first: the
  // chain grows one star rooted at 0, so every find is a single step.
  constexpr NodeId kN = 100000;
  RollbackUnionFind uf(kN);
  for (NodeId v = 0; v + 1 < kN; ++v) uf.unite(v, v + 1);
  for (NodeId v = 0; v < kN; v += 997) EXPECT_EQ(uf.find(v), 0u);
  EXPECT_EQ(uf.component_size(kN - 1), kN);
  EXPECT_EQ(uf.connected_pairs(),
            static_cast<std::uint64_t>(kN) * (kN - 1) / 2);
}

}  // namespace
}  // namespace bsr::graph
