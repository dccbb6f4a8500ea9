#include "broker/dominated.hpp"

#include <gtest/gtest.h>

#include "broker/path_length.hpp"
#include "test_util.hpp"

namespace bsr::broker {
namespace {

using bsr::graph::CsrGraph;
using bsr::graph::NodeId;
using bsr::graph::Rng;
using bsr::test::make_complete;
using bsr::test::make_connected_random;
using bsr::test::make_path;
using bsr::test::make_star;

/// Naive saturated connectivity: pairwise BFS over the materialized G_B.
double naive_saturated(const CsrGraph& g, const BrokerSet& b) {
  const NodeId n = g.num_vertices();
  if (n < 2) return 0.0;
  const CsrGraph dominated = bsr::test::materialize_dominated(g, b.mask());
  std::uint64_t connected = 0;
  for (NodeId u = 0; u < n; ++u) {
    const auto dist = bsr::test::naive_bfs(dominated, u);
    for (NodeId v = u + 1; v < n; ++v) {
      if (dist[v] != bsr::graph::kUnreachable) ++connected;
    }
  }
  return static_cast<double>(connected) /
         (static_cast<double>(n) * (n - 1) / 2.0);
}

TEST(Dominated, FilterAdmitsBrokerEdgesOnly) {
  const CsrGraph g = make_path(4);
  BrokerSet b(4);
  b.add(1);
  const bsr::graph::engine::DominatedEdgeFilter filter{&b.mask()};
  EXPECT_TRUE(filter(0, 0, 1));
  EXPECT_TRUE(filter(1, 1, 2));
  EXPECT_FALSE(filter(2, 1, 3));
}

TEST(Dominated, StarCenterConnectsEverything) {
  const CsrGraph g = make_star(8);
  BrokerSet b(8);
  b.add(0);
  EXPECT_DOUBLE_EQ(saturated_connectivity(g, b), 1.0);
  EXPECT_EQ(largest_dominated_component(g, b), 8u);
}

TEST(Dominated, LeafBrokerConnectsOnlyItsEdge) {
  const CsrGraph g = make_star(8);
  BrokerSet b(8);
  b.add(3);
  // Only pair (0, 3) connected: 1 of 28 pairs.
  EXPECT_NEAR(saturated_connectivity(g, b), 1.0 / 28.0, 1e-12);
  EXPECT_EQ(largest_dominated_component(g, b), 2u);
}

TEST(Dominated, EmptyBrokerSetZeroConnectivity) {
  const CsrGraph g = make_complete(5);
  EXPECT_DOUBLE_EQ(saturated_connectivity(g, BrokerSet(5)), 0.0);
  EXPECT_EQ(largest_dominated_component(g, BrokerSet(5)), 1u);
}

TEST(Dominated, MidPathBrokerSplitsLongPath) {
  const CsrGraph g = make_path(7);
  BrokerSet b(7);
  b.add(3);
  // Active edges: 2-3, 3-4. Component {2,3,4}: 3 pairs of 21.
  EXPECT_NEAR(saturated_connectivity(g, b), 3.0 / 21.0, 1e-12);
}

TEST(Dominated, DistanceCdfUsesDominatedPaths) {
  const CsrGraph g = make_path(5);
  BrokerSet b(5);
  b.add(1);
  b.add(3);  // all edges dominated -> same distances as free routing
  Rng rng(1);
  const auto cdf = dominated_distance_cdf(g, b, rng, 100);
  EXPECT_NEAR(cdf.reachable, 1.0, 1e-12);
}

TEST(Dominated, BrokerOnlyShareCompleteGraph) {
  const CsrGraph g = make_complete(6);
  BrokerSet b(6);
  b.add(0);
  b.add(1);
  Rng rng(2);
  const auto share = broker_only_share(g, b, rng, 2000);
  // Every pair adjacent to broker 0 or 1 (complete graph) and brokers are
  // connected: all connected pairs are broker-only.
  EXPECT_GT(share.pairs_connected, 0u);
  EXPECT_DOUBLE_EQ(share.broker_only, 1.0);
}

TEST(Dominated, BrokerOnlyShareDetectsNonBrokerTransit) {
  // Path 0-1-2-3-4 with brokers {1, 3}: pair (0, 4) needs non-broker 2.
  const CsrGraph g = make_path(5);
  BrokerSet b(5);
  b.add(1);
  b.add(3);
  Rng rng(3);
  const auto share = broker_only_share(g, b, rng, 4000);
  EXPECT_GT(share.pairs_connected, 0u);
  EXPECT_LT(share.broker_only, 1.0);
  EXPECT_GT(share.broker_only, 0.0);
}

TEST(Dominated, SizeMismatchThrows) {
  const CsrGraph g = make_path(4);
  EXPECT_THROW(saturated_connectivity(g, BrokerSet(5)), std::invalid_argument);
}

TEST(Dominated, DistanceCdfRejectsForeignBrokerSet) {
  // The dominated filter reads the broker mask at every endpoint of g; a
  // mask built for a smaller graph would be read past its end.
  const CsrGraph g = make_path(6);
  Rng rng(1);
  EXPECT_THROW((void)dominated_distance_cdf(g, BrokerSet(3), rng, 6),
               std::invalid_argument);
  EXPECT_THROW((void)dominated_distance_cdf(g, BrokerSet(8), rng, 6),
               std::invalid_argument);
}

TEST(Dominated, PathLengthComparisonRejectsForeignBrokerSet) {
  const CsrGraph g = make_path(6);
  const std::vector<NodeId> sources{0, 3};
  EXPECT_THROW((void)compare_path_lengths(g, BrokerSet(3), sources),
               std::invalid_argument);
  Rng rng(1);
  EXPECT_THROW((void)compare_path_lengths(g, BrokerSet(8), rng, 6),
               std::invalid_argument);
}

class DominatedPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DominatedPropertyTest, ExactMatchesNaivePairwiseBfs) {
  const CsrGraph g = make_connected_random(30, 0.1, GetParam());
  Rng rng(GetParam() + 100);
  for (int trial = 0; trial < 5; ++trial) {
    BrokerSet b(g.num_vertices());
    const auto count = 1 + rng.uniform(6);
    for (std::uint64_t i = 0; i < count; ++i) {
      b.add(static_cast<NodeId>(rng.uniform(g.num_vertices())));
    }
    EXPECT_NEAR(saturated_connectivity(g, b), naive_saturated(g, b), 1e-12);
  }
}

TEST_P(DominatedPropertyTest, MoreBrokersNeverHurt) {
  const CsrGraph g = make_connected_random(30, 0.1, GetParam());
  Rng rng(GetParam() + 200);
  BrokerSet b(g.num_vertices());
  double previous = 0.0;
  for (int i = 0; i < 10; ++i) {
    b.add(static_cast<NodeId>(rng.uniform(g.num_vertices())));
    const double current = saturated_connectivity(g, b);
    EXPECT_GE(current, previous - 1e-12);
    previous = current;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DominatedPropertyTest,
                         ::testing::Values(7, 77, 777, 7777));

}  // namespace
}  // namespace bsr::broker
