#include "broker/weighted.hpp"

#include <gtest/gtest.h>

#include "broker/coverage.hpp"
#include "broker/dominated.hpp"
#include "broker/greedy_mcb.hpp"
#include "broker/maxsg.hpp"
#include "test_util.hpp"

namespace bsr::broker {
namespace {

using bsr::graph::CsrGraph;
using bsr::graph::NodeId;
using bsr::test::make_connected_random;
using bsr::test::make_path;
using bsr::test::make_star;

TEST(WeightedCoverage, UnitWeightsMatchUnweighted) {
  const CsrGraph g = make_connected_random(40, 0.1, 1);
  const std::vector<double> unit(g.num_vertices(), 1.0);
  bsr::graph::Rng rng(2);
  for (int trial = 0; trial < 10; ++trial) {
    BrokerSet b(g.num_vertices());
    for (int i = 0; i < 5; ++i) {
      b.add(static_cast<NodeId>(rng.uniform(g.num_vertices())));
    }
    EXPECT_DOUBLE_EQ(weighted_coverage(g, b, unit),
                     static_cast<double>(coverage(g, b)));
  }
}

TEST(WeightedCoverage, WeightsCountOnce) {
  const CsrGraph g = make_star(5);
  const std::vector<double> weight{10.0, 1.0, 2.0, 3.0, 4.0};
  BrokerSet b(5);
  b.add(0);
  b.add(1);  // overlapping coverage: 0 and 1 both cover the center
  EXPECT_DOUBLE_EQ(weighted_coverage(g, b, weight), 20.0);
}

TEST(WeightedCoverage, RejectsBadWeights) {
  const CsrGraph g = make_path(3);
  BrokerSet b(3);
  const std::vector<double> short_weights{1.0};
  EXPECT_THROW(weighted_coverage(g, b, short_weights), std::invalid_argument);
  const std::vector<double> negative{1.0, -1.0, 1.0};
  EXPECT_THROW(weighted_coverage(g, b, negative), std::invalid_argument);
}

TEST(WeightedCoverage, RejectsForeignBrokerSet) {
  // Members of a set built for a larger graph index past g's arrays.
  const CsrGraph g = make_path(3);
  BrokerSet foreign(6);
  foreign.add(5);
  const std::vector<double> unit(3, 1.0);
  EXPECT_THROW((void)weighted_coverage(g, foreign, unit), std::invalid_argument);
  EXPECT_THROW((void)weighted_coverage(g, BrokerSet(2), unit), std::invalid_argument);
}

TEST(WeightedSaturated, RejectsForeignBrokerSet) {
  const CsrGraph g = make_path(3);
  BrokerSet foreign(6);
  foreign.add(5);
  const std::vector<double> unit(3, 1.0);
  EXPECT_THROW((void)weighted_saturated_connectivity(g, foreign, unit),
               std::invalid_argument);
  EXPECT_THROW((void)weighted_saturated_connectivity(g, BrokerSet(2), unit),
               std::invalid_argument);
}

TEST(WeightedGreedy, UnitWeightsMatchUnweightedGreedy) {
  const CsrGraph g = make_connected_random(60, 0.06, 3);
  const std::vector<double> unit(g.num_vertices(), 1.0);
  for (const std::uint32_t k : {1u, 4u, 10u}) {
    const auto weighted = weighted_greedy_mcb(g, k, unit);
    const auto plain = greedy_mcb(g, k);
    EXPECT_EQ(std::vector<NodeId>(weighted.brokers.members().begin(),
                                  weighted.brokers.members().end()),
              std::vector<NodeId>(plain.brokers.members().begin(),
                                  plain.brokers.members().end()))
        << "k = " << k;
  }
}

TEST(WeightedGreedy, ChasesTheMass) {
  // A low-degree vertex carrying huge weight should be covered first.
  const CsrGraph g = make_path(7);
  std::vector<double> weight(7, 0.01);
  weight[6] = 1000.0;  // the elephant sits at the end of the path
  const auto result = weighted_greedy_mcb(g, 1, weight);
  ASSERT_EQ(result.brokers.size(), 1u);
  const NodeId pick = result.brokers.members()[0];
  EXPECT_TRUE(pick == 5 || pick == 6);
  EXPECT_GE(result.coverage, 1000.0);
}

TEST(WeightedGreedy, CurveMonotone) {
  const CsrGraph g = make_connected_random(50, 0.08, 4);
  bsr::graph::Rng rng(5);
  std::vector<double> weight(g.num_vertices());
  for (auto& w : weight) w = rng.uniform01() * 10.0;
  const auto result = weighted_greedy_mcb(g, 12, weight);
  for (std::size_t i = 1; i < result.coverage_curve.size(); ++i) {
    EXPECT_GE(result.coverage_curve[i], result.coverage_curve[i - 1] - 1e-12);
  }
  EXPECT_DOUBLE_EQ(result.coverage, weighted_coverage(g, result.brokers, weight));
}

TEST(WeightedGreedy, ZeroBudgetAndEmptyGraph) {
  const CsrGraph g = make_path(4);
  const std::vector<double> unit(4, 1.0);
  const auto result = weighted_greedy_mcb(g, 0, unit);
  EXPECT_TRUE(result.brokers.empty());
  EXPECT_THROW(weighted_greedy_mcb(CsrGraph(), 2, {}), std::invalid_argument);
}

TEST(WeightedSaturated, UnitWeightsMatchUnweighted) {
  const CsrGraph g = make_connected_random(40, 0.1, 6);
  const std::vector<double> unit(g.num_vertices(), 1.0);
  bsr::graph::Rng rng(7);
  for (int trial = 0; trial < 8; ++trial) {
    BrokerSet b(g.num_vertices());
    for (int i = 0; i < 4; ++i) {
      b.add(static_cast<NodeId>(rng.uniform(g.num_vertices())));
    }
    EXPECT_NEAR(weighted_saturated_connectivity(g, b, unit),
                saturated_connectivity(g, b), 1e-9);
  }
}

TEST(WeightedSaturated, HeavyPairDominatesTheMetric) {
  // Path 0-1-2-3: broker at 1 connects {0,1,2}. With all mass on 0 and 2,
  // the weighted connectivity is ~1 even though only 3 of 6 pairs connect.
  const CsrGraph g = make_path(4);
  BrokerSet b(4);
  b.add(1);
  const std::vector<double> weight{100.0, 0.001, 100.0, 0.001};
  EXPECT_GT(weighted_saturated_connectivity(g, b, weight), 0.99);
  EXPECT_LT(saturated_connectivity(g, b), 0.55);
}

TEST(WeightedSaturated, ZeroWeightVerticesIgnored) {
  const CsrGraph g = make_star(6);
  BrokerSet b(6);
  b.add(0);
  std::vector<double> weight(6, 1.0);
  weight[5] = 0.0;
  EXPECT_NEAR(weighted_saturated_connectivity(g, b, weight), 1.0, 1e-12);
}

TEST(WeightedMaxSg, UnitWeightsTrackComponentSize) {
  const CsrGraph g = make_connected_random(50, 0.08, 8);
  const std::vector<double> unit(g.num_vertices(), 1.0);
  const auto weighted = weighted_maxsg(g, 8, unit);
  // With unit weights, component weight == component size; the curve must
  // match an independent evaluation of the selected prefixes.
  for (std::size_t i = 0; i < weighted.brokers.size(); ++i) {
    const auto prefix = weighted.brokers.prefix(i + 1);
    EXPECT_DOUBLE_EQ(weighted.component_weight_curve[i],
                     static_cast<double>(largest_dominated_component(g, prefix)))
        << "pick " << i;
  }
}

TEST(WeightedMaxSg, ChasesHeavyRegion) {
  // Two stars: small one (center 0) carries all the mass.
  bsr::graph::GraphBuilder builder(12);
  for (NodeId v = 1; v < 4; ++v) builder.add_edge(0, v);       // light star
  for (NodeId v = 6; v < 12; ++v) builder.add_edge(5, v);      // big star
  const CsrGraph g = builder.build();
  std::vector<double> weight(12, 0.01);
  for (NodeId v = 0; v < 4; ++v) weight[v] = 100.0;  // mass on the small star
  const auto result = weighted_maxsg(g, 1, weight);
  ASSERT_EQ(result.brokers.size(), 1u);
  EXPECT_EQ(result.brokers.members()[0], 0u);  // size-based MaxSG would pick 5
  const auto plain = maxsg(g, 1);
  EXPECT_EQ(plain.brokers.members()[0], 5u);
}

TEST(WeightedMaxSg, CurveMonotoneAndBudgetRespected) {
  const CsrGraph g = make_connected_random(60, 0.07, 9);
  bsr::graph::Rng rng(10);
  std::vector<double> weight(g.num_vertices());
  for (auto& w : weight) w = rng.uniform01() * 5.0;
  const auto result = weighted_maxsg(g, 10, weight);
  EXPECT_LE(result.brokers.size(), 10u);
  for (std::size_t i = 1; i < result.component_weight_curve.size(); ++i) {
    EXPECT_GE(result.component_weight_curve[i],
              result.component_weight_curve[i - 1] - 1e-12);
  }
}

TEST(WeightedMaxSg, StopsWhenNothingImproves) {
  // All-zero weights: no pick can grow the heaviest component's weight.
  const CsrGraph g = make_path(6);
  const std::vector<double> zeros(6, 0.0);
  const auto result = weighted_maxsg(g, 4, zeros);
  EXPECT_TRUE(result.brokers.empty());
}

}  // namespace
}  // namespace bsr::broker
