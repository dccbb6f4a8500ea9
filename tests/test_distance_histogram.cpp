#include "graph/distance_histogram.hpp"

#include <gtest/gtest.h>

#include "graph/fault_plane.hpp"
#include "graph/graph_builder.hpp"
#include "test_util.hpp"

namespace bsr::graph {
namespace {

using bsr::test::make_complete;
using bsr::test::make_connected_random;
using bsr::test::make_cycle;
using bsr::test::make_path;

TEST(DistanceCdf, CompleteGraphAllAtOne) {
  const CsrGraph g = make_complete(8);
  const auto cdf = distance_cdf_exact(g);
  EXPECT_NEAR(cdf.at(1), 1.0, 1e-12);
  EXPECT_NEAR(cdf.reachable, 1.0, 1e-12);
}

TEST(DistanceCdf, PathGraphExactValues) {
  const CsrGraph g = make_path(4);
  const auto cdf = distance_cdf_exact(g);
  // Ordered pairs: 12 total. Distance 1: 6 (3 edges x 2), distance 2: 4,
  // distance 3: 2.
  EXPECT_NEAR(cdf.at(1), 6.0 / 12.0, 1e-12);
  EXPECT_NEAR(cdf.at(2), 10.0 / 12.0, 1e-12);
  EXPECT_NEAR(cdf.at(3), 1.0, 1e-12);
  EXPECT_NEAR(cdf.at(99), 1.0, 1e-12);
}

TEST(DistanceCdf, DisconnectedReachableBelowOne) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  const CsrGraph g = b.build();
  const auto cdf = distance_cdf_exact(g);
  // Reachable ordered pairs: 4 of 12.
  EXPECT_NEAR(cdf.reachable, 4.0 / 12.0, 1e-12);
}

TEST(DistanceCdf, CdfMonotone) {
  const CsrGraph g = make_connected_random(40, 0.08, 12);
  const auto cdf = distance_cdf_exact(g);
  for (std::size_t l = 1; l < cdf.cdf.size(); ++l) {
    EXPECT_GE(cdf.cdf[l], cdf.cdf[l - 1]);
  }
}

TEST(DistanceCdf, AtZeroIsZero) {
  const CsrGraph g = make_cycle(5);
  const auto cdf = distance_cdf_exact(g);
  EXPECT_DOUBLE_EQ(cdf.at(0), 0.0);
}

TEST(DistanceCdf, FilteredEdgesChangeDistribution) {
  const CsrGraph g = make_cycle(6);
  // Remove one edge: cycle becomes path, distances grow.
  FaultPlane plane(g);
  plane.fail_edge(0, 5);
  const auto full = distance_cdf_exact(g);
  const auto cut = distance_cdf_exact(g, engine::FaultAwareFilter{&plane});
  EXPECT_GT(full.at(2), cut.at(2));
  EXPECT_NEAR(cut.reachable, 1.0, 1e-12);  // still connected
}

TEST(DistanceCdf, SampledMatchesExactWhenOversampled) {
  const CsrGraph g = make_connected_random(25, 0.15, 9);
  Rng rng(1);
  const auto sampled = distance_cdf_sampled(g, rng, 1000);  // >= |V| -> exact
  const auto exact = distance_cdf_exact(g);
  EXPECT_NEAR(max_cdf_deviation(sampled, exact), 0.0, 1e-12);
}

TEST(DistanceCdf, SampledApproximatesExact) {
  const CsrGraph g = make_connected_random(200, 0.04, 10);
  Rng rng(2);
  const auto sampled = distance_cdf_sampled(g, rng, 80);
  const auto exact = distance_cdf_exact(g);
  EXPECT_LT(max_cdf_deviation(sampled, exact), 0.05);
}

TEST(DistanceCdf, ErrorsOnDegenerateInput) {
  Rng rng(3);
  EXPECT_THROW(distance_cdf_exact(make_path(1)), std::invalid_argument);
  const CsrGraph g = make_path(3);
  EXPECT_THROW(distance_cdf_from_sources(g, {}), std::invalid_argument);
}

TEST(DistanceCdf, MaxDeviationOfIdenticalIsZero) {
  const CsrGraph g = make_cycle(7);
  const auto a = distance_cdf_exact(g);
  EXPECT_DOUBLE_EQ(max_cdf_deviation(a, a), 0.0);
}

TEST(DistanceCdf, MaxDeviationDetectsDifference) {
  const auto a = distance_cdf_exact(make_complete(6));
  const auto b = distance_cdf_exact(make_path(6));
  EXPECT_GT(max_cdf_deviation(a, b), 0.3);
}

}  // namespace
}  // namespace bsr::graph
