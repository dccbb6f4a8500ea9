#include "broker/mcbg_approx.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "broker/verify.hpp"
#include "test_util.hpp"

namespace bsr::broker {
namespace {

using bsr::graph::CsrGraph;
using bsr::test::make_complete;
using bsr::test::make_connected_random;
using bsr::test::make_path;
using bsr::test::make_star;

TEST(McbgBudget, PreselectFormula) {
  // beta = 4 -> ⌈β/2⌉ = 2 -> x* = ⌊(k+1)/2⌋.
  EXPECT_EQ(mcbg_preselect_budget(1, 4), 1u);
  EXPECT_EQ(mcbg_preselect_budget(2, 4), 1u);
  EXPECT_EQ(mcbg_preselect_budget(3, 4), 2u);
  EXPECT_EQ(mcbg_preselect_budget(10, 4), 5u);
  EXPECT_EQ(mcbg_preselect_budget(11, 4), 6u);
  // beta <= 2 -> each broker costs 1 -> x* = k.
  EXPECT_EQ(mcbg_preselect_budget(7, 2), 7u);
  EXPECT_EQ(mcbg_preselect_budget(7, 1), 7u);
  // beta = 6 -> cost 3 -> x* = ⌊(k+2)/3⌋.
  EXPECT_EQ(mcbg_preselect_budget(10, 6), 4u);
  EXPECT_THROW((void)mcbg_preselect_budget(5, 0), std::invalid_argument);
}

TEST(Mcbg, EmptyGraphThrows) {
  EXPECT_THROW(mcbg_approx(CsrGraph(), 3), std::invalid_argument);
}

TEST(Mcbg, ZeroBudget) {
  const CsrGraph g = make_star(5);
  const auto result = mcbg_approx(g, 0);
  EXPECT_TRUE(result.brokers.empty());
}

TEST(Mcbg, StarSolvedBySingleBroker) {
  const CsrGraph g = make_star(9);
  const auto result = mcbg_approx(g, 3);
  EXPECT_EQ(result.coverage, 9u);
  EXPECT_TRUE(has_pairwise_guarantee(g, result.brokers));
}

TEST(Mcbg, PathGraphStitching) {
  const CsrGraph g = make_path(9);
  const auto result = mcbg_approx(g, 5);
  EXPECT_LE(result.brokers.size(), 5u);
  EXPECT_TRUE(has_pairwise_guarantee(g, result.brokers));
  EXPECT_GT(result.coverage, 4u);
}

class McbgPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(McbgPropertyTest, BudgetAlwaysRespected) {
  const CsrGraph g = make_connected_random(40, 0.07, GetParam());
  for (const std::uint32_t k : {1u, 2u, 5u, 9u, 15u}) {
    const auto result = mcbg_approx(g, k);
    EXPECT_LE(result.brokers.size(), k) << "k = " << k;
    EXPECT_EQ(result.brokers.size(),
              result.preselected + result.stitching);
  }
}

TEST_P(McbgPropertyTest, GuaranteeHoldsOnConnectedGraphs) {
  const CsrGraph g = make_connected_random(40, 0.07, GetParam() + 50);
  for (const std::uint32_t k : {3u, 7u, 12u}) {
    const auto result = mcbg_approx(g, k);
    EXPECT_TRUE(has_pairwise_guarantee(g, result.brokers)) << "k = " << k;
    EXPECT_EQ(result.unreachable_preselected, 0u);
  }
}

TEST_P(McbgPropertyTest, ApproximationRatioOnTinyGraphs) {
  // Theorem 3: f(APX) >= (1 - 1/e)/θ · f(OPT_MCBG) with θ = 2⌈β/2⌉ for our
  // β = 4 setting. Check against the brute-force MCBG optimum.
  const CsrGraph g = make_connected_random(12, 0.2, GetParam() + 99);
  constexpr double kTheta = 4.0;  // 2 * ⌈4/2⌉
  for (const std::uint32_t k : {2u, 3u, 4u}) {
    const auto result = mcbg_approx(g, k);
    const auto optimum = brute_force_mcbg_optimum(g, k);
    EXPECT_GE(static_cast<double>(result.coverage) + 1e-9,
              (1.0 - 1.0 / std::exp(1.0)) / kTheta * optimum)
        << "k = " << k;
  }
}

TEST_P(McbgPropertyTest, SubsampledRootsStillFeasible) {
  const CsrGraph g = make_connected_random(50, 0.06, GetParam() + 150);
  McbgOptions options;
  options.max_roots = 2;
  const auto result = mcbg_approx(g, 11, options);
  EXPECT_LE(result.brokers.size(), 11u);
  EXPECT_TRUE(has_pairwise_guarantee(g, result.brokers));
}

TEST_P(McbgPropertyTest, LargerBetaPreselectsFewer) {
  const CsrGraph g = make_connected_random(40, 0.08, GetParam() + 250);
  McbgOptions beta4;
  beta4.beta = 4;
  McbgOptions beta8;
  beta8.beta = 8;
  const auto r4 = mcbg_approx(g, 12, beta4);
  const auto r8 = mcbg_approx(g, 12, beta8);
  EXPECT_GE(r4.preselected, r8.preselected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, McbgPropertyTest, ::testing::Values(4, 44, 444, 4444));

}  // namespace
}  // namespace bsr::broker
