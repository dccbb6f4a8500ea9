#include "econ/competition.hpp"

#include <gtest/gtest.h>

namespace bsr::econ {
namespace {

std::vector<CustomerParams> customers(std::size_t count) {
  std::vector<CustomerParams> out;
  for (std::size_t i = 0; i < count; ++i) {
    CustomerParams c;
    c.v_scale = 0.8 + 0.01 * static_cast<double>(i % 40);
    c.a0 = 0.05;
    c.a_hat = 0.5;
    c.p_peak = 0.15;
    out.push_back(c);
  }
  return out;
}

TEST(Competition, CustomerUtilityGrowsWithCoverage) {
  const auto c = customers(1)[0];
  double a_low = 0, a_high = 0;
  const double u_low = customer_best_utility(c, 0.3, 0.2, &a_low);
  const double u_high = customer_best_utility(c, 0.9, 0.2, &a_high);
  EXPECT_GT(u_high, u_low);
  EXPECT_GE(a_high, a_low - 1e-9);
}

TEST(Competition, CoverageLeaderWinsTheMarket) {
  Duopoly game;
  game.coverage_a = 0.95;
  game.coverage_b = 0.45;
  game.customers = customers(120);
  const auto outcome = compete(game);
  // Damped dynamics usually converge; even on a residual cycle the market
  // split must favor the coverage leader.
  EXPECT_GT(outcome.customers_a, outcome.customers_b);
  EXPECT_GT(outcome.profit_a, outcome.profit_b);
}

TEST(Competition, SymmetricCoverageSplitsOrTies) {
  Duopoly game;
  game.coverage_a = 0.7;
  game.coverage_b = 0.7;
  game.customers = customers(100);
  const auto outcome = compete(game);
  // Equal products, alternating moves: outcome must not give one side a
  // dominant price premium.
  EXPECT_NEAR(outcome.price_a, outcome.price_b, 0.5);
}

TEST(Competition, LeaderKeepsPricePremium) {
  Duopoly game;
  game.coverage_a = 0.95;
  game.coverage_b = 0.45;
  game.customers = customers(120);
  const auto outcome = compete(game);
  EXPECT_GE(outcome.price_a, outcome.price_b - 1e-6);
}

TEST(Competition, AccountingConsistent) {
  Duopoly game;
  game.customers = customers(60);
  const auto outcome = compete(game);
  EXPECT_EQ(outcome.customers_a + outcome.customers_b + outcome.customers_none,
            game.customers.size());
  EXPECT_GE(outcome.adoption_a, 0.0);
  EXPECT_GE(outcome.adoption_b, 0.0);
  EXPECT_NEAR(outcome.profit_a, 2.0 * outcome.price_a * outcome.adoption_a, 1e-6);
}

TEST(Competition, RejectsBadInput) {
  Duopoly empty;
  EXPECT_THROW((void)compete(empty), std::invalid_argument);
  Duopoly bad_coverage;
  bad_coverage.customers = customers(5);
  bad_coverage.coverage_a = 1.5;
  EXPECT_THROW((void)compete(bad_coverage), std::invalid_argument);
}

}  // namespace
}  // namespace bsr::econ
