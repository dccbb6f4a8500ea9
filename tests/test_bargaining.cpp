#include "econ/bargaining.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace bsr::econ {
namespace {

TEST(GoldenSection, FindsParabolaMaximum) {
  const double x = golden_section_max([](double t) { return -(t - 2.5) * (t - 2.5); },
                                      0.0, 10.0);
  EXPECT_NEAR(x, 2.5, 1e-6);
}

TEST(GoldenSection, HandlesBoundaryMaximum) {
  const double x = golden_section_max([](double t) { return t; }, 0.0, 1.0);
  EXPECT_NEAR(x, 1.0, 1e-6);
}

TEST(GoldenSection, RejectsInvertedInterval) {
  EXPECT_THROW((void)golden_section_max([](double) { return 0.0; }, 1.0, 0.0),
               std::invalid_argument);
}

TEST(Bargaining, ClosedFormMatchesNumericalOptimum) {
  BargainingConfig config;
  config.broker_price = 2.0;
  config.transit_cost = 0.1;
  config.beta = 4;  // h = 2
  const auto solution = solve_bargaining(config);
  ASSERT_TRUE(solution.feasible);
  EXPECT_NEAR(solution.price, 1.0, 1e-9);  // p* = p_B / h

  const double h = config.employees();
  const auto nash_product = [&](double p) {
    return (p - config.transit_cost) *
           (2.0 * config.broker_price - h * p - h * config.transit_cost);
  };
  const double numeric = golden_section_max(
      nash_product, config.transit_cost, 2.0 * config.broker_price / h);
  EXPECT_NEAR(solution.price, numeric, 1e-5);
}

TEST(Bargaining, BothSidesGainAtSolution) {
  BargainingConfig config;
  config.broker_price = 1.5;
  config.transit_cost = 0.2;
  const auto solution = solve_bargaining(config);
  ASSERT_TRUE(solution.feasible);
  EXPECT_GT(solution.u_employee, 0.0);
  EXPECT_GT(solution.u_broker, 0.0);
  EXPECT_NEAR(solution.nash_product, solution.u_employee * solution.u_broker, 1e-12);
}

TEST(Bargaining, InfeasibleWhenPriceTooLow) {
  BargainingConfig config;
  config.broker_price = 0.05;  // below h*c = 2*0.05 = 0.1
  config.transit_cost = 0.05;
  const auto solution = solve_bargaining(config);
  EXPECT_FALSE(solution.feasible);
}

TEST(Bargaining, EmployeesFromBeta) {
  BargainingConfig config;
  config.beta = 4;
  EXPECT_EQ(config.employees(), 2u);
  config.beta = 5;
  EXPECT_EQ(config.employees(), 3u);
  config.beta = 1;
  EXPECT_EQ(config.employees(), 1u);
}

TEST(Bargaining, MoreEmployeesLowerPrice) {
  BargainingConfig few;
  few.broker_price = 3.0;
  few.beta = 2;  // h = 1
  BargainingConfig many = few;
  many.beta = 8;  // h = 4
  const auto a = solve_bargaining(few);
  const auto b = solve_bargaining(many);
  ASSERT_TRUE(a.feasible && b.feasible);
  EXPECT_GT(a.price, b.price);
}

TEST(Bargaining, RejectsBadInputs) {
  BargainingConfig config;
  config.broker_price = 0.0;
  EXPECT_THROW((void)solve_bargaining(config), std::invalid_argument);
  config = BargainingConfig{};
  config.transit_cost = -1.0;
  EXPECT_THROW((void)solve_bargaining(config), std::invalid_argument);
  config = BargainingConfig{};
  config.beta = 0;
  EXPECT_THROW((void)solve_bargaining(config), std::invalid_argument);
}

}  // namespace
}  // namespace bsr::econ
