#include "econ/stackelberg.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace bsr::econ {
namespace {

CustomerParams default_customer() {
  CustomerParams p;
  p.v_scale = 1.0;
  p.v_curvature = 4.0;
  p.a0 = 0.1;
  p.a_hat = 0.5;
  p.p_peak = 0.2;
  return p;
}

TEST(CustomerModel, IncomeConcaveIncreasingNormalized) {
  const auto p = default_customer();
  EXPECT_DOUBLE_EQ(customer_income(p, 0.0), 0.0);
  EXPECT_NEAR(customer_income(p, 1.0), p.v_scale, 1e-12);
  // Increasing.
  double prev = -1.0;
  for (double a = 0.0; a <= 1.0; a += 0.1) {
    const double v = customer_income(p, a);
    EXPECT_GT(v, prev);
    prev = v;
  }
  // Concave: midpoint above chord.
  EXPECT_GT(customer_income(p, 0.5),
            0.5 * (customer_income(p, 0.0) + customer_income(p, 1.0)));
}

TEST(CustomerModel, LegacyPaymentShape) {
  const auto p = default_customer();
  EXPECT_NEAR(customer_legacy_payment(p, 1.0), 0.0, 1e-12);
  EXPECT_NEAR(customer_legacy_payment(p, p.a_hat), p.p_peak, 1e-12);
  // Increasing below the peak, decreasing above.
  EXPECT_LT(customer_legacy_payment(p, 0.2), customer_legacy_payment(p, 0.4));
  EXPECT_GT(customer_legacy_payment(p, 0.6), customer_legacy_payment(p, 0.9));
}

TEST(CustomerModel, PeakAtOneDegeneratesGracefully) {
  auto p = default_customer();
  p.a_hat = 1.0;
  EXPECT_DOUBLE_EQ(customer_legacy_payment(p, 0.5), 0.0);
}

TEST(BestResponse, FreeServiceMeansFullAdoption) {
  // With no legacy-payment pull (p_peak = 0), free brokered routing means
  // full adoption; with the default peaked P_i the optimum is interior but
  // still beyond the peak.
  auto p = default_customer();
  p.p_peak = 0.0;
  EXPECT_NEAR(best_response(p, 0.0), 1.0, 1e-6);
  const auto peaked = default_customer();
  const double a = best_response(peaked, 0.0);
  EXPECT_GT(a, peaked.a_hat);
  EXPECT_LT(a, 1.0 + 1e-9);
}

TEST(BestResponse, ExorbitantPriceMeansStatusQuo) {
  const auto p = default_customer();
  EXPECT_NEAR(best_response(p, 100.0), p.a0, 1e-6);
}

TEST(BestResponse, MonotoneNonIncreasingInPrice) {
  const auto p = default_customer();
  double prev = 2.0;
  for (double price = 0.0; price <= 3.0; price += 0.25) {
    const double a = best_response(p, price);
    EXPECT_LE(a, prev + 1e-9) << "price " << price;
    EXPECT_GE(a, p.a0 - 1e-9);
    EXPECT_LE(a, 1.0 + 1e-9);
    prev = a;
  }
}

TEST(BestResponse, IsArgmaxOfUtility) {
  const auto p = default_customer();
  for (const double price : {0.3, 0.8, 1.5}) {
    const double a_star = best_response(p, price);
    const double u_star = customer_utility(p, a_star, price);
    for (double a = p.a0; a <= 1.0; a += 0.01) {
      EXPECT_LE(customer_utility(p, a, price), u_star + 1e-6)
          << "price " << price << " a " << a;
    }
  }
}

TEST(BestResponse, RejectsBadA0) {
  auto p = default_customer();
  p.a0 = 1.5;
  EXPECT_THROW((void)best_response(p, 1.0), std::invalid_argument);
}

TEST(Stackelberg, EquilibriumExistsAndIsConsistent) {
  StackelbergConfig config;
  for (int i = 0; i < 20; ++i) {
    auto c = default_customer();
    c.v_scale = 0.5 + 0.05 * i;
    config.customers.push_back(c);
  }
  const auto eq = solve_stackelberg(config);
  EXPECT_GE(eq.price, 0.0);
  EXPECT_LE(eq.price, config.max_price);
  EXPECT_EQ(eq.adoption.size(), config.customers.size());
  // Equilibrium adoption must equal each customer's best response.
  for (std::size_t i = 0; i < config.customers.size(); ++i) {
    EXPECT_NEAR(eq.adoption[i], best_response(config.customers[i], eq.price), 1e-6);
  }
  EXPECT_NEAR(eq.mean_adoption, eq.total_adoption / config.customers.size(), 1e-12);
}

TEST(Stackelberg, LeaderPriceBeatsArbitraryPrices) {
  StackelbergConfig config;
  for (int i = 0; i < 10; ++i) config.customers.push_back(default_customer());
  const auto eq = solve_stackelberg(config);
  const auto utility_at = [&](double price) {
    double alpha = 0.0;
    for (const auto& c : config.customers) alpha += best_response(c, price);
    return 2.0 * price * alpha - broker_cost(config.cost, alpha);
  };
  for (double price = 0.1; price <= config.max_price; price += 0.37) {
    EXPECT_GE(eq.broker_utility + 1e-4, utility_at(price)) << "price " << price;
  }
}

TEST(Stackelberg, HighValueCustomersAdoptFully) {
  // The paper's qualitative claim: when the QoS income dominates, a_i -> 1.
  StackelbergConfig config;
  for (int i = 0; i < 10; ++i) {
    auto c = default_customer();
    c.v_scale = 30.0;  // users pay handsomely for QoS
    config.customers.push_back(c);
  }
  const auto eq = solve_stackelberg(config);
  EXPECT_EQ(eq.full_adopters, config.customers.size());
  EXPECT_NEAR(eq.mean_adoption, 1.0, 1e-4);
}

TEST(Stackelberg, RejectsDegenerateInputs) {
  StackelbergConfig empty;
  EXPECT_THROW(solve_stackelberg(empty), std::invalid_argument);
  StackelbergConfig bad_price;
  bad_price.customers.push_back(default_customer());
  bad_price.max_price = 0.0;
  EXPECT_THROW(solve_stackelberg(bad_price), std::invalid_argument);
}

TEST(BrokerCost, IncreasingInAlpha) {
  BrokerCostParams c;
  double prev = -1.0;
  for (double alpha = 0.0; alpha < 10.0; alpha += 0.5) {
    const double value = broker_cost(c, alpha);
    EXPECT_GT(value, prev);
    prev = value;
  }
}

}  // namespace
}  // namespace bsr::econ
