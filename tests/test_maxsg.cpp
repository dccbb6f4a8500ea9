#include "broker/maxsg.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "broker/coverage.hpp"
#include "broker/dominated.hpp"
#include "graph/components.hpp"
#include "graph/engine.hpp"
#include "graph/renumbering.hpp"
#include "graph/rollback_union_find.hpp"
#include "test_util.hpp"

namespace bsr::broker {
namespace {

using bsr::graph::CsrGraph;
using bsr::graph::NodeId;
using bsr::test::make_connected_random;
using bsr::test::make_path;
using bsr::test::make_random;
using bsr::test::make_star;

TEST(MaxSg, EmptyGraphThrows) {
  EXPECT_THROW(maxsg(CsrGraph(), 3), std::invalid_argument);
}

TEST(MaxSg, ZeroBudget) {
  const CsrGraph g = make_star(5);
  const auto result = maxsg(g, 0);
  EXPECT_TRUE(result.brokers.empty());
  EXPECT_EQ(result.final_component, 0u);
}

TEST(MaxSg, StarPicksCenterAndStops) {
  const CsrGraph g = make_star(12);
  const auto result = maxsg(g, 5);
  ASSERT_EQ(result.brokers.size(), 1u);  // center dominates everything
  EXPECT_EQ(result.brokers.members()[0], 0u);
  EXPECT_EQ(result.final_component, 12u);
}

TEST(MaxSg, PathGraphAlternatingSelection) {
  const CsrGraph g = make_path(9);
  const auto result = maxsg(g, 9);
  // Dominating the whole path needs every other vertex, about n/2 - but
  // never more than the budget, and the component must reach all 9.
  EXPECT_EQ(result.final_component, 9u);
  EXPECT_LE(result.brokers.size(), 5u);
}

TEST(MaxSg, BudgetRespectedWithoutEarlyStop) {
  const CsrGraph g = make_connected_random(60, 0.05, 5);
  MaxSgOptions options;
  options.stop_when_dominating = false;
  const auto result = maxsg(g, 7, options);
  EXPECT_EQ(result.brokers.size(), 7u);
}

TEST(MaxSg, ComponentCurveMatchesIndependentEvaluation) {
  const CsrGraph g = make_connected_random(40, 0.08, 6);
  const auto result = maxsg(g, 8);
  ASSERT_EQ(result.component_curve.size(), result.brokers.size());
  for (std::size_t i = 0; i < result.brokers.size(); ++i) {
    const auto prefix = result.brokers.prefix(i + 1);
    EXPECT_EQ(result.component_curve[i], largest_dominated_component(g, prefix))
        << "pick " << i;
    if (i > 0) {
      EXPECT_GE(result.component_curve[i], result.component_curve[i - 1]);
    }
  }
}

TEST(MaxSg, GreedyStepIsLocallyOptimal) {
  // At every step, no other candidate would have produced a larger
  // component than the one the algorithm picked (ties allowed).
  const CsrGraph g = make_connected_random(25, 0.12, 7);
  const auto result = maxsg(g, 5);
  for (std::size_t i = 0; i < result.brokers.size(); ++i) {
    BrokerSet prefix = result.brokers.prefix(i);
    const std::uint32_t chosen_value = result.component_curve[i];
    for (NodeId w = 0; w < g.num_vertices(); ++w) {
      if (prefix.contains(w)) continue;
      BrokerSet alternative = prefix;
      alternative.add(w);
      EXPECT_GE(chosen_value, largest_dominated_component(g, alternative))
          << "pick " << i << " alternative " << w;
    }
  }
}

TEST(MaxSg, StopsWhenDominatingMaxSubgraph) {
  const CsrGraph g = make_connected_random(50, 0.07, 8);
  const auto result = maxsg(g, 1000);
  // The "3,540-alliance" behavior: stop once the maximum connected subgraph
  // is fully dominated.
  EXPECT_EQ(result.final_component,
            bsr::graph::connected_components(g).largest_size());
  EXPECT_LT(result.brokers.size(), 1000u);
}

TEST(MaxSg, DeterministicSelection) {
  const CsrGraph g = make_connected_random(40, 0.08, 9);
  const auto a = maxsg(g, 6);
  const auto b = maxsg(g, 6);
  EXPECT_EQ(std::vector<NodeId>(a.brokers.members().begin(), a.brokers.members().end()),
            std::vector<NodeId>(b.brokers.members().begin(), b.brokers.members().end()));
}

TEST(MaxSg, DisconnectedGraphCoversLargestPiece) {
  bsr::graph::GraphBuilder b(9);
  // Component A: star of 6 (0..5). Component B: triangle (6, 7, 8).
  for (NodeId v = 1; v < 6; ++v) b.add_edge(0, v);
  b.add_edge(6, 7);
  b.add_edge(7, 8);
  b.add_edge(6, 8);
  const CsrGraph g = b.build();
  const auto result = maxsg(g, 1);
  ASSERT_EQ(result.brokers.size(), 1u);
  EXPECT_EQ(result.brokers.members()[0], 0u);  // the bigger component's hub
  EXPECT_EQ(result.final_component, 6u);
}

/// Full-sweep MaxSG: every round rebuilds G_B's components from scratch and
/// scores every candidate by the size of the component its star would form;
/// the first strict maximum in id order wins.
MaxSgResult full_sweep_maxsg(const CsrGraph& g, std::uint32_t k,
                             bool stop_when_dominating) {
  const NodeId n = g.num_vertices();
  const std::uint32_t ceiling = bsr::graph::connected_components(g).largest_size();
  MaxSgResult out;
  out.brokers = BrokerSet(n);
  while (out.brokers.size() < k) {
    bsr::graph::RollbackUnionFind uf(n);
    build_dominated_uf(g, out.brokers, uf);
    NodeId best = bsr::graph::kUnreachable;
    std::uint32_t best_gain = 0;
    for (NodeId w = 0; w < n; ++w) {
      if (out.brokers.contains(w)) continue;
      std::vector<NodeId> roots{uf.find(w)};
      for (const NodeId v : g.neighbors(w)) roots.push_back(uf.find(v));
      std::sort(roots.begin(), roots.end());
      roots.erase(std::unique(roots.begin(), roots.end()), roots.end());
      std::uint32_t gain = 0;
      for (const NodeId r : roots) gain += uf.root_size(r);
      if (gain > best_gain) {
        best_gain = gain;
        best = w;
      }
    }
    if (best == bsr::graph::kUnreachable) break;
    out.brokers.add(best);
    uf.reset(n);
    build_dominated_uf(g, out.brokers, uf);
    out.final_component = uf.largest_component_size();
    out.component_curve.push_back(out.final_component);
    if (stop_when_dominating && out.final_component >= ceiling) break;
  }
  out.coverage = coverage(g, out.brokers);
  return out;
}

TEST(MaxSg, MatchesFullSweepReference) {
  // Connected graphs, plus disconnected ones whose isolated vertices make
  // late gains tie, so the lowest-original-id tie-break is exercised.
  std::vector<CsrGraph> graphs;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    graphs.push_back(make_connected_random(70, 0.05, seed));
    graphs.push_back(make_random(70, 0.025, seed + 10));
  }
  for (const CsrGraph& g : graphs) {
    const NodeId n = g.num_vertices();
    const bsr::graph::Renumbering ren = bsr::graph::Renumbering::degree_descending(g);
    const CsrGraph renumbered = ren.apply(g);
    for (const bool stop : {true, false}) {
      const MaxSgResult expected = full_sweep_maxsg(g, n, stop);
      for (const bool renumber : {false, true}) {
        for (const int threads : {1, 4}) {
          bsr::graph::engine::set_num_threads(threads);
          MaxSgOptions options;
          options.stop_when_dominating = stop;
          options.renumbering = renumber ? &ren : nullptr;
          const MaxSgResult got = maxsg(renumber ? renumbered : g, n, options);
          bsr::graph::engine::set_num_threads(0);
          SCOPED_TRACE(::testing::Message() << "stop " << stop << " renumber "
                                            << renumber << " threads " << threads);
          EXPECT_TRUE(std::ranges::equal(got.brokers.members(),
                                         expected.brokers.members()));
          EXPECT_EQ(got.component_curve, expected.component_curve);
          EXPECT_EQ(got.final_component, expected.final_component);
          EXPECT_EQ(got.coverage, expected.coverage);
        }
      }
    }
  }
}

class MaxSgPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MaxSgPropertyTest, ComponentNeverExceedsCoverage) {
  const CsrGraph g = make_random(45, 0.06, GetParam());
  const auto result = maxsg(g, 10);
  EXPECT_LE(result.final_component, result.coverage);
}

TEST_P(MaxSgPropertyTest, MoreBudgetNeverShrinksComponent) {
  const CsrGraph g = make_random(45, 0.06, GetParam() + 10);
  std::uint32_t previous = 0;
  for (const std::uint32_t k : {1u, 2u, 4u, 8u, 16u}) {
    const auto result = maxsg(g, k);
    EXPECT_GE(result.final_component, previous);
    previous = result.final_component;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxSgPropertyTest, ::testing::Values(6, 66, 666));

}  // namespace
}  // namespace bsr::broker
