// End-to-end pipeline tests on a scaled-down synthetic Internet.
//
// These assert the *qualitative* findings of the paper's evaluation hold on
// the small topology: algorithm ordering, marginal effects, policy impact.
#include <gtest/gtest.h>

#include "broker/baselines.hpp"
#include "broker/coverage.hpp"
#include "broker/dominated.hpp"
#include "broker/greedy_mcb.hpp"
#include "broker/maxsg.hpp"
#include "broker/mcbg_approx.hpp"
#include "broker/path_length.hpp"
#include "graph/engine.hpp"
#include "topology/internet.hpp"
#include "topology/relationships.hpp"

namespace bsr {
namespace {

using broker::BrokerSet;
using bsr::graph::NodeId;
using bsr::graph::Rng;

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto cfg = topology::InternetConfig{}.scaled(0.04);  // ~2,100 vertices
    cfg.seed = 7;
    topo_ = new topology::InternetTopology(topology::make_internet(cfg));
  }
  static void TearDownTestSuite() {
    delete topo_;
    topo_ = nullptr;
  }

  static topology::InternetTopology* topo_;
};

topology::InternetTopology* PipelineTest::topo_ = nullptr;

TEST_F(PipelineTest, AlgorithmOrderingMatchesPaper) {
  const auto& g = topo_->graph;
  const std::uint32_t k = g.num_vertices() / 50;  // ~2 % as brokers

  const auto maxsg_result = broker::maxsg(g, k);
  const double maxsg_conn =
      broker::saturated_connectivity(g, maxsg_result.brokers.prefix(k));
  const double db_conn =
      broker::saturated_connectivity(g, broker::db_top_degree(g, k));
  const double prb_conn =
      broker::saturated_connectivity(g, broker::prb_top_pagerank(g, k));
  const double ixp_conn =
      broker::saturated_connectivity(g, broker::ixpb(*topo_));
  const double tier1_conn =
      broker::saturated_connectivity(g, broker::tier1_only(*topo_));

  // Fig. 2b ordering: MaxSG >= DB ~ PRB >> IXPB > Tier1Only.
  EXPECT_GE(maxsg_conn, db_conn - 0.02);
  EXPECT_GE(maxsg_conn, prb_conn - 0.02);
  EXPECT_GT(db_conn, ixp_conn);
  EXPECT_GT(prb_conn, ixp_conn);
  EXPECT_GT(ixp_conn, tier1_conn * 0.5);
  EXPECT_LT(ixp_conn, 0.5);      // IXPs alone cap out low (15.7 % at scale 1)
  EXPECT_GT(maxsg_conn, 0.5);    // the broker approach dominates
}

TEST_F(PipelineTest, MaxSgWithinHalfPercentOfApproximation) {
  // §6.1: MaxSG sacrifices < 0.5 % connectivity vs the Algorithm-2
  // approximation at comparable k (we allow small-scale noise: 2 %).
  const auto& g = topo_->graph;
  const std::uint32_t k = g.num_vertices() / 25;

  broker::McbgOptions options;
  options.max_roots = 8;
  const auto approx = broker::mcbg_approx(g, k, options);
  const auto heuristic = broker::maxsg(g, k);
  const double approx_conn = broker::saturated_connectivity(g, approx.brokers);
  const double maxsg_conn = broker::saturated_connectivity(g, heuristic.brokers);
  EXPECT_GE(maxsg_conn, approx_conn - 0.02);
}

TEST_F(PipelineTest, ScNeedsMostOfTheNetwork) {
  const auto& g = topo_->graph;
  Rng rng(3);
  const auto sc = broker::sc_dominating_set(g, rng);
  // Fig. 2a: SC takes ~76 % of all vertices.
  EXPECT_GT(sc.size(), g.num_vertices() / 2);
  EXPECT_DOUBLE_EQ(broker::coverage(g, sc), g.num_vertices());
}

TEST_F(PipelineTest, MarginalEffectDecreasesForDb) {
  // §6.1: the DB algorithm's marginal connectivity gain shrinks as the
  // broker set grows.
  const auto& g = topo_->graph;
  const std::uint32_t k_small = 20, k_large = g.num_vertices() / 10;
  const double small = broker::saturated_connectivity(g, broker::db_top_degree(g, k_small));
  const double mid =
      broker::saturated_connectivity(g, broker::db_top_degree(g, k_large / 2));
  const double large =
      broker::saturated_connectivity(g, broker::db_top_degree(g, k_large));
  const double early_rate = (mid - small) / (k_large / 2.0 - k_small);
  const double late_rate = (large - mid) / (k_large / 2.0);
  EXPECT_GT(early_rate, late_rate);
}

TEST_F(PipelineTest, PathInflationSmallForLargeAlliance) {
  // Table 4: a saturating MaxSG alliance produces nearly no path inflation.
  const auto& g = topo_->graph;
  const auto alliance = broker::maxsg(g, g.num_vertices()).brokers;
  Rng rng(4);
  const auto cmp = broker::compare_path_lengths(g, alliance, rng, 128);
  EXPECT_LT(cmp.max_deviation, 0.05);
}

TEST_F(PipelineTest, DirectionalPolicyDegradesConnectivity) {
  // Fig. 5c: obeying business relationships (valley-free) reduces the
  // dominated reachability vs the bidirectional assumption.
  const auto& g = topo_->graph;
  const auto brokers = broker::maxsg(g, g.num_vertices() / 25).brokers;
  const auto dominated = [&brokers](NodeId u, NodeId v) {
    return brokers.dominates_edge(u, v);
  };

  Rng rng(5);
  std::size_t free_reach = 0, policy_reach = 0;
  bsr::graph::engine::Workspace ws;
  for (int i = 0; i < 40; ++i) {
    const auto src = static_cast<NodeId>(rng.uniform(g.num_vertices()));
    bsr::graph::engine::bfs(g, src, ws,
                            bsr::graph::engine::DominatedEdgeFilter{&brokers.mask()});
    const auto policy_dist =
        topology::valley_free_distances(g, topo_->relations, src, dominated, {});
    for (NodeId v = 0; v < g.num_vertices(); ++v) {
      if (v == src) continue;
      free_reach += ws.visited(v);
      policy_reach += policy_dist[v] != bsr::graph::kUnreachable;
    }
  }
  EXPECT_LT(policy_reach, free_reach);
  EXPECT_GT(policy_reach, 0u);
}

TEST_F(PipelineTest, BidirectionalOverridesRecoverConnectivity) {
  // Fig. 5b: making inter-broker links bidirectional recovers reachability.
  const auto& g = topo_->graph;
  const auto brokers = broker::maxsg(g, g.num_vertices() / 25).brokers;
  const auto dominated = [&brokers](NodeId u, NodeId v) {
    return brokers.dominates_edge(u, v);
  };
  const auto inter_broker = [&brokers](NodeId u, NodeId v) {
    return brokers.contains(u) && brokers.contains(v);
  };

  Rng rng(6);
  std::size_t policy_reach = 0, override_reach = 0;
  for (int i = 0; i < 30; ++i) {
    const auto src = static_cast<NodeId>(rng.uniform(g.num_vertices()));
    const auto base =
        topology::valley_free_distances(g, topo_->relations, src, dominated, {});
    const auto with_override = topology::valley_free_distances(
        g, topo_->relations, src, dominated, inter_broker);
    for (NodeId v = 0; v < g.num_vertices(); ++v) {
      policy_reach += base[v] != bsr::graph::kUnreachable;
      override_reach += with_override[v] != bsr::graph::kUnreachable;
    }
  }
  EXPECT_GT(override_reach, policy_reach);
}

TEST_F(PipelineTest, WholePipelineDeterministic) {
  const auto& g = topo_->graph;
  const auto a = broker::maxsg(g, 50);
  const auto b = broker::maxsg(g, 50);
  EXPECT_EQ(std::vector<NodeId>(a.brokers.members().begin(), a.brokers.members().end()),
            std::vector<NodeId>(b.brokers.members().begin(), b.brokers.members().end()));
}

}  // namespace
}  // namespace bsr
