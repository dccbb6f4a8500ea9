#include "topology/internet.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "graph/components.hpp"
#include "graph/degree_stats.hpp"
#include "topology/stats.hpp"

namespace bsr::topology {
namespace {

using bsr::graph::NodeId;

/// Small but non-trivial test-scale topology (~2,600 vertices).
InternetConfig small_config() {
  InternetConfig base;
  auto cfg = base.scaled(0.05);
  cfg.seed = 99;
  return cfg;
}

class InternetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { topo_ = new InternetTopology(make_internet(small_config())); }
  static void TearDownTestSuite() {
    delete topo_;
    topo_ = nullptr;
  }
  static InternetTopology* topo_;
};

InternetTopology* InternetTest::topo_ = nullptr;

TEST_F(InternetTest, VertexCountsMatchConfig) {
  const auto cfg = small_config();
  EXPECT_EQ(topo_->num_ases, cfg.num_ases);
  EXPECT_EQ(topo_->num_ixps, cfg.num_ixps);
  EXPECT_EQ(topo_->num_vertices(), cfg.num_ases + cfg.num_ixps);
  EXPECT_EQ(topo_->meta.size(), topo_->num_vertices());
}

TEST_F(InternetTest, EdgeBudgetRespected) {
  const auto cfg = small_config();
  std::uint64_t as_as = 0;
  for (NodeId u = 0; u < topo_->num_ases; ++u) {
    for (const NodeId v : topo_->graph.neighbors(u)) {
      if (u < v && v < topo_->num_ases) ++as_as;
    }
  }
  EXPECT_NEAR(static_cast<double>(as_as), static_cast<double>(cfg.target_as_edges),
              cfg.target_as_edges * 0.02);
}

TEST_F(InternetTest, IxpAttachmentRateMatches) {
  EXPECT_NEAR(topo_->ixp_attachment_rate(), small_config().ixp_participation, 0.01);
}

TEST_F(InternetTest, IxpsAreTypedAndTierless) {
  for (NodeId v = topo_->num_ases; v < topo_->num_vertices(); ++v) {
    EXPECT_TRUE(topo_->is_ixp(v));
    EXPECT_EQ(topo_->meta[v].type, NodeType::kIxp);
    EXPECT_EQ(topo_->meta[v].tier, Tier::kTierNone);
  }
}

TEST_F(InternetTest, TierOneFormsCliqueOfPeers) {
  std::vector<NodeId> tier1;
  for (NodeId v = 0; v < topo_->num_ases; ++v) {
    if (topo_->meta[v].tier == Tier::kTier1) tier1.push_back(v);
  }
  ASSERT_GE(tier1.size(), 4u);
  for (const NodeId u : tier1) {
    for (const NodeId v : tier1) {
      if (u >= v) continue;
      ASSERT_TRUE(topo_->graph.has_edge(u, v));
      EXPECT_TRUE(topo_->relations.is_peer(u, v));
    }
  }
}

TEST_F(InternetTest, GiantComponentMatchesIsolatedFraction) {
  const auto cfg = small_config();
  const auto comps = bsr::graph::connected_components(topo_->graph);
  const auto expected_isolated =
      static_cast<std::uint32_t>(std::llround(cfg.num_ases * cfg.isolated_fraction));
  EXPECT_NEAR(static_cast<double>(comps.largest_size()),
              static_cast<double>(topo_->num_vertices() - expected_isolated),
              3.0);
}

TEST_F(InternetTest, TransitEdgesPointDownTheHierarchy) {
  // For provider-customer edges between different tiers, the provider must
  // be the same tier or higher (numerically lower) than the customer.
  std::size_t checked = 0;
  for (const auto& e : topo_->graph.edges()) {
    if (e.v >= topo_->num_ases) continue;  // skip IXP memberships
    const EdgeRel rel = topo_->relations.rel_canonical(e.u, e.v);
    if (rel == EdgeRel::kPeer) continue;
    const NodeId provider = rel == EdgeRel::kUProviderOfV ? e.u : e.v;
    const NodeId customer = rel == EdgeRel::kUProviderOfV ? e.v : e.u;
    EXPECT_LE(static_cast<int>(topo_->meta[provider].tier),
              static_cast<int>(topo_->meta[customer].tier));
    ++checked;
  }
  EXPECT_GT(checked, 1000u);
}

TEST_F(InternetTest, IxpEdgesArePeering) {
  for (NodeId ixp = topo_->num_ases; ixp < topo_->num_vertices(); ++ixp) {
    for (const NodeId m : topo_->graph.neighbors(ixp)) {
      EXPECT_TRUE(topo_->relations.is_peer(ixp, m));
      EXPECT_LT(m, topo_->num_ases);  // IXPs never interconnect directly
    }
  }
}

TEST_F(InternetTest, AsOnlyGraphDropsExactlyIxpEdges) {
  const auto as_graph = topo_->as_only_graph();
  EXPECT_EQ(as_graph.num_vertices(), topo_->num_ases);
  std::uint64_t membership_edges = 0;
  for (NodeId ixp = topo_->num_ases; ixp < topo_->num_vertices(); ++ixp) {
    membership_edges += topo_->graph.degree(ixp);
  }
  EXPECT_EQ(as_graph.num_edges(), topo_->graph.num_edges() - membership_edges);
}

TEST_F(InternetTest, HeavyTailedDegrees) {
  const auto stats = bsr::graph::compute_degree_stats(topo_->graph);
  EXPECT_GT(stats.max, stats.mean * 20);
}

TEST(Internet, DeterministicInSeed) {
  auto cfg = InternetConfig{}.scaled(0.02);
  cfg.seed = 5;
  const auto a = make_internet(cfg);
  const auto b = make_internet(cfg);
  EXPECT_EQ(a.graph.edges(), b.graph.edges());
  cfg.seed = 6;
  const auto c = make_internet(cfg);
  EXPECT_NE(a.graph.edges(), c.graph.edges());
}

TEST(Internet, ValidationCatchesBadConfigs) {
  InternetConfig cfg;
  cfg.num_ases = 4;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = InternetConfig{};
  cfg.ixp_participation = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = InternetConfig{};
  cfg.tier1_fraction = 0.9;
  cfg.tier2_fraction = 0.2;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = InternetConfig{};
  cfg.isolated_fraction = 0.5;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = InternetConfig{};
  EXPECT_THROW((void)cfg.scaled(0.0), std::invalid_argument);
}

TEST(Internet, SummaryStatisticsConsistent) {
  auto cfg = InternetConfig{}.scaled(0.03);
  cfg.seed = 17;
  const auto topo = make_internet(cfg);
  const auto summary = summarize(topo, 64, 1, 4, cfg.ixp_peering_prob);
  EXPECT_EQ(summary.num_ases, topo.num_ases);
  EXPECT_EQ(summary.num_ixps, topo.num_ixps);
  EXPECT_GT(summary.alpha_within_beta, 0.8);  // small-world even when scaled
  EXPECT_LE(summary.as_as_via_ixp_pairs, summary.colocated_pairs);
  std::uint64_t memberships = 0;
  for (NodeId ixp = topo.num_ases; ixp < topo.num_vertices(); ++ixp) {
    memberships += topo.graph.degree(ixp);
  }
  EXPECT_EQ(summary.ixp_memberships, memberships);
}

}  // namespace
}  // namespace bsr::topology
