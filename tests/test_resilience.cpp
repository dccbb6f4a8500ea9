#include "broker/resilience.hpp"

#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "broker/dominated.hpp"
#include "broker/maxsg.hpp"
#include "graph/fault_plane.hpp"
#include "test_util.hpp"

namespace bsr::broker {
namespace {

using bsr::graph::CsrGraph;
using bsr::graph::NodeId;
using bsr::graph::Rng;
using bsr::test::make_connected_random;
using bsr::test::make_star;

TEST(FailBrokers, RandomRemovesExactCount) {
  const CsrGraph g = make_connected_random(40, 0.1, 1);
  const auto brokers = maxsg(g, 10).brokers;
  Rng rng(2);
  const auto survivors = fail_brokers(g, brokers, 3, FailureMode::kRandom, rng);
  EXPECT_EQ(survivors.size(), brokers.size() - 3);
  for (const NodeId v : survivors.members()) EXPECT_TRUE(brokers.contains(v));
}

TEST(FailBrokers, TargetedKillsHighestDegreeFirst) {
  const CsrGraph g = make_star(10);
  BrokerSet b(10);
  b.add(0);  // the hub
  b.add(3);
  b.add(7);
  Rng rng(3);
  const auto survivors = fail_brokers(g, b, 1, FailureMode::kTargetedTop, rng);
  EXPECT_FALSE(survivors.contains(0));
  EXPECT_EQ(survivors.size(), 2u);
}

TEST(FailBrokers, AllFailuresEmptySet) {
  const CsrGraph g = make_star(6);
  BrokerSet b(6);
  b.add(0);
  Rng rng(4);
  EXPECT_TRUE(fail_brokers(g, b, 5, FailureMode::kRandom, rng).empty());
}

TEST(FailBrokers, SizeMismatchThrows) {
  const CsrGraph g = make_star(6);
  Rng rng(5);
  EXPECT_THROW(fail_brokers(g, BrokerSet(7), 1, FailureMode::kRandom, rng),
               std::invalid_argument);
}

TEST(ResilienceCurve, ConnectivityNonIncreasingUnderTargetedFailures) {
  const CsrGraph g = make_connected_random(80, 0.06, 6);
  const auto brokers = maxsg(g, 20).brokers;
  Rng rng(7);
  const std::vector<std::size_t> steps{0, 2, 5, 10, 15};
  const auto curve =
      resilience_curve(g, brokers, steps, FailureMode::kTargetedTop, rng);
  ASSERT_EQ(curve.connectivity.size(), steps.size());
  EXPECT_NEAR(curve.connectivity[0], saturated_connectivity(g, brokers), 1e-12);
  for (std::size_t i = 1; i < curve.connectivity.size(); ++i) {
    EXPECT_LE(curve.connectivity[i], curve.connectivity[i - 1] + 1e-12);
  }
}

TEST(ResilienceCurve, TargetedAtLeastAsDamagingOnHubGraphs) {
  const CsrGraph g = make_star(50);
  BrokerSet b(50);
  b.add(0);
  b.add(1);
  b.add(2);
  const std::vector<std::size_t> steps{1};
  Rng rng_a(8), rng_b(8);
  const auto targeted =
      resilience_curve(g, b, steps, FailureMode::kTargetedTop, rng_a);
  const auto random = resilience_curve(g, b, steps, FailureMode::kRandom, rng_b);
  EXPECT_LE(targeted.connectivity[0], random.connectivity[0] + 1e-12);
}

TEST(ResilienceCurve, GroupCurveMatchesManualGroupRemoval) {
  // Star hub 0 is the only broker and every leaf edge is its own failure
  // group. All groups are interchangeable by symmetry, so whatever order the
  // curve's internal shuffle picks, failing s groups must give exactly the
  // connectivity of s hand-failed leaf edges: the survivors are a star on
  // (10 - s) vertices.
  const CsrGraph g = make_star(10);
  BrokerSet b(10);
  b.add(0);
  std::vector<bsr::graph::FailureGroup> groups;
  for (NodeId v = 1; v < 10; ++v) {
    groups.push_back({.center = v, .edges = {{0, v}}});
  }
  const std::vector<std::size_t> steps{0, 1, 3, 6, 9, 12};
  Rng rng(26);
  const auto curve = link_resilience_curve(g, b, groups, steps, 0, rng);
  ASSERT_EQ(curve.points.size(), steps.size());
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const std::size_t failed = std::min(steps[i], groups.size());
    EXPECT_EQ(curve.points[i].failed_groups, failed);
    bsr::graph::FaultPlane plane(g);
    for (std::size_t j = 0; j < failed; ++j) plane.fail_group(groups[j]);
    EXPECT_NEAR(curve.points[i].connectivity, saturated_connectivity(g, b, plane),
                1e-12)
        << "step " << steps[i];
  }
}

TEST(ResilienceCurve, SingleGroupCurveMatchesManualRemoval) {
  // With one group the shuffle is the identity, so the s=1 point must equal
  // a by-hand FaultPlane application of that exact group.
  const CsrGraph g = make_connected_random(50, 0.08, 27);
  const auto brokers = maxsg(g, 10).brokers;
  const std::vector<bsr::graph::FailureGroup> groups{
      bsr::graph::incident_group(g, 7)};
  const std::vector<std::size_t> steps{0, 1};
  Rng rng(28);
  const auto curve = link_resilience_curve(g, brokers, groups, steps, 0, rng);
  EXPECT_NEAR(curve.points[0].connectivity, saturated_connectivity(g, brokers),
              1e-12);
  bsr::graph::FaultPlane plane(g);
  plane.fail_group(groups[0]);
  EXPECT_NEAR(curve.points[1].connectivity,
              saturated_connectivity(g, brokers, plane), 1e-12);
}

TEST(ResilienceCurve, GroupCurveNonIncreasingAndDeterministic) {
  const CsrGraph g = make_connected_random(80, 0.06, 29);
  const auto brokers = maxsg(g, 16).brokers;
  std::vector<bsr::graph::FailureGroup> groups;
  for (NodeId v = 0; v < 12; ++v) {
    groups.push_back(bsr::graph::incident_group(g, v));
  }
  const std::vector<std::size_t> steps{0, 2, 5, 9, 12, 20};
  Rng rng_a(30), rng_b(30);
  const auto a = link_resilience_curve(g, brokers, groups, steps, 0, rng_a);
  const auto b = link_resilience_curve(g, brokers, groups, steps, 0, rng_b);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    // Deterministic in the seed.
    EXPECT_EQ(a.points[i].connectivity, b.points[i].connectivity);
    EXPECT_EQ(a.points[i].failed_groups, b.points[i].failed_groups);
  }
  for (std::size_t i = 1; i < a.points.size(); ++i) {
    // Nested prefixes: damage only accumulates.
    EXPECT_LE(a.points[i].connectivity, a.points[i - 1].connectivity + 1e-12);
  }
  EXPECT_EQ(a.points.back().failed_groups, groups.size());  // clamps to |groups|
}

TEST(ResilienceCurve, GroupCurveSizeMismatchThrows) {
  const CsrGraph g = make_star(6);
  const std::vector<bsr::graph::FailureGroup> groups{
      bsr::graph::incident_group(g, 0)};
  const std::vector<std::size_t> steps{0, 1};
  Rng rng(31);
  EXPECT_THROW((void)link_resilience_curve(g, BrokerSet(7), groups, steps, 0, rng),
               std::invalid_argument);
}

TEST(Repair, SizeMismatchThrows) {
  const CsrGraph g = make_star(6);
  EXPECT_THROW((void)repair_brokers(g, BrokerSet(7), 1), std::invalid_argument);
  bsr::graph::FaultPlane plane(g);
  EXPECT_THROW((void)repair_brokers(g, BrokerSet(7), 1, plane),
               std::invalid_argument);
}

TEST(Repair, RestoresConnectivity) {
  const CsrGraph g = make_connected_random(80, 0.06, 9);
  const auto brokers = maxsg(g, 20).brokers;
  const double before = saturated_connectivity(g, brokers);
  Rng rng(10);
  const auto survivors = fail_brokers(g, brokers, 8, FailureMode::kTargetedTop, rng);
  const double damaged = saturated_connectivity(g, survivors);
  ASSERT_LT(damaged, before);
  const auto repaired = repair_brokers(g, survivors, 8);
  const double after = saturated_connectivity(g, repaired);
  EXPECT_GT(after, damaged);
  EXPECT_GE(after, before * 0.9);  // greedy repair recovers most of the loss
  EXPECT_LE(repaired.size(), brokers.size());
}

TEST(Repair, ZeroBudgetIsIdentity) {
  const CsrGraph g = make_star(8);
  BrokerSet b(8);
  b.add(3);
  const auto repaired = repair_brokers(g, b, 0);
  EXPECT_EQ(repaired.size(), b.size());
}

TEST(Repair, RepairedBrokersAreNew) {
  const CsrGraph g = make_connected_random(40, 0.1, 11);
  const auto brokers = maxsg(g, 8).brokers;
  Rng rng(12);
  const auto survivors = fail_brokers(g, brokers, 4, FailureMode::kRandom, rng);
  const auto repaired = repair_brokers(g, survivors, 4);
  // Members appended after the survivors must not duplicate them.
  std::size_t new_members = repaired.size() - survivors.size();
  EXPECT_GT(new_members, 0u);
}

TEST(FailBrokers, FailuresEqualToSetSizeEmptiesIt) {
  const CsrGraph g = make_connected_random(30, 0.15, 13);
  const auto brokers = maxsg(g, 6).brokers;
  ASSERT_EQ(brokers.size(), 6u);
  Rng rng(14);
  const auto none =
      fail_brokers(g, brokers, static_cast<std::uint32_t>(brokers.size()),
                   FailureMode::kRandom, rng);
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.num_vertices(), g.num_vertices());
}

TEST(Repair, ZeroBudgetIsIdentityUnderFaults) {
  const CsrGraph g = make_connected_random(30, 0.15, 15);
  BrokerSet b(g.num_vertices());
  b.add(3);
  bsr::graph::FaultPlane plane(g);
  plane.fail_group(bsr::graph::incident_group(g, 7));
  const auto repaired = repair_brokers(g, b, 0, plane);
  EXPECT_EQ(repaired.size(), b.size());
  EXPECT_TRUE(repaired.contains(3));
}

TEST(Repair, DamagedGraphRepairAvoidsFailedVertices) {
  const CsrGraph g = make_connected_random(60, 0.08, 16);
  const auto brokers = maxsg(g, 12).brokers;
  bsr::graph::FaultPlane plane(g);
  // Kill a few non-broker vertices outright: repair must not pick them.
  std::vector<NodeId> dead;
  for (NodeId v = 0; v < g.num_vertices() && dead.size() < 5; ++v) {
    if (!brokers.contains(v)) dead.push_back(v);
  }
  for (const NodeId v : dead) plane.fail_vertex(v);
  const auto repaired = repair_brokers(g, brokers, 6, plane);
  for (const NodeId v : dead) EXPECT_FALSE(repaired.contains(v));
  EXPECT_GE(repaired.size(), brokers.size());
}

TEST(Repair, DamagedGraphRepairImprovesDamagedConnectivity) {
  const CsrGraph g = make_connected_random(80, 0.06, 17);
  const auto brokers = maxsg(g, 16).brokers;
  Rng rng(18);
  const auto survivors = fail_brokers(g, brokers, 8, FailureMode::kTargetedTop, rng);
  bsr::graph::FaultPlane plane(g);
  Rng edge_rng(19);
  for (const bsr::graph::Edge& e : g.edges()) {
    if (edge_rng.bernoulli(0.15)) plane.fail_edge(e.u, e.v);
  }
  const double damaged = saturated_connectivity(g, survivors, plane);
  const auto repaired = repair_brokers(g, survivors, 8, plane);
  const double after = saturated_connectivity(g, repaired, plane);
  EXPECT_GE(after, damaged);
  // On a connected 80-vertex graph with only 15% of links down there is
  // always *something* a fresh broker can reconnect.
  EXPECT_GT(after, damaged);
}

TEST(LinkResilience, CurveIsNonIncreasingAndRepairHelps) {
  const CsrGraph g = make_connected_random(80, 0.06, 20);
  const auto brokers = maxsg(g, 16).brokers;
  Rng group_rng(21);
  const auto groups = random_link_groups(g, 30, group_rng);
  ASSERT_EQ(groups.size(), 30u);
  const std::vector<std::size_t> steps{0, 5, 15, 30};
  Rng rng(22);
  const auto curve = link_resilience_curve(g, brokers, groups, steps, 6, rng);
  ASSERT_EQ(curve.points.size(), steps.size());

  EXPECT_EQ(curve.points[0].failed_groups, 0u);
  EXPECT_EQ(curve.points[0].failed_edges, 0u);
  EXPECT_NEAR(curve.points[0].connectivity, saturated_connectivity(g, brokers),
              1e-12);
  for (std::size_t i = 0; i < curve.points.size(); ++i) {
    const auto& p = curve.points[i];
    EXPECT_EQ(p.failed_groups, steps[i]);
    // Repair adds brokers under the same faults, so it can never hurt.
    EXPECT_GE(p.repaired_connectivity, p.connectivity - 1e-12);
    if (i > 0) {
      // Nested failure prefixes: damage only accumulates.
      EXPECT_LE(p.connectivity, curve.points[i - 1].connectivity + 1e-12);
      EXPECT_GE(p.failed_edges, curve.points[i - 1].failed_edges);
    }
  }
}

TEST(LinkResilience, RandomLinkGroupsAreDistinctSingleEdges) {
  const CsrGraph g = make_connected_random(40, 0.1, 23);
  Rng rng(24);
  const auto groups = random_link_groups(g, 10, rng);
  ASSERT_EQ(groups.size(), 10u);
  std::set<std::pair<NodeId, NodeId>> seen;
  for (const auto& group : groups) {
    ASSERT_EQ(group.edges.size(), 1u);
    const auto& e = group.edges.front();
    EXPECT_TRUE(g.has_edge(e.u, e.v));
    seen.insert({std::min(e.u, e.v), std::max(e.u, e.v)});
  }
  EXPECT_EQ(seen.size(), 10u);  // sampled without replacement
}

TEST(LinkResilience, GroupCountClampedToEdgeCount) {
  const CsrGraph g = make_star(5);  // 4 edges
  Rng rng(25);
  const auto groups = random_link_groups(g, 100, rng);
  EXPECT_EQ(groups.size(), 4u);
}

}  // namespace
}  // namespace bsr::broker
