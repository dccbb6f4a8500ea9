#include "graph/fault_plane.hpp"

#include <gtest/gtest.h>

#include "broker/dominated.hpp"
#include "broker/maxsg.hpp"
#include "graph/engine.hpp"
#include "test_util.hpp"

namespace bsr::graph {
namespace {

using bsr::broker::BrokerSet;
using bsr::test::make_complete;
using bsr::test::make_connected_random;
using bsr::test::make_path;
using bsr::test::make_star;

TEST(FaultPlane, StartsPristine) {
  const CsrGraph g = make_path(5);
  FaultPlane plane(g);
  EXPECT_TRUE(plane.pristine());
  EXPECT_EQ(plane.num_failed_edges(), 0u);
  EXPECT_EQ(plane.num_failed_vertices(), 0u);
  EXPECT_TRUE(plane.edge_ok(1, 2));
  EXPECT_TRUE(plane.vertex_ok(3));
}

TEST(FaultPlane, SingleEdgeFailAndHeal) {
  const CsrGraph g = make_path(4);
  FaultPlane plane(g);
  EXPECT_TRUE(plane.fail_edge(1, 2));
  EXPECT_FALSE(plane.edge_ok(1, 2));
  EXPECT_FALSE(plane.edge_ok(2, 1));  // symmetric
  EXPECT_TRUE(plane.edge_ok(0, 1));
  EXPECT_EQ(plane.num_failed_edges(), 1u);

  // Refcounted: a second failure layer needs a second heal.
  EXPECT_FALSE(plane.fail_edge(2, 1));
  EXPECT_FALSE(plane.heal_edge(1, 2));
  EXPECT_FALSE(plane.edge_ok(1, 2));
  EXPECT_TRUE(plane.heal_edge(1, 2));
  EXPECT_TRUE(plane.edge_ok(1, 2));
  EXPECT_TRUE(plane.pristine());
}

TEST(FaultPlane, NonEdgesAndHealingUpEdgesAreNoOps) {
  const CsrGraph g = make_path(4);
  FaultPlane plane(g);
  EXPECT_FALSE(plane.fail_edge(0, 2));     // no such edge
  EXPECT_FALSE(plane.fail_edge(0, 99));    // out of range
  EXPECT_FALSE(plane.heal_edge(0, 1));     // already up
  EXPECT_TRUE(plane.pristine());
  EXPECT_FALSE(plane.edge_ok(0, 2));
  EXPECT_FALSE(plane.edge_ok(0, 99));
}

TEST(FaultPlane, VertexFailureDropsIncidentEdges) {
  const CsrGraph g = make_star(6);
  FaultPlane plane(g);
  EXPECT_TRUE(plane.fail_vertex(0));
  EXPECT_FALSE(plane.vertex_ok(0));
  for (NodeId v = 1; v < 6; ++v) EXPECT_FALSE(plane.edge_ok(0, v));
  EXPECT_EQ(plane.materialize().num_edges(), 0u);
  EXPECT_TRUE(plane.heal_vertex(0));
  EXPECT_TRUE(plane.pristine());
  EXPECT_TRUE(plane.edge_ok(0, 3));
}

TEST(FaultPlane, IncidentGroupCoversAllMembershipEdges) {
  const CsrGraph g = make_star(8);
  const FailureGroup group = incident_group(g, 0);
  EXPECT_EQ(group.center, 0u);
  EXPECT_EQ(group.edges.size(), 7u);
  FaultPlane plane(g);
  EXPECT_EQ(plane.fail_group(group), 7u);
  EXPECT_EQ(plane.num_failed_edges(), 7u);
  EXPECT_EQ(plane.heal_group(group), 7u);
  EXPECT_TRUE(plane.pristine());
}

TEST(FaultPlane, RegionGroupEmitsEachEdgeOnce) {
  const CsrGraph g = make_complete(4);
  const std::vector<NodeId> region{0, 1};
  const FailureGroup group = region_group(g, region);
  // Edges touching {0, 1} in K4: 01, 02, 03, 12, 13.
  EXPECT_EQ(group.edges.size(), 5u);
  FaultPlane plane(g);
  EXPECT_EQ(plane.fail_group(group), 5u);
  EXPECT_TRUE(plane.edge_ok(2, 3));  // the only surviving edge
  EXPECT_FALSE(plane.edge_ok(0, 1));
}

TEST(FaultPlane, OverlappingGroupsComposeViaRefcounts) {
  const CsrGraph g = make_complete(5);
  const std::vector<NodeId> region_a{0, 1};
  const std::vector<NodeId> region_b{1, 2};
  const FailureGroup a = region_group(g, region_a);
  const FailureGroup b = region_group(g, region_b);
  FaultPlane plane(g);
  plane.fail_group(a);
  plane.fail_group(b);
  plane.heal_group(a);
  // Edge 1-2 is in both groups: must still be down after healing only A.
  EXPECT_FALSE(plane.edge_ok(1, 2));
  plane.heal_group(b);
  EXPECT_TRUE(plane.pristine());
}

TEST(FaultPlane, MaterializeMatchesEdgeOkQueries) {
  const CsrGraph g = make_connected_random(24, 0.2, 3);
  FaultPlane plane(g);
  Rng rng(4);
  for (const Edge& e : g.edges()) {
    if (rng.bernoulli(0.3)) plane.fail_edge(e.u, e.v);
  }
  plane.fail_vertex(5);
  const CsrGraph rebuilt = plane.materialize();
  ASSERT_EQ(rebuilt.num_vertices(), g.num_vertices());
  for (NodeId u = 0; u < g.num_vertices(); ++u) {
    for (NodeId v = u + 1; v < g.num_vertices(); ++v) {
      EXPECT_EQ(rebuilt.has_edge(u, v), plane.edge_ok(u, v))
          << "edge " << u << "-" << v;
    }
  }
}

TEST(FaultPlane, DamagedConnectivityMatchesBruteForceRebuild) {
  const CsrGraph g = make_connected_random(40, 0.12, 7);
  const BrokerSet brokers = bsr::broker::maxsg(g, 8).brokers;
  FaultPlane plane(g);
  Rng rng(8);
  for (const Edge& e : g.edges()) {
    if (rng.bernoulli(0.25)) plane.fail_edge(e.u, e.v);
  }
  plane.fail_vertex(2);
  plane.fail_vertex(17);
  const double overlay =
      bsr::broker::saturated_connectivity(g, brokers, plane);
  const double brute =
      bsr::broker::saturated_connectivity(plane.materialize(), brokers);
  EXPECT_DOUBLE_EQ(overlay, brute);
}

TEST(FaultPlane, FilterComposesWithFilteredBfs) {
  const CsrGraph g = make_path(5);
  FaultPlane plane(g);
  plane.fail_edge(2, 3);
  engine::Workspace ws;
  engine::bfs(g, 0, ws, engine::FaultAwareFilter{&plane});
  EXPECT_EQ(ws.dist(2), 2u);
  EXPECT_EQ(ws.dist(3), kUnreachable);
}

TEST(FlapSchedule, AppliesAndHealsBackToOriginalConnectivity) {
  const CsrGraph g = make_connected_random(30, 0.15, 11);
  const BrokerSet brokers = bsr::broker::maxsg(g, 6).brokers;
  std::vector<FailureGroup> groups;
  for (NodeId v = 0; v < 5; ++v) groups.push_back(incident_group(g, v));

  FlapConfig config;
  config.outage_rate = 0.8;
  config.mean_downtime = 4.0;
  config.horizon = 50.0;
  Rng rng(12);
  const auto events = make_flap_schedule(groups.size(), config, rng);
  ASSERT_FALSE(events.empty());
  ASSERT_EQ(events.size() % 2, 0u);  // every fail has a heal

  const double original = bsr::broker::saturated_connectivity(g, brokers);
  FaultPlane plane(g);
  double prev_time = 0.0;
  for (const FlapEvent& event : events) {
    EXPECT_GE(event.time, prev_time);  // sorted
    prev_time = event.time;
    apply_flap_event(plane, groups, event);
    // Damage can only remove edges, never add connectivity.
    EXPECT_LE(bsr::broker::saturated_connectivity(g, brokers, plane),
              original + 1e-12);
  }
  EXPECT_TRUE(plane.pristine());
  EXPECT_DOUBLE_EQ(bsr::broker::saturated_connectivity(g, brokers, plane),
                   original);
}

TEST(FlapSchedule, DeterministicInSeed) {
  FlapConfig config;
  Rng a(5), b(5);
  const auto e1 = make_flap_schedule(7, config, a);
  const auto e2 = make_flap_schedule(7, config, b);
  ASSERT_EQ(e1.size(), e2.size());
  for (std::size_t i = 0; i < e1.size(); ++i) {
    EXPECT_DOUBLE_EQ(e1[i].time, e2[i].time);
    EXPECT_EQ(e1[i].group, e2[i].group);
    EXPECT_EQ(e1[i].kind, e2[i].kind);
  }
}

TEST(FlapSchedule, RejectsBadConfig) {
  Rng rng(6);
  EXPECT_THROW(make_flap_schedule(0, {}, rng), std::invalid_argument);
  FlapConfig bad;
  bad.outage_rate = 0.0;
  EXPECT_THROW(make_flap_schedule(3, bad, rng), std::invalid_argument);
  bad = FlapConfig{};
  bad.mean_downtime = -1.0;
  EXPECT_THROW(make_flap_schedule(3, bad, rng), std::invalid_argument);
}

}  // namespace
}  // namespace bsr::graph
