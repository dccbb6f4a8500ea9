// RouteService: construction guards, oracle correctness against the router,
// epoch lifecycle (degrade / patch / rebuild / crash / discard / give-up),
// RetryScheduler backoff semantics, admission shedding, thread-count
// determinism, query() as a one-flow batch, batches against per-flow
// query() at the prefetch window's edges, the batch tick summary and
// registry writes against per-answer sketch references, and the
// stale-serving monotonicity harness.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
#include <queue>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "broker/broker_set.hpp"
#include "graph/engine.hpp"
#include "graph/fault_plane.hpp"
#include "obs/export.hpp"
#include "obs/journal.hpp"
#include "obs/qtrace.hpp"
#include "obs/sketch.hpp"
#include "obs/stats.hpp"
#include "sim/demand.hpp"
#include "sim/route_service.hpp"
#include "sim/router.hpp"
#include "test_util.hpp"

namespace {

using bsr::broker::BrokerSet;
using bsr::graph::CsrGraph;
using bsr::graph::FaultPlane;
using bsr::graph::NodeId;
using bsr::sim::AnswerStatus;
using bsr::sim::AuditOutcome;
using bsr::sim::EpochEventKind;
using bsr::sim::Flow;
using bsr::sim::RebuildInjection;
using bsr::sim::RebuildPolicy;
using bsr::sim::RetryScheduler;
using bsr::sim::RouteAnswer;
using bsr::sim::RouteService;
using bsr::sim::RouteServiceConfig;
using bsr::test::make_connected_random;
using bsr::test::make_path;
using bsr::test::make_star;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Reference reachability over the usable dominated subgraph: an edge is
/// usable iff it has >= 1 usable-broker endpoint, both endpoints are up and
/// the link is up. Independent of the union-find the service uses.
bool truth_reachable(const CsrGraph& g, const BrokerSet& brokers,
                     const FaultPlane* faults, NodeId src, NodeId dst) {
  const auto usable = [&](NodeId v) {
    return brokers.contains(v) && (faults == nullptr || faults->vertex_ok(v));
  };
  const auto vertex_up = [&](NodeId v) {
    return faults == nullptr || faults->vertex_ok(v);
  };
  if (!vertex_up(src) || !vertex_up(dst)) return false;
  if (src == dst) return true;
  std::vector<bool> seen(g.num_vertices(), false);
  std::queue<NodeId> frontier;
  seen[src] = true;
  frontier.push(src);
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    for (const NodeId v : g.neighbors(u)) {
      if (seen[v] || !vertex_up(v)) continue;
      if (!usable(u) && !usable(v)) continue;
      if (faults != nullptr && !faults->edge_ok(u, v)) continue;
      if (v == dst) return true;
      seen[v] = true;
      frontier.push(v);
    }
  }
  return false;
}

/// Drives the service's internal event loop to quiescence (or `until`).
void drain(RouteService& service, double until = 1e9) {
  while (service.next_event_time() <= until) {
    service.advance(service.next_event_time());
  }
}

BrokerSet top_degree_brokers(const CsrGraph& g, NodeId k) {
  std::vector<NodeId> order(g.num_vertices());
  for (NodeId v = 0; v < g.num_vertices(); ++v) order[v] = v;
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return g.degree(a) != g.degree(b) ? g.degree(a) > g.degree(b) : a < b;
  });
  order.resize(std::min<std::size_t>(k, order.size()));
  return BrokerSet(g.num_vertices(), order);
}

// --- construction guards -----------------------------------------------------

TEST(RouteServiceGuards, MismatchedVertexCountThrows) {
  const CsrGraph g = make_path(6);
  const BrokerSet wrong(4, std::vector<NodeId>{0, 1});
  EXPECT_THROW(RouteService(g, wrong, nullptr), std::invalid_argument);
}

TEST(RouteServiceGuards, FaultPlaneOfAnotherGraphThrows) {
  // Checked in every build type: a plane over a smaller graph would be
  // indexed out of bounds by every build and patch.
  const CsrGraph g = make_path(6);
  const CsrGraph other = make_path(3);
  const BrokerSet brokers(6, std::vector<NodeId>{2, 3});
  const FaultPlane foreign(other);
  EXPECT_THROW(RouteService(g, brokers, &foreign), std::invalid_argument);
  const CsrGraph twin = make_path(6);
  const FaultPlane same_shape(twin);
  EXPECT_THROW(RouteService(g, brokers, &same_shape), std::invalid_argument);
}

TEST(RouteServiceGuards, EmptyBrokerSetIsWellDefinedNullService) {
  const CsrGraph g = make_path(6);
  const BrokerSet none(6);
  RouteService service(g, none, nullptr);
  EXPECT_TRUE(service.null_epoch());
  EXPECT_EQ(service.usable_broker_count(), 0u);
  const RouteAnswer a = service.query(0, 5, 0.0);
  EXPECT_EQ(a.status, AnswerStatus::kRefused);
  EXPECT_FALSE(a.reachable);
  EXPECT_EQ(a.next_hop, bsr::sim::kNoNextHop);
  EXPECT_TRUE(service.stitch_path(0, 5).empty());
  EXPECT_EQ(service.stats().refused, 1u);
}

TEST(RouteServiceGuards, FullyFailedBrokerSetIsNullService) {
  const CsrGraph g = make_star(8);
  const BrokerSet brokers(8, std::vector<NodeId>{0});
  FaultPlane faults(g);
  faults.fail_vertex(0);
  RouteService service(g, brokers, &faults);
  EXPECT_TRUE(service.null_epoch());
  const RouteAnswer a = service.query(1, 2, 0.0);
  EXPECT_EQ(a.status, AnswerStatus::kRefused);
  EXPECT_FALSE(a.reachable);
}

TEST(RouteServiceGuards, EmptyGraphIsAccepted) {
  const CsrGraph g = make_path(0);
  const BrokerSet none(0);
  RouteService service(g, none, nullptr);
  EXPECT_TRUE(service.null_epoch());
}

// --- oracle correctness ------------------------------------------------------

TEST(RouteServiceOracle, MatchesRouterOnAllPairs) {
  const CsrGraph g = make_connected_random(48, 0.08, 2026);
  const BrokerSet brokers = top_degree_brokers(g, 8);
  RouteService service(g, brokers, nullptr);
  bsr::sim::Router router(g, brokers);
  EXPECT_FALSE(service.null_epoch());

  for (NodeId s = 0; s < g.num_vertices(); ++s) {
    for (NodeId t = 0; t < g.num_vertices(); ++t) {
      const RouteAnswer a = service.query(s, t, 0.0);
      ASSERT_EQ(a.status, AnswerStatus::kFresh);
      const auto route = router.route_dominated(s, t);
      ASSERT_EQ(a.reachable, route.reachable())
          << "pair " << s << "->" << t;
      if (!a.reachable || a.dist_bound == bsr::graph::kUnreachable) continue;
      // The landmark triangle bound is admissible: never below the true
      // dominated distance.
      EXPECT_GE(a.dist_bound, route.hops()) << "pair " << s << "->" << t;
    }
  }
}

TEST(RouteServiceOracle, StitchedPathsAreValidDominatedPaths) {
  const CsrGraph g = make_connected_random(40, 0.1, 7);
  const BrokerSet brokers = top_degree_brokers(g, 6);
  RouteService service(g, brokers, nullptr);

  std::size_t stitched = 0;
  for (NodeId s = 0; s < g.num_vertices(); ++s) {
    for (NodeId t = 0; t < g.num_vertices(); ++t) {
      const RouteAnswer a = service.query(s, t, 0.0);
      const auto path = service.stitch_path(s, t);
      if (!a.reachable || a.dist_bound == bsr::graph::kUnreachable) {
        EXPECT_TRUE(path.empty());
        continue;
      }
      ASSERT_FALSE(path.empty());
      EXPECT_EQ(path.front(), s);
      EXPECT_EQ(path.back(), t);
      // The stitched walk realizes the advertised bound exactly.
      EXPECT_EQ(path.size() - 1, a.dist_bound);
      if (s != t) {
        EXPECT_EQ(path[1], a.next_hop);
      }
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        const auto nbrs = g.neighbors(path[i]);
        EXPECT_NE(std::find(nbrs.begin(), nbrs.end(), path[i + 1]), nbrs.end())
            << "hop " << path[i] << "->" << path[i + 1] << " not an edge";
        EXPECT_TRUE(brokers.contains(path[i]) || brokers.contains(path[i + 1]))
            << "hop " << path[i] << "->" << path[i + 1] << " undominated";
      }
      ++stitched;
    }
  }
  EXPECT_GT(stitched, 0u);
}

/// The oracle's answer for every pair, rebuilt from scratch: landmarks are
/// the top-degree usable brokers, each tree's distances a FIFO BFS over the
/// full graph through the composed dominated x fault filter, each parent the
/// lowest-id admitted neighbour one level closer to the landmark, and each
/// answer the lowest-index landmark minimizing d(l, s) + d(l, t). Adds the
/// reachable pairs (s != t) no landmark covers to `uncovered`.
void expect_matches_reference(RouteService& service, const CsrGraph& g,
                              const BrokerSet& brokers, const FaultPlane& faults,
                              const std::vector<bool>& believed,
                              std::uint32_t num_landmarks, const char* state,
                              std::size_t& uncovered) {
  namespace engine = bsr::graph::engine;
  const NodeId n = g.num_vertices();
  std::vector<bool> usable(n, false);
  std::vector<NodeId> landmarks;
  for (NodeId v = 0; v < n; ++v) {
    usable[v] = brokers.contains(v) && faults.vertex_ok(v) && believed[v];
    if (usable[v]) landmarks.push_back(v);
  }
  std::sort(landmarks.begin(), landmarks.end(), [&](NodeId a, NodeId b) {
    return g.degree(a) != g.degree(b) ? g.degree(a) > g.degree(b) : a < b;
  });
  landmarks.resize(std::min<std::size_t>(landmarks.size(), num_landmarks));
  ASSERT_TRUE(std::equal(landmarks.begin(), landmarks.end(),
                         service.landmarks().begin(), service.landmarks().end()))
      << state;

  const engine::BothFilters<engine::DominatedEdgeFilter, engine::FaultAwareFilter>
      admit{engine::DominatedEdgeFilter{&usable}, engine::FaultAwareFilter{&faults}};
  std::vector<std::vector<std::uint32_t>> dist(landmarks.size());
  std::vector<std::vector<NodeId>> parent(landmarks.size());
  engine::Workspace ws;
  for (std::size_t l = 0; l < landmarks.size(); ++l) {
    engine::bfs(g, landmarks[l], ws, admit);
    dist[l].assign(n, bsr::graph::kUnreachable);
    parent[l].assign(n, bsr::sim::kNoNextHop);
    for (const NodeId v : ws.visit_order()) dist[l][v] = ws.dist(v);
    for (const NodeId v : ws.visit_order()) {
      if (v == landmarks[l]) {
        parent[l][v] = v;
        continue;
      }
      const auto neigh = g.neighbors(v);
      for (std::size_t i = 0; i < neigh.size(); ++i) {
        if (admit(v, i, neigh[i]) && dist[l][neigh[i]] + 1 == dist[l][v]) {
          parent[l][v] = std::min(parent[l][v], neigh[i]);
        }
      }
    }
  }

  std::vector<Flow> pairs;
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId t = 0; t < n; ++t) pairs.push_back({s, t, 1.0});
  }
  std::vector<RouteAnswer> answers;
  service.serve_batch(pairs, 0.0, answers);
  for (NodeId s = 0; s < n; ++s) {
    engine::bfs(g, s, ws, admit);  // reachability truth from s
    for (NodeId t = 0; t < n; ++t) {
      std::uint32_t want_dist = bsr::graph::kUnreachable;
      NodeId want_hop = bsr::sim::kNoNextHop;
      const bool reachable = faults.vertex_ok(s) && faults.vertex_ok(t) &&
                             (s == t || ws.visited(t));
      if (reachable && s == t) {
        want_dist = 0;
        want_hop = s;
      } else if (reachable) {
        std::size_t best = landmarks.size();
        for (std::size_t l = 0; l < landmarks.size(); ++l) {
          if (dist[l][s] == bsr::graph::kUnreachable ||
              dist[l][t] == bsr::graph::kUnreachable) {
            continue;
          }
          const std::uint32_t bound = dist[l][s] + dist[l][t];
          if (bound < want_dist) {
            want_dist = bound;
            best = l;
          }
        }
        if (best < landmarks.size()) {
          want_hop = parent[best][s];
          if (dist[best][s] == 0) {  // s is the landmark: first hop toward t
            want_hop = t;
            while (parent[best][want_hop] != s) want_hop = parent[best][want_hop];
          }
        } else {
          ++uncovered;
        }
      }
      const RouteAnswer& a = answers[std::size_t{s} * n + t];
      ASSERT_EQ(a.status, AnswerStatus::kFresh) << state;
      ASSERT_EQ(a.reachable, reachable) << state << " pair " << s << "->" << t;
      ASSERT_EQ(a.dist_bound, want_dist) << state << " pair " << s << "->" << t;
      ASSERT_EQ(a.next_hop, want_hop) << state << " pair " << s << "->" << t;
    }
  }
}

TEST(RouteServiceOracle, FreshBuildsMatchFilteredBfsReference) {
  // Pins every pair's dist_bound and next_hop — not just reachability — to
  // per-landmark filtered BFS trees over the full graph whose parents follow
  // the canonical rule (lowest-id neighbour one level closer), for fresh
  // builds under several fault states. The sparse graph and broker share
  // give G_B enough depth that a parent left to whichever direction a level
  // ran in would move next hops. Six landmarks leave reachable pairs in
  // components without one, twenty take two lane sweeps, and with none
  // every component unites its own edges.
  for (const std::uint32_t num_landmarks : {6u, 20u, 0u}) {
    SCOPED_TRACE("num_landmarks " + std::to_string(num_landmarks));
    std::size_t uncovered = 0;
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      const CsrGraph g = make_connected_random(200, 0.015, 4100 + seed);
      const BrokerSet brokers = top_degree_brokers(g, 40);
      const std::vector<bool> everyone(g.num_vertices(), true);
      RouteServiceConfig config;
      config.num_landmarks = num_landmarks;

      FaultPlane faults(g);
      const auto check = [&](RouteService& service, const std::vector<bool>& believed,
                             const char* state) {
        expect_matches_reference(service, g, brokers, faults, believed, num_landmarks,
                                 state, uncovered);
      };
      {
        RouteService service(g, brokers, &faults, config);
        check(service, everyone, "pristine");
      }
      const NodeId top = brokers.members()[0];  // a landmark under any state
      const NodeId second = brokers.members()[1];
      faults.fail_vertex(top);
      {
        RouteService service(g, brokers, &faults, config);
        check(service, everyone, "failed landmark");
      }
      faults.heal_vertex(top);
      const NodeId hop = g.neighbors(second)[0];
      faults.fail_edge(second, hop);
      {
        RouteService service(g, brokers, &faults, config);
        check(service, everyone, "failed link");
      }
      // Overlapping: the failed link's endpoint goes down too, a second
      // layer lands on the same link, and a correlated group cuts the top
      // broker's links.
      faults.fail_vertex(second);
      faults.fail_edge(second, hop);
      faults.fail_group(bsr::graph::incident_group(g, top));
      {
        RouteService service(g, brokers, &faults, config);
        check(service, everyone, "overlapping failures");
      }
      faults.heal_all();
      // The lowest-degree broker and a neighbour outside the broker set,
      // cut off from the rest: a component of G_B that holds no landmark.
      const NodeId island = brokers.members().back();
      const auto mates = g.neighbors(island);
      const auto mate = std::find_if(mates.begin(), mates.end(),
                                     [&](NodeId u) { return !brokers.contains(u); });
      ASSERT_NE(mate, mates.end());
      for (const NodeId v : {island, *mate}) {
        for (const NodeId u : g.neighbors(v)) {
          if (u != island && u != *mate) faults.fail_edge(v, u);
        }
      }
      {
        RouteService service(g, brokers, &faults, config);
        check(service, everyone, "islanded broker");
      }
      faults.heal_all();
      {
        RouteService service(g, brokers, &faults, config);
        bsr::sim::HealthView view;
        view.version = 1;
        view.routable.assign(g.num_vertices(), true);
        view.routable[top] = false;
        view.routable[brokers.members()[3]] = false;
        service.on_health_view(view, 1.0);
        drain(service);
        ASSERT_FALSE(service.degraded());
        check(service, view.routable, "health-view belief");
      }
    }
    EXPECT_GT(uncovered, 0u) << "no reachable pair lies in a component without a landmark";
  }
}

// --- rebuild scheduler -------------------------------------------------------

TEST(RetryScheduler, RebuildPolicyBacksOffExponentiallyAndGivesUp) {
  RebuildPolicy policy;
  policy.retry_backoff = 0.5;
  policy.retry_factor = 2.0;
  policy.retry_max = 3.0;
  policy.max_retries = 3;
  RetryScheduler sched(policy, policy.max_rebuilds);

  EXPECT_EQ(sched.next_due(), kInf);
  sched.request(10.0);
  EXPECT_DOUBLE_EQ(sched.next_due(), 10.5);
  sched.request(11.0);  // already armed: no-op
  EXPECT_DOUBLE_EQ(sched.next_due(), 10.5);

  ASSERT_TRUE(sched.begin());
  EXPECT_EQ(sched.next_due(), kInf);
  sched.report(12.5, false);
  EXPECT_DOUBLE_EQ(sched.next_due(), 12.5 + 1.0);  // 0.5 * 2
  ASSERT_TRUE(sched.begin());
  sched.report(15.5, false);
  EXPECT_DOUBLE_EQ(sched.next_due(), 15.5 + 2.0);  // 0.5 * 2 * 2
  ASSERT_TRUE(sched.begin());
  sched.report(19.5, false);
  EXPECT_DOUBLE_EQ(sched.next_due(), 19.5 + 3.0);  // capped at retry_max
  ASSERT_TRUE(sched.begin());
  sched.report(24.5, false);
  EXPECT_EQ(sched.next_due(), kInf);  // max_retries exhausted: parked
  EXPECT_EQ(sched.failures(), 4u);

  sched.request(30.0);  // a new truth event re-arms from scratch
  EXPECT_DOUBLE_EQ(sched.next_due(), 30.5);
  ASSERT_TRUE(sched.begin());
  sched.report(32.5, true);
  EXPECT_EQ(sched.next_due(), kInf);
  EXPECT_EQ(sched.starts(), 5u);
}

TEST(RetryScheduler, BudgetParksPermanently) {
  RebuildPolicy policy;
  policy.max_rebuilds = 1;
  RetryScheduler sched(policy, policy.max_rebuilds);
  sched.request(0.0);
  ASSERT_TRUE(sched.begin());
  sched.report(2.0, false);
  EXPECT_EQ(sched.next_due(), kInf);  // budget spent mid-retry
  sched.request(5.0);                 // exhausted: request is a no-op
  EXPECT_EQ(sched.next_due(), kInf);
  EXPECT_TRUE(sched.exhausted());
}

// --- epoch lifecycle ---------------------------------------------------------

TEST(RouteServiceLifecycle, FaultDegradesThenRebuildRestoresFreshness) {
  const CsrGraph g = make_path(8);
  const BrokerSet brokers(8, std::vector<NodeId>{2, 3, 4, 5});
  FaultPlane faults(g);
  RouteService service(g, brokers, &faults);
  EXPECT_EQ(service.epoch_id(), 1u);
  EXPECT_EQ(service.query(1, 6, 0.0).status, AnswerStatus::kFresh);

  faults.fail_edge(3, 4);
  service.on_fault(1.0);
  EXPECT_TRUE(service.degraded());
  EXPECT_EQ(service.stale_events(), 1u);
  const RouteAnswer stale = service.query(1, 6, 1.0);
  EXPECT_EQ(stale.status, AnswerStatus::kStaleServed);
  EXPECT_TRUE(stale.reachable);  // the stale epoch still believes the old cut

  drain(service);
  EXPECT_FALSE(service.degraded());
  EXPECT_EQ(service.epoch_id(), 2u);
  const RouteAnswer fresh = service.query(1, 6, 10.0);
  EXPECT_EQ(fresh.status, AnswerStatus::kFresh);
  EXPECT_FALSE(fresh.reachable);  // 3-4 was the only dominated cut edge
  EXPECT_EQ(service.stats().rebuilds_started, 1u);
  EXPECT_EQ(service.stats().max_stale_served, 1u);
}

// Regression: the staleness high-water gauge tracks the *current* degraded
// episode. Activating a rebuilt epoch must clear it, or a long-healed run
// reports the worst staleness it ever saw as if it were still live.
TEST(RouteServiceLifecycle, EpochActivationResetsStaleHighWaterGauge) {
  if (!BSR_STATS_ENABLED) GTEST_SKIP() << "built with BSR_STATS=OFF";
  bsr::obs::reset();
  const CsrGraph g = make_path(8);
  const BrokerSet brokers(8, std::vector<NodeId>{2, 3, 4, 5});
  FaultPlane faults(g);
  RouteService service(g, brokers, &faults);

  faults.fail_edge(3, 4);
  service.on_fault(1.0);
  faults.fail_edge(4, 5);
  service.on_fault(1.1);
  (void)service.query(1, 6, 1.5);  // stale-served at 2 events behind
  EXPECT_EQ(bsr::obs::snapshot().gauge(
                bsr::obs::Gauge::kRouteServiceStaleHighWater),
            2u);

  drain(service);  // rebuild lands, new epoch activates
  EXPECT_FALSE(service.degraded());
  EXPECT_EQ(bsr::obs::snapshot().gauge(
                bsr::obs::Gauge::kRouteServiceStaleHighWater),
            0u);
  // Cross-check against the cumulative stat, which must NOT reset.
  EXPECT_EQ(service.stats().max_stale_served, 2u);
}

TEST(RouteServiceLifecycle, HealOnlyDeltaIsPatchedWithoutRebuild) {
  const CsrGraph g = make_path(8);
  const BrokerSet brokers(8, std::vector<NodeId>{2, 3, 4, 5});
  FaultPlane faults(g);
  faults.fail_edge(3, 4);
  RouteService service(g, brokers, &faults);  // epoch 1 sees the cut
  EXPECT_FALSE(service.query(1, 6, 0.0).reachable);

  faults.heal_edge(3, 4);
  service.on_heal(1.0);
  EXPECT_FALSE(service.degraded());  // re-stamped fresh by the patch
  EXPECT_EQ(service.epoch_id(), 1u);  // no rebuild happened
  EXPECT_EQ(service.stats().patches, 1u);
  const RouteAnswer a = service.query(1, 6, 1.0);
  EXPECT_EQ(a.status, AnswerStatus::kFresh);
  EXPECT_TRUE(a.reachable);
  EXPECT_EQ(service.next_event_time(), kInf);  // nothing scheduled
}

TEST(RouteServiceLifecycle, CrashedPatchRollsBackAndFallsToRebuild) {
  const CsrGraph g = make_path(8);
  const BrokerSet brokers(8, std::vector<NodeId>{2, 3, 4, 5});
  FaultPlane faults(g);
  faults.fail_edge(3, 4);
  RebuildInjection injection;
  injection.crash_next_patches = 1;
  RouteService service(g, brokers, &faults, RouteServiceConfig{}, injection);

  faults.heal_edge(3, 4);
  service.on_heal(1.0);
  EXPECT_TRUE(service.degraded());  // patch crashed: still on the cut epoch
  EXPECT_EQ(service.stats().patch_crashes, 1u);
  EXPECT_FALSE(service.query(1, 6, 1.0).reachable);  // rollback kept it intact

  drain(service);
  EXPECT_FALSE(service.degraded());
  EXPECT_EQ(service.epoch_id(), 2u);  // the fallback rebuild
  EXPECT_TRUE(service.query(1, 6, 10.0).reachable);
}

std::vector<Flow> all_pairs(NodeId n) {
  std::vector<Flow> pairs;
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId t = 0; t < n; ++t) pairs.push_back({s, t, 1.0});
  }
  return pairs;
}

std::uint64_t counter(bsr::obs::Counter c) {
  return bsr::obs::snapshot().counter(c);
}

TEST(RouteServicePatch, PatchedEpochsAnswerLikeFreshBuilds) {
  // A patch unites, in one loop, the star of every vertex whose up/usable
  // state changed and, once a link heals, the star of every usable broker.
  // Nothing is compacted, the unite scans are exactly those stars' degrees
  // (each vertex once), and every pair's reachability must equal a service
  // built from scratch on the same fault state.
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const CsrGraph g = make_connected_random(120, 0.03, 5200 + seed);
    const NodeId n = g.num_vertices();
    const BrokerSet brokers = top_degree_brokers(g, 24);
    const std::vector<Flow> pairs = all_pairs(n);
    std::vector<NodeId> plain;  // two non-brokers with a broker neighbour
    for (NodeId v = 0; v < n && plain.size() < 2; ++v) {
      const auto neigh = g.neighbors(v);
      if (!brokers.contains(v) &&
          std::any_of(neigh.begin(), neigh.end(),
                      [&](NodeId u) { return brokers.contains(u); })) {
        plain.push_back(v);
      }
    }
    ASSERT_EQ(plain.size(), 2u);
    const NodeId hub = brokers.members()[0];
    const NodeId b1 = brokers.members()[3];
    const NodeId b2 = brokers.members()[7];
    // Two distinct links off the failed group, so healing either lowers the
    // failed count.
    const NodeId group_center = brokers.members()[2];
    const NodeId link_end = brokers.members()[1];
    const auto hop_off_group = [&](NodeId end) {
      const auto hops = g.neighbors(end);
      return *std::find_if(hops.begin(), hops.end(), [&](NodeId v) {
        return v != group_center && v != link_end;
      });
    };
    const NodeId link_hop = hop_off_group(link_end);
    const NodeId link2_end = brokers.members()[5];
    const NodeId link2_hop = hop_off_group(link2_end);
    FaultPlane faults(g);
    for (const NodeId v : {hub, b1, b2, plain[0], plain[1]}) faults.fail_vertex(v);
    faults.fail_edge(link_end, link_hop);
    faults.fail_edge(link2_end, link2_hop);
    faults.fail_group(bsr::graph::incident_group(g, group_center));
    RouteService service(g, brokers, &faults);

    // The fault state the serving epoch last saw.
    const auto usable = [&](NodeId v) {
      return brokers.contains(v) && faults.vertex_ok(v);
    };
    std::vector<bool> seen_up(n), seen_usable(n);
    std::uint64_t seen_failed_edges = 0;
    const auto see = [&] {
      for (NodeId v = 0; v < n; ++v) {
        seen_up[v] = faults.vertex_ok(v);
        seen_usable[v] = usable(v);
      }
      seen_failed_edges = faults.num_failed_edges();
    };
    see();

    std::vector<RouteAnswer> got, want;
    const auto heal_and_compare = [&](double now, const char* state,
                                      bool link_heal) {
      ASSERT_EQ(faults.num_failed_edges() < seen_failed_edges, link_heal) << state;
      std::uint64_t star_degrees = 0;
      for (NodeId v = 0; v < n; ++v) {
        const bool changed =
            faults.vertex_ok(v) != seen_up[v] || usable(v) != seen_usable[v];
        if (changed || (link_heal && usable(v))) star_degrees += g.degree(v);
      }
      const std::uint64_t patches = service.stats().patches;
      const std::uint64_t compact =
          counter(bsr::obs::Counter::kEngineCompactEdgeScans);
      const std::uint64_t unite = counter(bsr::obs::Counter::kEngineUniteEdgeScans);
      service.on_heal(now);
      ASSERT_EQ(service.stats().patches, patches + 1) << state;
      if (BSR_STATS_ENABLED) {
        EXPECT_EQ(counter(bsr::obs::Counter::kEngineCompactEdgeScans), compact)
            << state;
        EXPECT_EQ(counter(bsr::obs::Counter::kEngineUniteEdgeScans) - unite,
                  star_degrees)
            << state;
      }
      see();
      RouteService fresh(g, brokers, &faults);
      service.serve_batch(pairs, now, got);
      fresh.serve_batch(pairs, now, want);
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        ASSERT_EQ(got[i].status, AnswerStatus::kFresh) << state;
        ASSERT_EQ(got[i].reachable, want[i].reachable)
            << state << " pair " << pairs[i].src << "->" << pairs[i].dst;
      }
    };
    faults.heal_vertex(hub);
    heal_and_compare(1.0, "landmark hub heal", false);
    faults.heal_vertex(plain[0]);
    heal_and_compare(2.0, "non-broker heal", false);
    faults.heal_vertex(b1);  // two vertices behind one notification
    faults.heal_vertex(b2);
    heal_and_compare(3.0, "two broker heals", false);
    faults.heal_edge(link_end, link_hop);
    heal_and_compare(4.0, "link heal", true);
    faults.heal_edge(link2_end, link2_hop);  // both terms of the loop fire
    faults.heal_vertex(plain[1]);
    heal_and_compare(5.0, "link and non-broker heal", true);
    faults.heal_group(bsr::graph::incident_group(g, group_center));
    heal_and_compare(6.0, "group heal", true);
    EXPECT_TRUE(faults.pristine());
    EXPECT_EQ(service.epoch_id(), 1u);  // every heal patched, none rebuilt
  }
}

TEST(RouteServicePatch, CrashedStarPatchLeavesEveryAnswer) {
  const CsrGraph g = make_connected_random(90, 0.04, 5300);
  const BrokerSet brokers = top_degree_brokers(g, 16);
  const std::vector<Flow> pairs = all_pairs(g.num_vertices());
  FaultPlane faults(g);
  faults.fail_vertex(brokers.members()[0]);
  faults.fail_vertex(brokers.members()[4]);
  RebuildInjection injection;
  injection.crash_next_patches = 1;
  RouteService service(g, brokers, &faults, RouteServiceConfig{}, injection);
  std::vector<RouteAnswer> before, after;
  service.serve_batch(pairs, 0.0, before);

  faults.heal_vertex(brokers.members()[0]);
  service.on_heal(1.0);
  EXPECT_EQ(service.stats().patch_crashes, 1u);
  EXPECT_EQ(service.stats().patches, 0u);
  service.serve_batch(pairs, 1.0, after);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    ASSERT_EQ(before[i].status, AnswerStatus::kFresh);
    ASSERT_EQ(after[i].status, AnswerStatus::kStaleServed);
    ASSERT_EQ(after[i].reachable, before[i].reachable) << "pair " << i;
    ASSERT_EQ(after[i].dist_bound, before[i].dist_bound) << "pair " << i;
    ASSERT_EQ(after[i].next_hop, before[i].next_hop) << "pair " << i;
    ASSERT_EQ(after[i].epoch, before[i].epoch) << "pair " << i;
  }
}

TEST(RouteServiceLifecycle, RebuildCrashesRetryWithBackoffThenSucceed) {
  const CsrGraph g = make_path(8);
  const BrokerSet brokers(8, std::vector<NodeId>{2, 3, 4, 5});
  FaultPlane faults(g);
  RebuildInjection injection;
  injection.crash_next_rebuilds = 2;
  RouteService service(g, brokers, &faults, RouteServiceConfig{}, injection);

  faults.fail_edge(3, 4);
  service.on_fault(0.0);
  drain(service);
  EXPECT_FALSE(service.degraded());
  EXPECT_EQ(service.stats().rebuild_crashes, 2u);
  EXPECT_EQ(service.stats().rebuilds_started, 3u);
  EXPECT_EQ(service.epoch_id(), 2u);  // crashes never published anything

  // The attempt chain is visible in the transition log: two crashes, then a
  // publish, each with its own attempt id.
  std::vector<EpochEventKind> kinds;
  for (const auto& t : service.transitions()) kinds.push_back(t.kind);
  const std::vector<EpochEventKind> expected{
      EpochEventKind::kPublish,       // initial epoch
      EpochEventKind::kDegrade,       EpochEventKind::kRebuildStart,
      EpochEventKind::kRebuildCrash,  EpochEventKind::kRebuildStart,
      EpochEventKind::kRebuildCrash,  EpochEventKind::kRebuildStart,
      EpochEventKind::kPublish};
  EXPECT_EQ(kinds, expected);
}

TEST(RouteServiceLifecycle, MidBuildTruthChangeDiscardsTheBuild) {
  const CsrGraph g = make_path(10);
  const BrokerSet brokers(10, std::vector<NodeId>{2, 3, 4, 5, 6, 7});
  FaultPlane faults(g);
  RouteService service(g, brokers, &faults);

  faults.fail_edge(3, 4);
  service.on_fault(0.0);
  service.advance(0.5);  // the rebuild starts (completes at 2.5)
  ASSERT_TRUE(service.rebuild_pending());
  faults.fail_edge(5, 6);  // truth moves mid-build
  service.on_fault(1.0);

  drain(service);
  EXPECT_FALSE(service.degraded());
  EXPECT_GE(service.stats().rebuilds_discarded, 1u);
  // The final epoch reflects *both* faults, not the half-truth the first
  // build was computed against.
  EXPECT_FALSE(service.query(1, 8, 10.0).reachable);
  EXPECT_FALSE(service.query(3, 4, 10.0).reachable);
  EXPECT_TRUE(service.query(3, 4, 10.0).status == AnswerStatus::kFresh);
}

TEST(RouteServiceLifecycle, StalenessBoundTripsToRefused) {
  const CsrGraph g = make_path(8);
  const BrokerSet brokers(8, std::vector<NodeId>{2, 3, 4, 5});
  FaultPlane faults(g);
  RouteServiceConfig config;
  config.max_stale_events = 2;
  config.rebuild.max_rebuilds = 0;  // never rebuild: staleness only grows
  RouteService service(g, brokers, &faults, config);

  faults.fail_edge(2, 3);
  service.on_fault(1.0);
  service.advance(100.0);
  EXPECT_EQ(service.query(1, 6, 100.0).status, AnswerStatus::kStaleServed);
  faults.fail_edge(3, 4);
  service.on_fault(101.0);
  EXPECT_EQ(service.query(1, 6, 101.0).status, AnswerStatus::kStaleServed);
  faults.fail_edge(4, 5);
  service.on_fault(102.0);
  EXPECT_EQ(service.stale_events(), 3u);
  const RouteAnswer refused = service.query(1, 6, 102.0);
  EXPECT_EQ(refused.status, AnswerStatus::kRefused);
  EXPECT_FALSE(refused.reachable);
  EXPECT_EQ(service.stats().max_stale_served, 2u);
}

TEST(RouteServiceLifecycle, HealthViewMaskSuppressesBrokers) {
  const CsrGraph g = make_path(8);
  const BrokerSet brokers(8, std::vector<NodeId>{2, 3, 4, 5});
  RouteService service(g, brokers, nullptr);
  ASSERT_TRUE(service.query(1, 6, 0.0).reachable);

  bsr::sim::HealthView view;
  view.version = 1;
  view.routable.assign(8, true);
  view.routable[4] = false;  // detector quarantined broker 4
  service.on_health_view(view, 1.0);
  EXPECT_TRUE(service.degraded());
  drain(service);
  EXPECT_FALSE(service.degraded());
  // Edge 4-5 survives (5 is still a usable broker endpoint) but 4 no longer
  // dominates; the path 1..6 needs every interior hop dominated and 3-4
  // retains broker 3, so the chain actually holds. The suppressed broker
  // still shrinks the landmark pool.
  EXPECT_EQ(service.usable_broker_count(), 3u);
}

// --- admission control -------------------------------------------------------

TEST(RouteServiceAdmission, TokenBucketShedsDeterministically) {
  const CsrGraph g = make_path(8);
  const BrokerSet brokers(8, std::vector<NodeId>{2, 3, 4, 5});
  RouteServiceConfig config;
  config.admit_rate = 4.0;  // bucket starts with 4 tokens
  RouteService service(g, brokers, nullptr, config);

  std::vector<Flow> flows(10, Flow{1, 6, 1.0});
  std::vector<RouteAnswer> answers;
  service.serve_batch(flows, 0.0, answers);
  ASSERT_EQ(answers.size(), 10u);
  std::size_t served = 0, shed = 0;
  for (const RouteAnswer& a : answers) {
    if (a.status == AnswerStatus::kShedded) {
      ++shed;
      EXPECT_FALSE(a.reachable);  // shed queries are never evaluated
    } else {
      EXPECT_EQ(a.status, AnswerStatus::kFresh);
      ++served;
    }
  }
  EXPECT_EQ(served, 4u);  // exactly the bucket depth
  EXPECT_EQ(shed, 6u);
  EXPECT_EQ(service.stats().shedded, 6u);

  // The bucket refills with simulated time: one unit at rate 4 admits 4 more.
  service.serve_batch(flows, 1.0, answers);
  std::size_t served2 = 0;
  for (const RouteAnswer& a : answers) {
    served2 += a.status != AnswerStatus::kShedded;
  }
  EXPECT_EQ(served2, 4u);
}

TEST(RouteServiceAdmission, DegradedServiceShedsHarder) {
  const CsrGraph g = make_path(8);
  const BrokerSet brokers(8, std::vector<NodeId>{2, 3, 4, 5});
  FaultPlane faults(g);
  RouteServiceConfig config;
  config.admit_rate = 4.0;
  config.degraded_admit_factor = 0.5;
  config.rebuild.max_rebuilds = 0;
  RouteService service(g, brokers, &faults, config);

  // Drain the initial burst, then compare refill while fresh vs degraded.
  std::vector<Flow> flows(10, Flow{1, 6, 1.0});
  std::vector<RouteAnswer> answers;
  service.serve_batch(flows, 0.0, answers);

  faults.fail_edge(3, 4);
  service.on_fault(0.5);
  service.serve_batch(flows, 1.0, answers);  // 0.5 time at derated rate 2
  std::size_t served = 0;
  for (const RouteAnswer& a : answers) {
    served += a.status != AnswerStatus::kShedded;
  }
  // Refill = 0.5 (fresh window, rate 4 until 0.5... the bucket refills lazily
  // at serve time, entirely under the degraded rate): 1.0 * 4 * 0.5 = 2.
  EXPECT_EQ(served, 2u);
  for (const RouteAnswer& a : answers) {
    if (a.status != AnswerStatus::kShedded) {
      EXPECT_EQ(a.status, AnswerStatus::kStaleServed);
    }
  }
}

// --- determinism -------------------------------------------------------------

TEST(RouteServiceDeterminism, DigestIsBitIdenticalAcrossThreadCounts) {
  const CsrGraph g = make_connected_random(300, 0.02, 99);
  const BrokerSet brokers = top_degree_brokers(g, 24);
  FaultPlane faults(g);
  bsr::sim::DemandConfig demand;
  demand.num_flows = 2000;
  bsr::graph::Rng rng(5);
  const std::vector<Flow> flows = bsr::sim::generate_flows(g, demand, rng);

  const auto run = [&](int threads) {
    bsr::graph::engine::set_num_threads(threads);
    faults.heal_all();
    RouteServiceConfig config;
    config.admit_rate = 500.0;
    RouteService service(g, brokers, &faults, config);
    std::vector<RouteAnswer> answers;
    std::vector<RouteAnswer> all;
    service.serve_batch(flows, 0.0, answers);
    all.insert(all.end(), answers.begin(), answers.end());
    faults.fail_vertex(brokers.members()[0]);
    service.on_fault(1.0);
    service.serve_batch(flows, 1.5, answers);  // stale epoch
    all.insert(all.end(), answers.begin(), answers.end());
    drain(service);
    service.serve_batch(flows, 20.0, answers);  // rebuilt epoch
    all.insert(all.end(), answers.begin(), answers.end());
    return bsr::sim::answer_digest(all);
  };

  const std::uint64_t d1 = run(1);
  const std::uint64_t d4 = run(4);
  bsr::graph::engine::set_num_threads(0);
  EXPECT_EQ(d1, d4);
}

// --- one serve path ------------------------------------------------------------

// query() is a one-flow batch of volume 1. A service answering every flow by
// query() and one answering each flow by a one-flow serve_batch call must
// agree on every answer, on stats() and transitions(), and on the recorded
// journal and qtrace bytes, through fresh -> fault -> stale -> rebuild ->
// heal patch with the token bucket shedding part of every round.
TEST(RouteServiceServePath, QueryMatchesOneFlowBatches) {
  const CsrGraph g = make_connected_random(200, 0.03, 41);
  const BrokerSet brokers = top_degree_brokers(g, 20);
  bsr::sim::DemandConfig demand;
  demand.num_flows = 150;
  bsr::graph::Rng rng(9);
  const std::vector<Flow> flows = bsr::sim::generate_flows(g, demand, rng);
  const NodeId victim = brokers.members()[0];

  struct Run {
    std::vector<RouteAnswer> answers;
    bsr::sim::RouteServiceStats stats;
    std::vector<bsr::sim::EpochTransition> transitions;
    std::string journal;
    std::string qtrace;
  };
  const auto run = [&](bool by_query) {
    FaultPlane faults(g);
    bsr::obs::start_recording();
    bsr::obs::start_query_trace();
    RouteServiceConfig config;
    config.admit_rate = 60.0;  // 150 queries per round: some are shed
    RouteService service(g, brokers, &faults, config);
    Run out;
    std::vector<RouteAnswer> one;
    const auto round = [&](double now) {
      for (const Flow& f : flows) {
        if (by_query) {
          out.answers.push_back(service.query(f.src, f.dst, now));
        } else {
          const Flow flow{f.src, f.dst, 1.0};
          service.serve_batch({&flow, 1}, now, one);
          out.answers.push_back(one.at(0));
        }
      }
    };
    round(0.0);  // fresh
    faults.fail_vertex(victim);
    service.on_fault(1.0);
    round(1.5);  // stale
    drain(service);
    round(10.0);  // rebuilt
    faults.heal_vertex(victim);
    service.on_heal(11.0);
    round(11.5);  // patched
    bsr::obs::stop_query_trace();
    bsr::obs::stop_recording();
    std::ostringstream journal, qtrace;
    bsr::obs::write_events_jsonl(journal, bsr::obs::snapshot_journal());
    bsr::obs::write_qtrace_jsonl(qtrace, bsr::obs::snapshot_query_trace());
    out.journal = journal.str();
    out.qtrace = qtrace.str();
    out.stats = service.stats();
    out.transitions.assign(service.transitions().begin(),
                           service.transitions().end());
    return out;
  };
  const auto expect_same = [](const Run& a, const Run& b) {
    ASSERT_EQ(a.answers.size(), b.answers.size());
    for (std::size_t i = 0; i < a.answers.size(); ++i) {
      const RouteAnswer& x = a.answers[i];
      const RouteAnswer& y = b.answers[i];
      EXPECT_EQ(x.status, y.status) << i;
      EXPECT_EQ(x.reachable, y.reachable) << i;
      EXPECT_EQ(x.dist_bound, y.dist_bound) << i;
      EXPECT_EQ(x.next_hop, y.next_hop) << i;
      EXPECT_EQ(x.epoch, y.epoch) << i;
      EXPECT_EQ(x.lookup_ticks, y.lookup_ticks) << i;
      EXPECT_EQ(x.stitch_ticks, y.stitch_ticks) << i;
    }
    const auto& s = a.stats;
    const auto& t = b.stats;
    EXPECT_EQ(s.queries, t.queries);
    EXPECT_EQ(s.fresh, t.fresh);
    EXPECT_EQ(s.stale_served, t.stale_served);
    EXPECT_EQ(s.shedded, t.shedded);
    EXPECT_EQ(s.refused, t.refused);
    EXPECT_EQ(s.rebuilds_started, t.rebuilds_started);
    EXPECT_EQ(s.rebuild_crashes, t.rebuild_crashes);
    EXPECT_EQ(s.rebuilds_discarded, t.rebuilds_discarded);
    EXPECT_EQ(s.patches, t.patches);
    EXPECT_EQ(s.patch_crashes, t.patch_crashes);
    EXPECT_EQ(s.epochs_published, t.epochs_published);
    EXPECT_EQ(s.max_stale_served, t.max_stale_served);
    EXPECT_EQ(s.last_batch_p99_ticks, t.last_batch_p99_ticks);
    EXPECT_EQ(s.last_batch_max_ticks, t.last_batch_max_ticks);
    ASSERT_EQ(a.transitions.size(), b.transitions.size());
    for (std::size_t i = 0; i < a.transitions.size(); ++i) {
      const auto& x = a.transitions[i];
      const auto& y = b.transitions[i];
      EXPECT_EQ(x.time, y.time) << i;
      EXPECT_EQ(x.kind, y.kind) << i;
      EXPECT_EQ(x.epoch, y.epoch) << i;
      EXPECT_EQ(x.truth_version, y.truth_version) << i;
      EXPECT_EQ(x.attempt, y.attempt) << i;
    }
    EXPECT_EQ(a.journal, b.journal);
    EXPECT_EQ(a.qtrace, b.qtrace);
  };

  std::vector<Run> by_query;
  for (const int threads : {1, 4, 7}) {
    bsr::graph::engine::set_num_threads(threads);
    by_query.push_back(run(true));
    expect_same(by_query.back(), run(false));
    expect_same(by_query.back(), by_query.front());
  }
  bsr::graph::engine::set_num_threads(0);

  // The schedule reached every state it names.
  const Run& r = by_query.front();
  EXPECT_GT(r.stats.fresh, 0u);
  EXPECT_GT(r.stats.stale_served, 0u);
  EXPECT_GT(r.stats.shedded, 0u);
  EXPECT_EQ(r.stats.rebuilds_started, 1u);
  EXPECT_EQ(r.stats.patches, 1u);
  EXPECT_EQ(r.stats.epochs_published, 2u);
  if (BSR_STATS_ENABLED) {
    EXPECT_NE(r.journal.find("sim.route_service.patch"), std::string::npos);
    EXPECT_NE(r.qtrace.find("\"tag\": \"shedded\""), std::string::npos);
  }
}

/// Flows over sampled pairs, each of volume 1, so the token bucket admits a
/// predictable prefix.
std::vector<Flow> unit_flows(const CsrGraph& g, std::uint32_t count,
                             std::uint64_t seed) {
  bsr::sim::DemandConfig demand;
  demand.num_flows = count;
  bsr::graph::Rng rng(seed);
  std::vector<Flow> flows = bsr::sim::generate_flows(g, demand, rng);
  for (Flow& f : flows) f.volume = 1.0;
  return flows;
}

std::uint64_t answer_ticks(const RouteAnswer& a) {
  return std::uint64_t{1} + a.lookup_ticks + a.stitch_ticks;
}

// stats().last_batch_p99_ticks and last_batch_max_ticks summarise each
// non-empty batch exactly as QuantileSketch::p99() and max() over its
// answers' 1 + lookup + stitch ticks; an empty batch leaves both alone. The
// sizes straddle the p99 rank's rounding edges, the schedule serves fresh,
// partly shed, stale and refused batches, and 80 landmarks push reachable
// answers past 64 ticks into the non-exact buckets.
TEST(RouteServiceServePath, BatchTickSummaryMatchesSketchReference) {
  const CsrGraph g = make_connected_random(400, 0.03, 57);
  const BrokerSet brokers = top_degree_brokers(g, 100);
  const std::vector<Flow> flows = unit_flows(g, 4096, 5);
  FaultPlane faults(g);
  RouteServiceConfig config;
  config.num_landmarks = 80;
  config.max_stale_events = 1;
  config.admit_rate = 3000.0;  // the 4096-flow batch is partly shed
  RouteService service(g, brokers, &faults, config);
  ASSERT_EQ(service.landmarks().size(), 80u);

  std::vector<RouteAnswer> answers;
  double now = 0.0;
  std::uint64_t top = 0;
  std::size_t batches = 0;
  const auto sweep = [&](AnswerStatus expected) {
    for (const std::size_t size : {1, 2, 99, 100, 0, 101, 4096, 0}) {
      SCOPED_TRACE("batch of " + std::to_string(size));
      now += 10.0;  // refills the bucket
      const bsr::sim::RouteServiceStats before = service.stats();
      service.serve_batch({flows.data(), size}, now, answers);
      const bsr::sim::RouteServiceStats& after = service.stats();
      if (size == 0 || !BSR_STATS_ENABLED) {
        EXPECT_EQ(after.last_batch_p99_ticks, before.last_batch_p99_ticks);
        EXPECT_EQ(after.last_batch_max_ticks, before.last_batch_max_ticks);
        continue;
      }
      EXPECT_EQ(answers.front().status, expected);
      bsr::obs::QuantileSketch reference;
      for (const RouteAnswer& a : answers) reference.observe(answer_ticks(a));
      EXPECT_EQ(after.last_batch_p99_ticks, reference.p99());
      EXPECT_EQ(after.last_batch_max_ticks, reference.max());
      top = std::max(top, reference.max());
      ++batches;
    }
  };
  sweep(AnswerStatus::kFresh);
  faults.fail_vertex(brokers.members()[0]);
  service.on_fault(now);
  sweep(AnswerStatus::kStaleServed);
  faults.fail_vertex(brokers.members()[1]);
  service.on_fault(now);
  sweep(AnswerStatus::kRefused);
  drain(service);
  sweep(AnswerStatus::kFresh);

  EXPECT_GT(service.stats().shedded, 0u);
  if (BSR_STATS_ENABLED) {
    EXPECT_EQ(batches, 24u);
    EXPECT_GT(top, 64u) << "no answer reached the non-exact buckets";
  }
}

// tally's registry writes: after every batch of a seeded fresh -> fault ->
// stale -> refused -> rebuild -> shed sequence, the deltas of the six
// sim.route_service.{ticks,dist}.* sketch slots and of the
// sim.route_service.dist_bound histogram equal a reference that observes
// each answer one at a time into fresh QuantileSketches and bucket_of.
// 80 landmarks put reachable ticks past the exact buckets, where a sketch's
// sum is more than its buckets' lower bounds.
TEST(RouteServiceServePath, RegistryDeltasMatchPerAnswerReference) {
  using bsr::obs::QuantileSketch;
  using bsr::obs::Sketch;
  const CsrGraph g = make_connected_random(300, 0.03, 83);
  const BrokerSet brokers = top_degree_brokers(g, 90);
  const std::vector<Flow> flows = unit_flows(g, 700, 13);
  FaultPlane faults(g);
  RouteServiceConfig config;
  config.num_landmarks = 80;
  config.max_stale_events = 1;
  config.admit_rate = 1000.0;  // the second batch at one instant is shed
  RouteService service(g, brokers, &faults, config);

  constexpr std::array<Sketch, 6> kSlots = {
      Sketch::kRouteTicksFresh,   Sketch::kRouteTicksStale,
      Sketch::kRouteTicksShedded, Sketch::kRouteTicksRefused,
      Sketch::kRouteDistFresh,    Sketch::kRouteDistStale};
  constexpr auto kDist =
      static_cast<std::size_t>(bsr::obs::Histogram::kRouteServiceDistBound);
  std::vector<RouteAnswer> answers;
  std::array<std::uint64_t, 4> tags{};
  std::uint64_t top = 0;
  const auto batch = [&](double now) {
    const bsr::obs::SketchSnapshot sketches_before = bsr::obs::snapshot_sketches();
    const bsr::obs::Snapshot stats_before = bsr::obs::snapshot();
    service.serve_batch(flows, now, answers);
    const bsr::obs::SketchSnapshot sketches =
        bsr::obs::sketch_delta(sketches_before, bsr::obs::snapshot_sketches());
    const auto histogram =
        bsr::obs::delta(stats_before, bsr::obs::snapshot()).histograms[kDist];

    std::array<QuantileSketch, 6> reference;
    std::array<std::uint64_t, bsr::obs::kHistogramBuckets> reference_histogram{};
    for (const RouteAnswer& a : answers) {
      const auto tag = static_cast<std::size_t>(a.status);
      ++tags[tag];
      top = std::max(top, answer_ticks(a));
      reference[tag].observe(answer_ticks(a));
      if (tag < 2 && a.reachable && a.dist_bound != bsr::graph::kUnreachable) {
        reference[4 + tag].observe(a.dist_bound);
        ++reference_histogram[bsr::obs::bucket_of(a.dist_bound)];
      }
    }
    if (!BSR_STATS_ENABLED) {
      reference = {};
      reference_histogram = {};
    }
    for (std::size_t i = 0; i < kSlots.size(); ++i) {
      SCOPED_TRACE(std::string(bsr::obs::name(kSlots[i])));
      EXPECT_TRUE(sketches[static_cast<std::size_t>(kSlots[i])] == reference[i]);
    }
    EXPECT_EQ(histogram, reference_histogram);
  };
  batch(0.0);  // fresh
  faults.fail_vertex(brokers.members()[0]);
  service.on_fault(1.0);
  batch(1.5);  // stale
  faults.fail_vertex(brokers.members()[1]);
  service.on_fault(2.0);
  batch(2.5);  // refused: two events behind a bound of one
  drain(service);
  batch(10.0);  // rebuilt, fresh
  batch(10.0);  // the bucket is spent: mostly shed
  for (const std::uint64_t n : tags) EXPECT_GT(n, 0u);
  EXPECT_GT(top, 64u) << "no answer reached the non-exact buckets";
}

// serve()'s evaluation loop prefetches RouteService::kPrefetchDistance = k
// flows ahead within each shard. Every answer must equal the one per-flow
// query() calls give on a twin service, whatever the window meets: batches
// shorter than, equal to and just past k (so shard ends fall inside the
// window at 4 and 7 threads), out-of-range endpoint ids in the first, middle
// and last k slots (the prefetch must form no address for them, which
// _GLIBCXX_ASSERTIONS builds check), shed and stale-served answers, zero to
// 80 landmarks (rows of 0 to 160 bytes) and a null epoch.
TEST(RouteServiceServePath, PrefetchWindowEdges) {
  constexpr std::size_t k = RouteService::kPrefetchDistance;
  const CsrGraph g = make_connected_random(1500, 0.004, 71);
  const NodeId n = g.num_vertices();
  const BrokerSet brokers = top_degree_brokers(g, 100);
  const BrokerSet no_brokers(n, std::vector<NodeId>{});
  const std::vector<Flow> pool = unit_flows(g, 65'536, 29);
  // The loop's stages are k flows apart, so its ramps end at k and 2k.
  const std::vector<std::size_t> sizes = {0, 1, k - 1, k, k + 1, 2 * k - 1, 2 * k, 2 * k + 1,
                                          pool.size()};

  // Out-of-range ids at slots 0, k/2 and k-1, around the middle and in the
  // last k, alternating which endpoint is bad and how far past n it is.
  const auto with_bad_ids = [&](std::size_t size) {
    std::vector<Flow> flows(pool.begin(), pool.begin() + static_cast<std::ptrdiff_t>(size));
    const std::array<NodeId, 3> bad = {n, n + 1, std::numeric_limits<NodeId>::max()};
    std::vector<std::size_t> slots = {0, k / 2, k - 1, size / 2 - 1, size / 2,
                                      size / 2 + k / 2, size - k, size - 2, size - 1};
    std::size_t j = 0;
    for (const std::size_t i : slots) {
      if (i >= size) continue;  // unsigned wrap marks a slot the batch lacks
      (j % 2 == 0 ? flows[i].src : flows[i].dst) = bad[j % bad.size()];
      ++j;
    }
    return flows;
  };

  struct Config {
    std::uint32_t num_landmarks;
    bool null_epoch;
  };
  for (const Config c : {Config{0, false}, Config{1, false}, Config{6, false},
                         Config{16, false}, Config{80, false}, Config{16, true}}) {
    SCOPED_TRACE("num_landmarks " + std::to_string(c.num_landmarks) +
                 (c.null_epoch ? ", null epoch" : ""));
    RouteServiceConfig config;
    config.num_landmarks = c.num_landmarks;
    config.admit_rate = 40'000.0;  // the big batch sheds its tail
    const BrokerSet& members = c.null_epoch ? no_brokers : brokers;
    for (const int threads : {1, 4, 7}) {
      SCOPED_TRACE("BSR_THREADS " + std::to_string(threads));
      bsr::graph::engine::set_num_threads(threads);
      FaultPlane batch_faults(g);
      FaultPlane twin_faults(g);
      RouteService batched(g, members, &batch_faults, config);
      RouteService twin(g, members, &twin_faults, config);
      ASSERT_EQ(batched.null_epoch(), c.null_epoch);
      if (!c.null_epoch) {
        ASSERT_EQ(batched.landmarks().size(), c.num_landmarks);
      }
      // Every landmark as the source (its stitch walks dst's parent chain),
      // as the destination and as both endpoints, and a pair with src == dst.
      std::vector<Flow> at_landmarks;
      for (const NodeId l : batched.landmarks()) {
        const NodeId v = pool[l].dst;
        at_landmarks.insert(at_landmarks.end(),
                            {Flow{l, v, 1.0}, Flow{v, l, 1.0}, Flow{l, l, 1.0}, Flow{v, v, 1.0}});
      }
      std::vector<RouteAnswer> answers;
      std::array<std::uint64_t, 4> tags{};
      std::uint64_t out_of_range = 0;
      std::uint64_t walked = 0;  // stitches that walked a parent chain
      const auto pass = [&](double now) {
        std::vector<std::vector<Flow>> batches = {at_landmarks};  // before the bucket empties
        for (const std::size_t size : sizes) batches.push_back(with_bad_ids(size));
        for (const std::vector<Flow>& flows : batches) {
          const std::size_t size = flows.size();
          SCOPED_TRACE("batch of " + std::to_string(size) + " at " +
                       std::to_string(now));
          batched.serve_batch(flows, now, answers);
          ASSERT_EQ(answers.size(), size);
          for (std::size_t i = 0; i < size; ++i) {
            const RouteAnswer x = twin.query(flows[i].src, flows[i].dst, now);
            const RouteAnswer& y = answers[i];
            ASSERT_EQ(x.status, y.status) << i;
            ASSERT_EQ(x.reachable, y.reachable) << i;
            ASSERT_EQ(x.dist_bound, y.dist_bound) << i;
            ASSERT_EQ(x.next_hop, y.next_hop) << i;
            ASSERT_EQ(x.epoch, y.epoch) << i;
            ASSERT_EQ(x.lookup_ticks, y.lookup_ticks) << i;
            ASSERT_EQ(x.stitch_ticks, y.stitch_ticks) << i;
            ++tags[static_cast<std::size_t>(y.status)];
            if (y.stitch_ticks > 1) ++walked;
            if (flows[i].src >= n || flows[i].dst >= n) {
              ++out_of_range;
              if (y.status != AnswerStatus::kShedded) {
                EXPECT_EQ(y.status, AnswerStatus::kRefused) << i;
              }
            }
          }
        }
      };
      pass(1.0);  // fresh; the big batch's tail is shed
      pass(1.0);  // the bucket is spent: shed
      const NodeId victim = brokers.members()[0];
      batch_faults.fail_vertex(victim);
      twin_faults.fail_vertex(victim);
      batched.on_fault(2.0);
      twin.on_fault(2.0);
      pass(3.0);  // stale-served
      EXPECT_GT(out_of_range, 0u);
      EXPECT_GT(tags[static_cast<std::size_t>(AnswerStatus::kShedded)], 0u);
      EXPECT_GT(tags[static_cast<std::size_t>(AnswerStatus::kRefused)], 0u);
      if (!c.null_epoch) {
        EXPECT_GT(tags[static_cast<std::size_t>(AnswerStatus::kFresh)], 0u);
        EXPECT_GT(tags[static_cast<std::size_t>(AnswerStatus::kStaleServed)], 0u);
      }
      if (!c.null_epoch && c.num_landmarks > 0) {
        EXPECT_GT(walked, 0u);
      }
    }
  }
  bsr::graph::engine::set_num_threads(0);
}

// --- stale-serving monotonicity ----------------------------------------------

// Misrouting exposure is non-increasing in the rebuild budget: with budget b
// and b+1 the service behaves identically up to the (b+1)-th rebuild start
// (the scheduler's decision sequence is a prefix), after which the larger
// budget serves answers at least as fresh. Mirrors the health probe-interval
// monotonicity harness: asserted over a deterministic churn schedule.
TEST(RouteServiceMonotonicity, MisroutingExposureNonIncreasingInRebuildBudget) {
  const CsrGraph g = make_connected_random(120, 0.04, 314);
  const BrokerSet brokers = top_degree_brokers(g, 12);
  FaultPlane faults(g);
  bsr::sim::DemandConfig demand;
  demand.num_flows = 400;
  bsr::graph::Rng flow_rng(11);
  const std::vector<Flow> flows = bsr::sim::generate_flows(g, demand, flow_rng);

  // Deterministic churn burst: fail four brokers early, heal two later, then
  // a long quiet tail where richer budgets converge back to fresh.
  struct ChurnEvent {
    double time;
    NodeId vertex;
    bool fail;
  };
  const std::vector<ChurnEvent> schedule{
      {1.0, brokers.members()[0], true},  {2.0, brokers.members()[3], true},
      {3.0, brokers.members()[5], true},  {4.0, brokers.members()[7], true},
      {30.0, brokers.members()[0], false}, {31.0, brokers.members()[3], false},
  };
  const std::vector<double> query_times{0.5, 2.5, 4.5, 8.0, 16.0, 32.0, 64.0};

  const auto exposure = [&](std::uint32_t budget) {
    faults.heal_all();
    RouteServiceConfig config;
    config.max_stale_events = 100;  // serve stale; let the audit judge it
    config.rebuild.max_rebuilds = budget;
    RouteService service(g, brokers, &faults, config);
    std::size_t misrouted = 0;
    std::size_t event_idx = 0;
    std::vector<RouteAnswer> answers;
    for (const double now : query_times) {
      while (event_idx < schedule.size() && schedule[event_idx].time <= now) {
        const ChurnEvent& e = schedule[event_idx++];
        service.advance(e.time);
        if (e.fail) {
          faults.fail_vertex(e.vertex);
          service.on_fault(e.time);
        } else {
          faults.heal_vertex(e.vertex);
          service.on_heal(e.time);
        }
      }
      service.advance(now);
      service.serve_batch(flows, now, answers);
      for (std::size_t i = 0; i < flows.size(); ++i) {
        const bool truth = truth_reachable(g, brokers, &faults, flows[i].src,
                                           flows[i].dst);
        if (bsr::sim::audit_answer(answers[i], truth) ==
            AuditOutcome::kMisrouted) {
          ++misrouted;
        }
        // The hard robustness invariant: fresh answers are never wrong.
        if (answers[i].status == AnswerStatus::kFresh) {
          EXPECT_EQ(answers[i].reachable, truth)
              << "fresh disagreement " << flows[i].src << "->" << flows[i].dst;
        }
      }
    }
    return misrouted;
  };

  const std::size_t base = exposure(0);
  std::size_t prev = base;
  std::size_t last = base;
  for (const std::uint32_t budget : {1u, 2u, 4u, 8u}) {
    const std::size_t e = exposure(budget);
    EXPECT_LE(e, prev) << "budget " << budget << " increased exposure";
    prev = e;
    last = e;
  }
  // Some misrouting is unavoidable while the first rebuild is in flight, so
  // the floor is not zero — but a rich budget must beat no budget at all.
  EXPECT_LT(last, base);
}

}  // namespace
