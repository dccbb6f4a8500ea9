// Tests for the probe-based health control plane: detector state-machine
// invariants, hysteresis, view propagation, stale-view routing, the
// health-aware churn loop, and determinism across thread counts.
#include <cmath>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "broker/broker_set.hpp"
#include "graph/engine.hpp"
#include "graph/fault_plane.hpp"
#include "graph/rng.hpp"
#include "sim/churn.hpp"
#include "sim/health.hpp"
#include "sim/retry_scheduler.hpp"
#include "sim/router.hpp"
#include "test_util.hpp"

namespace {

using bsr::broker::BrokerSet;
using bsr::graph::FaultPlane;
using bsr::graph::NodeId;
using bsr::graph::Rng;
using bsr::sim::HealthChurnConfig;
using bsr::sim::HealthChurnResult;
using bsr::sim::HealthConfig;
using bsr::sim::HealthMonitor;
using bsr::sim::HealthOutcome;
using bsr::sim::HealthState;
using bsr::sim::HealthTransition;
using bsr::sim::HealthView;
using bsr::sim::RepairPolicy;
using bsr::sim::RetryScheduler;
using bsr::test::make_complete;
using bsr::test::make_connected_random;
using bsr::test::make_path;
using bsr::test::make_star;

/// Exact-timing config: no jitter, tight thresholds.
HealthConfig tight_config() {
  HealthConfig c;
  c.probe_interval = 1.0;
  c.propagation_delay = 0.5;
  c.suspect_after = 1;
  c.quarantine_after = 2;
  c.probation_successes = 2;
  c.reprobe_backoff = 2.0;
  c.backoff_factor = 2.0;
  c.backoff_max = 16.0;
  c.jitter = 0.0;
  return c;
}

/// The only legal state-machine edges (see health.hpp).
bool legal_transition(HealthState from, HealthState to) {
  using S = HealthState;
  return (from == S::kHealthy && to == S::kSuspect) ||
         (from == S::kSuspect && to == S::kHealthy) ||
         (from == S::kSuspect && to == S::kQuarantined) ||
         (from == S::kQuarantined && to == S::kProbation) ||
         (from == S::kProbation && to == S::kHealthy) ||
         (from == S::kProbation && to == S::kQuarantined);
}

void expect_all_transitions_legal(std::span<const HealthTransition> transitions) {
  for (const HealthTransition& tr : transitions) {
    EXPECT_TRUE(legal_transition(tr.from, tr.to))
        << "illegal transition " << bsr::sim::to_string(tr.from) << " -> "
        << bsr::sim::to_string(tr.to) << " at t=" << tr.time
        << " (broker " << tr.broker << ")";
  }
}

TEST(HealthConfigTest, ValidationThrows) {
  const auto g = make_path(4);
  const BrokerSet brokers(4, std::vector<NodeId>{1, 2});
  const FaultPlane plane(g);
  const auto make = [&](const HealthConfig& c) {
    return HealthMonitor(g, brokers, plane, c, 1, 7);
  };
  HealthConfig c = tight_config();
  EXPECT_NO_THROW(make(c));
  c.probe_interval = 0.0;
  EXPECT_THROW(make(c), std::invalid_argument);
  c = tight_config();
  c.quarantine_after = c.suspect_after;  // must be strictly greater
  EXPECT_THROW(make(c), std::invalid_argument);
  c = tight_config();
  c.suspect_after = 0;
  EXPECT_THROW(make(c), std::invalid_argument);
  c = tight_config();
  c.probation_successes = 0;
  EXPECT_THROW(make(c), std::invalid_argument);
  c = tight_config();
  c.jitter = 1.0;
  EXPECT_THROW(make(c), std::invalid_argument);
  c = tight_config();
  c.backoff_max = 0.5;  // below reprobe_backoff
  EXPECT_THROW(make(c), std::invalid_argument);
  EXPECT_THROW(HealthMonitor(g, brokers, plane, tight_config(), 99, 7),
               std::invalid_argument);
}

TEST(HealthMonitorTest, ChooseVantagePicksHighestDegreeBroker) {
  const auto g = make_star(6);  // center 0 has degree 5, leaves degree 1
  EXPECT_EQ(HealthMonitor::choose_vantage(g, BrokerSet(6, std::vector<NodeId>{3, 0})),
            0u);
  EXPECT_EQ(HealthMonitor::choose_vantage(g, BrokerSet(6, std::vector<NodeId>{3, 4})),
            3u);  // tie on degree: first member wins
  EXPECT_THROW((void)HealthMonitor::choose_vantage(g, BrokerSet(6)),
               std::invalid_argument);
}

TEST(HealthMonitorTest, AllHealthyProducesNoTransitions) {
  const auto g = make_complete(6);
  const BrokerSet brokers(6, std::vector<NodeId>{0, 1, 2});
  const FaultPlane plane(g);
  HealthMonitor monitor(g, brokers, plane, tight_config(), 0, 7);
  monitor.advance(50.0);
  EXPECT_TRUE(monitor.transitions().empty());
  EXPECT_EQ(monitor.views().size(), 1u);  // only the initial all-healthy view
  EXPECT_EQ(monitor.routable_count(), 3u);
  EXPECT_EQ(monitor.quarantines(), 0u);
  EXPECT_EQ(monitor.probe_rounds(), 50u);
}

TEST(HealthMonitorTest, DeadBrokerWalksThroughSuspectToQuarantine) {
  const auto g = make_complete(6);
  const BrokerSet brokers(6, std::vector<NodeId>{0, 1, 2});
  FaultPlane plane(g);
  HealthMonitor monitor(g, brokers, plane, tight_config(), 0, 7);
  plane.fail_vertex(2);
  monitor.advance(10.0);

  ASSERT_EQ(monitor.transitions().size(), 2u);
  const auto transitions = monitor.transitions();
  EXPECT_EQ(transitions[0].broker, 2u);
  EXPECT_EQ(transitions[0].from, HealthState::kHealthy);
  EXPECT_EQ(transitions[0].to, HealthState::kSuspect);
  EXPECT_DOUBLE_EQ(transitions[0].time, 1.0);  // first missed probe
  EXPECT_EQ(transitions[1].from, HealthState::kSuspect);
  EXPECT_EQ(transitions[1].to, HealthState::kQuarantined);
  EXPECT_DOUBLE_EQ(transitions[1].time, 2.0);  // quarantine_after = 2
  EXPECT_EQ(monitor.state_of(2), HealthState::kQuarantined);
  EXPECT_EQ(monitor.quarantines(), 1u);
  EXPECT_EQ(monitor.false_quarantines(), 0u);  // it really is dead
  EXPECT_EQ(monitor.routable_count(), 2u);
  expect_all_transitions_legal(transitions);
}

TEST(HealthMonitorTest, UnreachableBrokerIsFalseQuarantine) {
  // Path 0-1-2-3, brokers {0,1,3}, vantage 0. Failing vertex 2 (a
  // non-broker) cuts 3 off from the vantage: 3 is up but unprobeable.
  const auto g = make_path(4);
  const BrokerSet brokers(4, std::vector<NodeId>{0, 1, 3});
  FaultPlane plane(g);
  HealthMonitor monitor(g, brokers, plane, tight_config(), 0, 7);
  plane.fail_vertex(2);
  monitor.advance(10.0);
  EXPECT_EQ(monitor.state_of(2), HealthState::kQuarantined);  // member index of 3
  EXPECT_EQ(monitor.quarantines(), 1u);
  EXPECT_EQ(monitor.false_quarantines(), 1u);  // vertex 3 itself is fine
}

TEST(HealthMonitorTest, RecoveryGoesThroughProbation) {
  const auto g = make_complete(6);
  const BrokerSet brokers(6, std::vector<NodeId>{0, 1, 2});
  FaultPlane plane(g);
  HealthMonitor monitor(g, brokers, plane, tight_config(), 0, 7);
  plane.fail_vertex(2);
  monitor.advance(3.0);  // quarantined at t=2, first reprobe due t=4
  plane.heal_vertex(2);
  monitor.advance(10.0);

  // Reprobe at t=4 succeeds -> probation; rounds at t=5,6 succeed -> healthy.
  EXPECT_EQ(monitor.state_of(2), HealthState::kHealthy);
  const auto transitions = monitor.transitions();
  ASSERT_EQ(transitions.size(), 4u);
  EXPECT_EQ(transitions[2].to, HealthState::kProbation);
  EXPECT_DOUBLE_EQ(transitions[2].time, 4.0);
  EXPECT_EQ(transitions[3].to, HealthState::kHealthy);
  EXPECT_DOUBLE_EQ(transitions[3].time, 6.0);  // probation_successes = 2
  expect_all_transitions_legal(transitions);
}

TEST(HealthMonitorTest, FlapperQuarantinedWithinHysteresisWindow) {
  const auto g = make_complete(6);
  const BrokerSet brokers(6, std::vector<NodeId>{0, 1, 2});
  FaultPlane plane(g);
  HealthMonitor monitor(g, brokers, plane, tight_config(), 0, 7);

  plane.fail_vertex(2);
  monitor.advance(3.0);  // H -> S (t=1) -> Q (t=2); reprobe due t=4
  plane.heal_vertex(2);
  monitor.advance(4.0);  // reprobe ok: Q -> P at t=4
  ASSERT_EQ(monitor.state_of(2), HealthState::kProbation);
  plane.fail_vertex(2);  // flap back down before the next probe round
  monitor.advance(5.0);

  // The very next probe round (one interval — the hysteresis window) sends
  // the flapper straight back to quarantine, one backoff level deeper.
  EXPECT_EQ(monitor.state_of(2), HealthState::kQuarantined);
  const auto transitions = monitor.transitions();
  EXPECT_EQ(transitions.back().from, HealthState::kProbation);
  EXPECT_EQ(transitions.back().to, HealthState::kQuarantined);
  EXPECT_DOUBLE_EQ(transitions.back().time, 5.0);
  expect_all_transitions_legal(transitions);

  // Deeper backoff: the re-probe now waits reprobe_backoff * factor = 4
  // time units (was 2 on first quarantine) — flappers are suppressed longer.
  EXPECT_DOUBLE_EQ(monitor.next_event_time(), 6.0);  // next round, not reprobe
  plane.heal_vertex(2);
  monitor.advance(8.9);  // reprobe due at 5 + 4 = 9, not earlier
  EXPECT_EQ(monitor.state_of(2), HealthState::kQuarantined);
  monitor.advance(9.0);
  EXPECT_EQ(monitor.state_of(2), HealthState::kProbation);
}

TEST(HealthMonitorTest, NeverJumpsHealthyToQuarantined) {
  // Randomized fail/heal storm: assert every transition ever made is a
  // legal single step — in particular no kHealthy -> kQuarantined jump.
  const auto g = make_connected_random(40, 0.1, 11);
  std::vector<NodeId> members;
  for (NodeId v = 0; v < 10; ++v) members.push_back(v);
  const BrokerSet brokers(40, members);
  FaultPlane plane(g);
  HealthConfig config = tight_config();
  config.jitter = 0.2;
  HealthMonitor monitor(g, brokers, plane, config,
                        HealthMonitor::choose_vantage(g, brokers), 13);
  Rng rng(17);
  double now = 0.0;
  for (int step = 0; step < 200; ++step) {
    now += rng.exponential(2.0);
    const NodeId v = members[rng.uniform(members.size())];
    if (plane.vertex_ok(v)) {
      plane.fail_vertex(v);
    } else {
      plane.heal_vertex(v);
    }
    monitor.advance(now);
  }
  EXPECT_GT(monitor.transitions().size(), 0u);
  expect_all_transitions_legal(monitor.transitions());
  // Views are versioned consecutively and published in time order.
  const auto views = monitor.views();
  for (std::size_t i = 0; i < views.size(); ++i) {
    EXPECT_EQ(views[i].version, i);
    if (i > 0) {
      EXPECT_GE(views[i].published_at, views[i - 1].published_at);
    }
  }
}

TEST(HealthMonitorTest, ViewPropagationDelay) {
  const auto g = make_complete(6);
  const BrokerSet brokers(6, std::vector<NodeId>{0, 1, 2});
  FaultPlane plane(g);
  HealthMonitor monitor(g, brokers, plane, tight_config(), 0, 7);
  plane.fail_vertex(2);
  monitor.advance(1.0);  // H -> S published at t=1

  ASSERT_EQ(monitor.views().size(), 2u);
  // Before the propagation delay elapses consumers still see version 0.
  EXPECT_EQ(monitor.view_at(1.4).version, 0u);
  EXPECT_EQ(monitor.view_at(1.5).version, 1u);
  EXPECT_TRUE(monitor.view_at(1.4).routable_broker(2));
  EXPECT_FALSE(monitor.view_at(1.5).routable_broker(2));  // suspect: shunned
}

TEST(HealthMonitorTest, AddBrokerAnnouncedImmediately) {
  const auto g = make_complete(6);
  BrokerSet brokers(6, std::vector<NodeId>{0, 1});
  const FaultPlane plane(g);
  HealthMonitor monitor(g, brokers, plane, tight_config(), 0, 7);
  monitor.advance(5.0);
  brokers.add(4);
  monitor.add_broker(4, 5.0);
  EXPECT_EQ(monitor.members().size(), 3u);
  EXPECT_TRUE(monitor.latest_view().routable_broker(4));
  EXPECT_EQ(monitor.latest_view().published_at, 5.0);
  monitor.advance(20.0);  // the recruit is probed like everyone else
  EXPECT_EQ(monitor.state_of(2), HealthState::kHealthy);
}

TEST(HealthMonitorTest, IdenticalViewSequencesAcrossThreadCounts) {
  const auto g = make_connected_random(60, 0.08, 3);
  std::vector<NodeId> members;
  for (NodeId v = 0; v < 12; ++v) members.push_back(v);
  const BrokerSet brokers(60, members);
  HealthConfig config = tight_config();
  config.jitter = 0.3;

  const auto run = [&]() {
    FaultPlane plane(g);
    HealthMonitor monitor(g, brokers, plane, config,
                          HealthMonitor::choose_vantage(g, brokers), 99);
    Rng rng(5);
    double now = 0.0;
    for (int step = 0; step < 60; ++step) {
      now += rng.exponential(1.5);
      const NodeId v = members[rng.uniform(members.size())];
      if (plane.vertex_ok(v)) {
        plane.fail_vertex(v);
      } else {
        plane.heal_vertex(v);
      }
      monitor.advance(now);
    }
    std::vector<HealthView> views(monitor.views().begin(), monitor.views().end());
    return views;
  };

  const int saved = bsr::graph::engine::num_threads();
  bsr::graph::engine::set_num_threads(1);
  const auto serial = run();
  bsr::graph::engine::set_num_threads(4);
  const auto parallel = run();
  bsr::graph::engine::set_num_threads(saved);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].version, parallel[i].version);
    EXPECT_EQ(serial[i].published_at, parallel[i].published_at);  // bit-identical
    EXPECT_EQ(serial[i].states, parallel[i].states);
    EXPECT_EQ(serial[i].routable, parallel[i].routable);
  }
}

// --- stale-view routing ------------------------------------------------------

TEST(HealthRoutingTest, OutcomesMatchBeliefVsTruth) {
  // Path 0-1-2-3-4 with the single broker 2: edges (1,2) and (2,3) are
  // dominated only through 2, so shunning it really severs the believed
  // plane for the pair 1 -> 3 (a broker removed from the routable set can
  // still be *traversed* if routable neighbors dominate its edges — which
  // is why a sole dominator is needed here).
  const auto g = make_path(5);
  const BrokerSet brokers(5, std::vector<NodeId>{2});
  FaultPlane plane(g);
  bsr::sim::Router router(g, brokers, &plane);

  HealthView view;  // hand-built stale view
  view.routable.assign(5, false);
  view.routable[2] = true;
  router.set_health_view(&view);

  // Accurate all-healthy view, no faults: ok.
  EXPECT_EQ(router.route_with_health(1, 3).outcome, HealthOutcome::kOk);

  // Broker 2 dies but the view still believes in it: misrouted.
  plane.fail_vertex(2);
  const auto misrouted = router.route_with_health(1, 3);
  EXPECT_EQ(misrouted.outcome, HealthOutcome::kMisrouted);
  EXPECT_GT(misrouted.dead_hops, 0u);

  // View catches up (2 unroutable) but 2 actually healed: the stale view
  // now *shuns* real capacity.
  plane.heal_vertex(2);
  view.routable[2] = false;
  EXPECT_EQ(router.route_with_health(1, 3).outcome, HealthOutcome::kShunned);

  // Truth and belief both dead: unreachable.
  plane.fail_vertex(2);
  EXPECT_EQ(router.route_with_health(1, 3).outcome, HealthOutcome::kUnreachable);

  // Trivial pair short-circuits.
  EXPECT_EQ(router.route_with_health(3, 3).outcome, HealthOutcome::kOk);
}

TEST(HealthRoutingTest, SampleSharesAreConsistent) {
  const auto g = make_connected_random(50, 0.1, 23);
  std::vector<NodeId> members;
  for (NodeId v = 0; v < 10; ++v) members.push_back(v);
  const BrokerSet brokers(50, members);
  FaultPlane plane(g);
  plane.fail_vertex(3);
  bsr::sim::Router router(g, brokers, &plane);
  HealthView view;
  view.routable.assign(50, false);
  for (const NodeId v : members) view.routable[v] = true;  // stale: all healthy
  router.set_health_view(&view);

  Rng rng(31);
  const auto shares = bsr::sim::sample_health_shares(router, rng, 300);
  EXPECT_EQ(shares.pairs, 300u);
  EXPECT_EQ(shares.ok + shares.misrouted + shares.shunned + shares.unreachable,
            shares.pairs);
  EXPECT_DOUBLE_EQ(shares.fraction(shares.ok) + shares.fraction(shares.misrouted) +
                       shares.fraction(shares.shunned) +
                       shares.fraction(shares.unreachable),
                   1.0);
}

TEST(HealthRoutingTest, LhopConnectivityBounds) {
  const auto g = make_complete(8);
  const BrokerSet all(8, std::vector<NodeId>{0, 1, 2, 3, 4, 5, 6, 7});
  Rng rng_a(1), rng_b(1), rng_c(1);
  // Every vertex a broker on K_8: every pair within one hop.
  EXPECT_DOUBLE_EQ(bsr::sim::lhop_connectivity(g, all.mask(), nullptr, 1, rng_a, 8),
                   1.0);
  // No usable brokers: nothing admissible.
  EXPECT_DOUBLE_EQ(
      bsr::sim::lhop_connectivity(g, std::vector<bool>(8, false), nullptr, 1, rng_b, 8),
      0.0);
  // Believed plane can never beat the oracle plane it is a subset of.
  const FaultPlane plane(g);
  std::vector<bool> subset = all.mask();
  subset[0] = subset[1] = false;
  EXPECT_LE(bsr::sim::lhop_connectivity(g, subset, &plane, 1, rng_c, 8), 1.0);
}

// --- repair scheduler --------------------------------------------------------

TEST(RetrySchedulerTest, RepairPolicyBacksOffAndGivesUp) {
  RepairPolicy policy;
  policy.retry_backoff = 4.0;
  policy.retry_factor = 2.0;
  policy.retry_max = 32.0;
  policy.max_retries = 2;
  RetryScheduler scheduler(policy);
  EXPECT_TRUE(std::isinf(scheduler.next_due()));

  scheduler.request(10.0);
  EXPECT_DOUBLE_EQ(scheduler.next_due(), 14.0);
  scheduler.request(12.0);  // already armed: no re-arm
  EXPECT_DOUBLE_EQ(scheduler.next_due(), 14.0);

  ASSERT_TRUE(scheduler.begin());
  scheduler.report(14.0, false);  // failure: retry with deeper backoff
  EXPECT_DOUBLE_EQ(scheduler.next_due(), 14.0 + 8.0);
  ASSERT_TRUE(scheduler.begin());
  scheduler.report(22.0, false);
  EXPECT_DOUBLE_EQ(scheduler.next_due(), 22.0 + 16.0);
  ASSERT_TRUE(scheduler.begin());
  scheduler.report(38.0, false);  // third consecutive failure > max_retries: give up
  EXPECT_TRUE(std::isinf(scheduler.next_due()));
  EXPECT_EQ(scheduler.starts(), 3u);
  EXPECT_EQ(scheduler.failures(), 3u);

  scheduler.request(50.0);  // a new quarantine re-arms it
  EXPECT_DOUBLE_EQ(scheduler.next_due(), 54.0);
  ASSERT_TRUE(scheduler.begin());
  scheduler.report(54.0, true);  // success clears the pending attempt
  EXPECT_TRUE(std::isinf(scheduler.next_due()));
  EXPECT_EQ(scheduler.failures(), 3u);
}

// --- health-aware churn loop -------------------------------------------------

struct ChurnFixture {
  bsr::graph::CsrGraph g = make_connected_random(120, 0.05, 42);
  BrokerSet brokers;
  std::vector<bsr::graph::FailureGroup> groups;

  ChurnFixture() {
    std::vector<NodeId> members;
    for (NodeId v = 0; v < 20; ++v) members.push_back(v);
    brokers = BrokerSet(120, members);
    for (NodeId v = 0; v < 6; ++v) {
      groups.push_back(bsr::graph::incident_group(g, v));
    }
  }

  HealthChurnResult run(double probe_interval, std::uint64_t seed = 77) const {
    HealthChurnConfig churn;
    churn.departure_rate = 0.6;
    churn.mean_return_time = 10.0;
    churn.horizon = 80.0;
    bsr::sim::LinkChurnConfig link;
    link.outage_rate = 0.1;
    link.mean_downtime = 5.0;
    HealthConfig health = tight_config();
    health.probe_interval = probe_interval;
    RepairPolicy repair;
    repair.budget = 2;
    Rng rng(seed);
    return bsr::sim::simulate_churn_with_health(g, brokers, churn, link, groups,
                                                health, repair, rng);
  }
};

TEST(HealthChurnTest, ValidatesInputs) {
  const ChurnFixture fx;
  HealthChurnConfig churn;
  churn.horizon = 0.0;
  Rng rng(1);
  EXPECT_THROW(bsr::sim::simulate_churn_with_health(
                   fx.g, fx.brokers, churn, {}, {}, tight_config(), {}, rng),
               std::invalid_argument);
  EXPECT_THROW(bsr::sim::simulate_churn_with_health(fx.g, BrokerSet(120),
                                                    HealthChurnConfig{}, {}, {},
                                                    tight_config(), {}, rng),
               std::invalid_argument);
  bsr::sim::LinkChurnConfig link;
  link.outage_rate = 1.0;  // link churn without groups
  EXPECT_THROW(
      bsr::sim::simulate_churn_with_health(fx.g, fx.brokers, HealthChurnConfig{},
                                           link, {}, tight_config(), {}, rng),
      std::invalid_argument);
}

TEST(HealthChurnTest, InterleavesAllEventKinds) {
  const ChurnFixture fx;
  const auto result = fx.run(1.0);
  EXPECT_GT(result.departures, 0u);
  EXPECT_GT(result.returns, 0u);
  EXPECT_GT(result.link_outages, 0u);
  EXPECT_GT(result.probe_rounds, 0u);
  EXPECT_GT(result.quarantines, 0u);
  EXPECT_GT(result.views_published, 1u);
  EXPECT_FALSE(result.detection_latencies.empty());
  EXPECT_GT(result.mean_detection_latency(), 0.0);
  EXPECT_GT(result.repair_attempts, 0u);
  EXPECT_GE(result.mean_oracle_connectivity, result.mean_believed_connectivity - 1e-9);
  EXPECT_GT(result.dead_routable_time, 0.0);
  expect_all_transitions_legal(result.transitions);
}

TEST(HealthChurnTest, DeterministicInSeed) {
  const ChurnFixture fx;
  const auto a = fx.run(1.0, 123);
  const auto b = fx.run(1.0, 123);
  EXPECT_EQ(a.departures, b.departures);
  EXPECT_EQ(a.quarantines, b.quarantines);
  EXPECT_EQ(a.detection_latencies, b.detection_latencies);
  EXPECT_EQ(a.dead_routable_time, b.dead_routable_time);
  EXPECT_EQ(a.mean_believed_connectivity, b.mean_believed_connectivity);
  ASSERT_EQ(a.transitions.size(), b.transitions.size());
  for (std::size_t i = 0; i < a.transitions.size(); ++i) {
    EXPECT_EQ(a.transitions[i].time, b.transitions[i].time);
    EXPECT_EQ(a.transitions[i].broker, b.transitions[i].broker);
    EXPECT_EQ(a.transitions[i].to, b.transitions[i].to);
  }
  const auto c = fx.run(1.0, 124);
  EXPECT_NE(a.transitions.size(), c.transitions.size());
}

TEST(HealthChurnTest, BitIdenticalAcrossThreadCounts) {
  const ChurnFixture fx;
  const int saved = bsr::graph::engine::num_threads();
  bsr::graph::engine::set_num_threads(1);
  const auto serial = fx.run(0.5);
  bsr::graph::engine::set_num_threads(4);
  const auto parallel = fx.run(0.5);
  bsr::graph::engine::set_num_threads(saved);

  EXPECT_EQ(serial.detection_latencies, parallel.detection_latencies);
  EXPECT_EQ(serial.dead_routable_time, parallel.dead_routable_time);
  EXPECT_EQ(serial.shunned_up_time, parallel.shunned_up_time);
  EXPECT_EQ(serial.mean_oracle_connectivity, parallel.mean_oracle_connectivity);
  EXPECT_EQ(serial.mean_believed_connectivity, parallel.mean_believed_connectivity);
  EXPECT_EQ(serial.quarantines, parallel.quarantines);
  EXPECT_EQ(serial.replacements_added, parallel.replacements_added);
  ASSERT_EQ(serial.transitions.size(), parallel.transitions.size());
  for (std::size_t i = 0; i < serial.transitions.size(); ++i) {
    EXPECT_EQ(serial.transitions[i].time, parallel.transitions[i].time);
    EXPECT_EQ(serial.transitions[i].broker, parallel.transitions[i].broker);
  }
}

TEST(HealthChurnTest, MisroutingExposureShrinksWithFasterProbing) {
  // The acceptance criterion: on the identical fault timeline (the timeline
  // is drawn before any probe-dependent draw), halving the probe interval
  // nests the probe grid, so a dead broker can only be detected earlier and
  // the dead-but-believed-routable integral is monotonically non-increasing.
  const ChurnFixture fx;
  double prev = std::numeric_limits<double>::infinity();
  for (const double interval : {4.0, 2.0, 1.0, 0.5}) {
    const auto result = fx.run(interval);
    EXPECT_LE(result.dead_routable_time, prev + 1e-9)
        << "exposure grew when probe interval shrank to " << interval;
    prev = result.dead_routable_time;
  }
}

TEST(HealthChurnTest, ClassifiesDeparturesAndTracksExposure) {
  const ChurnFixture fx;
  const auto result = fx.run(1.0);
  // Every broker departure that actually took the vertex down is classified
  // exactly once as absorbed (oracle pair count held) or exposed (pairs were
  // severed); departures of already-down vertices are unclassifiable.
  EXPECT_GT(result.absorbed_departures + result.exposed_departures, 0u);
  EXPECT_LE(result.absorbed_departures + result.exposed_departures,
            result.departures);
  EXPECT_GE(result.misrouting_pair_exposure, 0.0);
  // Exposure integrates promised-minus-realized connectivity, so with
  // exposed departures present it must register.
  if (result.exposed_departures > 0) {
    EXPECT_GT(result.misrouting_pair_exposure, 0.0);
  }
  for (const double t : result.recovery_times) EXPECT_GE(t, 0.0);
  if (result.recovery_times.empty()) {
    EXPECT_EQ(result.mean_time_to_recover(), 0.0);
  } else {
    EXPECT_GT(result.mean_time_to_recover(), 0.0);
  }
}

TEST(HealthChurnTest, AbsorbedDepartureOnRedundantSelection) {
  // Complete graph, two brokers: either one alone still dominates every
  // surviving vertex, so the *first* departure severs no third-party pairs —
  // it must be absorbed. Only a second departure (no brokers left) can
  // expose pairs, so at most one departure is ever exposed.
  const auto g = bsr::test::make_complete(8);
  BrokerSet b(8);
  b.add(0);
  b.add(1);
  HealthChurnConfig churn;
  churn.departure_rate = 0.3;
  churn.mean_return_time = 0.0;  // the dead stay dead
  churn.horizon = 30.0;
  Rng rng(5);
  const auto result = bsr::sim::simulate_churn_with_health(
      g, b, churn, {}, {}, tight_config(), {}, rng);
  ASSERT_GT(result.departures, 0u);
  EXPECT_EQ(result.absorbed_departures, 1u);
  EXPECT_LE(result.exposed_departures, 1u);
  if (result.exposed_departures == 0) {
    EXPECT_EQ(result.misrouting_pair_exposure, 0.0);
  }
}

TEST(HealthChurnTest, NewMetricsBitIdenticalAcrossThreadCounts) {
  const ChurnFixture fx;
  const int saved = bsr::graph::engine::num_threads();
  bsr::graph::engine::set_num_threads(1);
  const auto serial = fx.run(0.5);
  bsr::graph::engine::set_num_threads(4);
  const auto parallel = fx.run(0.5);
  bsr::graph::engine::set_num_threads(saved);
  EXPECT_EQ(serial.absorbed_departures, parallel.absorbed_departures);
  EXPECT_EQ(serial.exposed_departures, parallel.exposed_departures);
  EXPECT_EQ(serial.misrouting_pair_exposure, parallel.misrouting_pair_exposure);
  EXPECT_EQ(serial.recovery_times, parallel.recovery_times);
}

TEST(HealthChurnTest, RepairRecruitsOnPermanentDepartures) {
  const ChurnFixture fx;
  HealthChurnConfig churn;
  churn.departure_rate = 0.5;
  churn.mean_return_time = 0.0;  // the dead stay dead: repair must act
  churn.horizon = 60.0;
  RepairPolicy repair;
  repair.budget = 3;
  Rng rng(9);
  const auto result = bsr::sim::simulate_churn_with_health(
      fx.g, fx.brokers, churn, {}, {}, tight_config(), repair, rng);
  EXPECT_EQ(result.returns, 0u);
  EXPECT_GT(result.repair_attempts, 0u);
  EXPECT_GT(result.replacements_added, 0u);
}

}  // namespace
