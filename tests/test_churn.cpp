#include "sim/churn.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "broker/dominated.hpp"
#include "broker/maxsg.hpp"
#include "obs/journal.hpp"
#include "test_util.hpp"

namespace bsr::sim {
namespace {

using bsr::broker::BrokerSet;
using bsr::graph::CsrGraph;
using bsr::graph::Rng;
using bsr::test::make_connected_random;

TEST(Churn, EventsAreTimeOrderedWithinHorizon) {
  const CsrGraph g = make_connected_random(60, 0.08, 1);
  const auto brokers = bsr::broker::maxsg(g, 12).brokers;
  Rng rng(2);
  ChurnConfig config;
  config.horizon = 50.0;
  const auto result = simulate_churn(g, brokers, config, rng);
  double prev = 0.0;
  for (const auto& event : result.events) {
    EXPECT_GE(event.time, prev);
    EXPECT_LE(event.time, config.horizon);
    prev = event.time;
  }
}

TEST(Churn, CountsMatchEvents) {
  const CsrGraph g = make_connected_random(60, 0.08, 3);
  const auto brokers = bsr::broker::maxsg(g, 12).brokers;
  Rng rng(4);
  const auto result = simulate_churn(g, brokers, {}, rng);
  std::size_t departures = 0, repairs = 0;
  for (const auto& event : result.events) {
    if (event.kind == ChurnEvent::Kind::kDeparture) ++departures;
    else ++repairs;
  }
  EXPECT_EQ(departures, result.departures);
  EXPECT_EQ(repairs, result.repairs);
  EXPECT_GT(result.departures, 0u);
  EXPECT_GT(result.repairs, 0u);
}

TEST(Churn, MinNeverAboveMean) {
  const CsrGraph g = make_connected_random(60, 0.08, 5);
  const auto brokers = bsr::broker::maxsg(g, 12).brokers;
  Rng rng(6);
  const auto result = simulate_churn(g, brokers, {}, rng);
  EXPECT_LE(result.min_connectivity, result.mean_connectivity + 1e-12);
  EXPECT_GE(result.min_connectivity, 0.0);
  EXPECT_LE(result.mean_connectivity, 1.0);
}

TEST(Churn, RepairsKeepConnectivityUp) {
  const CsrGraph g = make_connected_random(80, 0.07, 7);
  const auto brokers = bsr::broker::maxsg(g, 16).brokers;
  const double baseline = bsr::broker::saturated_connectivity(g, brokers);

  ChurnConfig with_repairs;
  with_repairs.departure_rate = 0.5;
  with_repairs.repair_interval = 5.0;
  with_repairs.repair_budget = 4;
  with_repairs.horizon = 80.0;
  ChurnConfig no_repairs = with_repairs;
  no_repairs.repair_budget = 0;

  Rng rng_a(8), rng_b(8);
  const auto repaired = simulate_churn(g, brokers, with_repairs, rng_a);
  const auto decayed = simulate_churn(g, brokers, no_repairs, rng_b);
  EXPECT_GT(repaired.mean_connectivity, decayed.mean_connectivity);
  EXPECT_GT(repaired.replacements_added, 0u);
  EXPECT_EQ(decayed.replacements_added, 0u);
  EXPECT_LE(repaired.mean_connectivity, baseline + 0.05);
}

TEST(Churn, DeterministicInSeed) {
  const CsrGraph g = make_connected_random(50, 0.08, 9);
  const auto brokers = bsr::broker::maxsg(g, 10).brokers;
  Rng a(11), b(11);
  const auto r1 = simulate_churn(g, brokers, {}, a);
  const auto r2 = simulate_churn(g, brokers, {}, b);
  EXPECT_EQ(r1.events.size(), r2.events.size());
  EXPECT_DOUBLE_EQ(r1.mean_connectivity, r2.mean_connectivity);
}

TEST(Churn, RejectsBadConfig) {
  const CsrGraph g = make_connected_random(20, 0.2, 10);
  BrokerSet b(g.num_vertices());
  Rng rng(12);
  ChurnConfig bad;
  bad.departure_rate = 0.0;
  EXPECT_THROW(simulate_churn(g, b, bad, rng), std::invalid_argument);
  bad = ChurnConfig{};
  bad.horizon = -1.0;
  EXPECT_THROW(simulate_churn(g, b, bad, rng), std::invalid_argument);
}

TEST(Churn, HorizonShorterThanRepairIntervalNeverRepairs) {
  const CsrGraph g = make_connected_random(50, 0.08, 13);
  const auto brokers = bsr::broker::maxsg(g, 10).brokers;
  Rng rng(14);
  ChurnConfig config;
  config.departure_rate = 2.0;
  config.repair_interval = 10.0;
  config.repair_budget = 4;
  config.horizon = 5.0;  // first repair would land at t = 10 > horizon
  const auto result = simulate_churn(g, brokers, config, rng);
  EXPECT_EQ(result.repairs, 0u);
  EXPECT_EQ(result.replacements_added, 0u);
  for (const auto& event : result.events) {
    EXPECT_NE(event.kind, ChurnEvent::Kind::kRepair);
    EXPECT_LE(event.time, config.horizon);
  }
}

TEST(Churn, RecordedRunJournalsExactlyItsDeparturesAndRecruits) {
  // Replays the journal onto the initial set: each departure must name a
  // current member and each repair event a new one, and after every churn
  // event the replayed set must have the event's size and connectivity.
  if (!BSR_STATS_ENABLED) GTEST_SKIP() << "built with BSR_STATS=OFF";
  const CsrGraph g = make_connected_random(80, 0.07, 23);
  const auto brokers = bsr::broker::maxsg(g, 16).brokers;
  ChurnConfig config;
  config.departure_rate = 1.5;
  config.repair_interval = 4.0;
  config.repair_budget = 3;
  config.horizon = 40.0;
  Rng rng(24);
  bsr::obs::start_recording();
  const auto result = simulate_churn(g, brokers, config, rng);
  const bsr::obs::Journal journal = bsr::obs::snapshot_journal();
  bsr::obs::stop_recording();
  ASSERT_EQ(journal.dropped, 0u);
  ASSERT_GT(result.departures, 0u);
  ASSERT_GT(result.replacements_added, 0u);

  const bsr::graph::NodeId n = g.num_vertices();
  std::vector<bool> live(n, false);
  for (const bsr::graph::NodeId m : brokers.members()) live[m] = true;
  std::size_t departures = 0, recruits = 0;
  for (const ChurnEvent& event : result.events) {
    for (const bsr::obs::EventRecord& r : journal.events) {
      if (r.time != event.time) continue;
      if (r.type == bsr::obs::Event::kChurnDeparture) {
        ASSERT_EQ(event.kind, ChurnEvent::Kind::kDeparture);
        ASSERT_TRUE(live[r.subject]) << "departed " << r.subject;
        live[r.subject] = false;
        ++departures;
      } else if (r.type == bsr::obs::Event::kChurnRepair) {
        ASSERT_EQ(event.kind, ChurnEvent::Kind::kRepair);
        ASSERT_FALSE(live[r.subject]) << "recruited " << r.subject;
        live[r.subject] = true;
        ++recruits;
      }
    }
    std::vector<bsr::graph::NodeId> members;
    for (bsr::graph::NodeId v = 0; v < n; ++v) {
      if (live[v]) members.push_back(v);
    }
    ASSERT_EQ(members.size(), event.brokers_after) << "at t=" << event.time;
    EXPECT_DOUBLE_EQ(bsr::broker::saturated_connectivity(g, BrokerSet(n, members)),
                     event.connectivity_after)
        << "at t=" << event.time;
  }
  EXPECT_EQ(departures, result.departures);
  EXPECT_EQ(recruits, result.replacements_added);
}

TEST(LinkChurn, RecordsOutagesAndHeals) {
  const CsrGraph g = make_connected_random(60, 0.08, 15);
  const auto brokers = bsr::broker::maxsg(g, 12).brokers;
  std::vector<bsr::graph::FailureGroup> groups;
  for (bsr::graph::NodeId v = 0; v < 6; ++v) {
    groups.push_back(bsr::graph::incident_group(g, v));
  }
  ChurnConfig config;
  config.departure_rate = 0.2;
  config.horizon = 60.0;
  LinkChurnConfig link;
  link.outage_rate = 0.5;
  link.mean_downtime = 4.0;
  Rng rng(16);
  const auto result = simulate_churn(g, brokers, config, link, groups, rng);

  EXPECT_GT(result.link_outages, 0u);
  EXPECT_LE(result.link_heals, result.link_outages);
  std::size_t outages = 0, heals = 0;
  double prev = 0.0;
  for (const auto& event : result.events) {
    EXPECT_GE(event.time, prev);
    prev = event.time;
    if (event.kind == ChurnEvent::Kind::kLinkOutage) {
      ++outages;
      EXPECT_GT(event.failed_edges_after, 0u);
    } else if (event.kind == ChurnEvent::Kind::kLinkHeal) {
      ++heals;
    }
  }
  EXPECT_EQ(outages, result.link_outages);
  EXPECT_EQ(heals, result.link_heals);
  EXPECT_LE(result.min_connectivity, result.mean_connectivity + 1e-12);
}

TEST(LinkChurn, ZeroRateMatchesBrokerOnlyChurn) {
  const CsrGraph g = make_connected_random(50, 0.08, 17);
  const auto brokers = bsr::broker::maxsg(g, 10).brokers;
  Rng a(18), b(18);
  const auto legacy = simulate_churn(g, brokers, {}, a);
  const auto unified =
      simulate_churn(g, brokers, {}, LinkChurnConfig{}, {}, b);
  ASSERT_EQ(legacy.events.size(), unified.events.size());
  EXPECT_DOUBLE_EQ(legacy.mean_connectivity, unified.mean_connectivity);
  EXPECT_EQ(unified.link_outages, 0u);
  EXPECT_EQ(unified.link_heals, 0u);
}

TEST(LinkChurn, DeterministicInSeed) {
  const CsrGraph g = make_connected_random(50, 0.08, 19);
  const auto brokers = bsr::broker::maxsg(g, 10).brokers;
  std::vector<bsr::graph::FailureGroup> groups;
  for (bsr::graph::NodeId v = 0; v < 4; ++v) {
    groups.push_back(bsr::graph::incident_group(g, v));
  }
  LinkChurnConfig link;
  link.outage_rate = 0.4;
  Rng a(20), b(20);
  const auto r1 = simulate_churn(g, brokers, {}, link, groups, a);
  const auto r2 = simulate_churn(g, brokers, {}, link, groups, b);
  ASSERT_EQ(r1.events.size(), r2.events.size());
  for (std::size_t i = 0; i < r1.events.size(); ++i) {
    EXPECT_DOUBLE_EQ(r1.events[i].time, r2.events[i].time);
    EXPECT_EQ(r1.events[i].kind, r2.events[i].kind);
    EXPECT_EQ(r1.events[i].failed_edges_after, r2.events[i].failed_edges_after);
  }
}

TEST(LinkChurn, RejectsBadLinkConfig) {
  const CsrGraph g = make_connected_random(20, 0.2, 21);
  const auto brokers = bsr::broker::maxsg(g, 4).brokers;
  Rng rng(22);
  LinkChurnConfig link;
  link.outage_rate = 1.0;
  // Outages enabled but no groups to fail.
  EXPECT_THROW(simulate_churn(g, brokers, {}, link, {}, rng),
               std::invalid_argument);
  std::vector<bsr::graph::FailureGroup> groups{
      bsr::graph::incident_group(g, 0)};
  link.mean_downtime = 0.0;
  EXPECT_THROW(simulate_churn(g, brokers, {}, link, groups, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace bsr::sim
