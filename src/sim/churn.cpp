#include "sim/churn.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>
#include <tuple>

#include "broker/dominated.hpp"
#include "broker/resilience.hpp"
#include "obs/journal.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"
#include "sim/retry_scheduler.hpp"

namespace bsr::sim {

using bsr::broker::BrokerSet;
using bsr::graph::FailureGroup;
using bsr::graph::FaultPlane;
using bsr::graph::NodeId;
using bsr::graph::Rng;

namespace {

constexpr double kNever = std::numeric_limits<double>::infinity();

/// Pending heal, earliest first.
struct Heal {
  double time = 0.0;
  std::size_t group = 0;
  friend bool operator>(const Heal& a, const Heal& b) { return a.time > b.time; }
};

}  // namespace

ChurnResult simulate_churn(const bsr::graph::CsrGraph& g, const BrokerSet& initial,
                           const ChurnConfig& config, Rng& rng) {
  return simulate_churn(g, initial, config, LinkChurnConfig{}, {}, rng);
}

ChurnResult simulate_churn(const bsr::graph::CsrGraph& g, const BrokerSet& initial,
                           const ChurnConfig& config, const LinkChurnConfig& link,
                           std::span<const FailureGroup> groups, Rng& rng) {
  BSR_SPAN("sim.churn");
  if (config.departure_rate <= 0.0 || config.repair_interval <= 0.0 ||
      config.horizon <= 0.0) {
    throw std::invalid_argument("simulate_churn: rates/horizon must be positive");
  }
  const bool link_churn = link.outage_rate > 0.0;
  if (link_churn && (groups.empty() || link.mean_downtime <= 0.0)) {
    throw std::invalid_argument(
        "simulate_churn: link churn needs failure groups and positive downtime");
  }

  ChurnResult result;
  BrokerSet current = initial;
  FaultPlane faults(g);
  std::priority_queue<Heal, std::vector<Heal>, std::greater<Heal>> heals;

  // One persistent evaluator for the whole simulation: `current` and
  // `faults` are held by reference and re-read on rebuild(), so per-event
  // connectivity costs a union-find reset + broker-star sweep with zero
  // allocations.
  bsr::broker::DominatedEvaluator evaluator(g, current, &faults);

  double now = 0.0;
  double next_departure = rng.exponential(config.departure_rate);
  double next_repair = config.repair_interval;
  double next_outage = link_churn ? rng.exponential(link.outage_rate) : kNever;
  double connectivity = evaluator.connectivity();
  result.min_connectivity = connectivity;
  double weighted_sum = 0.0;

  const auto advance_to = [&](double t) {
    weighted_sum += connectivity * (t - now);
    now = t;
    BSR_EVENT_TIME(t);
  };
  const auto record = [&](ChurnEvent::Kind kind) {
    BSR_COUNT(ChurnEvents);
    BSR_COUNT(ChurnConnectivityEvals);
    evaluator.rebuild();
    connectivity = evaluator.connectivity();
    result.events.push_back({now, kind, current.size(), connectivity,
                             faults.num_failed_edges()});
    result.min_connectivity = std::min(result.min_connectivity, connectivity);
  };

  while (true) {
    const double next_heal = heals.empty() ? kNever : heals.top().time;
    const double next_time =
        std::min(std::min(next_departure, next_repair),
                 std::min(next_outage, next_heal));
    if (next_time > config.horizon) {
      advance_to(config.horizon);
      break;
    }
    advance_to(next_time);

    if (next_heal <= next_time) {
      const Heal heal = heals.top();
      heals.pop();
      faults.heal_group(groups[heal.group]);
      ++result.link_heals;
      BSR_EVENT(ChurnLinkHeal, now, groups[heal.group].center, 0);
      record(ChurnEvent::Kind::kLinkHeal);
    } else if (next_outage <= next_time) {
      const auto group = static_cast<std::size_t>(rng.uniform(groups.size()));
      faults.fail_group(groups[group]);
      heals.push({now + rng.exponential(1.0 / link.mean_downtime), group});
      ++result.link_outages;
      BSR_EVENT(ChurnLinkOutage, now, groups[group].center, 0);
      record(ChurnEvent::Kind::kLinkOutage);
      next_outage = now + rng.exponential(link.outage_rate);
    } else if (next_departure <= next_repair) {
      // One uniformly random broker departs (if any remain).
      if (!current.empty()) {
#if BSR_STATS_ENABLED
        // fail_brokers only returns the survivor set; recover the departed
        // vertex by membership diff — but only while the flight recorder is
        // actually on, so the copy never taxes an unrecorded run.
        std::vector<NodeId> prior;
        if (bsr::obs::recording_enabled()) {
          prior.assign(current.members().begin(), current.members().end());
        }
#endif
        current = bsr::broker::fail_brokers(g, current, 1,
                                            bsr::broker::FailureMode::kRandom, rng);
        ++result.departures;
#if BSR_STATS_ENABLED
        for (const NodeId m : prior) {
          if (!current.contains(m)) BSR_EVENT(ChurnDeparture, now, m, 0);
        }
#endif
        record(ChurnEvent::Kind::kDeparture);
      }
      next_departure = now + rng.exponential(config.departure_rate);
    } else {
      const std::size_t before = current.size();
#if BSR_STATS_ENABLED
      std::vector<NodeId> prior;
      if (bsr::obs::recording_enabled()) {
        prior.assign(current.members().begin(), current.members().end());
      }
#endif
      current = bsr::broker::repair_brokers(g, current, config.repair_budget, faults);
      ++result.repairs;
      result.replacements_added += current.size() - before;
#if BSR_STATS_ENABLED
      if (bsr::obs::recording_enabled() && current.size() > before) {
        for (const NodeId m : current.members()) {
          if (std::find(prior.begin(), prior.end(), m) == prior.end()) {
            BSR_EVENT(ChurnRepair, now, m, 0);
          }
        }
      }
#endif
      record(ChurnEvent::Kind::kRepair);
      next_repair = now + config.repair_interval;
    }
  }

  result.mean_connectivity = weighted_sum / config.horizon;
  return result;
}

// --- health-aware churn -----------------------------------------------------

double HealthChurnResult::mean_detection_latency() const noexcept {
  if (detection_latencies.empty()) return 0.0;
  double sum = 0.0;
  for (const double latency : detection_latencies) sum += latency;
  return sum / static_cast<double>(detection_latencies.size());
}

double HealthChurnResult::false_positive_rate() const noexcept {
  return quarantines == 0 ? 0.0
                          : static_cast<double>(false_quarantines) /
                                static_cast<double>(quarantines);
}

double HealthChurnResult::mean_time_to_recover() const noexcept {
  if (recovery_times.empty()) return 0.0;
  double sum = 0.0;
  for (const double t : recovery_times) sum += t;
  return sum / static_cast<double>(recovery_times.size());
}

namespace {

/// Pre-drawn ground-truth event: the physical world's timeline, fixed
/// before the detector runs so health-config sweeps replay identical damage.
struct GroundTruthEvent {
  double time = 0.0;
  enum class Kind : std::uint8_t { kDeparture, kReturn, kOutage, kLinkHeal } kind =
      Kind::kDeparture;
  bsr::graph::NodeId vertex = 0;  // kDeparture / kReturn
  std::size_t group = 0;          // kOutage / kLinkHeal
};

/// An exposed departure awaiting the oracle pair count to climb back to its
/// pre-departure baseline.
struct PendingRecovery {
  double time = 0.0;
  std::uint64_t baseline_pairs = 0;
};

}  // namespace

HealthChurnResult simulate_churn_with_health(
    const bsr::graph::CsrGraph& g, const BrokerSet& initial,
    const HealthChurnConfig& config, const LinkChurnConfig& link,
    std::span<const FailureGroup> groups, const HealthConfig& health,
    const RepairPolicy& repair, Rng& rng) {
  BSR_SPAN("sim.churn.health");
  if (config.horizon <= 0.0 || config.departure_rate < 0.0 ||
      config.mean_return_time < 0.0) {
    throw std::invalid_argument(
        "simulate_churn_with_health: horizon must be positive, rates non-negative");
  }
  if (initial.empty()) {
    throw std::invalid_argument(
        "simulate_churn_with_health: need a non-empty initial broker set");
  }
  const bool link_churn = link.outage_rate > 0.0;
  if (link_churn && (groups.empty() || link.mean_downtime <= 0.0)) {
    throw std::invalid_argument(
        "simulate_churn_with_health: link churn needs failure groups and "
        "positive downtime");
  }

  // Fixed draw order: one forked stream for the whole ground-truth timeline,
  // then one uint64 for probe jitter. Nothing later touches `rng`, so the
  // physical world is a pure function of (seed, rates) — independent of
  // every health/repair knob.
  Rng fault_rng = rng.fork();
  const std::uint64_t jitter_seed = rng();

  std::vector<GroundTruthEvent> timeline;
  if (config.departure_rate > 0.0) {
    double t = fault_rng.exponential(config.departure_rate);
    while (t < config.horizon) {
      const NodeId victim = initial.members()[fault_rng.uniform(initial.size())];
      timeline.push_back({t, GroundTruthEvent::Kind::kDeparture, victim, 0});
      if (config.mean_return_time > 0.0) {
        const double back = t + fault_rng.exponential(1.0 / config.mean_return_time);
        if (back < config.horizon) {
          timeline.push_back({back, GroundTruthEvent::Kind::kReturn, victim, 0});
        }
      }
      t += fault_rng.exponential(config.departure_rate);
    }
  }
  if (link_churn) {
    graph::FlapConfig flaps;
    flaps.outage_rate = link.outage_rate;
    flaps.mean_downtime = link.mean_downtime;
    flaps.horizon = config.horizon;
    for (const graph::FlapEvent& event :
         graph::make_flap_schedule(groups.size(), flaps, fault_rng)) {
      if (event.time >= config.horizon) continue;
      timeline.push_back({event.time,
                          event.kind == graph::FlapEvent::Kind::kFail
                              ? GroundTruthEvent::Kind::kOutage
                              : GroundTruthEvent::Kind::kLinkHeal,
                          0, event.group});
    }
  }
  std::sort(timeline.begin(), timeline.end(),
            [](const GroundTruthEvent& a, const GroundTruthEvent& b) {
              if (a.time != b.time) return a.time < b.time;
              if (a.kind != b.kind) return a.kind < b.kind;
              return std::tie(a.vertex, a.group) < std::tie(b.vertex, b.group);
            });

  const NodeId n = g.num_vertices();
  HealthChurnResult result;
  BrokerSet current = initial;
  FaultPlane plane(g);
  HealthMonitor monitor(g, current, plane, health,
                        HealthMonitor::choose_vantage(g, initial), jitter_seed);
  RetryScheduler scheduler(repair);

  // `believed` mirrors the in-force (delay-lagged) view's routable members;
  // both evaluators read the damaged graph, so the believed number is the
  // connectivity traffic actually gets when routed by belief.
  BrokerSet believed = current;
  bsr::broker::DominatedEvaluator oracle_eval(g, current, &plane);
  bsr::broker::DominatedEvaluator believed_eval(g, believed, &plane);
  // The *promise*: the believed set on the pristine graph. Belief carries no
  // fault knowledge, so this is the connectivity the control plane is
  // implicitly advertising; the believed_eval number is what traffic gets.
  bsr::broker::DominatedEvaluator promised_eval(g, believed, nullptr);

  std::size_t active_view = 0;       // index into monitor.views()
  std::size_t seen_transitions = 0;  // transitions already post-processed
  // Episode of the quarantine that most recently armed the repair scheduler
  // (journal correlation only, hence gated with the stats plane).
  BSR_STATS_ONLY(std::uint64_t repair_episode = 0;)
  std::vector<double> down_since(n, kNever);
  std::vector<bool> credited(n, false);  // this outage episode already timed

  double now = 0.0;
  double oracle_conn = oracle_eval.connectivity();
  double believed_conn = believed_eval.connectivity();
  double promised_conn = promised_eval.connectivity();
  double oracle_weighted = 0.0, believed_weighted = 0.0;
  std::vector<PendingRecovery> pending_recoveries;
  std::size_t recovery_head = 0;  // FIFO drain position
  const auto drain_recoveries = [&]() {
    const std::uint64_t pairs = oracle_eval.uf().connected_pairs();
    while (recovery_head < pending_recoveries.size() &&
           pairs >= pending_recoveries[recovery_head].baseline_pairs) {
      result.recovery_times.push_back(now -
                                      pending_recoveries[recovery_head].time);
      ++recovery_head;
    }
  };

  const auto segment_costs = [&](double dt) {
    // Per-broker belief-vs-truth mismatch, integrated over the segment.
    const HealthView& view = monitor.views()[active_view];
    for (const NodeId m : current.members()) {
      const bool down = !plane.vertex_ok(m);
      const bool routable = view.routable_broker(m);
      if (down && routable) result.dead_routable_time += dt;
      if (!down && !routable) result.shunned_up_time += dt;
    }
  };
  const auto advance_to = [&](double t) {
    const double dt = t - now;
    oracle_weighted += oracle_conn * dt;
    believed_weighted += believed_conn * dt;
    result.misrouting_pair_exposure +=
        std::max(0.0, promised_conn - believed_conn) * dt;
    segment_costs(dt);
    now = t;
    BSR_EVENT_TIME(t);
  };
  const auto rebuild_believed = [&]() {
    BSR_COUNT_N(ChurnConnectivityEvals, 2);
    const HealthView& view = monitor.views()[active_view];
    std::vector<NodeId> routable;
    routable.reserve(current.size());
    for (const NodeId m : current.members()) {
      if (view.routable_broker(m)) routable.push_back(m);
    }
    believed = BrokerSet(n, routable);
    believed_eval.rebuild();
    believed_conn = believed_eval.connectivity();
    promised_eval.rebuild();
    promised_conn = promised_eval.connectivity();
  };

  std::size_t next_fault = 0;
  while (true) {
    const double fault_time =
        next_fault < timeline.size() ? timeline[next_fault].time : kNever;
    const double monitor_time = monitor.next_event_time();
    const double view_time =
        active_view + 1 < monitor.views().size()
            ? monitor.views()[active_view + 1].published_at + health.propagation_delay
            : kNever;
    const double repair_time = scheduler.next_due();
    const double t = std::min(std::min(fault_time, monitor_time),
                              std::min(view_time, repair_time));
    if (t > config.horizon) {
      advance_to(config.horizon);
      break;
    }
    advance_to(t);

    // Fixed priority at equal times: the world changes, then the detector
    // observes, then stale views land, then the operator repairs.
    if (fault_time <= t) {
      BSR_COUNT(ChurnEvents);
      const GroundTruthEvent& event = timeline[next_fault++];
      // Baseline for departure classification: the oracle pair count the
      // world had the instant before this event landed.
      const std::uint64_t prev_pairs = oracle_eval.uf().connected_pairs();
      bool classify_departure = false;
      std::uint64_t inevitable_loss = 0;
      switch (event.kind) {
        case GroundTruthEvent::Kind::kDeparture:
          if (plane.fail_vertex(event.vertex)) {
            down_since[event.vertex] = t;
            credited[event.vertex] = false;
            classify_departure = true;
            // Pairs involving the departed vertex itself are lost no matter
            // how redundant the selection is — the classification below only
            // charges the selection for severing *third-party* pairs.
            inevitable_loss =
                oracle_eval.uf().component_size(event.vertex) - 1;
          }
          ++result.departures;
          BSR_EVENT(ChurnDeparture, t, event.vertex, 0);
          break;
        case GroundTruthEvent::Kind::kReturn:
          if (plane.heal_vertex(event.vertex)) {
            down_since[event.vertex] = kNever;
            credited[event.vertex] = false;
          }
          ++result.returns;
          BSR_EVENT(ChurnReturn, t, event.vertex, 0);
          break;
        case GroundTruthEvent::Kind::kOutage:
          plane.fail_group(groups[event.group]);
          ++result.link_outages;
          BSR_EVENT(ChurnLinkOutage, t, groups[event.group].center, 0);
          break;
        case GroundTruthEvent::Kind::kLinkHeal:
          plane.heal_group(groups[event.group]);
          ++result.link_heals;
          BSR_EVENT(ChurnLinkHeal, t, groups[event.group].center, 0);
          break;
      }
      BSR_COUNT_N(ChurnConnectivityEvals, 2);
      oracle_eval.rebuild();
      oracle_conn = oracle_eval.connectivity();
      believed_eval.rebuild();  // physical edges changed under the same belief
      believed_conn = believed_eval.connectivity();
      if (classify_departure) {
        // Absorbed: every *surviving* pair the coalition served still has a
        // dominating path through the survivors — exactly what an
        // r-redundant selection buys. Exposed: third-party pairs were
        // severed; remember the survivable baseline so the first rebuild
        // that restores it closes the recovery episode.
        const std::uint64_t baseline = prev_pairs - inevitable_loss;
        const std::uint64_t new_pairs = oracle_eval.uf().connected_pairs();
        if (new_pairs >= baseline) {
          ++result.absorbed_departures;
          BSR_EVENT(SelectionRobustAbsorbed, t, event.vertex, 0);
        } else {
          ++result.exposed_departures;
          BSR_EVENT(SelectionRobustExposed, t, event.vertex,
                    baseline - new_pairs);
          pending_recoveries.push_back({t, baseline});
        }
      }
      drain_recoveries();  // a return / link heal may have restored pairs
    } else if (monitor_time <= t) {
      monitor.advance(t);
      const auto transitions = monitor.transitions();
      for (; seen_transitions < transitions.size(); ++seen_transitions) {
        const HealthTransition& tr = transitions[seen_transitions];
        if (tr.to != HealthState::kQuarantined) continue;
        scheduler.request(t);
        // The episode that armed the scheduler; the eventual repair attempt
        // journals under it, closing the probe -> quarantine -> repair chain.
        BSR_STATS_ONLY(repair_episode = tr.episode;)
        BSR_EVENT(RepairRequest, t, tr.broker, tr.episode);
        if (down_since[tr.broker] != kNever && !credited[tr.broker]) {
          result.detection_latencies.push_back(t - down_since[tr.broker]);
          credited[tr.broker] = true;
        }
      }
    } else if (view_time <= t) {
      ++active_view;
      rebuild_believed();
    } else if (scheduler.begin()) {  // repair's start budget is unlimited
      // Repair recruits on the damaged graph, from the brokers the operator
      // *believes* are alive — not from oracle truth.
      const BrokerSet repaired =
          bsr::broker::repair_brokers(g, believed, repair.budget, plane);
      std::uint32_t recruited = 0;
      for (const NodeId m : repaired.members()) {
        if (current.contains(m)) continue;
        current.add(m);
        monitor.add_broker(m, t);
        ++recruited;
        BSR_EVENT(RepairRecruit, t, m, repair_episode);
      }
      BSR_EVENT(RepairAttempt, t, recruited, repair_episode);
      scheduler.report(t, recruited > 0);
      BSR_COUNT(RepairAttempts);
      if (recruited == 0 && scheduler.next_due() != kNever) {
        BSR_COUNT(RepairDeferred);
      }
      result.replacements_added += recruited;
      if (recruited > 0) {
        BSR_COUNT(ChurnConnectivityEvals);
        oracle_eval.rebuild();
        oracle_conn = oracle_eval.connectivity();
        drain_recoveries();
      }
    }
  }

  result.probe_rounds = monitor.probe_rounds();
  result.views_published = monitor.views().size();
  result.quarantines = monitor.quarantines();
  result.false_quarantines = monitor.false_quarantines();
  result.repair_attempts = scheduler.starts();
  result.failed_repair_attempts = scheduler.failures();
  const auto transitions = monitor.transitions();
  result.transitions.assign(transitions.begin(), transitions.end());
  result.mean_oracle_connectivity = oracle_weighted / config.horizon;
  result.mean_believed_connectivity = believed_weighted / config.horizon;
  return result;
}

}  // namespace bsr::sim
