// Event-driven broker-churn simulation.
//
// Ties the resilience machinery into a time series: brokers depart with an
// exponential rate and the coalition repairs itself periodically with a
// bounded replacement budget. Tracks the connectivity trajectory — the
// operator's "how bad does it get between maintenance windows" question.
//
// The link-churn extension interleaves *edge* outages with broker
// departures: correlated failure groups (e.g. whole IXPs) go down as a
// Poisson process and heal after an exponential downtime, while periodic
// repairs re-select replacements on the damaged graph.
//
// The health-churn extension replaces the oracle with the probe-based
// control plane of sim/health: broker-vertex outages and link flaps change
// ground truth, a HealthMonitor detects them through lossy probes, stale
// HealthViews propagate on a delay, and a budgeted RetryScheduler paces the
// recruitment of replacements with retry/backoff — all interleaved in one
// deterministic event loop that integrates the cost of believing stale state.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "broker/broker_set.hpp"
#include "graph/csr_graph.hpp"
#include "graph/fault_plane.hpp"
#include "graph/rng.hpp"
#include "sim/health.hpp"

namespace bsr::sim {

struct ChurnConfig {
  /// Mean broker departures per time unit.
  double departure_rate = 1.0;
  /// Repairs happen every `repair_interval` time units...
  double repair_interval = 10.0;
  /// ...adding up to this many replacement brokers per repair.
  std::uint32_t repair_budget = 5;
  double horizon = 100.0;  // simulated time units
};

/// Link-outage process layered on top of broker churn. A rate of zero
/// disables link churn entirely.
struct LinkChurnConfig {
  /// Mean correlated-group outages per time unit.
  double outage_rate = 0.0;
  /// Mean exponential downtime of one outage.
  double mean_downtime = 5.0;
};

struct ChurnEvent {
  double time = 0.0;
  enum class Kind : std::uint8_t {
    kDeparture,
    kRepair,
    kLinkOutage,
    kLinkHeal,
  } kind = Kind::kDeparture;
  std::size_t brokers_after = 0;
  double connectivity_after = 0.0;
  std::uint64_t failed_edges_after = 0;  // distinct edges down after the event
};

struct ChurnResult {
  std::vector<ChurnEvent> events;
  double min_connectivity = 1.0;
  double mean_connectivity = 0.0;  // time-weighted
  std::size_t departures = 0;
  std::size_t repairs = 0;
  std::size_t replacements_added = 0;
  std::size_t link_outages = 0;
  std::size_t link_heals = 0;
};

/// Simulates broker churn on `initial` brokers over the horizon.
/// Deterministic in rng. Throws std::invalid_argument on non-positive
/// rates/intervals.
[[nodiscard]] ChurnResult simulate_churn(const bsr::graph::CsrGraph& g,
                                         const bsr::broker::BrokerSet& initial,
                                         const ChurnConfig& config,
                                         bsr::graph::Rng& rng);

/// Broker churn with interleaved link churn: each outage fails a uniformly
/// random group from `groups` (refcounted, so overlapping outages compose)
/// and heals after an exponential downtime. Connectivity and repairs are
/// computed on the damaged graph. `link.outage_rate > 0` requires a
/// non-empty `groups`.
[[nodiscard]] ChurnResult simulate_churn(
    const bsr::graph::CsrGraph& g, const bsr::broker::BrokerSet& initial,
    const ChurnConfig& config, const LinkChurnConfig& link,
    std::span<const bsr::graph::FailureGroup> groups, bsr::graph::Rng& rng);

// --- health-aware churn -----------------------------------------------------

/// Broker-vertex outage process for the health-churn loop. Departures fail
/// the broker's *vertex* on the fault plane (the AS goes dark — probes to it
/// die), and optionally return after an exponential downtime, producing the
/// flapping behavior the detector's hysteresis must suppress.
struct HealthChurnConfig {
  /// Mean broker-vertex outages per time unit (over the initial members).
  double departure_rate = 0.5;
  /// Mean exponential downtime before a departed broker returns;
  /// 0 makes departures permanent.
  double mean_return_time = 20.0;
  double horizon = 100.0;
};

struct HealthChurnResult {
  // Ground-truth events.
  std::size_t departures = 0;
  std::size_t returns = 0;
  std::size_t link_outages = 0;
  std::size_t link_heals = 0;
  // Detection plane.
  std::uint64_t probe_rounds = 0;
  std::uint64_t views_published = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t false_quarantines = 0;  // quarantined while the vertex was up
  /// Seconds from a broker's vertex going dark to its quarantine, one entry
  /// per detected outage episode (undetected episodes — healed before the
  /// detector condemned them — contribute nothing).
  std::vector<double> detection_latencies;
  std::vector<HealthTransition> transitions;
  // Repair plane.
  std::uint64_t repair_attempts = 0;
  std::uint64_t failed_repair_attempts = 0;
  std::size_t replacements_added = 0;
  // Time-weighted service metrics (normalized by the horizon where noted).
  double mean_oracle_connectivity = 0.0;    // full membership, ground truth
  double mean_believed_connectivity = 0.0;  // in-force view's routable set
  /// Integral of (vertex down AND in-force view says routable) broker-time:
  /// the misrouting exposure window. Shrinks as probing gets faster.
  double dead_routable_time = 0.0;
  /// Integral of (vertex up AND member AND view says unroutable)
  /// broker-time: healthy capacity shunned. Grows as probing gets jumpier.
  double shunned_up_time = 0.0;
  // Redundancy ablation metrics (broker/robust.hpp). A departure is
  // *absorbed* when the only pairs lost are the departed vertex's own — a
  // redundant selection keeps a dominating path through every surviving
  // pair — and *exposed* when third-party pairs are severed until repair or
  // return restores them.
  std::size_t absorbed_departures = 0;
  std::size_t exposed_departures = 0;
  /// Integral over time of (promised - realized) connectivity, where
  /// *promised* is the in-force believed set evaluated on the pristine graph
  /// (belief has no fault knowledge) and *realized* is the same set on the
  /// damaged graph. The gap is the fraction of pairs the control plane
  /// promises but cannot deliver; r-redundant selections keep it near zero
  /// through undetected-failure windows.
  double misrouting_pair_exposure = 0.0;
  /// Seconds from each exposed departure until the oracle pair count first
  /// climbs back to its pre-departure baseline minus the departed vertex's
  /// own (inevitably lost) pairs (FIFO; episodes still unrecovered at the
  /// horizon contribute nothing).
  std::vector<double> recovery_times;

  [[nodiscard]] double mean_detection_latency() const noexcept;
  [[nodiscard]] double false_positive_rate() const noexcept;
  [[nodiscard]] double mean_time_to_recover() const noexcept;
};

/// One event loop interleaving broker-vertex outages/returns, correlated
/// link flaps, probe rounds with backoff re-probes, delayed view
/// propagation, and budgeted repair with retry — deterministic in `rng`.
///
/// The ground-truth fault timeline is drawn *up front* from forked streams,
/// so it is identical across health configurations with the same seed —
/// which is what makes detection-latency and misrouting-exposure sweeps
/// across probe intervals directly comparable. Repairs recruit on the
/// damaged graph from the brokers the *in-force view* believes routable.
/// `link.outage_rate > 0` requires non-empty `groups`.
[[nodiscard]] HealthChurnResult simulate_churn_with_health(
    const bsr::graph::CsrGraph& g, const bsr::broker::BrokerSet& initial,
    const HealthChurnConfig& config, const LinkChurnConfig& link,
    std::span<const bsr::graph::FailureGroup> groups, const HealthConfig& health,
    const RepairPolicy& repair, bsr::graph::Rng& rng);

}  // namespace bsr::sim
