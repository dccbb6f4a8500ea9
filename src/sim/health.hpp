// Probe-based broker failure detection and the health control plane.
//
// Every consumer of graph::FaultPlane so far has been an *oracle*: the
// router and the churn/repair loops read the exact failure state the
// instant it changes. A deployed brokerage only learns about dead brokers
// through heartbeat probes that themselves travel the (possibly damaged)
// dominated graph — an unreachable broker is indistinguishable from a dead
// one, and nothing is known until the next probe lands. This module models
// that detection layer:
//
//   * HealthMonitor runs periodic probe rounds from a vantage vertex over
//     the faulty dominated graph. Missed-probe counters drive a per-broker
//     state machine
//         kHealthy -> kSuspect -> kQuarantined -> kProbation -> kHealthy
//     with exponential-backoff re-probes for quarantined brokers
//     (deterministic jitter drawn from an explicit Rng, never wall clock)
//     and hysteresis: a broker that flaps out of probation re-enters
//     quarantine at a *deeper* backoff level, so oscillating brokers are
//     suppressed from the routable set instead of thrashing it.
//   * Versioned HealthView snapshots are published whenever any state
//     changes; consumers see a view only after a configurable propagation
//     delay, so routing decisions are made on *stale* truth. sim::Router
//     accepts a view and routes around suspected/quarantined brokers,
//     believing the view rather than the fault plane.
//   * RepairPolicy shapes the budgeted recruitment attempts that quarantine
//     signals trigger, with retry/backoff on failed recruitments; sim/churn
//     drives them through a RetryScheduler (sim/retry_scheduler.hpp) in one
//     event loop with departures, link flaps and detection.
//
// Everything here is deterministic: probe rounds land on a fixed grid,
// internal events are processed in (time, broker-index) order, and the only
// randomness is the jitter Rng the caller seeds. The same seed produces
// bit-identical HealthView sequences at any BSR_THREADS setting.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "broker/broker_set.hpp"
#include "graph/csr_graph.hpp"
#include "graph/fault_plane.hpp"
#include "graph/rng.hpp"
#include "graph/workspace.hpp"

namespace bsr::sim {

/// Detector state of one broker. Transitions only ever move one step along
/// kHealthy -> kSuspect -> kQuarantined -> kProbation and back edges
/// kSuspect -> kHealthy (recovery before quarantine), kProbation ->
/// kQuarantined (flap) and kProbation -> kHealthy (sustained recovery).
/// In particular kHealthy never jumps straight to kQuarantined.
enum class HealthState : std::uint8_t {
  kHealthy,      // probes answered; fully routable
  kSuspect,      // missed probes accumulating; shunned but not yet condemned
  kQuarantined,  // condemned; re-probed only on exponential backoff
  kProbation,    // answered a re-probe; must sustain successes to return
};

[[nodiscard]] const char* to_string(HealthState state) noexcept;

struct HealthConfig {
  /// Heartbeat period: probe rounds land at t = interval, 2*interval, ...
  double probe_interval = 1.0;
  /// A published view becomes visible to consumers this much later.
  double propagation_delay = 0.5;
  /// Consecutive missed probes before kHealthy -> kSuspect.
  std::uint32_t suspect_after = 1;
  /// Consecutive missed probes (total, including the suspect ones) before
  /// kSuspect -> kQuarantined. Must be > suspect_after.
  std::uint32_t quarantine_after = 3;
  /// Consecutive successful probes needed for kProbation -> kHealthy (the
  /// hysteresis that keeps a flapping broker from re-entering the routable
  /// set on its first good probe).
  std::uint32_t probation_successes = 2;
  /// First re-probe of a quarantined broker happens this long after the
  /// quarantine; each subsequent miss (or probation flap) multiplies the
  /// delay by backoff_factor up to backoff_max.
  double reprobe_backoff = 2.0;
  double backoff_factor = 2.0;
  double backoff_max = 16.0;
  /// Re-probe delays are jittered by a factor uniform in
  /// [1 - jitter, 1 + jitter], drawn from the monitor's explicit Rng.
  double jitter = 0.1;
  /// Whether kProbation brokers count as routable in published views.
  bool route_probation = true;
};

/// Versioned snapshot of the detector's belief. `routable` is a per-vertex
/// bitmap over the whole graph: true iff the vertex is a broker the view
/// considers usable (kHealthy, plus kProbation if configured). Non-broker
/// vertices are always false — the bitmap plugs directly into the router's
/// dominated-edge filter.
struct HealthView {
  std::uint64_t version = 0;
  double published_at = 0.0;
  std::vector<HealthState> states;  // indexed like HealthMonitor members
  std::vector<bool> routable;       // indexed by vertex id

  [[nodiscard]] bool routable_broker(bsr::graph::NodeId v) const noexcept {
    return v < routable.size() && routable[v];
  }
};

/// One state-machine transition, for invariant checking and debugging.
/// `episode` is the failure-episode id: allocated when a broker leaves
/// kHealthy, carried through quarantine/probation/recovery (and into repair
/// scheduling), so one suspicion chain correlates end to end — it is the
/// `corr` field of the flight recorder's sim.health.* / sim.repair.* events.
/// Zero means "no episode" (a broker that has never been suspected).
struct HealthTransition {
  double time = 0.0;
  bsr::graph::NodeId broker = 0;
  HealthState from = HealthState::kHealthy;
  HealthState to = HealthState::kHealthy;
  std::uint64_t episode = 0;
};

/// Deterministic probe-based failure detector over a fault plane.
///
/// The monitor probes from `vantage`: a probe to broker b succeeds iff b's
/// vertex is up and reachable from the vantage through usable dominated
/// edges (both endpoints up, link up, >= 1 broker endpoint). The vantage
/// itself going dark fails every probe — exactly the partition ambiguity a
/// real control plane faces.
class HealthMonitor {
 public:
  /// `g`, `brokers` and `faults` are held by reference and must outlive the
  /// monitor; the member list is re-read on add_broker(). `jitter_seed`
  /// fully determines every re-probe jitter draw.
  HealthMonitor(const bsr::graph::CsrGraph& g, const bsr::broker::BrokerSet& brokers,
                const bsr::graph::FaultPlane& faults, const HealthConfig& config,
                bsr::graph::NodeId vantage, std::uint64_t jitter_seed);

  /// Picks the default vantage: the highest-degree broker (first member on
  /// ties). Throws std::invalid_argument on an empty set.
  [[nodiscard]] static bsr::graph::NodeId choose_vantage(
      const bsr::graph::CsrGraph& g, const bsr::broker::BrokerSet& brokers);

  /// Time of the next internal event (probe round or due re-probe);
  /// infinity only if the monitor has no brokers at all.
  [[nodiscard]] double next_event_time() const noexcept;

  /// Processes every internal event with time <= now, in deterministic
  /// (time, kind, broker-index) order, publishing a new view whenever any
  /// broker changed state. Returns the number of state transitions.
  std::size_t advance(double now);

  /// Registers a broker recruited after construction (e.g. by repair).
  /// New brokers start kHealthy, are probed from the next round on, and a
  /// fresh view (timestamped `now`) announces them immediately — subject to
  /// the usual propagation delay before consumers see it.
  void add_broker(bsr::graph::NodeId v, double now);

  /// Latest view whose published_at + propagation_delay <= now — what a
  /// consumer is allowed to know at `now`. The initial all-healthy view
  /// (version 0, published at construction) is always visible.
  [[nodiscard]] const HealthView& view_at(double now) const noexcept;

  /// The detector's own current belief (no propagation delay).
  [[nodiscard]] const HealthView& latest_view() const noexcept {
    return views_.back();
  }

  /// All published views, oldest first (version i at index i).
  [[nodiscard]] std::span<const HealthView> views() const noexcept { return views_; }

  /// Every transition ever made, in order.
  [[nodiscard]] std::span<const HealthTransition> transitions() const noexcept {
    return transitions_;
  }

  [[nodiscard]] std::span<const bsr::graph::NodeId> members() const noexcept {
    return members_;
  }
  [[nodiscard]] HealthState state_of(std::size_t member_index) const noexcept;

  /// Brokers currently believed routable by the *detector* (no delay).
  [[nodiscard]] std::size_t routable_count() const noexcept;

  // --- counters ------------------------------------------------------------
  [[nodiscard]] std::uint64_t probe_rounds() const noexcept { return rounds_; }
  [[nodiscard]] std::uint64_t quarantines() const noexcept { return quarantines_; }
  /// Quarantines issued while the broker's vertex was actually up (an
  /// unreachable-but-alive broker): the detector's false positives.
  [[nodiscard]] std::uint64_t false_quarantines() const noexcept {
    return false_quarantines_;
  }

 private:
  struct Cell {
    HealthState state = HealthState::kHealthy;
    std::uint32_t misses = 0;     // consecutive missed probes
    std::uint32_t successes = 0;  // consecutive probation successes
    std::uint32_t backoff_level = 0;
    double next_reprobe = 0.0;    // valid only in kQuarantined
    std::uint64_t episode = 0;    // open failure episode (0 = healthy, none
                                  // open; cleared again on recovery so ids
                                  // are never reused across failures)
  };

  void probe_round(double now);
  void reprobe(double now, std::size_t index);
  /// True iff the broker at member index answers a probe right now.
  [[nodiscard]] bool probe_target(std::size_t index);
  /// Refreshes the vantage-reachability BFS for the current fault state.
  void refresh_reachability();
  void transition(double now, std::size_t index, HealthState to);
  void publish(double now);
  [[nodiscard]] double backoff_delay(std::uint32_t level);
  [[nodiscard]] bool is_routable(HealthState s) const noexcept {
    return s == HealthState::kHealthy ||
           (s == HealthState::kProbation && config_.route_probation);
  }

  const bsr::graph::CsrGraph* graph_;
  const bsr::broker::BrokerSet* brokers_;
  const bsr::graph::FaultPlane* faults_;
  HealthConfig config_;
  bsr::graph::NodeId vantage_;
  bsr::graph::Rng jitter_rng_;

  std::vector<bsr::graph::NodeId> members_;  // probe targets, stable order
  std::vector<Cell> cells_;
  std::vector<HealthView> views_;
  std::vector<HealthTransition> transitions_;
  bsr::graph::engine::Workspace ws_;  // vantage BFS scratch
  bool reach_valid_ = false;          // ws_ holds reachability for this round
  bool dirty_ = false;                // state changed since last publish
  std::uint64_t next_episode_ = 1;    // failure-episode id allocator
  std::uint64_t next_round_ = 1;      // probe rounds at k * probe_interval
  std::uint64_t rounds_ = 0;
  std::uint64_t quarantines_ = 0;
  std::uint64_t false_quarantines_ = 0;
};

// --- budgeted repair with retry/backoff ------------------------------------

struct RepairPolicy {
  /// Replacement brokers recruited per successful attempt.
  std::uint32_t budget = 2;
  /// First retry after a failed recruitment waits this long; subsequent
  /// failures multiply by retry_factor up to retry_max.
  double retry_backoff = 4.0;
  double retry_factor = 2.0;
  double retry_max = 32.0;
  /// Consecutive failed recruitments before the scheduler gives up until
  /// the next quarantine re-arms it.
  std::uint32_t max_retries = 4;
};

// --- measurement helpers ----------------------------------------------------

/// l-hop connectivity of the *realized* service plane: fraction of
/// (source, other) pairs within `l` hops using only edges with a usable
/// broker endpoint per `usable_brokers`, walked over the damaged graph when
/// `faults` is non-null. Pass a HealthView's routable bitmap to measure the
/// believed plane, or a BrokerSet's mask() to measure the oracle plane —
/// same sampled sources, so the two numbers are directly comparable.
[[nodiscard]] double lhop_connectivity(const bsr::graph::CsrGraph& g,
                                       const std::vector<bool>& usable_brokers,
                                       const bsr::graph::FaultPlane* faults,
                                       std::uint32_t l, bsr::graph::Rng& rng,
                                       std::size_t num_sources);

}  // namespace bsr::sim
