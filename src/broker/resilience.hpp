// Failure injection and repair for broker sets (systems extension).
//
// A deployed brokerage coalition must survive churn: brokers de-peer, fail,
// or leave the coalition. This module measures how connectivity degrades
// under random and targeted broker failures and how well a greedy repair
// (re-running selection over the survivors' gaps) restores it. The paper
// leaves deployment dynamics as future work; these are the experiments a
// production operator would ask for first.
//
// Beyond whole-broker failures, the link-level API measures degradation
// under *edge* faults — single fiber cuts and correlated outages (an IXP
// failing drops every membership edge at once) — via graph::FaultPlane,
// and repairs the coalition on the damaged graph.
#pragma once

#include <cstdint>

#include "broker/broker_set.hpp"
#include "graph/csr_graph.hpp"
#include "graph/fault_plane.hpp"
#include "graph/rng.hpp"

namespace bsr::broker {

enum class FailureMode : std::uint8_t {
  kRandom,       // uniformly random broker failures
  kTargetedTop,  // adversarial: fail the highest-degree brokers first
};

/// Removes `failures` brokers from `b` per the mode; returns the survivors
/// (selection order preserved). failures >= |b| yields an empty set.
[[nodiscard]] BrokerSet fail_brokers(const bsr::graph::CsrGraph& g, const BrokerSet& b,
                                     std::size_t failures, FailureMode mode,
                                     bsr::graph::Rng& rng);

struct ResilienceCurve {
  std::vector<std::size_t> failures;     // x axis
  std::vector<double> connectivity;      // saturated connectivity after failure
};

/// Sweeps failure counts and records the post-failure connectivity.
[[nodiscard]] ResilienceCurve resilience_curve(const bsr::graph::CsrGraph& g,
                                               const BrokerSet& b,
                                               std::span<const std::size_t> failure_steps,
                                               FailureMode mode, bsr::graph::Rng& rng);

/// Greedy repair: adds up to `budget` replacement brokers (chosen by the
/// MaxSG criterion over the survivors) and returns the repaired set. Its
/// members are the survivors in their order, then the recruits in pick
/// order, so members()[survivors.size()..] are exactly the recruits.
[[nodiscard]] BrokerSet repair_brokers(const bsr::graph::CsrGraph& g,
                                       const BrokerSet& survivors,
                                       std::uint32_t budget);

/// Greedy repair on a *damaged* graph: identical criterion, but component
/// gains count only edges the fault plane reports usable, and down vertices
/// are never selected. The plane must be bound to `g`.
[[nodiscard]] BrokerSet repair_brokers(const bsr::graph::CsrGraph& g,
                                       const BrokerSet& survivors,
                                       std::uint32_t budget,
                                       const bsr::graph::FaultPlane& faults);

// --- link-level resilience -------------------------------------------------

struct LinkResiliencePoint {
  std::size_t failed_groups = 0;       // correlated groups down at this step
  std::uint64_t failed_edges = 0;      // distinct edges down at this step
  double connectivity = 0.0;           // damaged dominated connectivity
  double repaired_connectivity = 0.0;  // after greedy repair on the damage
};

struct LinkResilienceCurve {
  std::vector<LinkResiliencePoint> points;
};

/// Link-failure resilience sweep. Shuffles `groups` deterministically in
/// `rng`, then for each step s fails the first min(s, |groups|) groups,
/// records the dominated connectivity of the damaged graph, and repairs the
/// survivors with `repair_budget` replacements chosen on the damaged graph.
/// Nested prefixes, so the `connectivity` column is non-increasing — the
/// correlated analogue of the independent broker-failure sweep above.
[[nodiscard]] LinkResilienceCurve link_resilience_curve(
    const bsr::graph::CsrGraph& g, const BrokerSet& b,
    std::span<const bsr::graph::FailureGroup> groups,
    std::span<const std::size_t> steps, std::uint32_t repair_budget,
    bsr::graph::Rng& rng);

/// `count` distinct uniformly random edges as singleton failure groups —
/// the uncorrelated single-link baseline. count is clamped to |E|.
[[nodiscard]] std::vector<bsr::graph::FailureGroup> random_link_groups(
    const bsr::graph::CsrGraph& g, std::size_t count, bsr::graph::Rng& rng);

}  // namespace bsr::broker
