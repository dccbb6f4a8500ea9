// Fault-tolerant (r-redundant) broker selection.
//
// Plain MaxSG chooses brokers assuming nothing fails: a single quarantined
// broker can strand covered pairs until reactive repair catches up. The
// robust variants here optimize the *surviving* objective instead — the
// worst-case number of vertex pairs that stay connected in the dominated
// subgraph after failures:
//
//   * kBrokerFailures: the adversary removes any r brokers from the chosen
//     set (the Fault-Tolerant Connected Set Cover frame of PAPERS.md).
//   * kFailureGroups: the adversary fires any single correlated
//     graph::FailureGroup (an IXP outage, a regional blackout) — brokers
//     survive but their member edges go dark.
//
// The greedy scores every candidate w by the worst case over all failure
// scenarios of the connected-pair count of G_{B∪{w}} minus the failed
// capacity. Scenario states are enumerated on one RollbackUnionFind with a
// checkpoint/rollback recursion (shared unite prefixes are never redone).
// Only the covered set C = B ∪ N(B) can lie in a component of two or more,
// so once per round each candidate w is compacted to the number of vertices
// of N[w] outside C (singletons in every scenario) plus the list of those
// inside C; each scenario then refreshes roots and sizes for C alone and
// scores a candidate from its list. In kFailureGroups mode only the
// endpoints of the fired group's edges are rescanned through the fault
// filter. Ties in the worst case break on the no-failure pair count, then
// on the lowest vertex id, so the output is deterministic — and the
// candidate sweeps are sharded by candidate range with per-shard scratch,
// so it is bit-identical at any BSR_THREADS.
//
// Caveat from the note paper (PAPERS.md): greedy redundancy does NOT
// inherit the (1 + ln n) set-cover guarantee — the surviving objective is
// not submodular, and tests/test_robust.cpp pins a tiny instance where the
// greedy is strictly below the brute-force optimum (verify.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "broker/broker_set.hpp"
#include "graph/csr_graph.hpp"
#include "graph/fault_plane.hpp"

namespace bsr::broker {

enum class RobustMode : std::uint8_t {
  kBrokerFailures,  // survive any r broker failures
  kFailureGroups,   // survive any single correlated failure group
};

struct RobustOptions {
  RobustMode mode = RobustMode::kBrokerFailures;
  /// Number of simultaneous broker failures to survive (kBrokerFailures).
  std::uint32_t redundancy = 1;
  /// Correlated failure scenarios (kFailureGroups). Must be non-empty in
  /// that mode; ignored otherwise. Held by reference for the call.
  std::span<const bsr::graph::FailureGroup> groups;
};

struct RobustResult {
  BrokerSet brokers;  // selection order preserved
  /// Worst-case connected pairs of the dominated subgraph after the
  /// adversary's best move against the final set.
  std::uint64_t surviving_pairs = 0;
  /// No-failure connected pairs of the final set.
  std::uint64_t nominal_pairs = 0;
  /// surviving_pairs after each pick (same length as brokers.size()).
  std::vector<std::uint64_t> surviving_curve;
  std::uint32_t coverage = 0;  // f(B) of the final set
};

/// Greedy r-redundant selection with budget k. Deterministic; bit-identical
/// at any BSR_THREADS. Throws std::invalid_argument on an empty graph, on
/// redundancy == 0 in kBrokerFailures mode, or on empty groups in
/// kFailureGroups mode.
[[nodiscard]] RobustResult robust_maxsg(const bsr::graph::CsrGraph& g,
                                        std::uint32_t k,
                                        const RobustOptions& options = {});

/// Worst-case connected pairs of G_B after the adversary removes any r
/// brokers of `b` (0 when |b| <= r: everything can be taken down). Exact —
/// enumerates all C(|b|, r) scenarios on a RollbackUnionFind, so intended
/// for modest r and |b|, not an inner loop.
[[nodiscard]] std::uint64_t worst_case_surviving_pairs(
    const bsr::graph::CsrGraph& g, const BrokerSet& b, std::uint32_t r);

/// Worst-case connected pairs of G_B after any single failure group fires.
/// Throws std::invalid_argument on empty `groups`.
[[nodiscard]] std::uint64_t worst_case_surviving_pairs(
    const bsr::graph::CsrGraph& g, const BrokerSet& b,
    std::span<const bsr::graph::FailureGroup> groups);

}  // namespace bsr::broker
