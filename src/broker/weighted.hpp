// Traffic-weighted broker selection (extension of §4-§5).
//
// The paper maximizes the *count* of covered vertices / connected pairs,
// implicitly valuing every AS equally. In practice QoS revenue follows
// traffic, which is heavily skewed (82 % of 2020 IP traffic is video, per
// the paper's introduction). This module generalizes the machinery to
// per-vertex weights:
//   * weighted coverage f_w(B) = Σ_{v ∈ B ∪ N(B)} w(v)  — still monotone
//     submodular, so the lazy greedy keeps its (1 - 1/e) guarantee;
//   * weighted saturated connectivity — pair (u, v) counts w(u)·w(v),
//     i.e., the fraction of *traffic gravity* served by dominating paths.
#pragma once

#include <cstdint>
#include <span>

#include "broker/broker_set.hpp"
#include "graph/csr_graph.hpp"

namespace bsr::broker {

/// Weighted coverage f_w(B). Throws std::invalid_argument when `b` or
/// `weight` is sized for another graph, or on negative weights.
[[nodiscard]] double weighted_coverage(const bsr::graph::CsrGraph& g,
                                       const BrokerSet& b,
                                       std::span<const double> weight);

struct WeightedGreedyResult {
  BrokerSet brokers;
  double coverage = 0.0;               // f_w of the final set
  std::vector<double> coverage_curve;  // f_w after each pick
};

/// Lazy greedy for weighted MCB — the (1 - 1/e)-approximation carries over
/// because f_w stays monotone submodular for non-negative weights.
[[nodiscard]] WeightedGreedyResult weighted_greedy_mcb(
    const bsr::graph::CsrGraph& g, std::uint32_t k, std::span<const double> weight);

/// Weighted saturated connectivity: Σ over connected-in-G_B pairs of
/// w(u)·w(v), divided by Σ over all pairs — the traffic share that can be
/// served with dominating paths. O(|V| + |E|) via per-component weight sums.
/// Throws like weighted_coverage.
[[nodiscard]] double weighted_saturated_connectivity(const bsr::graph::CsrGraph& g,
                                                     const BrokerSet& b,
                                                     std::span<const double> weight);

struct WeightedMaxSgResult {
  BrokerSet brokers;
  /// Weight of the heaviest dominated component after each pick.
  std::vector<double> component_weight_curve;
  double final_component_weight = 0.0;
};

/// Weighted MaxSG: each iteration adds the vertex maximizing the *weight*
/// (not size) of the largest dominated component — the traffic-aware
/// Algorithm 3. Same O(k(|V|+|E|)) incremental union-find, with per-root
/// weight sums instead of counts.
[[nodiscard]] WeightedMaxSgResult weighted_maxsg(const bsr::graph::CsrGraph& g,
                                                 std::uint32_t k,
                                                 std::span<const double> weight);

}  // namespace bsr::broker
