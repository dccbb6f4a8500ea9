// Path-length constraints (Problem 4, §5.2).
//
// A broker selection strategy A is "feasible" when its dominated-path length
// distribution F_{B_A}(l) tracks the free-routing distribution F(l) within ε
// for every l (Eq. 4). This module packages the two CDFs, the ε test, and
// the path-inflation profile Table 4 reports.
#pragma once

#include <cstdint>

#include "broker/broker_set.hpp"
#include "broker/dominated.hpp"
#include "graph/distance_histogram.hpp"

namespace bsr::broker {

struct PathLengthComparison {
  bsr::graph::DistanceCdf free_paths;       // F(l): unrestricted shortest paths
  bsr::graph::DistanceCdf dominated_paths;  // F_B(l): B-dominating paths
  double max_deviation = 0.0;               // max_l |F_B(l) - F(l)|

  /// ε-feasibility per Eq. (4).
  [[nodiscard]] bool feasible(double epsilon) const noexcept {
    return max_deviation <= epsilon;
  }

  /// Path inflation at hop bound l: F(l) - F_B(l) (mass of pairs that lost
  /// their <= l-hop path when restricted to dominating paths).
  [[nodiscard]] double inflation_at(std::uint32_t l) const noexcept {
    return free_paths.at(l) - dominated_paths.at(l);
  }
};

/// Computes both CDFs from the same sampled source set (paired sampling
/// removes sampling noise from the comparison). Both overloads throw
/// std::invalid_argument when `b` was built for a different vertex count
/// than `g`.
[[nodiscard]] PathLengthComparison compare_path_lengths(const bsr::graph::CsrGraph& g,
                                                        const BrokerSet& b,
                                                        bsr::graph::Rng& rng,
                                                        std::size_t num_sources);

/// Same, from an explicit source set — use when several broker sets must be
/// compared against each other (pin the sources, vary only B).
[[nodiscard]] PathLengthComparison compare_path_lengths(
    const bsr::graph::CsrGraph& g, const BrokerSet& b,
    std::span<const bsr::graph::NodeId> sources);

}  // namespace bsr::broker
