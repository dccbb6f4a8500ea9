// Algorithm 1 — greedy Maximum Coverage with broker set B (MCB problem).
//
// Classic Nemhauser-Wolsey-Fisher greedy: repeatedly add the vertex with the
// largest marginal coverage gain. Since f(B) = |B ∪ N(B)| is monotone
// submodular (Lemma 3), this is a (1 - 1/e)-approximation (Lemma 4) and the
// best possible ratio unless P = NP (Lemma 5). We use lazy evaluation:
// stale gains sit in a max-heap and are only recomputed when popped, which
// in practice turns O(k|V|) gain evaluations into nearly O(|V| log |V|).
//
// The heap starts from the exact first gains, 1 + deg(v) (nothing is covered
// yet), pushed in ascending-id order; the run is serial, so the selection
// cannot depend on BSR_THREADS.
#pragma once

#include <cstdint>

#include "broker/broker_set.hpp"
#include "graph/csr_graph.hpp"

namespace bsr::graph {
class Renumbering;
}  // namespace bsr::graph

namespace bsr::broker {

struct GreedyMcbResult {
  BrokerSet brokers;            // members in selection order
  std::uint32_t coverage = 0;   // f(B) after the last pick
  /// coverage after each pick (coverage_curve[i] = f of first i+1 members) —
  /// a single run yields the whole k sweep.
  std::vector<std::uint32_t> coverage_curve;
};

/// Greedy MCB for budget k. Stops early when everything is covered.
/// When `renumbering` is non-null, `g` is a locality-renumbered graph and
/// the result carries ORIGINAL ids, bit-identical to the un-renumbered run
/// (heap order and tie-breaks are keyed on original ids).
/// Throws std::invalid_argument for an empty graph or a size-mismatched
/// renumbering.
[[nodiscard]] GreedyMcbResult greedy_mcb(
    const bsr::graph::CsrGraph& g, std::uint32_t k,
    const bsr::graph::Renumbering* renumbering = nullptr);

}  // namespace bsr::broker
