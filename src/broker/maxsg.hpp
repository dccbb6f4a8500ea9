// Algorithm 3 — MaxSubGraph-Greedy (MaxSG), the paper's linear-time heuristic.
//
// Each iteration adds the vertex w maximizing the size of the largest
// connected component of the dominated subgraph G_{B ∪ {w}}. Implementation:
// the components of G_B are kept as explicit per-vertex labels, merged as
// brokers are added (a pick relabels the smaller components of its star into
// the largest, O(|V| log |V|) relabels over a run); the candidate gain — the
// size of the component that would form around w — is the sum of the
// distinct component sizes of w and its neighbors, computed in O(deg(w)).
//
// Unlike coverage f, the component-size objective is NOT submodular (merging
// grows future gains), so lazy evaluation is unsound here. Instead of the
// naive full candidate sweep per round, the implementation factors every
// candidate's gain around the *anchor* — the distinguished (giant) dominated
// component — as
//     gain(w) = rest_gain[w] + (adj_anchor[w] ? |anchor| : 0)
// and caches rest_gain/adj_anchor across rounds. When a pick merely grows
// the anchor, candidates adjacent only to the anchor need no recomputation
// (|anchor| is read fresh); only candidates adjacent to a component that
// changed this round are re-evaluated. The recomputed gains are exactly the
// full-sweep values, so the selected set is bit-identical to the naive
// sweep; per-round recomputation is amortized O(|V| + |E|) over the run
// because each vertex is absorbed into the anchor at most once.
//
// Dirty-candidate recomputation and the per-round argmax are sharded across
// BSR_THREADS workers over candidate ranges; reductions are integer-only and
// merged in shard order, so results are invariant under the thread count.
#pragma once

#include <cstdint>

#include "broker/broker_set.hpp"
#include "graph/csr_graph.hpp"

namespace bsr::graph {
class Renumbering;
}  // namespace bsr::graph

namespace bsr::broker {

struct MaxSgOptions {
  /// Stop early once the dominated component covers every vertex reachable
  /// in the underlying graph (paper: MaxSG "totally dominates the maximum
  /// connected subgraph" and stops at 3,540 brokers).
  bool stop_when_dominating = true;

  /// When non-null, `g` is a locality-renumbered graph and `renumbering`
  /// maps its ids back to the original label space. Candidates are iterated
  /// in ORIGINAL-id order and the returned brokers carry original ids, so
  /// the result is bit-identical to running on the un-renumbered graph —
  /// the relabeling only changes memory layout, never tie-breaks.
  const bsr::graph::Renumbering* renumbering = nullptr;
};

struct MaxSgResult {
  BrokerSet brokers;  // selection order preserved
  /// largest dominated-component size after each pick.
  std::vector<std::uint32_t> component_curve;
  std::uint32_t final_component = 0;
  std::uint32_t coverage = 0;  // f(B) for the final set
};

/// Runs MaxSG with budget k. Throws std::invalid_argument for an empty graph
/// or a renumbering whose size does not match the graph.
[[nodiscard]] MaxSgResult maxsg(const bsr::graph::CsrGraph& g, std::uint32_t k,
                                const MaxSgOptions& options = {});

}  // namespace bsr::broker
