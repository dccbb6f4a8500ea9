// Algorithm 3 — MaxSubGraph-Greedy (MaxSG), the paper's linear-time heuristic.
//
// Each iteration adds the vertex w maximizing the size of the largest
// connected component of the dominated subgraph G_{B ∪ {w}}. Implementation:
// the components of G_B are kept as explicit per-vertex labels, merged as
// brokers are added (a pick relabels the smaller components of its star into
// the largest, O(|V| log |V|) relabels over a run); the candidate gain — the
// size of the component that would form around w — is the sum of the
// distinct component sizes of w and its neighbors.
//
// Unlike coverage f, the component-size objective is NOT submodular (merging
// grows future gains), so lazy evaluation is unsound. Instead every
// candidate's gain is kept exact by deltas. It is factored around the
// *anchor* — the component the first pick forms, extended by every later
// merge that contains it — as
//     gain(c) = rest[c] + (adj[c] ? |anchor| : 0)
// where rest[c] sums the distinct non-anchor component sizes of N[c] and
// adj[c] says N[c] meets the anchor. A pick changes only the candidates
// whose closed neighborhood meets a merged non-anchor component; the walk
// over those components' members and neighbors sums, per candidate u, the
// merged sizes u meets (touch[u]). A merge into the anchor then subtracts
// touch[u] and sets u's anchor bit; any other merge adds |merged| −
// touch[u]. Candidates meeting only the anchor never change: |anchor| is
// read at the argmax. Two max-trees over original ids, one per anchor bit,
// give the argmax in O(1) and each update in O(log |V|), batched per pick.
// Ties go to the lowest original id, so the picks, the component curve and
// the coverage are bit-identical to a full sweep that recomputes every gain
// every round, under any renumbering. The run is single-threaded.

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
  /// maps its ids back to the original label space. Ties between candidates
  /// go to the lowest ORIGINAL id and the returned brokers carry original
  /// ids, so the result is bit-identical to running on the un-renumbered
  /// graph — the relabeling only changes memory layout, never tie-breaks.
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
