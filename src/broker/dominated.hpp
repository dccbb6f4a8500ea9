// The dominated subgraph G_B and its connectivity metrics.
//
// A path is B-dominating iff every hop has at least one endpoint in B —
// equivalently, iff it is a path of the subgraph G_B = (V, E_B) where
// E_B = { (u,v) ∈ E : u ∈ B or v ∈ B }. All of the paper's evaluation
// metrics reduce to reachability/distances in G_B:
//   * saturated E2E connectivity — fraction of vertex pairs connected in G_B
//     (exact, via union-find over active edges);
//   * l-hop E2E connectivity — fraction of pairs within l hops in G_B
//     (sampled BFS, see graph/distance_histogram.hpp);
//   * broker-only connectivity (Fig. 5a) — pairs connected using no
//     non-broker intermediate node.
//
// Traversals of G_B filter the full graph with engine::DominatedEdgeFilter
// over BrokerSet::mask(). DominatedEvaluator builds the union-find over G_B
// once and serves every metric from it (the free functions below are
// one-shot wrappers). Its RollbackUnionFind supports checkpoint/rollback, so
// callers can probe "what if broker w joined?" without rebuilding.
#pragma once

#include <cstdint>

#include "broker/broker_set.hpp"
#include "graph/csr_graph.hpp"
#include "graph/distance_histogram.hpp"
#include "graph/engine.hpp"
#include "graph/fault_plane.hpp"
#include "graph/rng.hpp"
#include "graph/rollback_union_find.hpp"

namespace bsr::broker {

/// Unions the endpoints of every active edge of G_B into `uf` by iterating
/// each broker's star — O(|V| + sum of broker degrees), touching each active
/// edge at least once. With a fault plane, only usable edges (both endpoints
/// up, link up) count.
template <class UF>
void build_dominated_uf(const bsr::graph::CsrGraph& g, const BrokerSet& b, UF& uf,
                        const bsr::graph::FaultPlane* faults = nullptr) {
  namespace engine = bsr::graph::engine;
  if (faults == nullptr) {
    for (const bsr::graph::NodeId u : b.members()) {
      engine::unite_star(g, uf, u, engine::AllEdges{});
    }
  } else {
    const engine::FaultAwareFilter admit{faults};
    for (const bsr::graph::NodeId u : b.members()) {
      if (!faults->vertex_ok(u)) continue;
      engine::unite_star(g, uf, u, admit);
    }
  }
}

/// Persistent evaluator over G_B: one union-find build serves connectivity,
/// largest-component, and component queries. The graph/broker set (and
/// fault plane, if any) are held by reference and re-read on rebuild(), so a
/// caller mutating them between events just calls rebuild() — the arrays
/// are reused, not reallocated. uf() exposes checkpoint/rollback for
/// speculative probing.
class DominatedEvaluator {
 public:
  DominatedEvaluator(const bsr::graph::CsrGraph& g, const BrokerSet& b,
                     const bsr::graph::FaultPlane* faults = nullptr);

  /// Re-derives the union-find from the current broker/fault state.
  void rebuild();

  /// Exact saturated E2E connectivity (fraction of all |V| choose 2 pairs
  /// connected in G_B). O(1) — served from the incremental pair count.
  [[nodiscard]] double connectivity() const noexcept;

  /// Size of the largest dominated component. O(|V|).
  [[nodiscard]] std::uint32_t largest_component() const noexcept {
    return uf_.largest_component_size();
  }

  [[nodiscard]] bsr::graph::RollbackUnionFind& uf() noexcept { return uf_; }
  [[nodiscard]] const bsr::graph::RollbackUnionFind& uf() const noexcept {
    return uf_;
  }

  [[nodiscard]] const bsr::graph::CsrGraph& graph() const noexcept { return *graph_; }

 private:
  const bsr::graph::CsrGraph* graph_;
  const BrokerSet* brokers_;
  const bsr::graph::FaultPlane* faults_;
  bsr::graph::RollbackUnionFind uf_;
};

/// Exact saturated E2E connectivity: fraction of unordered vertex pairs
/// (over all |V| choose 2 pairs) connected in G_B. O(|V| + |E|).
[[nodiscard]] double saturated_connectivity(const bsr::graph::CsrGraph& g,
                                            const BrokerSet& b);

/// Saturated connectivity of the *damaged* dominated subgraph: only edges
/// the fault plane reports usable (both endpoints up, link up) count. The
/// plane must be bound to `g`. O(|V| + sum of broker degrees).
[[nodiscard]] double saturated_connectivity(const bsr::graph::CsrGraph& g,
                                            const BrokerSet& b,
                                            const bsr::graph::FaultPlane& faults);

/// l-hop connectivity curve in G_B from sampled BFS sources (every vertex
/// when num_sources >= |V|). Throws std::invalid_argument when `b` was built
/// for a different vertex count than `g`.
[[nodiscard]] bsr::graph::DistanceCdf dominated_distance_cdf(
    const bsr::graph::CsrGraph& g, const BrokerSet& b, bsr::graph::Rng& rng,
    std::size_t num_sources);

/// Statistics for Fig. 5a: among reachable-in-G_B sampled pairs, the share
/// whose shortest dominating path uses only broker intermediate nodes.
struct BrokerOnlyShare {
  double broker_only = 0.0;   // fraction of connected pairs served by B alone
  std::size_t pairs_connected = 0;
  std::size_t pairs_sampled = 0;
};

[[nodiscard]] BrokerOnlyShare broker_only_share(const bsr::graph::CsrGraph& g,
                                                const BrokerSet& b,
                                                bsr::graph::Rng& rng,
                                                std::size_t num_pairs);

/// Size of the largest connected component of G_B. Used by MaxSG's stopping
/// analysis and the "3,540-alliance dominates the maximum connected
/// subgraph" claim.
[[nodiscard]] std::uint32_t largest_dominated_component(const bsr::graph::CsrGraph& g,
                                                        const BrokerSet& b);

}  // namespace bsr::broker
