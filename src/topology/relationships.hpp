// AS business relationships and policy-restricted (valley-free) reachability.
//
// Section 6.2 of the paper evaluates broker sets when routing must obey
// existing business relationships ("the previously assumed bidirectional
// routing policy becomes directional", Fig. 5c) and shows that upgrading a
// fraction of inter-broker links to bidirectional peering restores most of
// the lost connectivity (Fig. 5b). We model this with:
//   * a per-edge relationship label (peer / provider-customer),
//   * Gao-style valley-free forwarding (uphill c2p*, at most one peer edge,
//     downhill p2c*) as the "directional" policy,
//   * an override set of edges treated as unrestricted (the "converted to
//     bidirectional" inter-broker links).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "graph/csr_graph.hpp"

namespace bsr::topology {

/// Relationship of the canonical edge (u, v) with u < v.
enum class EdgeRel : std::uint8_t {
  kPeer = 0,          // settlement-free peering (or IXP membership)
  kUProviderOfV = 1,  // u sells transit to v
  kVProviderOfU = 2,  // v sells transit to u
};

/// The label of the same edge seen with its endpoints swapped: provider
/// direction flips, peering stays.
[[nodiscard]] constexpr EdgeRel reversed(EdgeRel rel) noexcept {
  switch (rel) {
    case EdgeRel::kUProviderOfV: return EdgeRel::kVProviderOfU;
    case EdgeRel::kVProviderOfU: return EdgeRel::kUProviderOfV;
    case EdgeRel::kPeer: break;
  }
  return EdgeRel::kPeer;
}

/// Per-edge relationship labels aligned with a CsrGraph's adjacency.
/// Lookup is O(log deg) by binary search in the (sorted) neighbor list.
///
/// Self-contained by design: each constructor snapshots the adjacency
/// structure instead of keeping a pointer to the graph, so EdgeRelations
/// has plain value semantics (a moved InternetTopology stays valid).
class EdgeRelations {
 public:
  EdgeRelations() = default;

  /// `edges` must be the exact canonical (u < v), sorted, deduplicated edge
  /// set of `g`; `rels` parallel to it. One O(|E|) walk with a cursor per
  /// vertex checks each edge against the adjacency slots it lands in.
  /// Throws std::invalid_argument on an unsorted, duplicated, missing or
  /// extra edge.
  EdgeRelations(const bsr::graph::CsrGraph& g, std::span<const bsr::graph::Edge> edges,
                std::span<const EdgeRel> rels);

  /// From labels already aligned with g's adjacency slots (the layout of
  /// canonical_rels()). Throws std::invalid_argument unless there is one
  /// label per slot and both slots of every edge carry the same label.
  EdgeRelations(const bsr::graph::CsrGraph& g, std::vector<EdgeRel> rel_by_slot);

  /// Relationship of edge (u, v) from u's point of view:
  /// returns kUProviderOfV if u is v's provider (canonicalized internally).
  /// This and the two predicates below throw std::invalid_argument when an
  /// id is out of range or (u, v) is not an edge.
  [[nodiscard]] EdgeRel rel_canonical(bsr::graph::NodeId u,
                                      bsr::graph::NodeId v) const;

  /// True iff v is a provider of u (u pays v).
  [[nodiscard]] bool is_provider_of(bsr::graph::NodeId provider,
                                    bsr::graph::NodeId customer) const;

  [[nodiscard]] bool is_peer(bsr::graph::NodeId u, bsr::graph::NodeId v) const;

  /// Canonical labels of u's adjacency slots, aligned with
  /// graph.neighbors(u) — the O(1)-per-edge fast path used by traversals.
  /// Interpret direction with rel_means_v_provides_u().
  [[nodiscard]] std::span<const EdgeRel> canonical_rels_of(bsr::graph::NodeId u) const {
    return {rel_by_slot_.data() + offsets_[u],
            rel_by_slot_.data() + offsets_[u + 1]};
  }

  /// Decodes a canonical label for the directed view u -> v: true iff v is
  /// u's provider.
  [[nodiscard]] static constexpr bool rel_means_v_provides_u(
      EdgeRel rel, bsr::graph::NodeId u, bsr::graph::NodeId v) noexcept {
    return (u < v) ? rel == EdgeRel::kVProviderOfU : rel == EdgeRel::kUProviderOfV;
  }

  /// Every slot's canonical label, aligned with graph.adjacency().
  [[nodiscard]] std::span<const EdgeRel> canonical_rels() const noexcept {
    return rel_by_slot_;
  }

  [[nodiscard]] std::size_t num_edges() const noexcept { return rel_by_slot_.size() / 2; }

  [[nodiscard]] double peer_fraction() const;

  /// True iff the CSR arrays this snapshot holds (offsets and adjacency)
  /// equal g's, i.e. the slot-aligned accessors index g's lists. One pass
  /// over both arrays.
  [[nodiscard]] bool aligned_with(const bsr::graph::CsrGraph& g) const noexcept;

  friend bool operator==(const EdgeRelations&, const EdgeRelations&) = default;

 private:
  void snapshot(const bsr::graph::CsrGraph& g);
  [[nodiscard]] std::size_t slot(bsr::graph::NodeId u, bsr::graph::NodeId v) const;

  std::vector<std::uint64_t> offsets_;       // degree prefix sums, mirrors CSR
  std::vector<bsr::graph::NodeId> adjacency_; // sorted neighbor snapshot
  std::vector<EdgeRel> rel_by_slot_;          // canonical rel per adjacency slot
};

/// Edge predicate marking edges exempt from policy (freely usable both ways).
using EdgeOverrideFn = std::function<bool(bsr::graph::NodeId, bsr::graph::NodeId)>;

/// Valley-free BFS distances from `source`.
///
/// A path is admissible if it consists of zero or more customer->provider
/// hops, at most one peer hop, then zero or more provider->customer hops.
/// Override edges may be used at any point without changing phase.
/// `edge_ok` (optional) additionally restricts usable edges — pass the
/// dominated-subgraph predicate to evaluate broker sets under policy.
/// Returns hop distances (graph::kUnreachable when unreachable). Throws
/// std::invalid_argument when `source` is out of range or `rels` was not
/// built over `g` (EdgeRelations::aligned_with).
[[nodiscard]] std::vector<std::uint32_t> valley_free_distances(
    const bsr::graph::CsrGraph& g, const EdgeRelations& rels,
    bsr::graph::NodeId source,
    const std::function<bool(bsr::graph::NodeId, bsr::graph::NodeId)>& edge_ok = {},
    const EdgeOverrideFn& override_edge = {});

/// Shortest valley-free path src..dst as a vertex sequence (what a
/// hop-count-minimizing BGP decision process would pick under export
/// policies); empty if unreachable or an id is out of range. Same
/// state-expanded BFS and phase rule as valley_free_distances, stopped at
/// dst. Throws std::invalid_argument when `rels` was not built over `g`.
[[nodiscard]] std::vector<bsr::graph::NodeId> valley_free_path(
    const bsr::graph::CsrGraph& g, const EdgeRelations& rels,
    bsr::graph::NodeId src, bsr::graph::NodeId dst);

/// Infers relationships from degrees (Gao-style heuristic): an edge between
/// nodes whose degrees differ by more than `peer_ratio`x is provider->customer
/// (higher degree side is the provider); otherwise peering. Used to test the
/// inference path against generator ground truth.
[[nodiscard]] std::vector<EdgeRel> infer_relationships_by_degree(
    const bsr::graph::CsrGraph& g, std::span<const bsr::graph::Edge> edges,
    double peer_ratio = 2.5);

}  // namespace bsr::topology
