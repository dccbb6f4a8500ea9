// Vertex renumbering (relabeling) pass for cache locality.
//
// BFS and greedy sweeps over the internet topology are memory-bound: every
// adjacency entry is a random load into dist/root/size arrays indexed by
// neighbor id. The generator hands out ids in creation order (tier by tier),
// so a hub's neighbors are scattered across the whole id range and nearly
// every neighbor load misses. Renumbering relabels vertices so that
// high-traffic ids cluster at the bottom of the range (degree-descending) or
// follow traversal order (BFS), shrinking the average |u - v| gap across an
// edge by an order of magnitude and with it the working set of the hot loops.
//
// A Renumbering is a permutation with both directions materialized:
//   to_new(old_id) — where an original vertex landed,
//   to_old(new_id) — which original vertex a relabeled slot holds.
// Everything downstream stays in *original* ids: solvers accept an optional
// Renumbering and iterate candidates in original-id order (so tie-breaks,
// and therefore results, are bit-identical with and without the pass), and
// the adapters below map id lists and edges across the permutation
// (broker::renumber_to_new/_to_old map broker sets). The identity
// permutation is a byte-for-byte no-op everywhere.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "graph/check.hpp"
#include "graph/csr_graph.hpp"

namespace bsr::graph {

class Renumbering {
 public:
  /// Empty permutation over zero vertices.
  Renumbering() = default;

  /// The identity permutation over n vertices.
  [[nodiscard]] static Renumbering identity(NodeId n);

  /// From an explicit new-id ordering: order[new_id] = old_id. Throws
  /// std::invalid_argument unless `order` is a permutation of [0, size).
  [[nodiscard]] static Renumbering from_new_order(std::vector<NodeId> order);

  /// Degree-descending relabeling: new id 0 is the highest-degree vertex
  /// (ties by ascending old id — same order as vertices_by_degree_desc).
  [[nodiscard]] static Renumbering degree_descending(const CsrGraph& g);

  /// Degree-descending within [0, boundary) and within [boundary, n)
  /// independently, so segment invariants (e.g. InternetTopology::is_ixp,
  /// which tests v >= num_ases) survive the relabeling.
  [[nodiscard]] static Renumbering degree_descending_segmented(const CsrGraph& g,
                                                               NodeId boundary);

  /// BFS discovery order from `source` (unfiltered); vertices unreachable
  /// from the source keep their relative order after the reachable ones.
  [[nodiscard]] static Renumbering bfs_order(const CsrGraph& g, NodeId source);

  [[nodiscard]] NodeId size() const noexcept {
    return static_cast<NodeId>(to_new_.size());
  }

  [[nodiscard]] bool is_identity() const;

  [[nodiscard]] NodeId to_new(NodeId old_id) const noexcept {
    BSR_DCHECK(old_id < to_new_.size());
    return to_new_[old_id];
  }
  [[nodiscard]] NodeId to_old(NodeId new_id) const noexcept {
    BSR_DCHECK(new_id < to_old_.size());
    return to_old_[new_id];
  }

  [[nodiscard]] std::span<const NodeId> to_new_map() const noexcept { return to_new_; }
  [[nodiscard]] std::span<const NodeId> to_old_map() const noexcept { return to_old_; }

  /// The relabeled graph: same edge set with both endpoints mapped through
  /// to_new. Throws std::invalid_argument if g's vertex count differs from
  /// size().
  [[nodiscard]] CsrGraph apply(const CsrGraph& g) const;

  /// apply() as one transpose pass that also reports where each edge's slots
  /// went. New ids are visited in ascending order and each is appended to
  /// its neighbors' lists, so every list fills sorted with no sort pass.
  /// Calls on_entry(old_slot, new_slot, swapped) once per adjacency slot of
  /// g: new_slot holds the same undirected edge as old_slot (seen from the
  /// other endpoint), and `swapped` is true when the relabel changes which
  /// endpoint of that edge has the smaller id.
  template <class OnEntry>
  [[nodiscard]] CsrGraph apply(const CsrGraph& g, OnEntry&& on_entry) const;

  /// Maps an id list (order preserved — selection order survives).
  [[nodiscard]] std::vector<NodeId> map_to_new(std::span<const NodeId> old_ids) const;
  [[nodiscard]] std::vector<NodeId> map_to_old(std::span<const NodeId> new_ids) const;

  /// Maps a canonical edge, re-canonicalizing (the permutation may swap the
  /// endpoint order).
  [[nodiscard]] Edge map_edge_to_new(Edge e) const;

 private:
  std::vector<NodeId> to_new_;  // to_new_[old_id] = new_id
  std::vector<NodeId> to_old_;  // to_old_[new_id] = old_id
};

template <class OnEntry>
CsrGraph Renumbering::apply(const CsrGraph& g, OnEntry&& on_entry) const {
  if (g.num_vertices() != size()) {
    throw std::invalid_argument("Renumbering::apply: vertex count mismatch");
  }
  const NodeId n = size();
  const auto old_offsets = g.offsets();
  const auto old_adjacency = g.adjacency();
  // Degrees are label-invariant, so the new offsets follow from the old.
  std::vector<std::uint64_t> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (NodeId x = 0; x < n; ++x) offsets[x + 1] = offsets[x] + g.degree(to_old_[x]);
  std::vector<NodeId> adjacency(old_adjacency.size());
  std::vector<std::uint64_t> cursor(offsets.begin(), offsets.end() - 1);
  for (NodeId y = 0; y < n; ++y) {
    const NodeId b = to_old_[y];
    for (std::uint64_t s = old_offsets[b]; s < old_offsets[b + 1]; ++s) {
      const NodeId a = old_adjacency[s];
      const NodeId x = to_new_[a];
      const std::uint64_t slot = cursor[x]++;
      adjacency[slot] = y;
      on_entry(s, slot, (a < b) != (x < y));
    }
  }
  return CsrGraph(std::move(offsets), std::move(adjacency));
}

/// Mean |u - v| over every directed adjacency entry — the cache-locality
/// metric the pass optimizes (lower = neighbor loads land closer together).
/// 0 for an edgeless graph.
[[nodiscard]] double average_neighbor_gap(const CsrGraph& g);

/// Integer numerator of average_neighbor_gap (sum of |u - v| over directed
/// adjacency entries) — for bit-exact artifacts.
[[nodiscard]] std::uint64_t total_neighbor_gap(const CsrGraph& g);

}  // namespace bsr::graph
