// Compressed-sparse-row (CSR) representation of an undirected graph.
//
// The AS-level Internet graph we study has ~52k vertices and ~650k undirected
// edges; CSR keeps the whole structure in two flat arrays so BFS/greedy sweeps
// stay cache-friendly. Vertices are dense 32-bit ids [0, num_vertices).
//
// The graph is immutable once built; use GraphBuilder to construct one.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "graph/check.hpp"

namespace bsr::graph {

using NodeId = std::uint32_t;

/// Sentinel distance/id for unreachable or unset vertices.
inline constexpr std::uint32_t kUnreachable = std::numeric_limits<std::uint32_t>::max();

/// An undirected edge as a canonical (min, max) vertex pair.
struct Edge {
  NodeId u = 0;
  NodeId v = 0;

  friend constexpr bool operator==(const Edge&, const Edge&) = default;
  friend constexpr auto operator<=>(const Edge&, const Edge&) = default;
};

/// Immutable undirected graph in CSR form. Each undirected edge {u, v}
/// appears twice in the adjacency array: once under u and once under v.
class CsrGraph {
 public:
  CsrGraph() = default;

  /// Builds from offsets/adjacency arrays. Prefer GraphBuilder::build().
  /// Throws std::invalid_argument if the arrays are not a valid CSR
  /// (offsets non-monototic, neighbor ids out of range, ...).
  CsrGraph(std::vector<std::uint64_t> offsets, std::vector<NodeId> adjacency);

  [[nodiscard]] NodeId num_vertices() const noexcept {
    return offsets_.empty() ? 0 : static_cast<NodeId>(offsets_.size() - 1);
  }

  /// Number of undirected edges (each counted once).
  [[nodiscard]] std::uint64_t num_edges() const noexcept { return adjacency_.size() / 2; }

  [[nodiscard]] std::uint32_t degree(NodeId v) const noexcept {
    BSR_DCHECK(v < num_vertices());
    return static_cast<std::uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  /// Neighbors of v, sorted ascending, no duplicates, no self-loops.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId v) const noexcept {
    BSR_DCHECK(v < num_vertices());
    return {adjacency_.data() + offsets_[v], adjacency_.data() + offsets_[v + 1]};
  }

  /// True iff the (sorted) adjacency of u contains v. O(log deg(u)).
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const noexcept;

  /// All undirected edges, canonical (u < v), sorted. O(|E|).
  [[nodiscard]] std::vector<Edge> edges() const;

  /// The raw CSR arrays: neighbors(v) is adjacency()[offsets()[v],
  /// offsets()[v + 1]). An index into adjacency() is an adjacency slot.
  [[nodiscard]] std::span<const std::uint64_t> offsets() const noexcept { return offsets_; }
  [[nodiscard]] std::span<const NodeId> adjacency() const noexcept { return adjacency_; }

  [[nodiscard]] bool empty() const noexcept { return num_vertices() == 0; }

  friend bool operator==(const CsrGraph&, const CsrGraph&) = default;

 private:
  std::vector<std::uint64_t> offsets_;  // size num_vertices + 1
  std::vector<NodeId> adjacency_;       // size 2 * num_edges
};

}  // namespace bsr::graph
