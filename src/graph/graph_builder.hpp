// Mutable edge accumulator that produces an immutable CsrGraph.
//
// Duplicate edges and self-loops are tolerated on input and removed at
// build() time, which lets topology generators add edges opportunistically
// (e.g. preferential attachment re-drawing the same target) without
// book-keeping.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr_graph.hpp"

namespace bsr::graph {

class GraphBuilder {
 public:
  /// num_vertices fixes the vertex id range [0, num_vertices).
  explicit GraphBuilder(NodeId num_vertices) : num_vertices_(num_vertices) {}

  [[nodiscard]] NodeId num_vertices() const noexcept { return num_vertices_; }

  /// Adds an undirected edge. Self-loops are silently dropped; duplicates
  /// are deduplicated at build(). Throws std::out_of_range on bad ids.
  void add_edge(NodeId u, NodeId v);

  /// Reserve capacity for roughly this many edges (optimization only).
  void reserve(std::size_t edges) { edges_.reserve(edges); }

  /// Number of edges added so far (before dedup).
  [[nodiscard]] std::size_t pending_edges() const noexcept { return edges_.size(); }

  /// Builds the CSR graph. The builder remains usable afterwards.
  [[nodiscard]] CsrGraph build() const;

 private:
  NodeId num_vertices_;
  std::vector<Edge> edges_;  // canonical (u < v), possibly duplicated
};

/// The CSR graph of a canonical edge list (u < v < num_vertices, strictly
/// ascending): a degree count, a prefix sum and one scatter. A vertex's
/// smaller neighbors all come from edges that sort before its own (u, *)
/// run, so every adjacency list fills in ascending order without a sort.
/// Throws std::invalid_argument if `edges` is not in that form.
[[nodiscard]] CsrGraph csr_from_sorted_edges(NodeId num_vertices,
                                             std::span<const Edge> edges);

}  // namespace bsr::graph
