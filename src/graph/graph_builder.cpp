#include "graph/graph_builder.hpp"

#include <algorithm>
#include <stdexcept>

namespace bsr::graph {

void GraphBuilder::add_edge(NodeId u, NodeId v) {
  if (u >= num_vertices_ || v >= num_vertices_) {
    throw std::out_of_range("GraphBuilder::add_edge: vertex id out of range");
  }
  if (u == v) return;  // self-loops carry no information for domination
  if (u > v) std::swap(u, v);
  edges_.push_back(Edge{u, v});
}

CsrGraph GraphBuilder::build() const {
  std::vector<Edge> sorted(edges_.begin(), edges_.end());
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  return csr_from_sorted_edges(num_vertices_, sorted);
}

CsrGraph csr_from_sorted_edges(NodeId num_vertices, std::span<const Edge> edges) {
  // Both directions of every edge must index into NodeId-typed adjacency
  // slots; guard the 32-bit ceiling before the arithmetic below can wrap.
  BSR_DCHECK(num_vertices < kUnreachable);
  BSR_DCHECK(edges.size() <= (std::size_t{1} << 31));

  std::vector<std::uint64_t> offsets(static_cast<std::size_t>(num_vertices) + 1, 0);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const Edge& e = edges[i];
    if (e.u >= e.v || e.v >= num_vertices || (i > 0 && !(edges[i - 1] < e))) {
      throw std::invalid_argument(
          "csr_from_sorted_edges: edges must be canonical, in range, strictly "
          "ascending");
    }
    ++offsets[e.u + 1];
    ++offsets[e.v + 1];
  }
  for (std::size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];

  std::vector<NodeId> adjacency(edges.size() * 2);
  std::vector<std::uint64_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const Edge& e : edges) {
    adjacency[cursor[e.u]++] = e.v;
    adjacency[cursor[e.v]++] = e.u;
  }
  return CsrGraph(std::move(offsets), std::move(adjacency));
}

}  // namespace bsr::graph
