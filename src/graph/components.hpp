// Connected components of a CsrGraph.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr_graph.hpp"

namespace bsr::graph {

struct Components {
  std::vector<NodeId> label;        // component id per vertex, dense [0, count)
  std::vector<std::uint32_t> size;  // size per component id
  NodeId count = 0;

  /// Id of the largest component (count must be > 0).
  [[nodiscard]] NodeId largest() const;
  [[nodiscard]] std::uint32_t largest_size() const;
};

/// Components of the full graph.
[[nodiscard]] Components connected_components(const CsrGraph& g);

/// Vertex ids of the largest connected component, sorted ascending.
[[nodiscard]] std::vector<NodeId> largest_component_vertices(const CsrGraph& g);

}  // namespace bsr::graph
