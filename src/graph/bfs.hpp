// Breadth-first search conveniences on CsrGraph.
//
// The AS graph is unweighted, so shortest hop distances are BFS distances.
// These one-shot wrappers run the engine kernels (graph/engine.hpp) on the
// calling thread's scratch workspace. Code that runs many traversals, or
// needs an edge filter (e.g. the dominated subgraph G_B: edges with at least
// one broker endpoint), calls engine::bfs with a Workspace and a filter
// struct directly.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr_graph.hpp"

namespace bsr::graph {

/// Dense BFS distances from `source` (kUnreachable if not reached); allocates
/// the result per call.
[[nodiscard]] std::vector<std::uint32_t> bfs_distances(const CsrGraph& g, NodeId source);

/// Shortest path (as a vertex sequence source..target) via BFS parent
/// pointers; empty if unreachable. The BFS stops once it reaches the target,
/// so a near target costs less than O(V + E).
[[nodiscard]] std::vector<NodeId> bfs_shortest_path(const CsrGraph& g, NodeId source,
                                                    NodeId target);

}  // namespace bsr::graph
