#include "graph/bfs.hpp"

#include <algorithm>

#include "graph/check.hpp"
#include "graph/engine.hpp"

namespace bsr::graph {

std::vector<std::uint32_t> bfs_distances(const CsrGraph& g, NodeId source) {
  auto& ws = engine::tls_workspace();
  engine::bfs(g, source, ws, engine::AllEdges{});
  std::vector<std::uint32_t> dense(g.num_vertices(), kUnreachable);
  for (const NodeId v : ws.visit_order()) dense[v] = ws.dist_unchecked(v);
  return dense;
}

std::vector<NodeId> bfs_shortest_path(const CsrGraph& g, NodeId source, NodeId target) {
  BSR_DCHECK(source < g.num_vertices() && target < g.num_vertices());
  if (source == target) return {source};
  auto& ws = engine::tls_workspace();
  engine::bfs(g, source, ws, engine::AllEdges{});
  if (!ws.visited(target)) return {};
  std::vector<NodeId> path{target};
  for (NodeId w = target; w != source; w = ws.parent(w)) path.push_back(ws.parent(w));
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace bsr::graph
