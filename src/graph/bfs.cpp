#include "graph/bfs.hpp"

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
  auto& ws = engine::tls_workspace();
  engine::bfs(g, source, ws, engine::AllEdges{}, engine::TargetStop{target});
  return ws.path_to(target);
}

}  // namespace bsr::graph
