#include "graph/components.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/engine.hpp"
#include "graph/rollback_union_find.hpp"

namespace bsr::graph {

NodeId Components::largest() const {
  if (count == 0) throw std::logic_error("Components::largest: no components");
  const auto it = std::max_element(size.begin(), size.end());
  return static_cast<NodeId>(it - size.begin());
}

std::uint32_t Components::largest_size() const {
  if (count == 0) return 0;
  return *std::max_element(size.begin(), size.end());
}

namespace {

// Labels components in ascending-vertex scan order, so labels are canonical:
// any union-find that produces the same partition yields identical output.
Components from_union_find(const CsrGraph& g, const RollbackUnionFind& uf) {
  Components out;
  const NodeId n = g.num_vertices();
  out.label.assign(n, 0);
  std::vector<NodeId> root_to_label(n, kUnreachable);
  for (NodeId v = 0; v < n; ++v) {
    const NodeId r = uf.find(v);
    if (root_to_label[r] == kUnreachable) {
      root_to_label[r] = out.count++;
      out.size.push_back(0);
    }
    out.label[v] = root_to_label[r];
    ++out.size[out.label[v]];
  }
  return out;
}

}  // namespace

Components connected_components(const CsrGraph& g) {
  RollbackUnionFind uf(g.num_vertices());
  engine::unite_edges(g, uf, engine::AllEdges{});
  return from_union_find(g, uf);
}

std::vector<NodeId> largest_component_vertices(const CsrGraph& g) {
  const Components comps = connected_components(g);
  if (comps.count == 0) return {};
  const NodeId target = comps.largest();
  std::vector<NodeId> out;
  out.reserve(comps.size[target]);
  for (NodeId v = 0; v < g.num_vertices(); ++v) {
    if (comps.label[v] == target) out.push_back(v);
  }
  return out;
}

}  // namespace bsr::graph
