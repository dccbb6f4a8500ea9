#include "topology/renumber.hpp"

#include <stdexcept>
#include <vector>

namespace bsr::topology {

using bsr::graph::NodeId;
using bsr::graph::Renumbering;

RenumberedTopology renumber_topology(const InternetTopology& topo) {
  const NodeId n = topo.graph.num_vertices();
  const auto old_rels = topo.relations.canonical_rels();
  if (old_rels.size() != topo.graph.adjacency().size()) {
    throw std::invalid_argument("renumber_topology: relations not aligned with graph");
  }
  Renumbering ren =
      Renumbering::degree_descending_segmented(topo.graph, topo.num_ases);

  // One transpose pass relabels the adjacency and carries every slot's label
  // to the slot that now holds its edge. A label names the provider relative
  // to the edge's smaller id, so it flips when the relabel swaps which
  // endpoint is smaller.
  std::vector<EdgeRel> rels(old_rels.size());
  bsr::graph::CsrGraph graph = ren.apply(
      topo.graph, [&](std::uint64_t old_slot, std::uint64_t new_slot, bool swapped) {
        rels[new_slot] = swapped ? reversed(old_rels[old_slot]) : old_rels[old_slot];
      });

  RenumberedTopology out{
      InternetTopology{
          .graph = std::move(graph),
          .meta = {},
          .relations = {},
          .num_ases = topo.num_ases,
          .num_ixps = topo.num_ixps,
      },
      std::move(ren),
  };
  out.topo.relations = EdgeRelations(out.topo.graph, std::move(rels));
  out.topo.meta.resize(n);
  for (NodeId new_id = 0; new_id < n; ++new_id) {
    out.topo.meta[new_id] = topo.meta[out.renumbering.to_old(new_id)];
  }
  return out;
}

}  // namespace bsr::topology
