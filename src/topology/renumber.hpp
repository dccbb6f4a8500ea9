// Locality renumbering for generated topologies.
//
// The internet generator hands out ids in creation order (tier-1 first, then
// transit, stubs, remote stubs, IXPs last), which scatters each vertex's
// neighbors across the whole id range — every adjacency-list hop during BFS
// or a gain sweep is a cache miss at 51k+ vertices. renumber_topology relabels
// vertices in degree-descending order *within each segment* (ASes keep
// [0, num_ases), IXPs keep [num_ases, n)), which packs the high-degree core
// that traversals touch most into a small id prefix and cuts the average
// neighbor-id gap by several fold.
//
// The segmentation preserves the InternetTopology id contract
// (is_ixp(v) == v >= num_ases); NodeMeta is permuted alongside and every
// relationship label rides the same transpose pass that relabels the
// adjacency (Renumbering::apply), so every consumer of the returned topology
// works unchanged. The returned Renumbering maps ids back to the original
// label space for reporting and round-trip checks.
#pragma once

#include "graph/renumbering.hpp"
#include "topology/internet.hpp"

namespace bsr::topology {

struct RenumberedTopology {
  InternetTopology topo;
  bsr::graph::Renumbering renumbering;  // original <-> renumbered ids
};

/// Relabels `topo` degree-descending within the AS and IXP segments.
/// Deterministic: ties break on ascending original id.
[[nodiscard]] RenumberedTopology renumber_topology(const InternetTopology& topo);

}  // namespace bsr::topology
