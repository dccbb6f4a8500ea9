#include "graph/fault_plane.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/check.hpp"
#include "graph/graph_builder.hpp"
#include "obs/journal.hpp"

namespace bsr::graph {

FailureGroup incident_group(const CsrGraph& g, NodeId center) {
  BSR_DCHECK(center < g.num_vertices());
  FailureGroup group;
  group.center = center;
  group.edges.reserve(g.degree(center));
  for (const NodeId v : g.neighbors(center)) {
    group.edges.push_back(Edge{std::min(center, v), std::max(center, v)});
  }
  return group;
}

FailureGroup region_group(const CsrGraph& g, std::span<const NodeId> region) {
  FailureGroup group;
  if (region.empty()) return group;
  group.center = region.front();
  std::vector<bool> in_region(g.num_vertices(), false);
  for (const NodeId v : region) {
    BSR_DCHECK(v < g.num_vertices());
    in_region[v] = true;
  }
  for (const NodeId u : region) {
    for (const NodeId v : g.neighbors(u)) {
      // Emit each edge once: intra-region edges from the smaller endpoint,
      // boundary edges from the region side.
      if (in_region[v] && !(u < v)) continue;
      group.edges.push_back(Edge{std::min(u, v), std::max(u, v)});
    }
  }
  return group;
}

FaultPlane::FaultPlane(const CsrGraph& g) : graph_(&g) {
  const NodeId n = g.num_vertices();
  slot_begin_.assign(n + 1, 0);
  for (NodeId v = 0; v < n; ++v) slot_begin_[v + 1] = slot_begin_[v] + g.degree(v);
  edge_id_.assign(slot_begin_[n], 0);
  edge_down_.assign(g.num_edges(), 0);
  node_down_.assign(n, 0);

  // Canonical edge ids in (u, v), u < v enumeration order, each written to
  // both of its slots at once. Lists are sorted and u ascends, so the
  // smaller neighbours of v arrive in the order they sit at the front of v's
  // list: a cursor per vertex (`mirror`) hands out v's next mirror slot, and
  // by the time the scan reaches u, mirror[u] has passed all of u's smaller
  // neighbours, whose ids are already in place.
  std::vector<std::uint64_t> mirror(slot_begin_.begin(), slot_begin_.end() - 1);
  std::uint64_t next = 0;
  for (NodeId u = 0; u < n; ++u) {
    const auto nbrs = g.neighbors(u);
    for (std::uint64_t slot = mirror[u]; slot < slot_begin_[u + 1]; ++slot) {
      const NodeId v = nbrs[slot - slot_begin_[u]];
      BSR_DCHECK(u < v && g.neighbors(v)[mirror[v] - slot_begin_[v]] == u);
      edge_id_[slot] = next;
      edge_id_[mirror[v]++] = next++;
    }
  }
  BSR_DCHECK(next == g.num_edges());
}

std::uint64_t FaultPlane::slot_of(NodeId u, NodeId v) const noexcept {
  const auto nbrs = graph_->neighbors(u);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
  if (it == nbrs.end() || *it != v) return kNoSlot;
  return slot_begin_[u] + static_cast<std::uint64_t>(it - nbrs.begin());
}

bool FaultPlane::fail_edge(NodeId u, NodeId v) {
  if (u >= graph_->num_vertices() || v >= graph_->num_vertices()) return false;
  const std::uint64_t slot = slot_of(u, v);
  if (slot == kNoSlot) return false;
  auto& depth = edge_down_[edge_id_[slot]];
  ++depth;
  if (depth == 1) {
    ++failed_edges_;
    return true;
  }
  return false;
}

bool FaultPlane::heal_edge(NodeId u, NodeId v) {
  if (u >= graph_->num_vertices() || v >= graph_->num_vertices()) return false;
  const std::uint64_t slot = slot_of(u, v);
  if (slot == kNoSlot) return false;
  auto& depth = edge_down_[edge_id_[slot]];
  if (depth == 0) return false;
  --depth;
  if (depth == 0) {
    --failed_edges_;
    return true;
  }
  return false;
}

bool FaultPlane::fail_vertex(NodeId v) {
  BSR_DCHECK(v < node_down_.size());
  auto& depth = node_down_[v];
  ++depth;
  if (depth == 1) {
    ++failed_vertices_;
    return true;
  }
  return false;
}

bool FaultPlane::heal_vertex(NodeId v) {
  BSR_DCHECK(v < node_down_.size());
  auto& depth = node_down_[v];
  if (depth == 0) return false;
  --depth;
  if (depth == 0) {
    --failed_vertices_;
    return true;
  }
  return false;
}

std::size_t FaultPlane::fail_group(const FailureGroup& group) {
  std::size_t newly_down = 0;
  for (const Edge& e : group.edges) {
    // Group edges are canonical (u < v) and in range by construction; a
    // violation means the group was built against a different graph.
    BSR_DCHECK(e.u < e.v && e.v < graph_->num_vertices());
    if (fail_edge(e.u, e.v)) ++newly_down;
  }
  // Stamped at the journal clock: the plane has no notion of simulated time,
  // but the sim loop driving it does (BSR_EVENT_TIME).
  BSR_EVENT_NOW(FaultGroupFail, group.center, newly_down);
  return newly_down;
}

std::size_t FaultPlane::heal_group(const FailureGroup& group) {
  std::size_t newly_up = 0;
  for (const Edge& e : group.edges) {
    BSR_DCHECK(e.u < e.v && e.v < graph_->num_vertices());
    if (heal_edge(e.u, e.v)) ++newly_up;
  }
  BSR_EVENT_NOW(FaultGroupHeal, group.center, newly_up);
  return newly_up;
}

void FaultPlane::heal_all() {
  std::fill(edge_down_.begin(), edge_down_.end(), 0u);
  std::fill(node_down_.begin(), node_down_.end(), 0u);
  failed_edges_ = 0;
  failed_vertices_ = 0;
}

bool FaultPlane::edge_ok(NodeId u, NodeId v) const noexcept {
  if (u >= graph_->num_vertices() || v >= graph_->num_vertices()) return false;
  if (node_down_[u] != 0 || node_down_[v] != 0) return false;
  const std::uint64_t slot = slot_of(u, v);
  return slot != kNoSlot && edge_down_[edge_id_[slot]] == 0;
}

CsrGraph FaultPlane::materialize() const {
  const NodeId n = graph_->num_vertices();
  GraphBuilder builder(n);
  builder.reserve(graph_->num_edges() - failed_edges_);
  for (NodeId u = 0; u < n; ++u) {
    if (node_down_[u] != 0) continue;
    const auto nbrs = graph_->neighbors(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const NodeId v = nbrs[i];
      if (u >= v) continue;  // canonical direction only
      if (node_down_[v] != 0 || !edge_up_at(u, i)) continue;
      builder.add_edge(u, v);
    }
  }
  return builder.build();
}

std::vector<FlapEvent> make_flap_schedule(std::size_t num_groups,
                                          const FlapConfig& config, Rng& rng) {
  if (num_groups == 0) {
    throw std::invalid_argument("make_flap_schedule: no failure groups");
  }
  if (config.outage_rate <= 0.0 || config.mean_downtime <= 0.0 ||
      config.horizon <= 0.0) {
    throw std::invalid_argument(
        "make_flap_schedule: rates/horizon must be positive");
  }
  std::vector<FlapEvent> events;
  double t = rng.exponential(config.outage_rate);
  while (t < config.horizon) {
    const auto group = static_cast<std::size_t>(rng.uniform(num_groups));
    events.push_back({t, group, FlapEvent::Kind::kFail});
    const double heal_at = t + rng.exponential(1.0 / config.mean_downtime);
    events.push_back({heal_at, group, FlapEvent::Kind::kHeal});
    t += rng.exponential(config.outage_rate);
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const FlapEvent& a, const FlapEvent& b) {
                     return a.time < b.time;
                   });
  return events;
}

void apply_flap_event(FaultPlane& plane, std::span<const FailureGroup> groups,
                      const FlapEvent& event) {
  BSR_DCHECK(event.group < groups.size());
  if (event.kind == FlapEvent::Kind::kFail) {
    plane.fail_group(groups[event.group]);
  } else {
    plane.heal_group(groups[event.group]);
  }
}

}  // namespace bsr::graph
