// Link-level fault injection over an immutable CsrGraph.
//
// Real inter-domain outages are rarely clean vertex removals: a fiber cut
// drops one adjacency, an IXP outage drops every membership edge at once, a
// regional blackout takes a whole set of ASes (and everything incident to
// them) off the air. FaultPlane is a cheap mutable overlay that marks edges
// and vertices as down without ever rebuilding the CSR arrays, so failure
// sweeps and flap simulations run at bitmask speed.
//
// Failure state is *reference counted*: failing an edge twice (e.g. via two
// overlapping correlated groups) requires two heals before the edge carries
// traffic again. This makes arbitrary interleavings of group failures and
// heals restore the exact original connectivity — a property the unit tests
// cross-check against brute-force CSR rebuilds.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/rng.hpp"

namespace bsr::graph {

/// A set of edges that fail (and heal) together, e.g. every membership edge
/// of one IXP, or every edge touching a regional set of ASes.
struct FailureGroup {
  NodeId center = 0;         // the IXP / hub / region label (informational)
  std::vector<Edge> edges;   // canonical (u < v) member edges
};

/// All structural edges incident to `center` — the "IXP outage" group.
[[nodiscard]] FailureGroup incident_group(const CsrGraph& g, NodeId center);

/// All structural edges with at least one endpoint in `region` (the "AS
/// region blackout" group). `region[0]` is used as the group label.
[[nodiscard]] FailureGroup region_group(const CsrGraph& g,
                                        std::span<const NodeId> region);

/// Mutable failure overlay bound to one graph. The graph must outlive the
/// plane. Construction is O(|V| + |E| log d) to index canonical edge ids;
/// all per-edge operations afterwards are O(log d) (binary search in the
/// adjacency of the smaller-id endpoint) and all per-slot queries are O(1).
class FaultPlane {
 public:
  explicit FaultPlane(const CsrGraph& g);

  [[nodiscard]] const CsrGraph& graph() const noexcept { return *graph_; }

  // --- single-link and vertex failures (reference counted) ---------------

  /// Fails edge {u, v}. Returns true iff the edge exists and transitioned
  /// from up to down (a repeated failure only deepens the refcount).
  bool fail_edge(NodeId u, NodeId v);

  /// Heals one failure layer of edge {u, v}. Returns true iff the edge
  /// transitioned from down to up. Healing an up edge is a no-op.
  bool heal_edge(NodeId u, NodeId v);

  /// Fails vertex `v`: every incident edge becomes unusable while the
  /// vertex is down, independent of edge failure state. Returns true iff
  /// the vertex transitioned up -> down.
  bool fail_vertex(NodeId v);
  bool heal_vertex(NodeId v);

  // --- correlated groups --------------------------------------------------

  /// Fails every member edge (one refcount layer each); returns how many
  /// edges newly transitioned to down.
  std::size_t fail_group(const FailureGroup& group);

  /// Heals one layer of every member edge; returns how many edges newly
  /// transitioned to up.
  std::size_t heal_group(const FailureGroup& group);

  /// Drops all failure state (edges and vertices).
  void heal_all();

  // --- queries ------------------------------------------------------------

  [[nodiscard]] bool vertex_ok(NodeId v) const noexcept {
    return node_down_[v] == 0;
  }

  /// True iff {u, v} is a structural edge, currently up, with both
  /// endpoints up. O(log d).
  [[nodiscard]] bool edge_ok(NodeId u, NodeId v) const noexcept;

  /// O(1) link-state query for the i-th incident edge of `u`, where `i`
  /// indexes graph().neighbors(u). Checks only the link itself, not the
  /// endpoints — pair with vertex_ok() in traversal loops.
  [[nodiscard]] bool edge_up_at(NodeId u, std::size_t i) const noexcept {
    return edge_down_[edge_id_[slot_begin_[u] + i]] == 0;
  }

  [[nodiscard]] std::uint64_t num_failed_edges() const noexcept {
    return failed_edges_;
  }
  [[nodiscard]] NodeId num_failed_vertices() const noexcept {
    return failed_vertices_;
  }

  /// True iff no edge or vertex failure is active.
  [[nodiscard]] bool pristine() const noexcept {
    return failed_edges_ == 0 && failed_vertices_ == 0;
  }

  /// Rebuilds the surviving subgraph as a fresh CsrGraph (same vertex ids;
  /// down vertices become isolated). O(|V| + |E|) — intended for tests and
  /// brute-force cross-checks, not hot paths.
  [[nodiscard]] CsrGraph materialize() const;

 private:
  /// Directed slot index of v within u's adjacency, or npos if absent.
  [[nodiscard]] std::uint64_t slot_of(NodeId u, NodeId v) const noexcept;

  static constexpr std::uint64_t kNoSlot = ~std::uint64_t{0};

  const CsrGraph* graph_;
  std::vector<std::uint64_t> slot_begin_;   // size |V|+1: prefix degrees
  std::vector<std::uint64_t> edge_id_;      // per directed slot -> canonical id
  std::vector<std::uint32_t> edge_down_;    // per canonical edge: failure depth
  std::vector<std::uint32_t> node_down_;    // per vertex: failure depth
  std::uint64_t failed_edges_ = 0;          // edges with edge_down_ > 0
  NodeId failed_vertices_ = 0;              // vertices with node_down_ > 0
};

// --- deterministic flap schedules -----------------------------------------

/// Poisson outage process over a fixed set of failure groups.
struct FlapConfig {
  double outage_rate = 1.0;     // mean group outages per time unit
  double mean_downtime = 5.0;   // mean exponential outage duration
  double horizon = 100.0;       // outages start strictly before the horizon
};

struct FlapEvent {
  double time = 0.0;
  std::size_t group = 0;        // index into the caller's group list
  enum class Kind : std::uint8_t { kFail, kHeal } kind = Kind::kFail;
};

/// Time-sorted fail-at/heal-at events, deterministic in `rng`. Every kFail
/// has a matching kHeal (the heal may land past the horizon), so applying
/// the whole schedule to a FaultPlane returns it to pristine state.
/// Throws std::invalid_argument on non-positive rates/horizon or zero groups.
[[nodiscard]] std::vector<FlapEvent> make_flap_schedule(std::size_t num_groups,
                                                        const FlapConfig& config,
                                                        Rng& rng);

/// Applies one schedule event to the plane.
void apply_flap_event(FaultPlane& plane, std::span<const FailureGroup> groups,
                      const FlapEvent& event);

}  // namespace bsr::graph
