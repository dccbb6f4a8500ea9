// Epoch-stamped traversal workspace for the engine layer.
//
// Every evaluator in the system (connectivity, l-hop CDFs, routing, greedy
// sweeps) runs BFS-shaped traversals thousands of times per experiment. A
// naive implementation pays an O(V) clear — or worse, an O(V) allocation —
// per run. Workspace amortizes all of that away with *epoch stamps*: a
// vertex's dist/parent entry is valid iff its stamp equals the current
// epoch, so starting a new traversal is a single counter increment. The
// arrays are cleared for real only when the 32-bit epoch wraps (once per
// ~4 billion traversals).
//
// Two independent stamp domains are provided:
//   * the traversal domain — dist/parent/visit-order for one BFS at a time;
//   * the mark domain     — a reusable "seen this round?" set (root dedup in
//     greedy gain sweeps, coverage marking, ...).
// They never interfere, so a caller may run a BFS while holding marks.
// engine::bfs and engine::product_bfs (whose ids are (vertex, state)
// pairs) traverse through a Workspace; engine::lane_sweep keeps its own
// per-thread lane masks.
//
// Workspaces are cheap to reuse across graphs of different sizes: ensure()
// grows (never shrinks) and every accessor BSR_DCHECKs its index, so running
// on a larger graph than the workspace was sized for is caught in debug
// builds instead of corrupting memory.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/check.hpp"
#include "graph/csr_graph.hpp"

namespace bsr::graph::engine {

class Workspace {
 public:
  Workspace() = default;
  explicit Workspace(NodeId n) { ensure(n); }

  /// Grows the backing arrays to hold at least `n` vertices. Never shrinks.
  void ensure(NodeId n);

  [[nodiscard]] NodeId capacity() const noexcept {
    return static_cast<NodeId>(dist_.size());
  }

  // --- traversal domain ----------------------------------------------------

  /// Starts a fresh traversal over `n` vertices: O(1) (amortized; the stamp
  /// array is re-zeroed only on 32-bit epoch wrap). Grows if n > capacity().
  void begin(NodeId n);

  [[nodiscard]] bool visited(NodeId v) const noexcept {
    BSR_DCHECK(v < stamp_.size());
    return stamp_[v] == epoch_;
  }

  /// Distance of v in the current traversal; kUnreachable if not visited.
  [[nodiscard]] std::uint32_t dist(NodeId v) const noexcept {
    return visited(v) ? dist_[v] : kUnreachable;
  }

  /// Distance of v; precondition: visited(v).
  [[nodiscard]] std::uint32_t dist_unchecked(NodeId v) const noexcept {
    BSR_DCHECK(visited(v));
    return dist_[v];
  }

  /// BFS-tree parent of v; valid only if the traversal recorded parents
  /// (discover() with a `from` argument) and visited(v).
  [[nodiscard]] NodeId parent(NodeId v) const noexcept {
    BSR_DCHECK(visited(v));
    return parent_[v];
  }

  /// Marks v visited at distance d and appends it to the frontier.
  void discover(NodeId v, std::uint32_t d) noexcept {
    BSR_DCHECK(v < dist_.size());
    BSR_DCHECK(!visited(v));
    stamp_[v] = epoch_;
    dist_[v] = d;
    queue_.push_back(v);
  }

  /// discover() recording the BFS-tree parent as well.
  void discover(NodeId v, std::uint32_t d, NodeId from) noexcept {
    BSR_DCHECK(v < parent_.size());
    parent_[v] = from;
    discover(v, d);
  }

  /// The tree path source..v of the current traversal (dist(v) + 1 vertices,
  /// read back through the parent chain); empty if v was not reached.
  /// Requires a traversal that recorded parents, as every engine kernel does.
  [[nodiscard]] std::vector<NodeId> path_to(NodeId v) const;

  /// Vertices of the current traversal in discovery (= BFS) order.
  [[nodiscard]] std::span<const NodeId> visit_order() const noexcept {
    return queue_;
  }

  /// Frontier access by index (stable across discover() reallocation).
  [[nodiscard]] std::size_t frontier_size() const noexcept { return queue_.size(); }
  [[nodiscard]] NodeId frontier_at(std::size_t i) const noexcept {
    BSR_DCHECK(i < queue_.size());
    return queue_[i];
  }

  // --- mark domain ---------------------------------------------------------

  /// Starts a fresh mark round over `n` vertices: O(1) amortized.
  void begin_marks(NodeId n);

  /// Marks v; returns true iff v was not yet marked this round.
  bool mark(NodeId v) noexcept {
    BSR_DCHECK(v < mark_stamp_.size());
    if (mark_stamp_[v] == mark_epoch_) return false;
    mark_stamp_[v] = mark_epoch_;
    return true;
  }

  [[nodiscard]] bool marked(NodeId v) const noexcept {
    BSR_DCHECK(v < mark_stamp_.size());
    return mark_stamp_[v] == mark_epoch_;
  }

  /// Telemetry scratch: edges scanned by the current traversal, reset by
  /// begin(). A memory accumulator beats a stack local here — the BFS inner
  /// loop is already at the register-pressure limit, and a spilled stack
  /// accumulator showed up as ~2.6% wall time on the fault-filtered sweep,
  /// while this line's store-add hides under the adjacency scan. The field
  /// exists in every build (only the BSR_STATS macros in engine.hpp touch
  /// it) so the class layout never depends on the telemetry configuration.
  std::uint64_t stats_edges_scanned = 0;

 private:
  std::vector<std::uint32_t> dist_;
  std::vector<NodeId> parent_;
  std::vector<std::uint32_t> stamp_;       // dist_/parent_ valid iff == epoch_
  std::vector<NodeId> queue_;              // frontier + visit order
  std::uint32_t epoch_ = 0;                // 0 = "no traversal yet"
  std::vector<std::uint32_t> mark_stamp_;  // marked iff == mark_epoch_
  std::uint32_t mark_epoch_ = 0;
};

}  // namespace bsr::graph::engine
