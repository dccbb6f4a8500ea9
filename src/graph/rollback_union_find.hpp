// The library's disjoint-set forest: union by size plus an undo log.
//
// Path compression would make find O(alpha) but destroys the information
// needed to undo a union. This forest keeps union by size only (find is
// O(log n) and const) and records every successful unite in an undo log, so
// any suffix of unions can be rolled back in O(1) each. That turns
// "evaluate candidate C against the current dominated subgraph" from a full
// O(|E_B|) reconstruction into
//     checkpoint -> unite C's star -> read metrics -> rollback,
// which robust selection, 1-swap local search and the route oracle's heal
// patches rely on. Callers that never roll back (component labelling, the
// dominated evaluator, weighted connectivity, repair sweeps) use it as a
// plain union-find.
//
// The merge rule is fixed: attach the smaller root under the larger; ties
// attach the second root under the first. Root ids and component sizes are
// therefore a function of the unite sequence alone, which callers that
// index per-root sums by root id (weighted_saturated_connectivity) rely on.
//
// connected_pairs() maintains Σ_c (|c| choose 2) incrementally as an exact
// 64-bit integer; saturated connectivity is then a single O(1) division
// instead of an O(V) component scan. For |V| ≤ ~90M the count is below 2^53,
// so converting to double is exact and matches a per-component double
// summation bit-for-bit.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/check.hpp"
#include "graph/csr_graph.hpp"
#include "obs/stats.hpp"

namespace bsr::graph {

class RollbackUnionFind {
 public:
  explicit RollbackUnionFind(NodeId n) { reset(n); }

  /// Resets to n singleton components and clears the undo log.
  void reset(NodeId n);

  [[nodiscard]] NodeId size() const noexcept {
    return static_cast<NodeId>(parent_.size());
  }

  /// Root of v's component. No path compression, so const; O(log n).
  [[nodiscard]] NodeId find(NodeId v) const noexcept {
    BSR_DCHECK(v < parent_.size());
    BSR_STATS_ONLY(std::uint64_t steps = 0;)
    while (parent_[v] != v) {
      v = parent_[v];
      BSR_STATS_ONLY(++steps;)
    }
    BSR_UF_FIND(steps);
    return v;
  }

  /// Merges the components of u and v; returns true if they were distinct.
  bool unite(NodeId u, NodeId v) noexcept {
    BSR_COUNT(UfUnites);
    NodeId ru = find(u);
    NodeId rv = find(v);
    if (ru == rv) return false;
    if (size_[ru] < size_[rv]) std::swap(ru, rv);
    parent_[rv] = ru;
    connected_pairs_ +=
        static_cast<std::uint64_t>(size_[ru]) * static_cast<std::uint64_t>(size_[rv]);
    size_[ru] += size_[rv];
    --num_components_;
    log_.push_back({rv, ru});
    BSR_COUNT(UfUnionsApplied);
    BSR_GAUGE_MAX(UfLogHighWater, log_.size());
    return true;
  }

  [[nodiscard]] bool connected(NodeId u, NodeId v) const noexcept {
    return find(u) == find(v);
  }

  [[nodiscard]] std::uint32_t component_size(NodeId v) const noexcept {
    return size_[find(v)];
  }

  /// Size of the component rooted at r; precondition: r is a root.
  [[nodiscard]] std::uint32_t root_size(NodeId r) const noexcept {
    BSR_DCHECK(r < parent_.size() && parent_[r] == r);
    return size_[r];
  }

  [[nodiscard]] NodeId num_components() const noexcept { return num_components_; }

  /// Σ over components of (size choose 2) — pairs connected right now.
  [[nodiscard]] std::uint64_t connected_pairs() const noexcept {
    return connected_pairs_;
  }

  /// Size of the largest component (0 iff empty). O(V).
  [[nodiscard]] std::uint32_t largest_component_size() const noexcept;

  // --- rollback ------------------------------------------------------------

  /// Opaque undo-log position; capture before speculative unions.
  using Checkpoint = std::size_t;

  [[nodiscard]] Checkpoint checkpoint() const noexcept {
    BSR_COUNT(UfCheckpoints);
    return log_.size();
  }

  /// Undoes every union applied after `mark`, most recent first. O(undone).
  void rollback(Checkpoint mark) noexcept {
    BSR_DCHECK(mark <= log_.size());
    BSR_COUNT(UfRollbacks);
    BSR_COUNT_N(UfRollbackUndone, log_.size() - mark);
    while (log_.size() > mark) {
      const UndoEntry e = log_.back();
      log_.pop_back();
      parent_[e.child] = e.child;
      size_[e.parent] -= size_[e.child];
      connected_pairs_ -= static_cast<std::uint64_t>(size_[e.parent]) *
                          static_cast<std::uint64_t>(size_[e.child]);
      ++num_components_;
    }
  }

 private:
  struct UndoEntry {
    NodeId child;   // root that was attached ...
    NodeId parent;  // ... under this root
  };

  std::vector<NodeId> parent_;
  std::vector<std::uint32_t> size_;
  std::vector<UndoEntry> log_;
  NodeId num_components_ = 0;
  std::uint64_t connected_pairs_ = 0;
};

}  // namespace bsr::graph
