#include "graph/workspace.hpp"

#include <algorithm>

#include "obs/stats.hpp"

namespace bsr::graph::engine {

void Workspace::ensure(NodeId n) {
  if (n <= capacity()) return;
  // New entries get stamp 0, which never equals a live epoch (epochs start
  // at 1), so grown slots read as unvisited/unmarked.
  dist_.resize(n, kUnreachable);
  parent_.resize(n, kUnreachable);
  stamp_.resize(n, 0);
  mark_stamp_.resize(n, 0);
  queue_.reserve(n);
}

void Workspace::begin(NodeId n) {
  ensure(n);
  if (++epoch_ == 0) {  // wrap: re-zero once per ~4B traversals
    std::fill(stamp_.begin(), stamp_.end(), 0u);
    epoch_ = 1;
  }
  queue_.clear();
  stats_edges_scanned = 0;
  BSR_COUNT(EngineWorkspaceEpochBumps);
  BSR_GAUGE_MAX(EngineWorkspaceHighWater, capacity());
}

std::vector<NodeId> Workspace::path_to(NodeId v) const {
  if (!visited(v)) return {};
  std::vector<NodeId> path(std::size_t{dist_[v]} + 1);
  for (std::size_t i = path.size() - 1; i > 0; --i) {
    path[i] = v;
    v = parent_[v];
  }
  BSR_DCHECK(v == queue_.front());  // dist(v) steps lead back to the source
  path[0] = v;
  return path;
}

void Workspace::begin_marks(NodeId n) {
  ensure(n);
  if (++mark_epoch_ == 0) {
    std::fill(mark_stamp_.begin(), mark_stamp_.end(), 0u);
    mark_epoch_ = 1;
  }
  BSR_COUNT(EngineWorkspaceEpochBumps);
  BSR_GAUGE_MAX(EngineWorkspaceHighWater, capacity());
}

}  // namespace bsr::graph::engine
