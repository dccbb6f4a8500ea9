// Static-dispatch traversal engine.
//
// Every traversal of the library goes through the function templates below,
// parameterized on a *filter struct*: the predicate body is known at
// instantiation time and folds into the scan loop, so a dominated-subgraph
// BFS costs the same as an unfiltered BFS plus two bitmask loads (no
// indirect call per edge relaxation).
//
// Filters implement
//     bool operator()(NodeId u, std::size_t slot, NodeId v) const
// where `slot` indexes v within g.neighbors(u) — that is what lets
// FaultAwareFilter answer link-state queries in O(1) via
// FaultPlane::edge_up_at(u, slot) instead of an O(log d) edge lookup.
//
// Determinism contract (see docs/ENGINE.md): every kernel visits vertices in
// a fixed order — FIFO queue order for bfs, ascending (u, slot) order for
// edge scans — so dist arrays, component labels, greedy tie-breaks, and
// double accumulation orders are pure functions of the input, and invariant
// under BSR_THREADS (parallel reductions are integer-only and merged in
// shard order).
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "graph/check.hpp"
#include "graph/csr_graph.hpp"
#include "graph/fault_plane.hpp"
#include "graph/workspace.hpp"
#include "obs/stats.hpp"

namespace bsr::graph::engine {

// --- filter structs --------------------------------------------------------

/// Admits every structural edge.
struct AllEdges {
  bool operator()(NodeId, std::size_t, NodeId) const noexcept { return true; }
};

/// Admits edge {u, v} iff at least one endpoint is a broker — the dominated
/// subgraph G_B of the paper. Holds the broker membership bitmap by pointer
/// so the filter is trivially copyable and register-resident.
struct DominatedEdgeFilter {
  const std::vector<bool>* broker_mask = nullptr;

  bool operator()(NodeId u, std::size_t, NodeId v) const noexcept {
    BSR_DCHECK(broker_mask != nullptr);
    BSR_DCHECK(u < broker_mask->size() && v < broker_mask->size());
    return (*broker_mask)[u] || (*broker_mask)[v];
  }
};

/// Admits edge {u, v} iff both endpoints and the link itself are up.
struct FaultAwareFilter {
  const FaultPlane* faults = nullptr;

  bool operator()(NodeId u, std::size_t slot, NodeId v) const noexcept {
    BSR_DCHECK(faults != nullptr);
    return faults->vertex_ok(u) && faults->vertex_ok(v) &&
           faults->edge_up_at(u, slot);
  }
};

/// Conjunction of two filters; A is evaluated first.
template <class A, class B>
struct BothFilters {
  A a;
  B b;

  bool operator()(NodeId u, std::size_t slot, NodeId v) const noexcept {
    return a(u, slot, v) && b(u, slot, v);
  }
};

// --- traversal kernels -----------------------------------------------------

/// BFS from `source` over edges admitted by `admit`, writing dist/visit-order
/// into `ws`: FIFO queue, neighbors scanned in ascending adjacency order.
template <class Filter>
void bfs(const CsrGraph& g, NodeId source, Workspace& ws, Filter admit) {
  BSR_DCHECK(source < g.num_vertices());
  ws.begin(g.num_vertices());
  ws.discover(source, 0);
  for (std::size_t head = 0; head < ws.frontier_size(); ++head) {
    const NodeId u = ws.frontier_at(head);
    const std::uint32_t du = ws.dist_unchecked(u);
    const auto neigh = g.neighbors(u);
    for (std::size_t i = 0; i < neigh.size(); ++i) {
      const NodeId v = neigh[i];
      if (!ws.visited(v) && admit(u, i, v)) ws.discover(v, du + 1, u);
    }
    // Accumulates into the workspace, not a stack local (a spilled local
    // measured ~1% more wall time), and after the scan rather than before
    // it: placed ahead of the inner loop the store-add tips the register
    // allocator into spilling the frontier pointer, which puts an L1 reload
    // on the per-vertex dependency chain (~3% wall). Here the loop bound
    // (neigh.size()) is still live and pressure is at its lowest.
    BSR_STATS_ONLY(ws.stats_edges_scanned += neigh.size();)
  }
  BSR_COUNT(EngineBfsRuns);
  BSR_COUNT_N(EngineBfsEdgesScanned, ws.stats_edges_scanned);
  BSR_COUNT_N(EngineBfsVerticesVisited, ws.frontier_size());
}

/// BFS truncated at distance `max_depth` (vertices at dist == max_depth are
/// discovered but not expanded).
template <class Filter>
void bfs_bounded(const CsrGraph& g, NodeId source, std::uint32_t max_depth,
                 Workspace& ws, Filter admit) {
  BSR_DCHECK(source < g.num_vertices());
  ws.begin(g.num_vertices());
  ws.discover(source, 0);
  for (std::size_t head = 0; head < ws.frontier_size(); ++head) {
    const NodeId u = ws.frontier_at(head);
    const std::uint32_t du = ws.dist_unchecked(u);
    if (du >= max_depth) continue;
    const auto neigh = g.neighbors(u);
    for (std::size_t i = 0; i < neigh.size(); ++i) {
      const NodeId v = neigh[i];
      if (!ws.visited(v) && admit(u, i, v)) ws.discover(v, du + 1, u);
    }
    BSR_STATS_ONLY(ws.stats_edges_scanned += neigh.size();)
  }
  BSR_COUNT(EngineBfsRuns);
  BSR_COUNT_N(EngineBfsEdgesScanned, ws.stats_edges_scanned);
  BSR_COUNT_N(EngineBfsVerticesVisited, ws.frontier_size());
}

/// Compacted CSR of a subgraph of a CsrGraph: the same vertex ids, only
/// the admitted edges, each list in the parent graph's (ascending) order.
/// Built by compact_dominated; bfs_dir_opt and unite_edges traverse it like
/// a CsrGraph, with no per-edge filter. degree() and num_edges() report the
/// *parent's* structure: they feed bfs_dir_opt's switch heuristic, which
/// must see the same integers as a filtered traversal of the parent.
struct Subgraph {
  const CsrGraph* graph = nullptr;     // the parent; must outlive this
  std::vector<std::uint64_t> offsets;  // size num_vertices + 1
  std::vector<NodeId> adjacency;       // both directions of every kept edge

  [[nodiscard]] NodeId num_vertices() const noexcept {
    return offsets.empty() ? 0 : static_cast<NodeId>(offsets.size() - 1);
  }

  [[nodiscard]] std::span<const NodeId> neighbors(NodeId v) const noexcept {
    BSR_DCHECK(v < num_vertices());
    return {adjacency.data() + offsets[v], adjacency.data() + offsets[v + 1]};
  }

  /// Structural degree of v in the parent graph, not neighbors(v).size().
  [[nodiscard]] std::uint32_t degree(NodeId v) const noexcept {
    return graph->degree(v);
  }
  /// Undirected edge count of the parent graph.
  [[nodiscard]] std::uint64_t num_edges() const noexcept {
    return graph->num_edges();
  }
};

/// The usable dominated subgraph of `g`: edge {u, v} is kept iff
/// usable[u] || usable[v] and, when `faults` is bound, both endpoints and the
/// link are up — exactly what BothFilters<DominatedEdgeFilter,
/// FaultAwareFilter> (DominatedEdgeFilter alone when `faults` is null)
/// admits. Equals a filtered scan of every slot of g (same offsets, same
/// adjacency, each list in g's order) but walks only the usable vertices'
/// adjacency, in ascending id: every admitted edge {b, v} appends v to b's
/// list, and b to v's list unless v is usable itself (v's own walk appends
/// b). Lists of non-usable vertices therefore fill in ascending order too.
/// O(|V| + sum of usable degrees); counts its slot scans in
/// engine.compact.edge_scans.
[[nodiscard]] Subgraph compact_dominated(const CsrGraph& g,
                                         const std::vector<bool>& usable,
                                         const FaultPlane* faults);

/// Direction-optimizing BFS (top-down <-> bottom-up switching).
///
/// Classic BFS scans every edge out of the frontier; when the frontier is a
/// large fraction of the graph (which on the internet topology happens by
/// level 2-3), most of those scans hit already-visited vertices. The
/// bottom-up step inverts the loop: every *unvisited* vertex scans its own
/// adjacency for a frontier parent and stops at the first hit, so a level
/// that would touch most of E costs only one successful probe per vertex.
/// Heuristic (Beamer et al.): switch top-down -> bottom-up when the
/// frontier's out-degree exceeds 1/alpha of the unexplored degree, and back
/// once the frontier thins below n/beta vertices. Unvisited vertices are
/// enumerated through a dense bitset (Workspace::visited_bits) so whole
/// 64-vertex blocks of visited regions are skipped per word.
///
/// Requires a *symmetric* filter: admit(u, slot of v in u, v) must equal
/// admit(v, slot of u in v, u) for every structural edge — true for
/// AllEdges, DominatedEdgeFilter, FaultAwareFilter, and conjunctions
/// thereof.
///
/// Guarantees the exact distances and reachable set of bfs(); visit order
/// *within a level* may differ (bottom-up levels discover in ascending
/// vertex order) and parents are level-equivalent rather than identical, so
/// callers comparing against bfs() must compare distance-derived outputs.
///
/// `g` is a CsrGraph or a compacted Subgraph of one. The switch reads only
/// g.degree() and g.num_edges(), which a Subgraph answers from its parent,
/// so a Subgraph holding exactly the edges some filter admits traverses
/// with the same level schedule, visit order and parents as the parent
/// graph through that filter — only the rejected slots go unscanned. See
/// docs/ENGINE.md.
template <class Graph, class Filter = AllEdges>
void bfs_dir_opt(const Graph& g, NodeId source, Workspace& ws, Filter admit = {},
                 std::uint32_t alpha = 15, std::uint32_t beta = 18) {
  BSR_DCHECK(source < g.num_vertices());
  BSR_DCHECK(alpha > 0 && beta > 0);
  const NodeId n = g.num_vertices();
  ws.begin(n);
  auto& visited = ws.visited_bits(n);
  auto& frontier = ws.frontier_bits(n);
  const std::size_t words = visited.size();

  ws.discover(source, 0);
  visited[source >> 6] |= std::uint64_t{1} << (source & 63);

  // Control state for the switch heuristic: degree mass on the current
  // frontier vs degree mass not yet explored. Both are exact integers, so
  // the top-down/bottom-up schedule is deterministic.
  std::uint64_t frontier_degree = g.degree(source);
  std::uint64_t unexplored_degree = 2 * g.num_edges() - frontier_degree;
  std::size_t level_begin = 0;
  std::uint32_t depth = 0;
  bool bottom_up = false;

  while (level_begin < ws.frontier_size()) {
    const std::size_t level_end = ws.frontier_size();
    if (!bottom_up) {
      if (frontier_degree > unexplored_degree / alpha) bottom_up = true;
    } else {
      if (level_end - level_begin < n / beta) bottom_up = false;
    }
    std::uint64_t next_degree = 0;
    if (bottom_up) {
      std::fill(frontier.begin(), frontier.end(), 0);
      for (std::size_t i = level_begin; i < level_end; ++i) {
        const NodeId u = ws.frontier_at(i);
        frontier[u >> 6] |= std::uint64_t{1} << (u & 63);
      }
      for (std::size_t w = 0; w < words; ++w) {
        std::uint64_t todo = ~visited[w];
        if (w == words - 1 && (n & 63) != 0) {
          todo &= (std::uint64_t{1} << (n & 63)) - 1;  // mask padding bits
        }
        while (todo != 0) {
          const auto v =
              static_cast<NodeId>((w << 6) + std::countr_zero(todo));
          todo &= todo - 1;
          const auto neigh = g.neighbors(v);
          for (std::size_t i = 0; i < neigh.size(); ++i) {
            const NodeId u = neigh[i];
            BSR_STATS_ONLY(++ws.stats_edges_scanned;)
            if (((frontier[u >> 6] >> (u & 63)) & 1) != 0 && admit(v, i, u)) {
              ws.discover(v, depth + 1, u);
              visited[v >> 6] |= std::uint64_t{1} << (v & 63);
              next_degree += g.degree(v);
              break;
            }
          }
        }
      }
      BSR_COUNT(EngineBfsBottomUpLevels);
    } else {
      for (std::size_t head = level_begin; head < level_end; ++head) {
        const NodeId u = ws.frontier_at(head);
        const auto neigh = g.neighbors(u);
        for (std::size_t i = 0; i < neigh.size(); ++i) {
          const NodeId v = neigh[i];
          if (((visited[v >> 6] >> (v & 63)) & 1) == 0 && admit(u, i, v)) {
            ws.discover(v, depth + 1, u);
            visited[v >> 6] |= std::uint64_t{1} << (v & 63);
            next_degree += g.degree(v);
          }
        }
        BSR_STATS_ONLY(ws.stats_edges_scanned += neigh.size();)
      }
    }
    frontier_degree = next_degree;
    unexplored_degree -= next_degree;
    level_begin = level_end;
    ++depth;
  }
  BSR_COUNT(EngineBfsRuns);
  BSR_COUNT_N(EngineBfsEdgesScanned, ws.stats_edges_scanned);
  BSR_COUNT_N(EngineBfsVerticesVisited, ws.frontier_size());
}

/// Unions the endpoints of every admitted edge into `uf` (a
/// RollbackUnionFind). Edges are scanned in canonical ascending (u, v) order
/// with u < v, so root identities are a function of the graph and filter.
/// Runs over a CsrGraph or a compacted Subgraph (whose lists keep the parent
/// graph's order, so AllEdges over compact_dominated(g, ...) unites the same
/// sequence as the matching filter over g).
template <class Graph, class UF, class Filter>
void unite_edges(const Graph& g, UF& uf, Filter admit) {
  const NodeId n = g.num_vertices();
  BSR_STATS_ONLY(std::uint64_t scans = 0; std::uint64_t admitted = 0;)
  for (NodeId u = 0; u < n; ++u) {
    const auto neigh = g.neighbors(u);
    BSR_STATS_ONLY(scans += neigh.size();)
    for (std::size_t i = 0; i < neigh.size(); ++i) {
      const NodeId v = neigh[i];
      if (u < v && admit(u, i, v)) {
        BSR_STATS_ONLY(++admitted;)
        uf.unite(u, v);
      }
    }
  }
  BSR_COUNT_N(EngineUniteEdgeScans, scans);
  BSR_COUNT_N(EngineUniteAdmitted, admitted);
}

/// Unions `center` with every neighbor reachable through an admitted edge —
/// the incremental "add one broker" step of greedy sweeps.
template <class UF, class Filter>
void unite_star(const CsrGraph& g, UF& uf, NodeId center, Filter admit) {
  const auto neigh = g.neighbors(center);
  BSR_STATS_ONLY(std::uint64_t admitted = 0;)
  for (std::size_t i = 0; i < neigh.size(); ++i) {
    const NodeId v = neigh[i];
    if (admit(center, i, v)) {
      BSR_STATS_ONLY(++admitted;)
      uf.unite(center, v);
    }
  }
  BSR_COUNT_N(EngineUniteEdgeScans, neigh.size());
  BSR_COUNT_N(EngineUniteAdmitted, admitted);
}

// --- parallel driver -------------------------------------------------------

/// Effective worker count: BSR_THREADS env var (clamped to [1, 256]) unless
/// overridden by set_num_threads(). 1 (the default) means fully serial.
[[nodiscard]] int num_threads();

/// Overrides the worker count for this process; n <= 0 restores the
/// environment-derived value. Intended for tests and benchmarks.
void set_num_threads(int n);

/// Number of shards to split `count` independent work items into:
/// min(num_threads(), count), at least 1.
[[nodiscard]] std::size_t plan_shards(std::size_t count);

/// Runs body(shard, begin, end) for each of plan_shards(count) contiguous
/// blocks [begin, end) of [0, count). Shard 0 runs on the calling thread;
/// the rest on std::threads. The partition depends only on `count` and the
/// shard count — never on timing — so any reduction merged in shard order
/// is deterministic.
void for_each_shard(
    std::size_t count,
    const std::function<void(std::size_t shard, std::size_t begin,
                             std::size_t end)>& body);

/// Per-thread scratch workspace for one-shot convenience wrappers. Grows to
/// the largest graph seen on this thread and is reused across calls.
[[nodiscard]] Workspace& tls_workspace();

}  // namespace bsr::graph::engine
