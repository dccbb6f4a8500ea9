// Static-dispatch traversal engine.
//
// Three BFS kernels: engine::bfs, one FIFO search from one source;
// engine::product_bfs, the same FIFO search over (vertex, state) pairs; and
// engine::lane_sweep, up to kLanes trees per level-synchronous pass over a
// compacted Subgraph. Every BFS over a graph's vertices, but for the two
// searches named below, runs on one of them. engine::bfs and the union
// helpers are function templates parameterized on a *filter struct*: the
// predicate body is known at instantiation time and folds into the scan
// loop, so a dominated-subgraph BFS costs the same as an unfiltered BFS plus
// two bitmask loads (no indirect call per edge relaxation). engine::bfs also
// takes an optional *stop policy* (DepthCap, TargetStop; exhaustive without
// one): the l-hop sweeps and the router's early exit are rules of the one
// FIFO loop, not copies of it. product_bfs takes a *step rule* in place of
// the filter: the valley-free phases and the router's heal budget are rules
// of its loop.
//
// Filters implement
//     bool operator()(NodeId u, std::size_t slot, NodeId v) const
// where `slot` indexes v within g.neighbors(u) — that is what lets
// FaultAwareFilter answer link-state queries in O(1) via
// FaultPlane::edge_up_at(u, slot) instead of an O(log d) edge lookup.
//
// Two searches stay outside the engine, each for a reason:
//   * broker/disjoint.cpp's shortest_avoiding records only parents. Run on
//     engine::bfs with the target stop, whose workspace also writes
//     distances, disjoint_dominating_paths measured 1.7-3.5 % slower in
//     median at scale 0.3 (alternating processes, same paths).
//   * graph::betweenness's Brandes pivot counts shortest paths, so it must
//     see every edge into the next level, also into visited vertices; a
//     filter is only consulted for unvisited ones.
//
// Determinism contract (see docs/ENGINE.md): every kernel visits vertices in
// a fixed order — FIFO queue order for bfs and product_bfs, ascending
// (u, slot) order for edge scans, ascending id in each lane_sweep level — so
// dist arrays, parents, component labels, greedy tie-breaks, and double
// accumulation orders are pure functions of the input, and invariant under
// BSR_THREADS (parallel reductions are integer-only and merged in shard
// order). A stop policy only cuts the FIFO loop short: discovery order, dist
// and parents up to the stop are the exhaustive run's.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <type_traits>
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

// --- stop policies ---------------------------------------------------------

/// Vertices at dist == max_depth are discovered but not expanded, and their
/// slots are not counted in engine.bfs.edges_scanned.
struct DepthCap {
  std::uint32_t max_depth = 0;
};

/// Returns as soon as `target` is discovered, at once if it is the source.
/// engine.bfs.edges_scanned counts only the slots examined, up to and
/// including the one that reached the target.
struct TargetStop {
  NodeId target = 0;
};

// --- traversal kernels -----------------------------------------------------

/// BFS from `source` over edges admitted by `admit`, writing dist, parents
/// and visit order into `ws`: FIFO queue, neighbors scanned in ascending
/// adjacency order. An optional stop policy (DepthCap or TargetStop) cuts the
/// loop short; Workspace::path_to reads a path back out of the tree.
///
/// The policy is a pack of at most one argument, not a defaulted parameter:
/// a fifth parameter, even an empty one, changes GCC's inlining decisions at
/// exhaustive call sites, and inlined into distance_cdf_from_sources the loop
/// ran compare_path_lengths 13 % slower (docs/ENGINE.md). The folds below
/// read that one argument.
template <class Filter, class... Stop>
void bfs(const CsrGraph& g, NodeId source, Workspace& ws, Filter admit,
         Stop... stop) {
  constexpr bool kDepthCap = (std::is_same_v<Stop, DepthCap> || ...);
  constexpr bool kTargetStop = (std::is_same_v<Stop, TargetStop> || ...);
  static_assert(sizeof...(Stop) == 0 ||
                (sizeof...(Stop) == 1 && (kDepthCap || kTargetStop)));
  BSR_DCHECK(source < g.num_vertices());
  ws.begin(g.num_vertices());
  ws.discover(source, 0);
  if constexpr (kTargetStop) {
    if (((source == stop.target) || ...)) goto done;
  }
  for (std::size_t head = 0; head < ws.frontier_size(); ++head) {
    const NodeId u = ws.frontier_at(head);
    const std::uint32_t du = ws.dist_unchecked(u);
    if constexpr (kDepthCap) {
      if (((du >= stop.max_depth) || ...)) continue;
    }
    const auto neigh = g.neighbors(u);
    for (std::size_t i = 0; i < neigh.size(); ++i) {
      const NodeId v = neigh[i];
      if (!ws.visited(v) && admit(u, i, v)) {
        ws.discover(v, du + 1, u);
        if constexpr (kTargetStop) {
          if (((v == stop.target) || ...)) {
            BSR_STATS_ONLY(ws.stats_edges_scanned += i + 1;)
            goto done;  // out of both loops, to the one counting epilogue
          }
        }
      }
    }
    // Accumulates into the workspace, not a stack local (a spilled local
    // measured ~1% more wall time), and after the scan rather than before
    // it: placed ahead of the inner loop the store-add tips the register
    // allocator into spilling the frontier pointer, which puts an L1 reload
    // on the per-vertex dependency chain (~3% wall). Here the loop bound
    // (neigh.size()) is still live and pressure is at its lowest.
    BSR_STATS_ONLY(ws.stats_edges_scanned += neigh.size();)
  }
[[maybe_unused]] done:
  BSR_COUNT(EngineBfsRuns);
  BSR_COUNT_N(EngineBfsEdgesScanned, ws.stats_edges_scanned);
  BSR_COUNT_N(EngineBfsVerticesVisited, ws.frontier_size());
}

/// A step rule's answer for an edge the search may not take; product_bfs
/// returns it when no TargetStop fired.
inline constexpr std::uint32_t kNoState = std::numeric_limits<std::uint32_t>::max();

/// FIFO BFS over (vertex, state) pairs of `g`, from (source, 0). Pair (v, s),
/// s < num_states, has id v * num_states + s, and `ws` holds dist, parents
/// and visit order by id. States leave the queue in FIFO order and scan
/// g.neighbors(u) in ascending slot order: step(u, s, slot, v) names the
/// state that edge leads to, or kNoState, and (v, that state) is discovered
/// unless it already was. With TargetStop{t} it returns the id of the first
/// state of vertex t discovered (at once when t is the source), otherwise
/// kNoState. Counts like engine::bfs, a state being the visited unit.
template <class Step, class... Stop>
std::uint32_t product_bfs(const CsrGraph& g, std::uint32_t num_states,
                          NodeId source, Workspace& ws, Step step, Stop... stop) {
  // An empty pack folds `||` to false: the exhaustive search never stops.
  static_assert(sizeof...(Stop) == 0 ||
                (sizeof...(Stop) == 1 && (std::is_same_v<Stop, TargetStop> && ...)));
  BSR_DCHECK(source < g.num_vertices());
  BSR_DCHECK(std::uint64_t{g.num_vertices()} * num_states < kUnreachable);
  std::uint32_t found = kNoState;
  ws.begin(g.num_vertices() * num_states);
  ws.discover(source * num_states, 0);
  if (((source == stop.target) || ...)) {
    found = source * num_states;
    goto done;
  }
  for (std::size_t head = 0; head < ws.frontier_size(); ++head) {
    const std::uint32_t state = ws.frontier_at(head);
    const NodeId u = state / num_states;
    const std::uint32_t s = state % num_states;
    const std::uint32_t du = ws.dist_unchecked(state);
    const auto neigh = g.neighbors(u);
    for (std::size_t i = 0; i < neigh.size(); ++i) {
      const NodeId v = neigh[i];
      const std::uint32_t next = step(u, s, i, v);
      if (next == kNoState) continue;
      const std::uint32_t to = v * num_states + next;
      if (ws.visited(to)) continue;
      ws.discover(to, du + 1, state);
      if (((v == stop.target) || ...)) {
        BSR_STATS_ONLY(ws.stats_edges_scanned += i + 1;)
        found = to;
        goto done;
      }
    }
    BSR_STATS_ONLY(ws.stats_edges_scanned += neigh.size();)
  }
[[maybe_unused]] done:
  BSR_COUNT(EngineBfsRuns);
  BSR_COUNT_N(EngineBfsEdgesScanned, ws.stats_edges_scanned);
  BSR_COUNT_N(EngineBfsVerticesVisited, ws.frontier_size());
  return found;
}

/// The vertex path source..state / num_states of the last product_bfs on
/// `ws`: the tree path to `state` with each state mapped to its vertex.
[[nodiscard]] inline std::vector<NodeId> product_path(const Workspace& ws,
                                                      std::uint32_t num_states,
                                                      std::uint32_t state) {
  std::vector<NodeId> path = ws.path_to(state);
  for (NodeId& v : path) v /= num_states;
  return path;
}

/// Compacted CSR of a subgraph of a CsrGraph: the same vertex ids, only
/// the admitted edges, each list in the parent graph's (ascending) order.
/// Built by compact_dominated; lane_sweep and RouteService's epoch build
/// traverse it like a CsrGraph, with no per-edge filter.
struct Subgraph {
  std::vector<std::uint64_t> offsets;  // size num_vertices + 1
  std::vector<NodeId> adjacency;       // both directions of every kept edge
  /// Bit v set iff v kept an edge (neighbors(v) is non-empty); one word per
  /// 64 vertices, padding bits clear. lane_sweep's bottom-up levels walk
  /// only the set bits: a vertex with no edge can never be discovered.
  std::vector<std::uint64_t> has_edges;

  [[nodiscard]] NodeId num_vertices() const noexcept {
    return offsets.empty() ? 0 : static_cast<NodeId>(offsets.size() - 1);
  }

  [[nodiscard]] std::span<const NodeId> neighbors(NodeId v) const noexcept {
    BSR_DCHECK(v < num_vertices());
    return {adjacency.data() + offsets[v], adjacency.data() + offsets[v + 1]};
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
/// The prefix-sum pass between the two walks also fills has_edges.
/// O(|V| + sum of usable degrees); counts its slot scans in
/// engine.compact.edge_scans.
[[nodiscard]] Subgraph compact_dominated(const CsrGraph& g,
                                         const std::vector<bool>& usable,
                                         const FaultPlane* faults);

// --- multi-source lane sweep -----------------------------------------------

/// Trees one lane sweep builds at once: one bit of a uint16 mask each.
inline constexpr std::size_t kLanes = 16;
/// lane_sweep's distance where a lane never arrives; reached distances are
/// clamped one below it.
inline constexpr std::uint16_t kLaneUnreached = 0xffff;
/// lane_sweep's parent where a lane never arrives.
inline constexpr NodeId kLaneNoParent = std::numeric_limits<NodeId>::max();

/// One BFS tree per root over `g`, up to kLanes trees per level-synchronous
/// sweep (MS-BFS, Then et al., PVLDB 2014): a vertex's scan of its list
/// serves every lane at once, and more than kLanes roots run as several
/// sweeps of up to kLanes lanes. Writes both tables whole, sentinels
/// included, so the caller fills nothing first:
///   * dist[v * roots.size() + l]: exact hops from roots[l] to v, clamped at
///     kLaneUnreached - 1, or kLaneUnreached where lane l never arrives;
///   * parent[l * n + v]: v's parent in the tree of roots[l] — the root for
///     itself, kLaneNoParent where lane l never arrives.
/// The parent is canonical: **the lowest-id neighbour one level closer to
/// the root**. Top-down levels walk an ascending frontier, and bottom-up
/// levels walk has_edges in ascending id, each vertex scanning its
/// (ascending) list in order until every lane of the level has seen it;
/// both take the first hit, so the direction each level runs in, chosen
/// inside from the frontier's slots against the unexplored slots, changes
/// the speed and never the tables. Serial, so the tables cannot depend on
/// BSR_THREADS. Its lane masks and frontier bitsets are per-thread scratch
/// that grows to the largest graph swept and is kept, so repeated sweeps
/// allocate nothing. Counts one engine.bfs.runs per lane, one
/// engine.bfs.vertices_visited per (vertex, lane) it reaches, every slot a
/// level reads in engine.bfs.edges_scanned, and its bottom-up levels.
void lane_sweep(const Subgraph& g, std::span<const NodeId> roots,
                std::span<std::uint16_t> dist, std::span<NodeId> parent);

/// Unions the endpoints of every admitted edge into `uf` (a
/// RollbackUnionFind). Edges are scanned in canonical ascending (u, v) order
/// with u < v, so root identities are a function of the graph and filter.
template <class UF, class Filter>
void unite_edges(const CsrGraph& g, UF& uf, Filter admit) {
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
/// overridden by set_num_threads(). Unset or empty means 1, fully serial.
/// Throws std::runtime_error("invalid BSR_THREADS: <value>") when the
/// variable is set to anything but a whole base-10 integer.
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
