#include "graph/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "graph/bfs.hpp"
#include "graph/components.hpp"
#include "graph/distance_histogram.hpp"
#include "graph/fault_plane.hpp"
#include "graph/rng.hpp"
#include "graph/rollback_union_find.hpp"
#include "obs/stats.hpp"
#include "test_util.hpp"

namespace bsr::graph {
namespace {

using bsr::test::make_connected_random;
using bsr::test::make_path;
using bsr::test::make_random;
using bsr::test::materialize_dominated;
using bsr::test::naive_bfs;

std::vector<bool> random_mask(NodeId n, double p, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<bool> mask(n, false);
  for (NodeId v = 0; v < n; ++v) mask[v] = rng.bernoulli(p);
  return mask;
}

/// Dense distances out of a workspace, kUnreachable where unvisited.
std::vector<std::uint32_t> dense_dist(const engine::Workspace& ws, NodeId n) {
  std::vector<std::uint32_t> out(n);
  for (NodeId v = 0; v < n; ++v) out[v] = ws.dist(v);
  return out;
}

TEST(Engine, UnfilteredBfsMatchesNaive) {
  engine::Workspace ws;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const CsrGraph g = make_random(80, 0.04, seed);
    for (NodeId s = 0; s < g.num_vertices(); s += 17) {
      engine::bfs(g, s, ws, engine::AllEdges{});
      EXPECT_EQ(dense_dist(ws, g.num_vertices()), naive_bfs(g, s));
    }
  }
}

TEST(Engine, FilteredKernelMatchesMaterializedSubgraph) {
  // The dominated filter must reach exactly the distances a plain BFS finds
  // on G_B built as a graph of its own.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const CsrGraph g = make_connected_random(120, 0.03, seed);
    const std::vector<bool> mask = random_mask(g.num_vertices(), 0.3, seed + 100);
    const CsrGraph dominated = materialize_dominated(g, mask);
    engine::Workspace ws;
    for (NodeId s = 0; s < g.num_vertices(); s += 23) {
      engine::bfs(g, s, ws, engine::DominatedEdgeFilter{&mask});
      EXPECT_EQ(dense_dist(ws, g.num_vertices()), naive_bfs(dominated, s));
    }
  }
}

TEST(Engine, FaultAwareFilterMatchesMaterializedGraph) {
  const CsrGraph g = make_connected_random(60, 0.06, 3);
  FaultPlane plane(g);
  Rng rng(42);
  for (const Edge& e : g.edges()) {
    if (rng.bernoulli(0.2)) plane.fail_edge(e.u, e.v);
  }
  plane.fail_vertex(5);
  const CsrGraph survivors = plane.materialize();

  engine::Workspace ws;
  for (NodeId s = 0; s < g.num_vertices(); s += 11) {
    if (!plane.vertex_ok(s)) continue;
    engine::bfs(g, s, ws, engine::FaultAwareFilter{&plane});
    EXPECT_EQ(dense_dist(ws, g.num_vertices()), naive_bfs(survivors, s));
  }
}

TEST(Engine, BothFiltersIsConjunction) {
  const CsrGraph g = make_path(6);
  FaultPlane plane(g);
  plane.fail_edge(3, 4);
  std::vector<bool> mask(6, true);
  mask[0] = false;  // edge 0-1 still dominated via vertex 1
  engine::Workspace ws;
  engine::bfs(g, 0, ws,
              engine::BothFilters{engine::DominatedEdgeFilter{&mask},
                                  engine::FaultAwareFilter{&plane}});
  EXPECT_EQ(ws.dist(3), 3u);
  EXPECT_EQ(ws.dist(4), kUnreachable);  // blocked by the fault, not the mask
}

/// Reference compaction: every slot of g through `admit`, in g's order,
/// with has_edges set for every vertex that kept a slot.
template <class Filter>
engine::Subgraph filtered_scan(const CsrGraph& g, Filter admit) {
  engine::Subgraph sub;
  sub.offsets.push_back(0);
  sub.has_edges.assign((std::size_t{g.num_vertices()} + 63) / 64, 0);
  for (NodeId u = 0; u < g.num_vertices(); ++u) {
    const auto neigh = g.neighbors(u);
    for (std::size_t i = 0; i < neigh.size(); ++i) {
      if (admit(u, i, neigh[i])) sub.adjacency.push_back(neigh[i]);
    }
    if (sub.adjacency.size() != sub.offsets.back()) {
      sub.has_edges[u >> 6] |= std::uint64_t{1} << (u & 63);
    }
    sub.offsets.push_back(sub.adjacency.size());
  }
  return sub;
}

/// One compaction under test: the graph, the filter it keeps exactly, and
/// what compact_dominated made of it.
template <class Filter>
struct Compaction {
  const CsrGraph* g;
  Filter admit;
  engine::Subgraph sub;
};

/// The compactions the Subgraph and lane-sweep tests share, one per fault
/// state: a dominated mask alone; ~10 % of the links and every 13th vertex
/// down, with and without the mask; and the vertices alone down (no link
/// failed, so compact_dominated skips its link lookups), with and without
/// the mask. Calls `visit` with each Compaction; the planes and masks live
/// for the duration of the call.
template <class Visit>
void for_each_compaction(const CsrGraph& g, std::uint64_t seed, Visit&& visit) {
  const NodeId n = g.num_vertices();
  const std::vector<bool> mask = random_mask(n, 0.2, seed + 300);
  const std::vector<bool> everyone(n, true);
  FaultPlane plane(g);
  FaultPlane vertices_only(g);
  Rng rng(seed + 700);
  for (const Edge& e : g.edges()) {
    if (rng.bernoulli(0.1)) plane.fail_edge(e.u, e.v);
  }
  for (NodeId v = 0; v < n; v += 13) {
    plane.fail_vertex(v);
    vertices_only.fail_vertex(v);
  }
  const auto compaction = [&](auto admit, const std::vector<bool>& usable,
                              const FaultPlane* faults) {
    visit(Compaction<decltype(admit)>{&g, admit,
                                      engine::compact_dominated(g, usable, faults)});
  };
  using engine::BothFilters;
  using engine::DominatedEdgeFilter;
  using engine::FaultAwareFilter;
  compaction(DominatedEdgeFilter{&mask}, mask, nullptr);
  compaction(FaultAwareFilter{&plane}, everyone, &plane);
  compaction(BothFilters{DominatedEdgeFilter{&mask}, FaultAwareFilter{&plane}},
             mask, &plane);
  compaction(FaultAwareFilter{&vertices_only}, everyone, &vertices_only);
  compaction(BothFilters{DominatedEdgeFilter{&mask}, FaultAwareFilter{&vertices_only}},
             mask, &vertices_only);
}

/// The first vertex without a compacted edge; n if every vertex kept one.
NodeId first_edgeless(const engine::Subgraph& sub) {
  NodeId v = 0;
  while (v < sub.num_vertices() && !sub.neighbors(v).empty()) ++v;
  return v;
}

TEST(Engine, SubgraphEntryPointBitIdenticalToFilteredTraversal) {
  // compact_dominated must reproduce a full filtered scan slot for slot
  // (offsets, adjacency and has_edges), so anything read off it sees the
  // filtered graph. Every compaction holds edge-less vertices.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const CsrGraph g = seed % 2 == 0 ? make_random(150, 0.04, seed)
                                     : make_connected_random(150, 0.04, seed);
    const NodeId n = g.num_vertices();
    for_each_compaction(g, seed, [&](const auto& c) {
      const engine::Subgraph ref = filtered_scan(g, c.admit);
      ASSERT_EQ(c.sub.offsets, ref.offsets);
      ASSERT_EQ(c.sub.adjacency, ref.adjacency);
      ASSERT_EQ(c.sub.has_edges, ref.has_edges);
      ASSERT_LT(first_edgeless(c.sub), n)
          << "every compaction should keep an edge-less vertex";
    });
  }
}

/// Checks lane_sweep over c.sub from `roots` against an independent
/// reference over the parent graph: per root, distances from a FIFO
/// engine::bfs through c.admit, and as parent the lowest-id admitted
/// neighbour one level closer. Both tables start out filled with a value the
/// sweep never writes, so every entry, sentinels included, must be written.
/// Returns the levels the sweep ran, one per distance of each 16-lane
/// group's deepest tree plus the level that finds nothing.
template <class Filter>
std::uint64_t expect_lane_sweep_matches_reference(const Compaction<Filter>& c,
                                                  const std::vector<NodeId>& roots) {
  const CsrGraph& g = *c.g;
  const NodeId n = g.num_vertices();
  const std::size_t k = roots.size();
  constexpr std::uint16_t kDistJunk = 0x5a5a;
  constexpr NodeId kParentJunk = 0x5a5a5a5a;
  std::vector<std::uint16_t> dist(std::size_t{n} * k, kDistJunk);
  std::vector<NodeId> parent(k * n, kParentJunk);
  engine::lane_sweep(c.sub, roots, dist, parent);

  engine::Workspace ws;
  std::vector<std::uint32_t> group_depth((k + engine::kLanes - 1) / engine::kLanes, 0);
  for (std::size_t l = 0; l < k; ++l) {
    const NodeId root = roots[l];
    engine::bfs(g, root, ws, c.admit);
    for (NodeId v = 0; v < n; ++v) {
      std::uint16_t want_dist = engine::kLaneUnreached;
      NodeId want_parent = engine::kLaneNoParent;
      if (ws.visited(v)) {
        want_dist = static_cast<std::uint16_t>(
            std::min<std::uint32_t>(ws.dist(v), engine::kLaneUnreached - 1));
        group_depth[l / engine::kLanes] =
            std::max(group_depth[l / engine::kLanes], ws.dist(v));
        if (v == root) {
          want_parent = root;
        } else {
          const auto neigh = g.neighbors(v);
          for (std::size_t i = 0; i < neigh.size(); ++i) {
            const NodeId u = neigh[i];
            if (c.admit(v, i, u) && ws.dist(u) + 1 == ws.dist(v)) {
              want_parent = std::min(want_parent, u);
            }
          }
        }
      }
      EXPECT_EQ(dist[std::size_t{v} * k + l], want_dist)
          << "root " << root << " (lane " << l << " of " << k << "), vertex " << v;
      EXPECT_EQ(parent[l * n + v], want_parent)
          << "root " << root << " (lane " << l << " of " << k << "), vertex " << v;
    }
  }
  std::uint64_t levels = 0;
  for (const std::uint32_t depth : group_depth) levels += depth + 1;
  return levels;
}

TEST(Engine, LaneSweepMatchesPerRootBfsReference) {
  // The compactions above (edge-less vertices; link and vertex faults;
  // vertices alone down) and deep sparse graphs, from 1, 16 and more than
  // 16 roots. Every root set holds an edge-less root, and the unconnected
  // graphs and fault states put roots in different components. The sweeps
  // share the thread's scratch over graphs of two sizes.
  std::uint64_t levels = 0;
  const bsr::obs::Snapshot before = bsr::obs::snapshot();
  const auto check = [&](const auto& c, std::uint64_t seed) {
    const NodeId n = c.g->num_vertices();
    const NodeId edgeless = first_edgeless(c.sub);
    ASSERT_LT(edgeless, n);
    std::vector<NodeId> many{edgeless};
    for (NodeId v = static_cast<NodeId>(seed % 3); v < n; v += 4) many.push_back(v);
    ASSERT_GT(many.size(), engine::kLanes);
    const std::vector<NodeId> sixteen(many.begin(), many.begin() + engine::kLanes);
    levels += expect_lane_sweep_matches_reference(c, many);
    levels += expect_lane_sweep_matches_reference(c, sixteen);
    levels += expect_lane_sweep_matches_reference(c, {edgeless});
    levels += expect_lane_sweep_matches_reference(c, {many[1]});
  };
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const CsrGraph g = seed % 2 == 0 ? make_random(150, 0.04, seed)
                                     : make_connected_random(150, 0.04, seed);
    for_each_compaction(g, seed, [&](const auto& c) { check(c, seed); });
    // Sparse and connected: G_B five to nine levels deep.
    const CsrGraph deep = make_connected_random(200, seed % 2 == 0 ? 0.015 : 0.03,
                                                seed + 4100);
    for_each_compaction(deep, seed, [&](const auto& c) { check(c, seed); });
  }
  const bsr::obs::Snapshot d = bsr::obs::delta(before, bsr::obs::snapshot());
  const std::uint64_t bottom_up = d.counter(bsr::obs::Counter::kEngineBfsBottomUpLevels);
  if (BSR_STATS_ENABLED) {
    EXPECT_GT(bottom_up, 0u) << "no level ran bottom-up";
    EXPECT_GT(levels, bottom_up) << "no level ran top-down";
  }
}

TEST(Engine, LaneSweepClampsDistancesBelowTheSentinel) {
  // A path longer than the uint16 plane: distances past kLaneUnreached - 1
  // clamp there, the lane keeps going, and parents stay exact.
  const NodeId n = engine::kLaneUnreached + 5;
  const CsrGraph g = make_path(n);
  const std::vector<bool> everyone(n, true);
  const engine::Subgraph sub = engine::compact_dominated(g, everyone, nullptr);
  const std::vector<NodeId> roots{0, n - 1, 7};
  std::vector<std::uint16_t> dist(std::size_t{n} * roots.size());
  std::vector<NodeId> parent(roots.size() * n);
  engine::lane_sweep(sub, roots, dist, parent);
  EXPECT_EQ(dist[std::size_t{n - 1} * 3 + 0], engine::kLaneUnreached - 1);
  EXPECT_EQ(dist[std::size_t{engine::kLaneUnreached - 2} * 3 + 0],
            engine::kLaneUnreached - 2);
  EXPECT_EQ(dist[0 * 3 + 1], engine::kLaneUnreached - 1);
  EXPECT_EQ(dist[std::size_t{7} * 3 + 2], 0);
  EXPECT_EQ(parent[0 * std::size_t{n} + n - 1], n - 2);
  EXPECT_EQ(parent[1 * std::size_t{n} + 0], 1u);
  EXPECT_EQ(parent[2 * std::size_t{n} + 7], 7u);
  EXPECT_EQ(parent[2 * std::size_t{n} + 0], 1u);
  EXPECT_EQ(parent[2 * std::size_t{n} + 8], 7u);
}

TEST(Engine, BoundedBfsStopsAtDepth) {
  const CsrGraph g = make_path(10);
  engine::Workspace ws;
  engine::bfs(g, 0, ws, engine::AllEdges{}, engine::DepthCap{3});
  EXPECT_EQ(ws.dist(3), 3u);
  EXPECT_EQ(ws.dist(4), kUnreachable);
}

/// Reference depth-capped FIFO loop, counters included, written out in
/// full: engine::bfs with DepthCap must match it.
template <class Filter>
void reference_bfs_bounded(const CsrGraph& g, NodeId source, std::uint32_t max_depth,
                           engine::Workspace& ws, Filter admit) {
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

/// The tree path s..t read by hand off the parents of `ws`'s traversal.
std::vector<NodeId> walk_parents(const engine::Workspace& ws, NodeId s, NodeId t) {
  if (!ws.visited(t)) return {};
  std::vector<NodeId> path{t};
  for (NodeId w = t; w != s; w = ws.parent(w)) path.push_back(ws.parent(w));
  std::reverse(path.begin(), path.end());
  return path;
}

/// Calls check(g, filter) on seeded random graphs, connected or not, for
/// each filter the engine ships: AllEdges, DominatedEdgeFilter,
/// FaultAwareFilter (failed links and vertices) and their conjunction.
template <class Check>
void for_each_filter(Check check) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const CsrGraph g = seed % 2 == 0 ? make_random(120, 0.04, seed)
                                     : make_connected_random(120, 0.03, seed);
    const NodeId n = g.num_vertices();
    const std::vector<bool> mask = random_mask(n, 0.3, seed + 400);
    FaultPlane plane(g);
    Rng rng(seed + 800);
    for (const Edge& e : g.edges()) {
      if (rng.bernoulli(0.15)) plane.fail_edge(e.u, e.v);
    }
    for (NodeId v = 0; v < n; v += 11) plane.fail_vertex(v);
    check(g, engine::AllEdges{});
    check(g, engine::DominatedEdgeFilter{&mask});
    check(g, engine::FaultAwareFilter{&plane});
    check(g, engine::BothFilters{engine::DominatedEdgeFilter{&mask},
                                 engine::FaultAwareFilter{&plane}});
  }
}

/// engine.bfs.* movement over one call.
template <class Run>
std::array<std::uint64_t, 3> bfs_counter_delta(Run run) {
  const bsr::obs::Snapshot before = bsr::obs::snapshot();
  run();
  const bsr::obs::Snapshot d = bsr::obs::delta(before, bsr::obs::snapshot());
  return {d.counter(bsr::obs::Counter::kEngineBfsRuns),
          d.counter(bsr::obs::Counter::kEngineBfsEdgesScanned),
          d.counter(bsr::obs::Counter::kEngineBfsVerticesVisited)};
}

TEST(EngineStop, TargetStopIsAPrefixOfTheExhaustiveRun) {
  // Up to the target, the cut run's visit order, distances and parents are
  // the exhaustive run's, path_to reads the exhaustive tree's path, and the
  // counters charge exactly the slots examined: every slot of each vertex
  // expanded before the target's parent, then the parent's slots up to the
  // target's. An unreached target runs the whole search.
  std::size_t reached = 0, unreached = 0;
  for_each_filter([&](const CsrGraph& g, auto admit) {
    const NodeId n = g.num_vertices();
    engine::Workspace full, cut;
    for (NodeId s = 0; s < n; s += 13) {
      const auto full_counts = bfs_counter_delta([&] { engine::bfs(g, s, full, admit); });
      const auto order = full.visit_order();
      for (NodeId t = 0; t < n; t += 5) {
        const auto counts = bfs_counter_delta(
            [&] { engine::bfs(g, s, cut, admit, engine::TargetStop{t}); });
        EXPECT_EQ(cut.path_to(t), walk_parents(full, s, t));
        if (!full.visited(t)) {
          ++unreached;
          ASSERT_TRUE(std::equal(order.begin(), order.end(),
                                 cut.visit_order().begin(), cut.visit_order().end()));
          EXPECT_EQ(counts, full_counts);
          continue;
        }
        ++reached;
        const auto pos = static_cast<std::size_t>(
            std::find(order.begin(), order.end(), t) - order.begin());
        ASSERT_TRUE(std::equal(order.begin(), order.begin() + pos + 1,
                               cut.visit_order().begin(), cut.visit_order().end()));
        for (std::size_t j = 0; j <= pos; ++j) {
          EXPECT_EQ(cut.dist(order[j]), full.dist(order[j]));
          if (j > 0) {
            EXPECT_EQ(cut.parent(order[j]), full.parent(order[j]));
          }
        }
        std::uint64_t slots = 0;
        if (t != s) {
          const NodeId p = full.parent(t);
          for (std::size_t j = 0; order[j] != p; ++j) slots += g.degree(order[j]);
          const auto neigh = g.neighbors(p);
          slots += static_cast<std::uint64_t>(
                       std::find(neigh.begin(), neigh.end(), t) - neigh.begin()) +
                   1;
        }
        if (BSR_STATS_ENABLED) {
          EXPECT_EQ(counts, (std::array<std::uint64_t, 3>{1, slots, pos + 1}));
        }
      }
    }
  });
  EXPECT_GT(reached, 0u);
  EXPECT_GT(unreached, 0u);
}

TEST(EngineStop, DepthCapMatchesTheBoundedLoop) {
  for_each_filter([](const CsrGraph& g, auto admit) {
    const NodeId n = g.num_vertices();
    engine::Workspace ref, capped;
    for (NodeId s = 0; s < n; s += 17) {
      for (const std::uint32_t depth : {0u, 1u, 2u, 3u, 5u, 1000u}) {
        const auto ref_counts = bfs_counter_delta(
            [&] { reference_bfs_bounded(g, s, depth, ref, admit); });
        const auto counts = bfs_counter_delta(
            [&] { engine::bfs(g, s, capped, admit, engine::DepthCap{depth}); });
        EXPECT_EQ(counts, ref_counts);
        const auto order = ref.visit_order();
        ASSERT_TRUE(std::equal(order.begin(), order.end(),
                               capped.visit_order().begin(),
                               capped.visit_order().end()));
        EXPECT_EQ(dense_dist(capped, n), dense_dist(ref, n));
        for (const NodeId v : order) {
          if (v != s) {
            EXPECT_EQ(capped.parent(v), ref.parent(v));
          }
        }
      }
    }
  });
}

TEST(EngineStop, ExhaustivePathToMatchesParentWalk) {
  for_each_filter([](const CsrGraph& g, auto admit) {
    const NodeId n = g.num_vertices();
    engine::Workspace ws;
    for (NodeId s = 0; s < n; s += 29) {
      engine::bfs(g, s, ws, admit);
      for (NodeId t = 0; t < n; ++t) {
        const auto path = ws.path_to(t);
        EXPECT_EQ(path, walk_parents(ws, s, t));
        if (!path.empty()) {
          EXPECT_EQ(path.size(), ws.dist(t) + 1);
        }
      }
    }
  });
}

/// The parity cover of g: vertex 2v + p is v reached by a walk of parity p,
/// adjacent to 2w + (1 - p) for every neighbour w of v.
CsrGraph parity_cover(const CsrGraph& g) {
  GraphBuilder b(2 * g.num_vertices());
  for (const Edge& e : g.edges()) {
    b.add_edge(2 * e.u, 2 * e.v + 1);
    b.add_edge(2 * e.u + 1, 2 * e.v);
  }
  return b.build();
}

TEST(ProductBfs, ParityRuleIsBfsOnTheParityCover) {
  // Two states per vertex, every hop flipping the state: a product search
  // is engine::bfs on the product graph, state id for vertex id — the same
  // visit order, distances, parents and counters. A TargetStop returns the
  // first state of the target in that order, cut where the cover's BFS
  // stopped at that state would cut, and product_path maps its tree path to
  // vertices.
  const auto flip = [](NodeId, std::uint32_t s, std::size_t, NodeId) { return 1 - s; };
  std::size_t reached = 0, unreached = 0;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const CsrGraph g = seed % 2 == 0 ? make_random(60, 0.03, seed)
                                     : make_connected_random(60, 0.04, seed);
    const CsrGraph cover = parity_cover(g);
    engine::Workspace ref, cut, ws;
    for (NodeId s = 0; s < g.num_vertices(); s += 7) {
      const auto ref_counts =
          bfs_counter_delta([&] { engine::bfs(cover, 2 * s, ref, engine::AllEdges{}); });
      std::uint32_t found = 0;
      const auto counts =
          bfs_counter_delta([&] { found = engine::product_bfs(g, 2, s, ws, flip); });
      EXPECT_EQ(found, engine::kNoState);
      EXPECT_EQ(counts, ref_counts);
      const auto order = ref.visit_order();
      ASSERT_TRUE(std::ranges::equal(ws.visit_order(), order));
      for (const NodeId state : order) {
        EXPECT_EQ(ws.dist(state), ref.dist(state));
        if (state != 2 * s) {
          EXPECT_EQ(ws.parent(state), ref.parent(state));
        }
      }
      for (NodeId t = 0; t < g.num_vertices(); t += 3) {
        const auto first = std::find_if(order.begin(), order.end(),
                                        [t](NodeId state) { return state / 2 == t; });
        const auto stop_counts = bfs_counter_delta(
            [&] { found = engine::product_bfs(g, 2, s, ws, flip, engine::TargetStop{t}); });
        if (first == order.end()) {
          ++unreached;
          EXPECT_EQ(found, engine::kNoState);
          EXPECT_EQ(stop_counts, ref_counts);
          continue;
        }
        ++reached;
        ASSERT_EQ(found, *first);
        const auto cut_counts = bfs_counter_delta([&] {
          engine::bfs(cover, 2 * s, cut, engine::AllEdges{}, engine::TargetStop{found});
        });
        EXPECT_EQ(stop_counts, cut_counts);
        EXPECT_TRUE(std::ranges::equal(ws.visit_order(), cut.visit_order()));
        std::vector<NodeId> expected = ref.path_to(found);
        for (NodeId& v : expected) v /= 2;
        EXPECT_EQ(engine::product_path(ws, 2, found), expected);
        EXPECT_EQ(expected.size(), ws.dist(found) + 1);
      }
    }
  }
  EXPECT_GT(reached, 0u);
  EXPECT_GT(unreached, 0u);
}

TEST(Engine, UniteEdgesMatchesConnectedComponents) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const CsrGraph g = make_random(70, 0.03, seed);
    RollbackUnionFind uf(g.num_vertices());
    engine::unite_edges(g, uf, engine::AllEdges{});
    const Components comps = connected_components(g);
    EXPECT_EQ(uf.num_components(), comps.count);
    for (NodeId u = 0; u < g.num_vertices(); ++u) {
      for (NodeId v = u + 1; v < g.num_vertices(); ++v) {
        EXPECT_EQ(uf.connected(u, v), comps.label[u] == comps.label[v]);
      }
    }
  }
}

TEST(Engine, FilteredCdfMatchesMaterializedSubgraph) {
  // Reference CDF from naive BFS over the materialized G_B, normalized the
  // way the kernel documents it (cumulative count / (sources * (n - 1))),
  // so the comparison is bit-exact.
  const CsrGraph g = make_connected_random(150, 0.03, 11);
  const NodeId n = g.num_vertices();
  const std::vector<bool> mask = random_mask(n, 0.35, 12);
  const CsrGraph dominated = materialize_dominated(g, mask);
  std::vector<NodeId> sources;
  for (NodeId v = 0; v < n; v += 3) sources.push_back(v);

  std::vector<std::uint64_t> histogram(1, 0);
  for (const NodeId s : sources) {
    for (const std::uint32_t d : naive_bfs(dominated, s)) {
      if (d == 0 || d == kUnreachable) continue;
      if (d >= histogram.size()) histogram.resize(d + 1, 0);
      ++histogram[d];
    }
  }
  const double denom =
      static_cast<double>(sources.size()) * static_cast<double>(n - 1);
  std::vector<double> expected(histogram.size(), 0.0);
  std::uint64_t running = 0;
  for (std::size_t l = 1; l < histogram.size(); ++l) {
    running += histogram[l];
    expected[l] = static_cast<double>(running) / denom;
  }

  const DistanceCdf cdf =
      distance_cdf_from_sources(g, sources, engine::DominatedEdgeFilter{&mask});
  EXPECT_EQ(cdf.cdf, expected);  // bit-identical, not approx
  EXPECT_EQ(cdf.reachable, expected.back());
}

TEST(EngineWorkspace, ReusableAcrossTraversalsAndGraphSizes) {
  engine::Workspace ws;
  const CsrGraph small = make_path(4);
  engine::bfs(small, 0, ws, engine::AllEdges{});
  EXPECT_EQ(ws.dist(3), 3u);
  // Larger graph: the workspace must grow, and stale small-graph state must
  // not leak into the new traversal.
  const CsrGraph big = make_path(12);
  engine::bfs(big, 11, ws, engine::AllEdges{});
  EXPECT_EQ(ws.dist(0), 11u);
  EXPECT_EQ(ws.visit_order().size(), 12u);
  // Back to the small graph; distances are fresh again.
  engine::bfs(small, 3, ws, engine::AllEdges{});
  EXPECT_EQ(ws.dist(0), 3u);
}

TEST(EngineWorkspace, MarkDomainIsIndependentOfTraversals) {
  engine::Workspace ws;
  ws.begin_marks(5);
  EXPECT_TRUE(ws.mark(2));
  EXPECT_FALSE(ws.mark(2));  // second mark in the same round
  const CsrGraph g = make_path(5);
  engine::bfs(g, 0, ws, engine::AllEdges{});  // traversal must not clear marks
  EXPECT_TRUE(ws.marked(2));
  EXPECT_FALSE(ws.marked(3));
  ws.begin_marks(5);
  EXPECT_FALSE(ws.marked(2));  // new round forgets
  EXPECT_TRUE(ws.mark(2));
}

TEST(EngineWorkspace, ParentChainReconstructsShortestPath) {
  const CsrGraph g = make_connected_random(40, 0.05, 21);
  const auto path = bfs_shortest_path(g, 0, 39);
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.front(), 0u);
  EXPECT_EQ(path.back(), 39u);
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    EXPECT_TRUE(g.has_edge(path[i], path[i + 1]));
  }
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(path.size(), dist[39] + 1);
}

}  // namespace
}  // namespace bsr::graph
