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

TEST(Engine, DirOptBfsMatchesClassicDistances) {
  // Distance equality across heuristic settings: defaults, forced bottom-up
  // (huge alpha switches after the first level, huge beta never switches
  // back), and forced top-down (alpha 0xffffffff never trips... use 1).
  engine::Workspace ws_classic, ws_dir;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const CsrGraph g = make_random(140, 0.05, seed);
    for (NodeId s = 0; s < g.num_vertices(); s += 19) {
      engine::bfs(g, s, ws_classic, engine::AllEdges{});
      const auto expected = dense_dist(ws_classic, g.num_vertices());
      engine::bfs_dir_opt(g, s, ws_dir, engine::AllEdges{});
      EXPECT_EQ(dense_dist(ws_dir, g.num_vertices()), expected);
      engine::bfs_dir_opt(g, s, ws_dir, engine::AllEdges{}, 1u << 30, 1u << 30);
      EXPECT_EQ(dense_dist(ws_dir, g.num_vertices()), expected);
      engine::bfs_dir_opt(g, s, ws_dir, engine::AllEdges{}, 1, 1);
      EXPECT_EQ(dense_dist(ws_dir, g.num_vertices()), expected);
    }
  }
}

TEST(Engine, DirOptBfsMatchesClassicUnderFilters) {
  // The bottom-up step probes edges from the unvisited side, so it relies on
  // filter symmetry — exercised here for both built-in filters and their
  // conjunction, with the bottom-up path forced on.
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const CsrGraph g = make_connected_random(120, 0.04, seed);
    const std::vector<bool> mask = random_mask(g.num_vertices(), 0.3, seed + 50);
    FaultPlane plane(g);
    Rng rng(seed + 900);
    for (const Edge& e : g.edges()) {
      if (rng.bernoulli(0.15)) plane.fail_edge(e.u, e.v);
    }
    engine::Workspace ws_classic, ws_dir;
    const auto check = [&](auto filter) {
      for (NodeId s = 0; s < g.num_vertices(); s += 31) {
        engine::bfs(g, s, ws_classic, filter);
        engine::bfs_dir_opt(g, s, ws_dir, filter, 1u << 30, 1u << 30);
        EXPECT_EQ(dense_dist(ws_dir, g.num_vertices()),
                  dense_dist(ws_classic, g.num_vertices()));
      }
    };
    check(engine::DominatedEdgeFilter{&mask});
    check(engine::FaultAwareFilter{&plane});
    check(engine::BothFilters{engine::DominatedEdgeFilter{&mask},
                              engine::FaultAwareFilter{&plane}});
  }
}

TEST(Engine, DirOptBfsVisitsSameVertexSet) {
  // Visit *order* within a level may differ; the visited set and per-level
  // population may not.
  const CsrGraph g = make_random(200, 0.02, 3);
  engine::Workspace ws_classic, ws_dir;
  engine::bfs(g, 0, ws_classic, engine::AllEdges{});
  engine::bfs_dir_opt(g, 0, ws_dir, engine::AllEdges{}, 1u << 30, 1u << 30);
  ASSERT_EQ(ws_dir.frontier_size(), ws_classic.frontier_size());
  std::vector<NodeId> a(ws_classic.visit_order().begin(),
                        ws_classic.visit_order().end());
  std::vector<NodeId> b(ws_dir.visit_order().begin(), ws_dir.visit_order().end());
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
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

TEST(Engine, SubgraphEntryPointBitIdenticalToFilteredTraversal) {
  // compact_dominated must reproduce a full filtered scan slot for slot, and
  // the Subgraph entry points must then repeat the filtered kernels exactly:
  // same dist, same parents, same visit order under every switch schedule
  // (default, and alpha/beta forced to 1 and 2^30), same union-find roots.
  // Every compaction holds edge-less vertices, which the bottom-up levels
  // skip through has_edges, and one of them is also a source.
  constexpr std::uint32_t kForced[] = {1, 1u << 30};
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const CsrGraph g = seed % 2 == 0 ? make_random(150, 0.04, seed)
                                     : make_connected_random(150, 0.04, seed);
    const NodeId n = g.num_vertices();
    const std::vector<bool> mask = random_mask(n, 0.2, seed + 300);
    const std::vector<bool> everyone(n, true);
    FaultPlane plane(g);
    Rng rng(seed + 700);
    for (const Edge& e : g.edges()) {
      if (rng.bernoulli(0.1)) plane.fail_edge(e.u, e.v);
    }
    for (NodeId v = 0; v < n; v += 13) plane.fail_vertex(v);

    const auto check = [&](auto admit, const std::vector<bool>& usable,
                           const FaultPlane* faults) {
      const engine::Subgraph sub = engine::compact_dominated(g, usable, faults);
      const engine::Subgraph ref = filtered_scan(g, admit);
      ASSERT_EQ(sub.offsets, ref.offsets);
      ASSERT_EQ(sub.adjacency, ref.adjacency);
      ASSERT_EQ(sub.has_edges, ref.has_edges);
      NodeId edgeless = 0;
      while (edgeless < n && !sub.neighbors(edgeless).empty()) ++edgeless;
      ASSERT_LT(edgeless, n) << "every compaction should keep an edge-less vertex";
      std::vector<NodeId> sources{edgeless};
      for (NodeId s = 0; s < n; s += 17) sources.push_back(s);

      engine::Workspace ws_filtered, ws_sub;
      const auto same_traversal = [&](NodeId s) {
        ASSERT_EQ(dense_dist(ws_sub, n), dense_dist(ws_filtered, n));
        const auto order = ws_filtered.visit_order();
        ASSERT_TRUE(std::equal(order.begin(), order.end(),
                               ws_sub.visit_order().begin(),
                               ws_sub.visit_order().end()));
        for (const NodeId v : order) {
          if (v != s) {
            EXPECT_EQ(ws_sub.parent(v), ws_filtered.parent(v));
          }
        }
      };
      for (const NodeId s : sources) {
        engine::bfs_dir_opt(g, s, ws_filtered, admit);
        engine::bfs_dir_opt(sub, s, ws_sub);
        same_traversal(s);
        for (const std::uint32_t alpha : kForced) {
          for (const std::uint32_t beta : kForced) {
            engine::bfs_dir_opt(g, s, ws_filtered, admit, alpha, beta);
            engine::bfs_dir_opt(sub, s, ws_sub, engine::AllEdges{}, alpha,
                                beta);
            same_traversal(s);
          }
        }
      }

      RollbackUnionFind uf_filtered(n), uf_sub(n);
      engine::unite_edges(g, uf_filtered, admit);
      engine::unite_edges(sub, uf_sub, engine::AllEdges{});
      for (NodeId v = 0; v < n; ++v) EXPECT_EQ(uf_sub.find(v), uf_filtered.find(v));
    };
    check(engine::DominatedEdgeFilter{&mask}, mask, nullptr);
    check(engine::FaultAwareFilter{&plane}, everyone, &plane);
    check(engine::BothFilters{engine::DominatedEdgeFilter{&mask},
                              engine::FaultAwareFilter{&plane}},
          mask, &plane);
  }
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
