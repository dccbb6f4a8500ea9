#include "graph/engine.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "obs/stats.hpp"

namespace bsr::graph::engine {

namespace {

int env_threads() {
  const char* raw = std::getenv("BSR_THREADS");
  if (raw == nullptr || *raw == '\0') return 1;
  char* end = nullptr;
  const long parsed = std::strtol(raw, &end, 10);
  if (end == raw || *end != '\0') {
    throw std::runtime_error(std::string("invalid BSR_THREADS: ") + raw);
  }
  return static_cast<int>(std::clamp(parsed, 1L, 256L));
}

// 0 = "use the environment"; set_num_threads stores an explicit override.
std::atomic<int> g_override{0};

}  // namespace

int num_threads() {
  const int forced = g_override.load(std::memory_order_relaxed);
  if (forced > 0) return forced;
  static const int from_env = env_threads();
  return from_env;
}

void set_num_threads(int n) {
  g_override.store(n > 0 ? (n > 256 ? 256 : n) : 0, std::memory_order_relaxed);
}

std::size_t plan_shards(std::size_t count) {
  const auto want = static_cast<std::size_t>(num_threads());
  const std::size_t shards = want < count ? want : count;
  return shards == 0 ? 1 : shards;
}

void for_each_shard(
    std::size_t count,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  const std::size_t shards = plan_shards(count);
  // One batch per call regardless of the shard fan-out, so the counter stays
  // invariant under BSR_THREADS (a per-shard count would not be).
  BSR_COUNT(EngineShardBatches);
  if (shards <= 1) {
    body(0, 0, count);
    return;
  }
  std::vector<std::thread> workers;
  workers.reserve(shards - 1);
  for (std::size_t s = 1; s < shards; ++s) {
    workers.emplace_back(
        [&body, s, count, shards] { body(s, s * count / shards, (s + 1) * count / shards); });
  }
  body(0, 0, count / shards);
  for (auto& w : workers) w.join();
}

Subgraph compact_dominated(const CsrGraph& g, const std::vector<bool>& usable,
                           const FaultPlane* faults) {
  const NodeId n = g.num_vertices();
  BSR_DCHECK(usable.size() == n);
  BSR_DCHECK(faults == nullptr || &faults->graph() == &g);
  BSR_STATS_ONLY(std::uint64_t scans = 0;)
  // With no link down, edge_up_at (two dependent loads per slot) is true
  // everywhere, so only vertex states are read.
  const bool links = faults != nullptr && faults->num_failed_edges() != 0;
  // visit(b, v) for every admitted slot of every usable vertex b, ascending
  // by b then slot. Both passes below walk the same sequence.
  const auto for_each_admitted = [&](auto&& visit) {
    for (NodeId b = 0; b < n; ++b) {
      if (!usable[b] || (faults != nullptr && !faults->vertex_ok(b))) continue;
      const auto neigh = g.neighbors(b);
      BSR_STATS_ONLY(scans += neigh.size();)
      for (std::size_t i = 0; i < neigh.size(); ++i) {
        const NodeId v = neigh[i];
        if (faults != nullptr &&
            !(faults->vertex_ok(v) && (!links || faults->edge_up_at(b, i)))) {
          continue;
        }
        visit(b, v);
      }
    }
  };

  Subgraph sub;
  sub.offsets.assign(std::size_t{n} + 1, 0);
  for_each_admitted([&](NodeId b, NodeId v) {
    ++sub.offsets[b + 1];
    if (!usable[v]) ++sub.offsets[v + 1];
  });
  // Shifted exclusive prefix sum: offsets[v + 1] becomes v's start, serves
  // as v's write cursor below, and so ends at v's end — where v + 1 starts.
  sub.has_edges.assign((std::size_t{n} + 63) / 64, 0);
  std::uint64_t total = 0;
  for (NodeId v = 0; v < n; ++v) {
    const std::uint64_t degree = sub.offsets[v + 1];
    sub.offsets[v + 1] = total;
    total += degree;
    if (degree != 0) sub.has_edges[v >> 6] |= std::uint64_t{1} << (v & 63);
  }
  sub.adjacency.resize(total);
  for_each_admitted([&](NodeId b, NodeId v) {
    sub.adjacency[sub.offsets[b + 1]++] = v;
    if (!usable[v]) sub.adjacency[sub.offsets[v + 1]++] = b;
  });
  BSR_COUNT_N(EngineCompactEdgeScans, scans);
  return sub;
}

namespace {

using LaneMask = std::uint16_t;
static_assert(kLanes == 8 * sizeof(LaneMask));

/// A level runs bottom-up once the frontier's slots exceed 1/kBottomUpRatio
/// of the slots of the vertices some lane has not seen (2 and 4 read alike
/// on perfbench's graphs, 1 and 8 slower). Tuning only: the direction never
/// changes the tables.
constexpr std::uint64_t kBottomUpRatio = 4;

/// lane_sweep's scratch: three lane masks per vertex (lanes that have seen
/// it, lanes with it in the current level, lanes with it in the next) and
/// the current and next frontier as bitsets. One per thread, grown to the
/// largest graph swept and kept, so repeated sweeps allocate nothing;
/// between sweeps every mask and bit is zero.
struct LaneScratch {
  std::vector<LaneMask> seen, level, next;
  std::vector<std::uint64_t> frontier, next_frontier;
};

LaneScratch& tls_lane_scratch(NodeId n) {
  thread_local LaneScratch s;
  if (s.seen.size() < n) {  // new entries are zero, like the old ones
    s.seen.resize(n);
    s.level.resize(n);
    s.next.resize(n);
    s.frontier.resize((std::size_t{n} + 63) / 64);
    s.next_frontier.resize((std::size_t{n} + 63) / 64);
  }
  return s;
}

/// A frontier bitset and the words [lo, hi) that may hold its bits.
struct Frontier {
  std::uint64_t* bits;
  std::size_t lo = std::numeric_limits<std::size_t>::max();
  std::size_t hi = 0;

  void add(NodeId v) noexcept {
    const std::size_t w = v >> 6;
    bits[w] |= std::uint64_t{1} << (v & 63);
    lo = std::min(lo, w);
    hi = std::max(hi, w + 1);
  }
  /// Calls visit(v) for each member in ascending id, clearing the bits.
  template <class Visit>
  void drain(Visit&& visit) noexcept {
    for (std::size_t w = lo; w < hi; ++w) {
      for (std::uint64_t b = std::exchange(bits[w], 0); b != 0; b &= b - 1) {
        visit(static_cast<NodeId>((w << 6) + std::countr_zero(b)));
      }
    }
    lo = std::numeric_limits<std::size_t>::max();
    hi = 0;
  }
};

/// One sweep of lane_sweep: lane j is the tree of roots[j], written to
/// column `first + j` of tables with `stride` columns (dist rows of `stride`
/// entries, `stride` parent rows of n).
void sweep(const Subgraph& g, std::span<const NodeId> roots, std::size_t first,
           std::size_t stride, LaneScratch& s, std::uint16_t* dist,
           NodeId* parent) {
  const NodeId n = g.num_vertices();
  const auto all = static_cast<LaneMask>((1u << roots.size()) - 1);
  const std::uint64_t* offsets = g.offsets.data();
  const NodeId* adjacency = g.adjacency.data();
  LaneMask* seen = s.seen.data();
  LaneMask* level = s.level.data();
  LaneMask* next = s.next.data();
  Frontier frontier{s.frontier.data()};
  Frontier next_frontier{s.next_frontier.data()};
  std::uint16_t* dist_rows = dist + first;                // [v * stride + j]
  NodeId* parent_rows = parent + first * std::size_t{n};  // [j * n + v]
  // Writes v's entries in the lanes of `lanes`.
  const auto settle = [&](NodeId v, LaneMask lanes, NodeId from, std::uint16_t d) {
    std::uint16_t* row = dist_rows + std::size_t{v} * stride;
    NodeId* column = parent_rows + v;
    do {
      const int j = std::countr_zero(lanes);
      lanes &= lanes - 1;
      row[j] = d;
      column[static_cast<std::size_t>(j) * n] = from;
    } while (lanes != 0);
  };
  const auto slots = [offsets](NodeId v) { return offsets[v + 1] - offsets[v]; };
  BSR_STATS_ONLY(std::uint64_t scans = 0;)

  std::uint64_t unexplored = g.adjacency.size();  // slots of vertices not seen by all
  std::uint64_t frontier_slots = 0;
  for (std::size_t j = 0; j < roots.size(); ++j) {
    const NodeId r = roots[j];
    BSR_DCHECK(r < n);
    const auto lane = static_cast<LaneMask>(1u << j);
    if (level[r] == 0) {
      frontier.add(r);
      frontier_slots += slots(r);
    }
    level[r] |= lane;
    seen[r] |= lane;
    if (seen[r] == all) unexplored -= slots(r);
    settle(r, lane, r, 0);
  }

  LaneMask active = all;  // lanes with a vertex in the current level
  for (std::uint32_t depth = 1; frontier.lo < frontier.hi; ++depth) {
    const auto d = static_cast<std::uint16_t>(
        std::min<std::uint32_t>(depth, kLaneUnreached - 1));
    LaneMask next_active = 0;
    std::uint64_t next_slots = 0;
    if (frontier_slots * kBottomUpRatio > unexplored) {
      // Ascending v, each list in order: the first frontier neighbour that
      // holds a lane is v's lowest-id parent in that lane.
      for (std::size_t w = 0; w < g.has_edges.size(); ++w) {
        for (std::uint64_t bits = g.has_edges[w]; bits != 0; bits &= bits - 1) {
          const auto v = static_cast<NodeId>((w << 6) + std::countr_zero(bits));
          LaneMask todo = active & static_cast<LaneMask>(~seen[v]);
          if (todo == 0) continue;
          const LaneMask wanted = todo;
          const std::uint64_t begin = offsets[v];
          const std::uint64_t end = offsets[v + 1];
          std::uint64_t i = begin;
          for (; i < end && todo != 0; ++i) {
            const LaneMask hit = level[adjacency[i]] & todo;
            if (hit == 0) continue;
            settle(v, hit, adjacency[i], d);
            todo &= static_cast<LaneMask>(~hit);
          }
          BSR_STATS_ONLY(scans += i - begin;)
          const auto found = static_cast<LaneMask>(wanted & ~todo);
          if (found == 0) continue;
          seen[v] |= found;
          if (seen[v] == all) unexplored -= slots(v);
          next[v] = found;
          next_active |= found;
          next_frontier.add(v);
          next_slots += slots(v);
        }
      }
      frontier.drain([level](NodeId u) { level[u] = 0; });
      BSR_COUNT(EngineBfsBottomUpLevels);
    } else {
      // Ascending u: the first u to offer a lane to v is v's lowest-id
      // parent in that lane. Only u's own lanes are read, so they are
      // cleared as it goes.
      frontier.drain([&](NodeId u) {
        const LaneMask from = std::exchange(level[u], 0);
        const std::uint64_t end = offsets[u + 1];
        for (std::uint64_t i = offsets[u]; i < end; ++i) {
          const NodeId v = adjacency[i];
          const auto fresh = static_cast<LaneMask>(from & ~seen[v]);
          if (fresh == 0) continue;
          settle(v, fresh, u, d);
          seen[v] |= fresh;
          if (seen[v] == all) unexplored -= slots(v);
          if (next[v] == 0) {
            next_frontier.add(v);
            next_slots += slots(v);
          }
          next[v] |= fresh;
          next_active |= fresh;
        }
        BSR_STATS_ONLY(scans += end - offsets[u];)
      });
    }
    std::swap(level, next);
    std::swap(frontier, next_frontier);
    active = next_active;
    frontier_slots = next_slots;
  }
  // Both frontiers and every `level` and `next` mask are zero again; the
  // pass below writes the sentinels and zeroes `seen`.
  BSR_STATS_ONLY(std::uint64_t visited = 0;)
  for (NodeId v = 0; v < n; ++v) {
    const LaneMask reached = std::exchange(seen[v], 0);
    BSR_STATS_ONLY(visited += static_cast<std::uint64_t>(std::popcount(reached));)
    const auto missing = static_cast<LaneMask>(all & ~reached);
    if (missing != 0) settle(v, missing, kLaneNoParent, kLaneUnreached);
  }
  BSR_COUNT_N(EngineBfsEdgesScanned, scans);
  BSR_COUNT_N(EngineBfsVerticesVisited, visited);
}

}  // namespace

void lane_sweep(const Subgraph& g, std::span<const NodeId> roots,
                std::span<std::uint16_t> dist, std::span<NodeId> parent) {
  const NodeId n = g.num_vertices();
  BSR_DCHECK(g.has_edges.size() == (std::size_t{n} + 63) / 64);
  BSR_DCHECK(dist.size() == std::size_t{n} * roots.size());
  BSR_DCHECK(parent.size() == roots.size() * std::size_t{n});
  LaneScratch& scratch = tls_lane_scratch(n);
  for (std::size_t first = 0; first < roots.size(); first += kLanes) {
    sweep(g, roots.subspan(first, std::min(kLanes, roots.size() - first)), first,
          roots.size(), scratch, dist.data(), parent.data());
  }
  BSR_COUNT_N(EngineBfsRuns, roots.size());
}

Workspace& tls_workspace() {
  thread_local Workspace ws;
  return ws;
}

}  // namespace bsr::graph::engine
