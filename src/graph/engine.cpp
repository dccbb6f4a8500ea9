#include "graph/engine.hpp"

#include <atomic>
#include <cstdlib>
#include <thread>

#include "obs/stats.hpp"

namespace bsr::graph::engine {

namespace {

int env_threads() {
  const char* raw = std::getenv("BSR_THREADS");
  if (raw == nullptr || *raw == '\0') return 1;
  const long parsed = std::strtol(raw, nullptr, 10);
  if (parsed < 1) return 1;
  if (parsed > 256) return 256;
  return static_cast<int>(parsed);
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
            !(faults->vertex_ok(v) && faults->edge_up_at(b, i))) {
          continue;
        }
        visit(b, v);
      }
    }
  };

  Subgraph sub;
  sub.graph = &g;
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

Workspace& tls_workspace() {
  thread_local Workspace ws;
  return ws;
}

}  // namespace bsr::graph::engine
