// Microbenchmarks for the complexity claims of §4-§5.
//
//   * MaxSG:        O(k (|V| + |E|))          (Algorithm 3)
//   * MCBG approx:  O(k² (|V| log |V| + |E|)) (Algorithm 2; BFS variant)
//   * greedy MCB:   near-linear with lazy evaluation (Algorithm 1)
// Runs each algorithm over a range of scaled Internet topologies so the
// scaling exponent is visible in the reported times.
#include <benchmark/benchmark.h>

#include "broker/dominated.hpp"
#include "broker/greedy_mcb.hpp"
#include "broker/maxsg.hpp"
#include "broker/mcbg_approx.hpp"
#include "graph/engine.hpp"
#include "topology/internet.hpp"

namespace {

const bsr::topology::InternetTopology& topo_for_scale(int permille) {
  static std::map<int, bsr::topology::InternetTopology> cache;
  auto it = cache.find(permille);
  if (it == cache.end()) {
    auto cfg = bsr::topology::InternetConfig{}.scaled(permille / 1000.0);
    cfg.seed = 424242;
    it = cache.emplace(permille, bsr::topology::make_internet(cfg)).first;
  }
  return it->second;
}

void BM_TopologyGeneration(benchmark::State& state) {
  auto cfg = bsr::topology::InternetConfig{}.scaled(state.range(0) / 1000.0);
  cfg.seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bsr::topology::make_internet(cfg));
  }
  state.SetLabel(std::to_string(cfg.num_ases + cfg.num_ixps) + " vertices");
}
BENCHMARK(BM_TopologyGeneration)->Arg(20)->Arg(50)->Arg(100)->Unit(benchmark::kMillisecond);

void BM_Bfs(benchmark::State& state) {
  const auto& topo = topo_for_scale(static_cast<int>(state.range(0)));
  bsr::graph::engine::Workspace ws(topo.graph.num_vertices());
  bsr::graph::NodeId source = 0;
  for (auto _ : state) {
    bsr::graph::engine::bfs(topo.graph, source, ws, bsr::graph::engine::AllEdges{});
    benchmark::DoNotOptimize(ws.visit_order().data());
    source = (source + 7919) % topo.graph.num_vertices();
  }
}
BENCHMARK(BM_Bfs)->Arg(20)->Arg(50)->Arg(100)->Unit(benchmark::kMillisecond);

void BM_GreedyMcb(benchmark::State& state) {
  const auto& topo = topo_for_scale(static_cast<int>(state.range(0)));
  const auto k = static_cast<std::uint32_t>(topo.graph.num_vertices() / 50);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bsr::broker::greedy_mcb(topo.graph, k));
  }
  state.SetLabel("k=" + std::to_string(k));
}
BENCHMARK(BM_GreedyMcb)->Arg(20)->Arg(50)->Arg(100)->Unit(benchmark::kMillisecond);

void BM_MaxSg(benchmark::State& state) {
  const auto& topo = topo_for_scale(static_cast<int>(state.range(0)));
  const auto k = static_cast<std::uint32_t>(topo.graph.num_vertices() / 50);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bsr::broker::maxsg(topo.graph, k));
  }
  state.SetLabel("k=" + std::to_string(k));
}
BENCHMARK(BM_MaxSg)->Arg(20)->Arg(50)->Arg(100)->Unit(benchmark::kMillisecond);

void BM_McbgApprox(benchmark::State& state) {
  const auto& topo = topo_for_scale(static_cast<int>(state.range(0)));
  const auto k = static_cast<std::uint32_t>(topo.graph.num_vertices() / 50);
  bsr::broker::McbgOptions options;
  options.max_roots = 8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bsr::broker::mcbg_approx(topo.graph, k, options));
  }
  state.SetLabel("k=" + std::to_string(k));
}
BENCHMARK(BM_McbgApprox)->Arg(20)->Arg(50)->Arg(100)->Unit(benchmark::kMillisecond);

void BM_SaturatedConnectivity(benchmark::State& state) {
  const auto& topo = topo_for_scale(static_cast<int>(state.range(0)));
  const auto brokers =
      bsr::broker::greedy_mcb(topo.graph, topo.graph.num_vertices() / 100).brokers;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bsr::broker::saturated_connectivity(topo.graph, brokers));
  }
}
BENCHMARK(BM_SaturatedConnectivity)->Arg(20)->Arg(50)->Arg(100)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
