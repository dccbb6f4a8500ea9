// perf_scale — the Internet-scale kernel suite: locality renumbering, the
// fault-filtered FIFO BFS, and the incremental-gain MaxSG, measured at the
// paper's full topology (REPRO_SCALE=1.0, ~52k vertices) plus a 10x stress
// topology (~500k vertices, ~3.5M edges).
//
// It first round-trips the generated topology through the .topo format in
// memory (topology.save, topology.load) and exits nonzero unless the loaded
// topology equals the generated one: CSR arrays, metadata and every slot's
// relationship label.
//
// Three head-to-head measurements, each verified bit-identical before the
// timed passes (the speedups are only meaningful because the answers are
// exactly equal):
//   1. fault-filtered BFS: engine::bfs on the original labeling vs on the
//      degree-renumbered graph (distances compared through the relabeling
//      per source);
//   2. MaxSG: the pre-anchor snapshot-sweep implementation (reference copy
//      below) vs the live incremental-gain broker::maxsg vs the same on the
//      renumbered graph with original-id results;
//   3. greedy MCB: direct vs renumbered round-trip equality.
// It then times robust_maxsg for r = 1 (k = 8), r = 2 (k = 6) and the
// IXP-outage failure groups (k = 3), whose picks, surviving curves, pair
// counts and coverage go into the results digest.
//
// Env knobs beyond the standard REPRO_*:
//   PERF_SCALE_STRESS=0   skip the 10x stress section (CI does; the
//                         committed BENCH_scale.json includes it)
//   SCALE_RESULTS_TXT=f   also write an integer-only results digest to f —
//                         byte-comparable across BSR_THREADS settings, which
//                         is how CI checks determinism with a plain `cmp`
//   BENCH_SCALE_JSON=f    override the BENCH_scale.json path
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "harness.hpp"
#include "broker/broker_set.hpp"
#include "broker/coverage.hpp"
#include "broker/greedy_mcb.hpp"
#include "broker/maxsg.hpp"
#include "broker/robust.hpp"
#include "graph/components.hpp"
#include "graph/engine.hpp"
#include "graph/fault_plane.hpp"
#include "graph/renumbering.hpp"
#include "graph/sampling.hpp"
#include "graph/rollback_union_find.hpp"
#include "io/table.hpp"
#include "topology/internet.hpp"
#include "topology/renumber.hpp"
#include "topology/serialization.hpp"

namespace {

using bsr::graph::CsrGraph;
using bsr::graph::kUnreachable;
using bsr::graph::NodeId;
using bsr::graph::Renumbering;
namespace engine = bsr::graph::engine;

namespace snapshot {

// The pre-anchor-cache MaxSG (minus telemetry), the reference the live
// implementation is checked and timed against: every round refreshes flat
// root/size snapshots of a union-find and re-evaluates EVERY candidate's
// gain, O(k * (|V| + |E|)) total, vs the live implementation's delta
// updates to the candidates each merge reaches.
bsr::broker::MaxSgResult maxsg(const CsrGraph& g, std::uint32_t k) {
  const NodeId n = g.num_vertices();

  bsr::broker::MaxSgResult result;
  result.brokers = bsr::broker::BrokerSet(n);
  if (k == 0) return result;

  const std::uint32_t reachable_ceiling =
      bsr::graph::connected_components(g).largest_size();

  bsr::graph::RollbackUnionFind uf(n);
  std::vector<bool> is_broker(n, false);
  std::uint32_t largest = 0;

  std::vector<NodeId> root_of(n);
  std::vector<std::uint32_t> size_of(n);
  std::vector<std::uint32_t> root_stamp(n, 0);
  std::uint32_t epoch = 0;

  const auto candidate_gain = [&](NodeId w) -> std::uint32_t {
    ++epoch;
    std::uint32_t merged = 0;
    const NodeId rw = root_of[w];
    root_stamp[rw] = epoch;
    merged += size_of[rw];
    for (const NodeId v : g.neighbors(w)) {
      const NodeId r = root_of[v];
      if (root_stamp[r] != epoch) {
        root_stamp[r] = epoch;
        merged += size_of[r];
      }
    }
    return merged;
  };

  while (result.brokers.size() < k) {
    for (NodeId v = 0; v < n; ++v) root_of[v] = uf.find(v);
    for (NodeId v = 0; v < n; ++v) {
      if (root_of[v] == v) size_of[v] = uf.root_size(v);
    }
    NodeId best_vertex = kUnreachable;
    std::uint32_t best_gain = 0;
    for (NodeId w = 0; w < n; ++w) {
      if (is_broker[w]) continue;
      const std::uint32_t gain = candidate_gain(w);
      if (gain > best_gain) {
        best_gain = gain;
        best_vertex = w;
      }
    }
    if (best_vertex == kUnreachable) break;

    is_broker[best_vertex] = true;
    result.brokers.add(best_vertex);
    for (const NodeId v : g.neighbors(best_vertex)) uf.unite(best_vertex, v);
    largest = std::max(largest, uf.component_size(best_vertex));
    result.component_curve.push_back(largest);

    if (largest >= reachable_ceiling) break;
  }

  result.final_component = largest;
  result.coverage = bsr::broker::coverage(g, result.brokers);
  return result;
}

}  // namespace snapshot

/// FNV-1a over a stream of integers — the digest written to
/// SCALE_RESULTS_TXT so two runs can be compared with `cmp`.
class Digest {
 public:
  void add(std::uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      hash_ ^= (x >> (8 * b)) & 0xff;
      hash_ *= 0x100000001b3ull;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

struct BfsScale {
  double classic_s = 0.0;
  double renum_s = 0.0;
  std::uint64_t edges_scanned = 0;  // per repetition
  std::uint64_t dist_digest = 0;    // over original-id (vertex, dist) pairs
  int reps = 0;

  [[nodiscard]] double meps(double seconds) const {
    return seconds > 0 ? double(edges_scanned) * reps / seconds / 1e6 : 0.0;
  }
  [[nodiscard]] double renum_speedup() const { return classic_s / renum_s; }
};

/// Times engine::bfs over the same fault plane and sources on both
/// labelings, after an untimed pass proving every per-source distance array
/// identical through the relabeling.
BfsScale bench_bfs(bsr::bench::Harness& harness, const std::string& label,
                   const CsrGraph& g, const bsr::graph::FaultPlane& plane,
                   const CsrGraph& g_ren, const bsr::graph::FaultPlane& plane_ren,
                   const Renumbering& ren, const std::vector<NodeId>& sources,
                   int reps) {
  const NodeId n = g.num_vertices();
  engine::Workspace ws(n);
  engine::Workspace ws_ren(n);
  const engine::FaultAwareFilter filt{&plane};
  const engine::FaultAwareFilter filt_ren{&plane_ren};

  BfsScale out;
  out.reps = reps;

  // Verification + accounting pass (untimed).
  Digest digest;
  std::vector<std::uint32_t> truth(n);
  for (const NodeId s : sources) {
    engine::bfs(g, s, ws, filt);
    for (NodeId v = 0; v < n; ++v) {
      truth[v] = ws.visited(v) ? ws.dist_unchecked(v) : kUnreachable;
      if (truth[v] != kUnreachable) digest.add((std::uint64_t(v) << 32) | truth[v]);
    }
    for (const NodeId v : ws.visit_order()) out.edges_scanned += g.degree(v);

    engine::bfs(g_ren, ren.to_new(s), ws_ren, filt_ren);
    for (NodeId v = 0; v < n; ++v) {
      const NodeId w = ren.to_new(v);
      const std::uint32_t d =
          ws_ren.visited(w) ? ws_ren.dist_unchecked(w) : kUnreachable;
      if (d != truth[v]) {
        std::cerr << "MISMATCH: renumbered source " << s << " vertex " << v
                  << ": " << d << " vs original " << truth[v] << "\n";
        std::exit(1);
      }
    }
  }
  out.dist_digest = digest.value();

  std::uint64_t sink = 0;  // defeats dead-code elimination
  out.classic_s = harness
                      .run(label + ".classic", reps,
                           [&] {
                             for (const NodeId s : sources) {
                               engine::bfs(g, s, ws, filt);
                               sink += ws.visit_order().size();
                             }
                           })
                      .wall_ms /
                  1e3;
  auto& renum_run = harness.run(label + ".classic_renum", reps, [&] {
    for (const NodeId s : sources) {
      engine::bfs(g_ren, ren.to_new(s), ws_ren, filt_ren);
      sink += ws_ren.visit_order().size();
    }
  });
  out.renum_s = renum_run.wall_ms / 1e3;
  bsr::bench::Harness::metric(renum_run, "speedup", out.renum_speedup());
  if (sink == 0xdeadbeef) std::cerr << "";  // keep `sink` observable

  return out;
}

void print_bfs(const char* label, const BfsScale& b, std::size_t num_sources) {
  std::cout << label << " (" << num_sources << " sources x " << b.reps
            << " reps, " << b.edges_scanned << " edge scans/rep):\n"
            << "  original labeling:     "
            << bsr::io::format_double(b.classic_s, 3) << "s  ("
            << bsr::io::format_double(b.meps(b.classic_s), 1) << " Medges/s)\n"
            << "  renumbered:            "
            << bsr::io::format_double(b.renum_s, 3) << "s  (x"
            << bsr::io::format_double(b.renum_speedup(), 2) << ")\n\n";
}

std::string json_bfs(const BfsScale& b, std::size_t num_sources) {
  std::ostringstream json;
  json << "{\n"
       << "    \"sources\": " << num_sources << ",\n"
       << "    \"reps\": " << b.reps << ",\n"
       << "    \"edge_scans_per_rep\": " << b.edges_scanned << ",\n"
       << "    \"classic_seconds\": " << b.classic_s << ",\n"
       << "    \"classic_renum_seconds\": " << b.renum_s << ",\n"
       << "    \"classic_medges_per_sec\": " << b.meps(b.classic_s) << ",\n"
       << "    \"renum_speedup\": " << b.renum_speedup() << "\n"
       << "  }";
  return json.str();
}

/// Seeds the same Bernoulli(0.05) fault pattern on the original graph and,
/// through the relabeling, on the renumbered one — identical failed edge
/// sets, so filtered traversals are comparable.
void seed_faults(const CsrGraph& g, std::uint64_t seed,
                 bsr::graph::FaultPlane& plane, bsr::graph::FaultPlane& plane_ren,
                 const Renumbering& ren) {
  bsr::graph::Rng fault_rng(seed);
  for (const auto& e : g.edges()) {
    if (fault_rng.bernoulli(0.05)) {
      plane.fail_edge(e.u, e.v);
      const auto m = ren.map_edge_to_new(e);
      plane_ren.fail_edge(m.u, m.v);
    }
  }
}

bool maxsg_equal(const bsr::broker::MaxSgResult& a,
                 const bsr::broker::MaxSgResult& b) {
  return std::ranges::equal(a.brokers.members(), b.brokers.members()) &&
         a.component_curve == b.component_curve &&
         a.final_component == b.final_component && a.coverage == b.coverage;
}

void digest_maxsg(Digest& d, const bsr::broker::MaxSgResult& r) {
  for (const NodeId v : r.brokers.members()) d.add(v);
  for (const std::uint32_t c : r.component_curve) d.add(c);
  d.add(r.final_component);
  d.add(r.coverage);
}

std::uint64_t robust_digest(const bsr::broker::RobustResult& r) {
  Digest d;
  for (const NodeId v : r.brokers.members()) d.add(v);
  for (const std::uint64_t p : r.surviving_curve) d.add(p);
  d.add(r.surviving_pairs);
  d.add(r.nominal_pairs);
  d.add(r.coverage);
  return d.value();
}

}  // namespace

int main() {
  const auto ctx = bsr::bench::make_context(
      "perf_scale: renumbering + filtered BFS + incremental-gain MaxSG at scale");
  const CsrGraph& g = ctx.topo.graph;
  const NodeId n = g.num_vertices();
  std::cout << "threads: " << engine::num_threads() << " (BSR_THREADS)\n\n";
  bsr::bench::Harness harness("perf_scale", ctx);

  // --- .topo round trip ---------------------------------------------------
  {
    std::string text;
    const double save_s = harness
                              .run("topology.save",
                                   [&] {
                                     std::ostringstream out;
                                     bsr::topology::save_topology(out, ctx.topo);
                                     text = std::move(out).str();
                                   })
                              .wall_ms /
                          1e3;
    bsr::topology::InternetTopology loaded;
    const double load_s = harness
                              .run("topology.load",
                                   [&] {
                                     std::istringstream in(text);
                                     loaded = bsr::topology::load_topology(in);
                                   })
                              .wall_ms /
                          1e3;
    if (!(loaded == ctx.topo)) {
      std::cerr << "MISMATCH: the loaded .topo differs from the generated topology\n";
      return 1;
    }
    std::cout << ".topo round trip (" << text.size() << " bytes): save "
              << bsr::io::format_double(save_s, 3) << "s, load "
              << bsr::io::format_double(load_s, 3) << "s, identical\n\n";
  }

  // --- locality renumbering ------------------------------------------------
  bsr::topology::RenumberedTopology renumbered;
  const double renumber_s =
      harness.run("renumber.pass",
                  [&] { renumbered = bsr::topology::renumber_topology(ctx.topo); })
          .wall_ms /
      1e3;
  const CsrGraph& g_ren = renumbered.topo.graph;
  const Renumbering& ren = renumbered.renumbering;
  const std::uint64_t gap_before = bsr::graph::total_neighbor_gap(g);
  const std::uint64_t gap_after = bsr::graph::total_neighbor_gap(g_ren);
  std::cout << "renumbering (degree-descending, AS/IXP segmented): "
            << bsr::io::format_double(renumber_s, 3) << "s\n"
            << "  avg neighbor-id gap: "
            << bsr::io::format_double(bsr::graph::average_neighbor_gap(g), 1)
            << " -> "
            << bsr::io::format_double(bsr::graph::average_neighbor_gap(g_ren), 1)
            << "\n\n";

  // --- fault-filtered BFS --------------------------------------------------
  bsr::graph::Rng rng(ctx.env.seed);
  const auto sources = bsr::graph::sample_distinct(
      rng, n, static_cast<NodeId>(std::min<std::size_t>(ctx.env.bfs_sources, n)));
  const int reps = 3;

  bsr::graph::FaultPlane plane(g);
  bsr::graph::FaultPlane plane_ren(g_ren);
  seed_faults(g, ctx.env.seed + 1, plane, plane_ren, ren);

  const BfsScale fault_bfs = bench_bfs(harness, "bfs.fault", g, plane, g_ren,
                                       plane_ren, ren, sources, reps);
  print_bfs("fault-filtered BFS", fault_bfs, sources.size());

  // --- MaxSG ---------------------------------------------------------------
  const auto k = static_cast<std::uint32_t>(std::max<NodeId>(32, n / 100));
  bsr::broker::MaxSgResult snapshot_result;
  const double snapshot_s =
      harness.run("maxsg.snapshot",
                  [&] { snapshot_result = snapshot::maxsg(g, k); })
          .wall_ms /
      1e3;
  bsr::broker::MaxSgResult anchor_result;
  const double anchor_s =
      harness.run("maxsg.anchor",
                  [&] { anchor_result = bsr::broker::maxsg(g, k); })
          .wall_ms /
      1e3;
  bsr::broker::MaxSgResult renum_result;
  bsr::broker::MaxSgOptions renum_options;
  renum_options.renumbering = &ren;
  const double maxsg_renum_s =
      harness.run("maxsg.anchor_renum",
                  [&] { renum_result = bsr::broker::maxsg(g_ren, k, renum_options); })
          .wall_ms /
      1e3;
  if (!maxsg_equal(snapshot_result, anchor_result) ||
      !maxsg_equal(snapshot_result, renum_result)) {
    std::cerr << "MISMATCH: MaxSG selections diverged between implementations\n";
    return 1;
  }
  const double maxsg_speedup = snapshot_s / anchor_s;
  const double maxsg_renum_speedup = snapshot_s / maxsg_renum_s;
  std::cout << "MaxSG (k=" << k << ", " << anchor_result.brokers.size()
            << " picked, final component " << anchor_result.final_component
            << "):\n"
            << "  snapshot full sweep:   "
            << bsr::io::format_double(snapshot_s, 3) << "s\n"
            << "  incremental gains:     " << bsr::io::format_double(anchor_s, 3)
            << "s  (x" << bsr::io::format_double(maxsg_speedup, 2) << ")\n"
            << "  incremental + renum:   "
            << bsr::io::format_double(maxsg_renum_s, 3) << "s  (x"
            << bsr::io::format_double(maxsg_renum_speedup, 2) << ")\n\n";

  // --- greedy MCB round-trip ----------------------------------------------
  const auto greedy_direct = bsr::broker::greedy_mcb(g, k);
  const auto greedy_renum = bsr::broker::greedy_mcb(g_ren, k, &ren);
  if (!std::ranges::equal(greedy_direct.brokers.members(),
                          greedy_renum.brokers.members()) ||
      greedy_direct.coverage_curve != greedy_renum.coverage_curve) {
    std::cerr << "MISMATCH: greedy MCB diverged under renumbering\n";
    return 1;
  }
  std::cout << "greedy MCB round-trip: OK (k=" << k << ", coverage "
            << greedy_direct.coverage << ")\n\n";

  // --- robust_maxsg --------------------------------------------------------
  const auto ixp_groups = bsr::topology::ixp_failure_groups(ctx.topo);
  const auto run_robust = [&](const char* name, std::uint32_t robust_k,
                              const bsr::broker::RobustOptions& options) {
    bsr::broker::RobustResult result;
    const double s =
        harness
            .run(name,
                 [&] { result = bsr::broker::robust_maxsg(g, robust_k, options); })
            .wall_ms /
        1e3;
    std::cout << "  " << name << " (k=" << robust_k
              << "): " << bsr::io::format_double(s, 3) << "s, surviving pairs "
              << result.surviving_pairs << "\n";
    return result;
  };
  bsr::broker::RobustOptions r2_options;
  r2_options.redundancy = 2;
  bsr::broker::RobustOptions groups_options;
  groups_options.mode = bsr::broker::RobustMode::kFailureGroups;
  groups_options.groups = ixp_groups;
  std::cout << "robust_maxsg (" << ixp_groups.size() << " IXP groups):\n";
  const auto robust_r1 = run_robust("robust.r1", 8, {});
  const auto robust_r2 = run_robust("robust.r2", 6, r2_options);
  const auto robust_groups = run_robust("robust.groups", 3, groups_options);
  std::cout << "\n";

  // --- 10x stress topology -------------------------------------------------
  const char* stress_env = std::getenv("PERF_SCALE_STRESS");
  const bool run_stress = stress_env == nullptr || std::string(stress_env) != "0";
  std::ostringstream stress_json;
  Digest stress_digest;
  if (run_stress) {
    bsr::bench::Stopwatch stress_watch;
    const auto stress_config = ctx.config.scaled(10.0);
    const auto stress_topo = bsr::topology::make_internet(stress_config);
    const CsrGraph& sg = stress_topo.graph;
    const NodeId sn = sg.num_vertices();
    std::cout << "stress topology (10x): " << sn << " vertices, "
              << sg.num_edges() << " edges ("
              << bsr::io::format_double(stress_watch.seconds(), 1)
              << "s to generate)\n";

    auto stress_renumbered = bsr::topology::renumber_topology(stress_topo);
    const CsrGraph& sg_ren = stress_renumbered.topo.graph;
    const Renumbering& sren = stress_renumbered.renumbering;
    const std::uint64_t sgap_before = bsr::graph::total_neighbor_gap(sg);
    const std::uint64_t sgap_after = bsr::graph::total_neighbor_gap(sg_ren);

    bsr::graph::Rng stress_rng(ctx.env.seed);
    const auto stress_sources = bsr::graph::sample_distinct(
        stress_rng, sn, static_cast<NodeId>(std::min<std::size_t>(16, sn)));
    bsr::graph::FaultPlane splane(sg);
    bsr::graph::FaultPlane splane_ren(sg_ren);
    seed_faults(sg, ctx.env.seed + 1, splane, splane_ren, sren);
    const BfsScale stress_bfs = bench_bfs(harness, "stress.bfs.fault", sg, splane,
                                          sg_ren, splane_ren, sren,
                                          stress_sources, 1);
    print_bfs("stress fault-filtered BFS", stress_bfs, stress_sources.size());

    // Only the live MaxSG runs at stress scale: the snapshot sweep's
    // O(k * (|V| + |E|)) would dominate the suite's wall time for a number
    // already established at scale 1.0.
    const std::uint32_t stress_k = 256;
    bsr::broker::MaxSgResult stress_direct;
    const double stress_maxsg_s =
        harness.run("stress.maxsg.anchor",
                    [&] { stress_direct = bsr::broker::maxsg(sg, stress_k); })
            .wall_ms /
        1e3;
    bsr::broker::MaxSgOptions stress_options;
    stress_options.renumbering = &sren;
    bsr::broker::MaxSgResult stress_renum;
    const double stress_maxsg_renum_s =
        harness.run("stress.maxsg.anchor_renum",
                    [&] {
                      stress_renum =
                          bsr::broker::maxsg(sg_ren, stress_k, stress_options);
                    })
            .wall_ms /
        1e3;
    if (!maxsg_equal(stress_direct, stress_renum)) {
      std::cerr << "MISMATCH: stress MaxSG diverged under renumbering\n";
      return 1;
    }
    std::cout << "stress MaxSG (k=" << stress_k << "): "
              << bsr::io::format_double(stress_maxsg_s, 3) << "s direct, "
              << bsr::io::format_double(stress_maxsg_renum_s, 3)
              << "s renumbered, final component "
              << stress_direct.final_component << "\n\n";

    stress_digest.add(sn);
    stress_digest.add(sg.num_edges());
    stress_digest.add(sgap_after);
    stress_digest.add(stress_bfs.dist_digest);
    digest_maxsg(stress_digest, stress_direct);

    stress_json << "{\n"
                << "    \"vertices\": " << sn << ",\n"
                << "    \"edges\": " << sg.num_edges() << ",\n"
                << "    \"gap_before\": " << sgap_before << ",\n"
                << "    \"gap_after\": " << sgap_after << ",\n"
                << "    \"bfs\": " << json_bfs(stress_bfs, stress_sources.size())
                << ",\n"
                << "    \"maxsg_k\": " << stress_k << ",\n"
                << "    \"maxsg_seconds\": " << stress_maxsg_s << ",\n"
                << "    \"maxsg_renum_seconds\": " << stress_maxsg_renum_s << ",\n"
                << "    \"maxsg_final_component\": "
                << stress_direct.final_component << "\n"
                << "  }";
  } else {
    std::cout << "stress section skipped (PERF_SCALE_STRESS=0)\n\n";
  }

  // --- deterministic digest (CI `cmp`s this across BSR_THREADS) ------------
  if (const char* txt_path = std::getenv("SCALE_RESULTS_TXT")) {
    Digest maxsg_digest;
    digest_maxsg(maxsg_digest, anchor_result);
    Digest renum_digest;
    digest_maxsg(renum_digest, renum_result);
    Digest greedy_digest;
    for (const NodeId v : greedy_direct.brokers.members()) greedy_digest.add(v);
    for (const std::uint32_t c : greedy_direct.coverage_curve)
      greedy_digest.add(c);

    std::ofstream txt(txt_path);
    txt << "vertices " << n << "\n"
        << "edges " << g.num_edges() << "\n"
        << "gap_before " << gap_before << "\n"
        << "gap_after " << gap_after << "\n"
        << "bfs_dist_digest " << fault_bfs.dist_digest << "\n"
        << "maxsg_digest " << maxsg_digest.value() << "\n"
        << "maxsg_renum_digest " << renum_digest.value() << "\n"
        << "greedy_digest " << greedy_digest.value() << "\n"
        << "greedy_coverage " << greedy_direct.coverage << "\n"
        << "stress_digest " << (run_stress ? stress_digest.value() : 0) << "\n"
        << "robust_r1_digest " << robust_digest(robust_r1) << "\n"
        << "robust_r2_digest " << robust_digest(robust_r2) << "\n"
        << "robust_groups_digest " << robust_digest(robust_groups) << "\n";
    std::cout << "wrote " << txt_path << "\n";
  }

  // --- JSON artifact -------------------------------------------------------
  harness.metric("vertices", static_cast<double>(n));
  harness.metric("edges", static_cast<double>(g.num_edges()));
  harness.metric("gap_before", static_cast<double>(gap_before));
  harness.metric("gap_after", static_cast<double>(gap_after));
  harness.metric("bfs_renum_speedup", fault_bfs.renum_speedup());
  harness.metric("maxsg_anchor_speedup", maxsg_speedup);
  harness.metric("maxsg_anchor_renum_speedup", maxsg_renum_speedup);
  harness.raw_section("filtered_bfs", json_bfs(fault_bfs, sources.size()));
  {
    std::ostringstream maxsg_json;
    maxsg_json << "{\n"
               << "    \"k\": " << k << ",\n"
               << "    \"picked\": " << anchor_result.brokers.size() << ",\n"
               << "    \"final_component\": " << anchor_result.final_component
               << ",\n"
               << "    \"snapshot_seconds\": " << snapshot_s << ",\n"
               << "    \"anchor_seconds\": " << anchor_s << ",\n"
               << "    \"anchor_renum_seconds\": " << maxsg_renum_s << ",\n"
               << "    \"speedup\": " << maxsg_speedup << ",\n"
               << "    \"renum_speedup\": " << maxsg_renum_speedup << "\n"
               << "  }";
    harness.raw_section("maxsg", maxsg_json.str());
  }
  if (run_stress) harness.raw_section("stress", stress_json.str());
  harness.write_json_file("BENCH_scale.json", "BENCH_SCALE_JSON");
  return 0;
}
