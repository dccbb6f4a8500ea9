// perf_obs — wall-time cost of the telemetry plane on the hot kernels.
//
// The obs design claim is "cheap enough to leave on": per-edge costs fold
// into per-call accumulators and flush to the registry once per kernel
// call (see docs/OBSERVABILITY.md for the placement rules). This bench
// prices that claim against uninstrumented *twins* of the hottest paths:
//   1. fault-filtered BFS: engine::bfs (counted) vs the same template
//      recompiled with the telemetry compiled out;
//   2. MaxSG end-to-end: broker::maxsg (counted + span) vs the same source
//      recompiled with the telemetry compiled out;
//   3. the route-service serve phase: sim::RouteService (sketches, and
//      optionally the per-query tracer) vs the same source recompiled with
//      the telemetry compiled out.
// The twins are not hand copies — bare_kernels.cpp recompiles the actual
// library sources under BSR_OBS_FORCE_OFF (see bare_kernels.hpp), so the
// baseline is byte-for-byte the same algorithm minus the macros and cannot
// rot as the library evolves. Outputs are verified bit-identical first —
// enabling stats must never change a result. The kernel overheads are the
// min of interleaved trials, so thermal drift doesn't bias either side; the
// route-service serve phase, whose telemetry costs a few ns per query, is
// priced by the median ratio of interleaved bare/instrumented pairs with its
// IQR.
// In a BSR_STATS=OFF build both sides compile from identical expansions and
// the overhead is codegen jitter around zero ("stats_enabled" in the JSON
// says which build produced it).
//
// Also demonstrates span tracing end-to-end: one traced MaxSG run is drained
// and written as Chrome trace_event JSON next to the BENCH file.
//
// Emits BENCH_obs.json (override with BENCH_OBS_JSON).
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bare_kernels.hpp"
#include "bench_common.hpp"
#include "instr_kernels.hpp"
#include "route_lifecycle.hpp"
#include "broker/maxsg.hpp"
#include "broker/robust.hpp"
#include "graph/engine.hpp"
#include "graph/fault_plane.hpp"
#include "graph/sampling.hpp"
#include "harness.hpp"
#include "io/table.hpp"
#include "obs/episode.hpp"
#include "obs/export.hpp"
#include "obs/qtrace.hpp"
#include "sim/demand.hpp"
#include "sim/route_service.hpp"

namespace {

using bsr::graph::CsrGraph;
using bsr::graph::kUnreachable;
using bsr::graph::NodeId;

namespace engine = bsr::graph::engine;

struct Overhead {
  double bare_s = std::numeric_limits<double>::infinity();
  double instrumented_s = std::numeric_limits<double>::infinity();

  [[nodiscard]] double pct() const {
    return (instrumented_s / bare_s - 1.0) * 100.0;
  }
};

/// Quantile `q` of `v` by linear interpolation between order statistics.
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Per-pair samples of one interleaved bare/instrumented comparison.
struct PairedOverhead {
  std::vector<double> ratio;    // instrumented / bare serve time
  std::vector<double> bare_ns;  // bare serve time per query
  std::vector<double> cost_ns;  // (instrumented - bare) per query

  [[nodiscard]] double median_pct() const { return (median(ratio) - 1.0) * 100.0; }
  [[nodiscard]] double iqr_pct() const {
    return (quantile(ratio, 0.75) - quantile(ratio, 0.25)) * 100.0;
  }
};

void print_paired(const char* label, const PairedOverhead& o) {
  std::cout << label << ", " << o.ratio.size() << " interleaved pairs:\n"
            << "  bare (telemetry off):    "
            << bsr::io::format_double(median(o.bare_ns), 2) << " ns/query\n"
            << "  telemetry cost:          "
            << bsr::io::format_double(median(o.cost_ns), 2) << " ns/query\n"
            << "  overhead:                "
            << bsr::io::format_double(o.median_pct(), 2) << " % median, IQR "
            << bsr::io::format_double((quantile(o.ratio, 0.25) - 1.0) * 100.0, 2)
            << " .. "
            << bsr::io::format_double((quantile(o.ratio, 0.75) - 1.0) * 100.0, 2)
            << " %\n\n";
}

void print_overhead(const char* label, const Overhead& o) {
  std::cout << label << ":\n"
            << "  bare (telemetry off):    "
            << bsr::io::format_double(o.bare_s * 1e3, 2) << " ms\n"
            << "  instrumented:            "
            << bsr::io::format_double(o.instrumented_s * 1e3, 2) << " ms\n"
            << "  overhead:                "
            << bsr::io::format_double(o.pct(), 2) << " %\n\n";
}

}  // namespace

int main() {
  const auto ctx =
      bsr::bench::make_context("perf_obs: telemetry plane overhead");
  const CsrGraph& g = ctx.topo.graph;
  const NodeId n = g.num_vertices();
  bsr::bench::Harness harness("perf_obs", ctx);
  std::cout << "stats compiled " << (BSR_STATS_ENABLED ? "ON" : "OFF") << "\n\n";

  // Same 5% fault-filtered setup as perf_scale's fault-filtered BFS.
  bsr::graph::FaultPlane plane(g);
  {
    bsr::graph::Rng fault_rng(ctx.env.seed + 1);
    for (const auto& e : g.edges()) {
      if (fault_rng.bernoulli(0.05)) plane.fail_edge(e.u, e.v);
    }
  }
  bsr::graph::Rng rng(ctx.env.seed);
  const auto sources = bsr::graph::sample_distinct(
      rng, n, static_cast<NodeId>(std::min<std::size_t>(ctx.env.bfs_sources, n)));
  const engine::FaultAwareFilter filter{&plane};

  engine::Workspace ws_bare(n);
  engine::Workspace ws_inst(n);

  // Correctness first: identical dist arrays per source.
  for (const NodeId s : sources) {
    bare::bfs(g, s, ws_bare, filter);
    engine::bfs(g, s, ws_inst, filter);
    for (NodeId v = 0; v < n; ++v) {
      const std::uint32_t db =
          ws_bare.visited(v) ? ws_bare.dist_unchecked(v) : kUnreachable;
      const std::uint32_t di =
          ws_inst.visited(v) ? ws_inst.dist_unchecked(v) : kUnreachable;
      if (db != di) {
        std::cerr << "MISMATCH: bfs dist diverged at source " << s << " vertex "
                  << v << "\n";
        return 1;
      }
    }
  }

  // Min of interleaved trials, alternating which side runs first: drift and
  // cache-warming hit both sides equally, and the min is the least-disturbed
  // execution of each.
  constexpr int kTrials = 9;
  constexpr int kReps = 3;
  std::uint64_t sink = 0;
  Overhead bfs_overhead;
  const auto bfs_bare_sweep = [&] {
    bsr::bench::Stopwatch watch;
    for (int r = 0; r < kReps; ++r) {
      for (const NodeId s : sources) {
        bare::bfs(g, s, ws_bare, filter);
        sink += ws_bare.visit_order().size();
      }
    }
    bfs_overhead.bare_s = std::min(bfs_overhead.bare_s, watch.seconds());
  };
  const auto bfs_inst_sweep = [&] {
    bsr::bench::Stopwatch watch;
    for (int r = 0; r < kReps; ++r) {
      for (const NodeId s : sources) {
        engine::bfs(g, s, ws_inst, filter);
        sink += ws_inst.visit_order().size();
      }
    }
    bfs_overhead.instrumented_s =
        std::min(bfs_overhead.instrumented_s, watch.seconds());
  };
  for (int t = 0; t < kTrials; ++t) {
    if (t % 2 == 0) {
      bfs_bare_sweep();
      bfs_inst_sweep();
    } else {
      bfs_inst_sweep();
      bfs_bare_sweep();
    }
  }
  print_overhead("fault-filtered BFS", bfs_overhead);

  // One recorded run so the BENCH file carries the counter deltas and the
  // work-unit total for the instrumented sweep.
  auto& bfs_run = harness.run("bfs.fault.instrumented", kReps, [&] {
    for (const NodeId s : sources) {
      engine::bfs(g, s, ws_inst, filter);
      sink += ws_inst.visit_order().size();
    }
  });
  bsr::bench::Harness::metric(bfs_run, "bare_ms_min", bfs_overhead.bare_s * 1e3);
  bsr::bench::Harness::metric(bfs_run, "instrumented_ms_min",
                              bfs_overhead.instrumented_s * 1e3);
  bsr::bench::Harness::metric(bfs_run, "overhead_pct", bfs_overhead.pct());

  // --- MaxSG ----------------------------------------------------------------
  const auto k = static_cast<std::uint32_t>(std::max<NodeId>(32, n / 100));
  const auto bare_result = bare::maxsg(g, k);
  const auto inst_result = bsr::broker::maxsg(g, k);
  if (!std::ranges::equal(bare_result.brokers.members(),
                          inst_result.brokers.members()) ||
      bare_result.component_curve != inst_result.component_curve) {
    std::cerr << "MISMATCH: MaxSG selections diverged with telemetry on\n";
    return 1;
  }

  Overhead maxsg_overhead;
  const auto maxsg_bare_trial = [&] {
    bsr::bench::Stopwatch watch;
    sink += bare::maxsg(g, k).final_component;
    maxsg_overhead.bare_s = std::min(maxsg_overhead.bare_s, watch.seconds());
  };
  // Times the instrumented *twin* (instr_kernels.cpp), not the library
  // symbol: both twins compile under the bench's alignment pinning, so the
  // delta is the telemetry, not code-placement luck. The library symbol is
  // token-identical and is still what the recorded run below captures
  // counters from.
  const auto maxsg_inst_trial = [&] {
    bsr::bench::Stopwatch watch;
    sink += instr::maxsg(g, k).final_component;
    maxsg_overhead.instrumented_s =
        std::min(maxsg_overhead.instrumented_s, watch.seconds());
  };
  // MaxSG trials are short, so the min needs more draws to shed scheduler
  // noise than the long BFS sweeps do.
  constexpr int kMaxsgTrials = 15;
  for (int t = 0; t < kMaxsgTrials; ++t) {
    if (t % 2 == 0) {
      maxsg_bare_trial();
      maxsg_inst_trial();
    } else {
      maxsg_inst_trial();
      maxsg_bare_trial();
    }
  }
  print_overhead("MaxSG", maxsg_overhead);

  auto& maxsg_run = harness.run("maxsg.instrumented",
                                [&] { sink += bsr::broker::maxsg(g, k).final_component; });
  bsr::bench::Harness::metric(maxsg_run, "k", k);
  bsr::bench::Harness::metric(maxsg_run, "bare_ms_min",
                              maxsg_overhead.bare_s * 1e3);
  bsr::bench::Harness::metric(maxsg_run, "instrumented_ms_min",
                              maxsg_overhead.instrumented_s * 1e3);
  bsr::bench::Harness::metric(maxsg_run, "overhead_pct", maxsg_overhead.pct());

  // --- robust selection (counters only) -------------------------------------
  // No bare twin: robust_maxsg is not on the priced hot path — this recorded
  // run exists so the drift tripwire pins its deterministic round/scenario/
  // evaluation counters. The tiny budget keeps the C(|B|, r) scenario
  // enumeration cheap while still exercising every counter in the family.
  constexpr std::uint32_t kRobustK = 6;
  auto& robust_run = harness.run("robust.instrumented", [&] {
    bsr::broker::RobustOptions opts;
    opts.redundancy = 2;
    sink += bsr::broker::robust_maxsg(g, kRobustK, opts).surviving_pairs;
  });
  bsr::bench::Harness::metric(robust_run, "k", kRobustK);

  // --- route service --------------------------------------------------------
  // The same three-tier lifecycle (fresh serving, a broker fault with
  // degraded stale serving, the rebuilt epoch) drives three things here:
  //   1. a twin correctness check — the bare and instrumented recompilations
  //      of sim/route_service.cpp must produce identical answer digests;
  //   2. the priced overhead comparison, run with the per-query tracer and
  //      the latency/distance sketches ENABLED on the instrumented side —
  //      this is the "tracing costs nothing you can measure" claim;
  //   3. a recorded run pinning the sim.route_service.* counter family and
  //      the new sketch distributions in the BENCH file.
  bsr::sim::DemandConfig demand;
  demand.num_flows = ctx.env.scaled(20'000, 2'000);
  bsr::graph::Rng serve_rng(ctx.env.seed + 9);
  const auto flows = bsr::sim::generate_flows(g, demand, serve_rng);

  const std::uint64_t bare_digest =
      bare::route_lifecycle(g, inst_result.brokers, flows, 1).digest;
  const std::uint64_t inst_digest =
      instr::route_lifecycle(g, inst_result.brokers, flows, 1).digest;
  if (bare_digest != inst_digest) {
    std::cerr << "MISMATCH: route lifecycle digests diverged with telemetry on\n";
    return 1;
  }

  // The priced quantity is the serve phase only (RouteLifecycleResult's
  // serve_seconds): the oracle builds inside the lifecycle are BFS /
  // union-find kernels whose telemetry the comparisons above already price,
  // and their wall time would drown the per-query cost under measurement.
  // kRouteServeReps identical batches per serve point stretch the timed
  // region.
  //
  // A min of trials cannot resolve a few ns per query on a shared host, so
  // the route twins are priced by interleaved pairs instead: each pair runs
  // one bare and one instrumented lifecycle back to back, the first side
  // alternating, and contributes one instrumented/bare ratio. Drift and
  // cache warming hit both halves of a pair alike; the median ratio is the
  // overhead and its IQR says how well the median is resolved.
  constexpr int kRouteServeReps = 5;
  constexpr int kRoutePairs = 24;
  const double route_queries = static_cast<double>(flows.size()) * 3.0 *
                               static_cast<double>(kRouteServeReps);
  const auto route_pairs = [&] {
    PairedOverhead o;
    for (int p = 0; p < kRoutePairs; ++p) {
      double bare_s = 0.0, inst_s = 0.0;
      const auto bare_side = [&] {
        const auto r =
            bare::route_lifecycle(g, inst_result.brokers, flows, kRouteServeReps);
        sink += r.digest;
        bare_s = r.serve_seconds;
      };
      const auto inst_side = [&] {
        const auto r =
            instr::route_lifecycle(g, inst_result.brokers, flows, kRouteServeReps);
        sink += r.digest;
        inst_s = r.serve_seconds;
      };
      if (p % 2 == 0) {
        bare_side();
        inst_side();
      } else {
        inst_side();
        bare_side();
      }
      o.ratio.push_back(inst_s / bare_s);
      o.bare_ns.push_back(bare_s / route_queries * 1e9);
      o.cost_ns.push_back((inst_s - bare_s) / route_queries * 1e9);
    }
    return o;
  };
  // Two configurations of the instrumented side against the same bare twin
  // (which compiled everything out via BSR_OBS_FORCE_OFF): the production
  // default (counters + sketches, tracer off) and the worst case with the
  // per-query tracer capturing a full row per answer. The runtime toggle
  // only reaches the instrumented twin — which is exactly the cost priced.
  const PairedOverhead route_base_overhead = route_pairs();
  print_paired("route-service serve phase (sketches on, tracing off)",
               route_base_overhead);
  bsr::obs::start_query_trace();
  const PairedOverhead route_overhead = route_pairs();
  bsr::obs::stop_query_trace();
  print_paired("route-service serve phase (tracing + sketches on)",
               route_overhead);

  // The recorded runs below drive the same lifecycle once more on the
  // library symbols (token-identical to the instr twin, so the counters
  // match), with one serve rep per serve point.
  const auto library_lifecycle = [&] {
    return bsr::bench::run_route_lifecycle<bsr::sim::RouteService,
                                           bsr::sim::RouteAnswer>(
               g, inst_result.brokers, flows)
        .digest;
  };

  // Pins the sim.route_service.* counter family plus the per-answer-tag
  // tick/distance sketches with one recorded lifecycle.
  auto& serve_run = harness.run("route_service.instrumented", [&] {
    sink += library_lifecycle();
  });
  bsr::bench::Harness::metric(serve_run, "flows",
                              static_cast<double>(ctx.env.scaled(20'000, 2'000)));
  bsr::bench::Harness::metric(serve_run, "pairs", kRoutePairs);
  bsr::bench::Harness::metric(serve_run, "bare_ns_per_query",
                              median(route_base_overhead.bare_ns));
  const auto record_paired = [&](const std::string& prefix,
                                 const PairedOverhead& o) {
    bsr::bench::Harness::metric(serve_run, prefix + "overhead_pct", o.median_pct());
    bsr::bench::Harness::metric(serve_run, prefix + "overhead_iqr_pct", o.iqr_pct());
    bsr::bench::Harness::metric(serve_run, prefix + "cost_ns_per_query",
                                median(o.cost_ns));
  };
  record_paired("", route_overhead);
  record_paired("base_", route_base_overhead);

  // --- SLO monitor (counters only) -------------------------------------------
  // Pins the slo.monitor.* counter family: record the lifecycle's journal,
  // replay it through a deliberately breaching SLO spec (fresh_min=0.999
  // cannot survive the all-stale degraded batch), and let the monitor emit
  // its breach/recover episode — one breach at the stale batch, one recovery
  // at the rebuilt epoch.
  auto& slo_run = harness.run("slo.instrumented", [&] {
    bsr::obs::start_recording();
    sink += library_lifecycle();
    const bsr::obs::Journal journal = bsr::obs::snapshot_journal();
    bsr::obs::stop_recording();
    const auto samples = bsr::obs::slo_samples_from_journal(journal);
    bsr::obs::SloMonitor monitor(
        bsr::obs::parse_slo_spec("fresh_min=0.999,window=2,long_window=4"));
    for (const bsr::obs::SloSample& s : samples) monitor.observe(s);
    const bsr::obs::SloReport report = monitor.report();
    sink += report.breaches + report.recovers + report.samples;
  });
  bsr::bench::Harness::metric(slo_run, "flows",
                              static_cast<double>(ctx.env.scaled(20'000, 2'000)));

  // --- episode reconstruction (counters + phase sketches) --------------------
  // Pins the obs.episode.* counter family and the episode-phase sketch
  // slots: record the same fault lifecycle with the query tracer on, then
  // stitch the journal + qtrace snapshot into the episode report — one
  // closed serve episode with its degraded answers attributed.
  auto& episode_run = harness.run("episode.instrumented", [&] {
    bsr::obs::start_recording();
    bsr::obs::start_query_trace();
    sink += library_lifecycle();
    const bsr::obs::Journal journal = bsr::obs::snapshot_journal();
    bsr::obs::stop_recording();
    bsr::obs::stop_query_trace();
    const bsr::obs::QtraceSnapshot qtrace = bsr::obs::snapshot_query_trace();
    const bsr::obs::EpisodeReport report =
        bsr::obs::episodes_from_journal(journal, &qtrace);
    sink += report.episodes.size() + report.malformed + report.unattributed;
    for (const bsr::obs::Episode& ep : report.episodes) {
      sink += ep.stale_served + ep.attempts;
    }
  });
  bsr::bench::Harness::metric(episode_run, "flows",
                              static_cast<double>(ctx.env.scaled(20'000, 2'000)));

  if (sink == 0xdeadbeef) std::cerr << "";  // keep `sink` observable

  // --- span-tracing demo ----------------------------------------------------
  // One traced MaxSG, drained to Chrome trace_event JSON. Only the harness
  // opts into tracing; the overhead loops above ran with it off.
  bsr::obs::clear_trace();
  bsr::obs::set_tracing(true);
  { BSR_SPAN("perf_obs.traced_maxsg"); sink += bsr::broker::maxsg(g, k).final_component; }
  bsr::obs::set_tracing(false);
  const auto spans = bsr::obs::drain_trace();
  const char* trace_env = std::getenv("BENCH_OBS_TRACE_JSON");
  const std::string trace_path =
      trace_env != nullptr ? trace_env : "BENCH_obs_trace.json";
  {
    std::ofstream trace_file(trace_path);
    bsr::obs::write_chrome_trace(trace_file, spans);
  }
  std::cout << "trace: " << spans.size() << " spans -> " << trace_path << "\n";

  harness.metric("bfs_overhead_pct", bfs_overhead.pct());
  harness.metric("maxsg_overhead_pct", maxsg_overhead.pct());
  harness.metric("route_overhead_pct", route_overhead.median_pct());
  harness.metric("trace_spans", static_cast<double>(spans.size()));
  harness.write_json_file("BENCH_obs.json", "BENCH_OBS_JSON");
  return 0;
}
