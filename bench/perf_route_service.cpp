// perf_route_service — the route-serving plane under load and under churn.
//
// Two measurements plus one correctness gate:
//   1. Throughput: serve_batch over a gravity-demand workload, repeated until
//      >= 1M routes are served at scale 1.0, reported as routes/sec.
//   2. Latency: query() over a pair sample, as batch-amortized wall time
//      per call (no clock read inside the timed loop) next to the answers'
//      deterministic tick costs, p50/p99.
//   3. Stale-vs-fresh ablation (the exit-code gate): deterministic churn
//      schedules — a failure burst, a flap storm, and a burst with injected
//      rebuild crashes — served through RouteService while a from-scratch
//      service built at every audit instant provides the ground truth. Any
//      kFresh answer disagreeing with the fresh oracle fails the run; stale
//      answers are audited (misrouted/shunned) and staleness accounting is
//      checked against the configured bound.
//
// Env knobs beyond the standard REPRO_*:
//   ROUTE_RESULTS_TXT=f        write an integer-only digest of every served
//                              answer stream to f — byte-comparable across
//                              BSR_THREADS settings (CI `cmp`s it)
//   BENCH_ROUTE_SERVICE_JSON=f override the BENCH_route_service.json path
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
#include "broker/maxsg.hpp"
#include "graph/engine.hpp"
#include "graph/fault_plane.hpp"
#include "graph/rng.hpp"
#include "graph/sampling.hpp"
#include "io/table.hpp"
#include "obs/episode.hpp"
#include "obs/journal.hpp"
#include "obs/sketch.hpp"
#include "obs/slo.hpp"
#include "sim/demand.hpp"
#include "sim/route_service.hpp"

namespace {

using bsr::graph::CsrGraph;
using bsr::graph::FaultPlane;
using bsr::graph::NodeId;
using bsr::sim::AnswerStatus;
using bsr::sim::AuditOutcome;
using bsr::sim::Flow;
using bsr::sim::RebuildInjection;
using bsr::sim::RouteAnswer;
using bsr::sim::RouteService;
using bsr::sim::RouteServiceConfig;

/// One churn event against the broker overlay.
struct ChurnEvent {
  double time = 0.0;
  NodeId vertex = 0;
  bool fail = true;
};

struct ChurnSchedule {
  std::string name;
  std::vector<ChurnEvent> events;
  RebuildInjection injection;
};

struct AblationResult {
  std::string name;
  std::uint64_t answers = 0;
  std::uint64_t fresh = 0;
  std::uint64_t fresh_mismatches = 0;  // the gate: must stay 0
  std::uint64_t stale_served = 0;
  std::uint64_t stale_misrouted = 0;
  std::uint64_t stale_shunned = 0;
  std::uint64_t shedded = 0;
  std::uint64_t refused = 0;
  std::uint64_t rebuild_crashes = 0;
  std::uint64_t epochs_published = 0;
  std::uint64_t max_stale_served = 0;
  std::uint64_t digest = 0;
};

/// Serves `flows` through a churn schedule, auditing every answer against a
/// from-scratch RouteService built at each audit instant (fresh by
/// construction, hence exact ground truth).
AblationResult run_ablation(const ChurnSchedule& schedule, const CsrGraph& g,
                            const bsr::broker::BrokerSet& brokers,
                            const std::vector<Flow>& flows,
                            const std::vector<double>& audit_times) {
  AblationResult out;
  out.name = schedule.name;
  FaultPlane faults(g);
  RouteServiceConfig config;
  config.max_stale_events = 16;
  config.rebuild.build_time = 2.0;
  RouteService service(g, brokers, &faults, config, schedule.injection);

  std::size_t next_event = 0;
  std::vector<RouteAnswer> answers;
  std::vector<RouteAnswer> truth_answers;
  std::vector<RouteAnswer> all;
  for (const double now : audit_times) {
    while (next_event < schedule.events.size() &&
           schedule.events[next_event].time <= now) {
      const ChurnEvent& e = schedule.events[next_event++];
      service.advance(e.time);
      if (e.fail) {
        faults.fail_vertex(e.vertex);
        service.on_fault(e.time);
      } else {
        faults.heal_vertex(e.vertex);
        service.on_heal(e.time);
      }
    }
    service.advance(now);
    service.serve_batch(flows, now, answers);
    all.insert(all.end(), answers.begin(), answers.end());

    // Ground truth: a service constructed right now is fresh by definition.
    RouteService truth(g, brokers, &faults);
    truth.serve_batch(flows, now, truth_answers);
    for (std::size_t i = 0; i < answers.size(); ++i) {
      const bool truth_reachable = truth_answers[i].reachable &&
                                   truth_answers[i].status != AnswerStatus::kRefused;
      switch (answers[i].status) {
        case AnswerStatus::kFresh:
          if (answers[i].reachable != truth_reachable) ++out.fresh_mismatches;
          break;
        case AnswerStatus::kStaleServed: {
          const AuditOutcome audit =
              bsr::sim::audit_answer(answers[i], truth_reachable);
          out.stale_misrouted += audit == AuditOutcome::kMisrouted;
          out.stale_shunned += audit == AuditOutcome::kShunned;
          break;
        }
        default: break;
      }
    }
  }

  out.answers = service.stats().queries;
  out.fresh = service.stats().fresh;
  out.stale_served = service.stats().stale_served;
  out.shedded = service.stats().shedded;
  out.refused = service.stats().refused;
  out.rebuild_crashes = service.stats().rebuild_crashes;
  out.epochs_published = service.stats().epochs_published;
  out.max_stale_served = service.stats().max_stale_served;
  out.digest = bsr::sim::answer_digest(all);
  return out;
}

std::string json_ablation(const AblationResult& r) {
  std::ostringstream json;
  json << "{\n"
       << "      \"answers\": " << r.answers << ",\n"
       << "      \"fresh\": " << r.fresh << ",\n"
       << "      \"fresh_mismatches\": " << r.fresh_mismatches << ",\n"
       << "      \"stale_served\": " << r.stale_served << ",\n"
       << "      \"stale_misrouted\": " << r.stale_misrouted << ",\n"
       << "      \"stale_shunned\": " << r.stale_shunned << ",\n"
       << "      \"refused\": " << r.refused << ",\n"
       << "      \"rebuild_crashes\": " << r.rebuild_crashes << ",\n"
       << "      \"epochs_published\": " << r.epochs_published << ",\n"
       << "      \"max_stale_served\": " << r.max_stale_served << "\n"
       << "    }";
  return json.str();
}

}  // namespace

int main() {
  const auto ctx = bsr::bench::make_context(
      "perf_route_service: epochal route oracle under load and churn");
  const CsrGraph& g = ctx.topo.graph;
  const NodeId n = g.num_vertices();
  std::cout << "threads: " << bsr::graph::engine::num_threads()
            << " (BSR_THREADS)\n\n";
  bsr::bench::Harness harness("perf_route_service", ctx);
  bsr::obs::start_recording();

  // --- setup: brokers + service + workload ---------------------------------
  const auto k = static_cast<std::uint32_t>(std::max<NodeId>(32, n / 100));
  bsr::bench::Stopwatch select_watch;
  const auto selection = bsr::broker::maxsg(g, k);
  const bsr::broker::BrokerSet& brokers = selection.brokers;
  std::cout << "brokers: MaxSG k=" << k << " ("
            << bsr::io::format_double(select_watch.seconds(), 2)
            << "s to select)\n";

  bsr::sim::DemandConfig demand;
  demand.num_flows = ctx.env.scaled(250'000, 20'000);
  bsr::graph::Rng demand_rng(ctx.env.seed);
  const std::vector<Flow> flows = bsr::sim::generate_flows(g, demand, demand_rng);

  // Oracle build: the median of separately timed constructions. Their count
  // is fixed — each publishes an epoch into the journal the digest counts.
  FaultPlane faults(g);
  RouteService service(g, brokers, &faults);
  constexpr int kBuildReps = 3;
  std::vector<double> build_samples;
  harness.run("oracle.rebuild", kBuildReps, [&] {
    bsr::bench::Stopwatch watch;
    service = RouteService(g, brokers, &faults);
    build_samples.push_back(watch.seconds());
  });
  std::sort(build_samples.begin(), build_samples.end());
  const double build_s = build_samples[build_samples.size() / 2];
  std::cout << "oracle build: " << bsr::io::format_double(build_s, 4)
            << "s median of " << kBuildReps << " ("
            << service.landmarks().size() << " landmarks, "
            << service.usable_broker_count() << " usable brokers)\n\n";

  // --- throughput ----------------------------------------------------------
  const int serve_reps = 4;
  std::vector<RouteAnswer> answers;
  auto& serve_run = harness.run("serve.batch", serve_reps,
                                [&] { service.serve_batch(flows, 0.0, answers); });
  const double serve_s = serve_run.wall_ms / 1e3;
  const std::uint64_t served =
      static_cast<std::uint64_t>(flows.size()) * serve_reps;
  const double routes_per_sec = serve_s > 0 ? double(served) / serve_s : 0.0;
  bsr::bench::Harness::metric(serve_run, "routes_per_sec", routes_per_sec);
  const std::uint64_t batch_digest = bsr::sim::answer_digest(answers);
  std::cout << "throughput: " << served << " routes in "
            << bsr::io::format_double(serve_s, 3) << "s  ("
            << bsr::io::format_double(routes_per_sec / 1e6, 2) << " M routes/s)\n";

  // --- per-query latency ---------------------------------------------------
  // One clock read around the whole sample; the per-query spread comes from
  // the deterministic tick cost (admit + lookup + stitch) of each answer.
  const std::uint32_t latency_samples = ctx.env.scaled(20'000, 2'000);
  bsr::graph::Rng pair_rng(ctx.env.seed + 1);
  const auto pairs = bsr::graph::sample_pairs(pair_rng, n, latency_samples);
  bsr::obs::QuantileSketch query_ticks;
  auto& query_run = harness.run("serve.query", [&] {
    for (const auto& [s, t] : pairs) {
      const RouteAnswer a = service.query(s, t, 0.0);
      query_ticks.observe(std::uint64_t{1} + a.lookup_ticks + a.stitch_ticks);
    }
  });
  const double query_ns = query_run.wall_ms * 1e6 / static_cast<double>(pairs.size());
  std::cout << "latency (" << pairs.size() << " queries): "
            << bsr::io::format_double(query_ns, 1) << " ns/query, ticks p50 "
            << query_ticks.p50() << " p99 " << query_ticks.p99() << "\n\n";

  // --- stale-vs-fresh correctness ablation ---------------------------------
  // Each schedule churns the highest-degree brokers — the landmarks — so the
  // stale epoch is maximally wrong. The audit workload is a deterministic
  // subsample of the demand flows.
  std::vector<Flow> audit_flows(
      flows.begin(),
      flows.begin() + std::min<std::size_t>(flows.size(),
                                            ctx.env.scaled(4'000, 1'000)));
  const std::vector<double> audit_times{0.5, 2.0, 4.0, 8.0, 16.0, 40.0};
  std::vector<NodeId> hubs(brokers.members().begin(), brokers.members().end());
  std::sort(hubs.begin(), hubs.end(), [&](NodeId a, NodeId b) {
    return g.degree(a) != g.degree(b) ? g.degree(a) > g.degree(b) : a < b;
  });

  std::vector<ChurnSchedule> schedules;
  {
    ChurnSchedule burst;
    burst.name = "burst";
    for (int i = 0; i < 4; ++i) {
      burst.events.push_back({1.0 + 0.5 * i, hubs[i], true});
    }
    schedules.push_back(std::move(burst));

    ChurnSchedule flap;
    flap.name = "flap";
    for (int i = 0; i < 6; ++i) {
      flap.events.push_back({1.0 + 2.0 * i, hubs[i % 3], i % 2 == 0});
    }
    schedules.push_back(std::move(flap));

    ChurnSchedule crashy;
    crashy.name = "burst_rebuild_crashes";
    for (int i = 0; i < 4; ++i) {
      crashy.events.push_back({1.0 + 0.5 * i, hubs[i], true});
    }
    crashy.injection.crash_next_rebuilds = 2;
    schedules.push_back(std::move(crashy));
  }

  bool gate_failed = false;
  std::ostringstream ablation_json;
  ablation_json << "{\n";
  std::vector<std::uint64_t> ablation_digests;
  for (std::size_t i = 0; i < schedules.size(); ++i) {
    bsr::bench::Stopwatch watch;
    const AblationResult r =
        run_ablation(schedules[i], g, brokers, audit_flows, audit_times);
    ablation_digests.push_back(r.digest);
    std::cout << "ablation " << r.name << ": " << r.answers << " answers, "
              << r.fresh << " fresh (" << r.fresh_mismatches << " mismatches), "
              << r.stale_served << " stale (" << r.stale_misrouted
              << " misrouted, " << r.stale_shunned << " shunned), "
              << r.rebuild_crashes << " rebuild crashes, staleness high-water "
              << r.max_stale_served << " ("
              << bsr::io::format_double(watch.seconds(), 2) << "s)\n";
    if (r.fresh_mismatches != 0) {
      std::cerr << "GATE: " << r.fresh_mismatches
                << " kFresh answers disagree with the fresh oracle in schedule "
                << r.name << "\n";
      gate_failed = true;
    }
    if (r.max_stale_served > 16) {
      std::cerr << "GATE: staleness accounting exceeded the configured bound in "
                << r.name << "\n";
      gate_failed = true;
    }
    ablation_json << "    \"" << r.name << "\": " << json_ablation(r)
                  << (i + 1 < schedules.size() ? ",\n" : "\n");
  }
  ablation_json << "  }";
  std::cout << "\n";

  bsr::obs::stop_recording();
  const auto journal = bsr::obs::snapshot_journal();

  // --- causal episode reconstruction ----------------------------------------
  // The ablation journal above interleaves three schedules that each restart
  // simulated time, so episode stitching gets its own recording pass: one
  // service through a fail burst (with one injected rebuild crash), heals,
  // and quiescence. Reconstruction feeds the obs.episode.* phase sketches,
  // which the snapshot below then carries into the digest.
  bsr::obs::start_recording();
  {
    FaultPlane ep_faults(g);
    RouteServiceConfig ep_config;
    ep_config.max_stale_events = 16;
    ep_config.rebuild.build_time = 2.0;
    RebuildInjection ep_injection;
    ep_injection.crash_next_rebuilds = 1;
    RouteService ep_service(g, brokers, &ep_faults, ep_config, ep_injection);
    for (int i = 0; i < 4; ++i) {
      const double now = 1.0 + 0.5 * i;
      ep_service.advance(now);
      ep_faults.fail_vertex(hubs[i]);
      ep_service.on_fault(now);
    }
    ep_service.advance(20.0);
    for (int i = 0; i < 4; ++i) {
      const double now = 20.0 + 0.5 * i;
      ep_service.advance(now);
      ep_faults.heal_vertex(hubs[i]);
      ep_service.on_heal(now);
    }
    ep_service.advance(60.0);
  }
  bsr::obs::stop_recording();
  const auto episode_journal = bsr::obs::snapshot_journal();
  bsr::obs::EpisodeReport episode_report;
  harness.run("episodes.reconstruct", [&] {
    episode_report = bsr::obs::episodes_from_journal(episode_journal);
  });
  std::uint64_t episodes_closed = 0;
  double episodes_exposure = 0.0;
  for (const bsr::obs::Episode& ep : episode_report.episodes) {
    episodes_closed += ep.closed ? 1 : 0;
    episodes_exposure += ep.span();
  }
  std::cout << "episodes: " << episode_report.episodes.size()
            << " reconstructed (" << episodes_closed << " closed), "
            << bsr::io::format_double(episodes_exposure, 2)
            << " time-units of exposure, " << episode_report.malformed
            << " malformed\n";

  // --- sketch distributions + offline SLO verdict ---------------------------
  // Every quantile below is a bucket lower bound from the fixed-point
  // sketches (integers, merge-order free), and the SLO monitor replays the
  // journal's batch events — both deterministic at any BSR_THREADS, so the
  // digest file can carry them verbatim. The spec is deliberately breaching:
  // fresh_min=0.999 cannot survive the all-stale degraded batches of the
  // churn ablations, pinning one breach/recover episode end to end.
  const bsr::obs::SketchSnapshot sketches = bsr::obs::snapshot_sketches();
  const auto slo_samples = bsr::obs::slo_samples_from_journal(journal);
  bsr::obs::SloMonitor slo_monitor(
      bsr::obs::parse_slo_spec("fresh_min=0.999,window=2,long_window=4"));
  for (const bsr::obs::SloSample& s : slo_samples) slo_monitor.observe(s);
  const bsr::obs::SloReport slo_report = slo_monitor.report();
  for (std::size_t s = 0; s < bsr::obs::kNumSketches; ++s) {
    if (sketches[s].empty()) continue;
    std::cout << "sketch " << bsr::obs::name(static_cast<bsr::obs::Sketch>(s))
              << ": n=" << sketches[s].count() << " p50=" << sketches[s].p50()
              << " p90=" << sketches[s].p90() << " p99=" << sketches[s].p99()
              << " max=" << sketches[s].max() << "\n";
  }
  std::cout << "slo (fresh_min=0.999): " << slo_report.samples << " samples, "
            << slo_report.breaches << " breaches, " << slo_report.recovers
            << " recovers\n\n";

  // --- deterministic digest (CI `cmp`s this across BSR_THREADS) ------------
  if (const char* txt_path = std::getenv("ROUTE_RESULTS_TXT")) {
    std::ofstream txt(txt_path);
    txt << "vertices " << n << "\n"
        << "edges " << g.num_edges() << "\n"
        << "brokers " << brokers.size() << "\n"
        << "flows " << flows.size() << "\n"
        << "batch_digest " << batch_digest << "\n";
    for (std::size_t i = 0; i < schedules.size(); ++i) {
      txt << "ablation_" << schedules[i].name << "_digest "
          << ablation_digests[i] << "\n";
    }
    txt << "journal_events " << journal.events.size() << "\n";
    for (std::size_t s = 0; s < bsr::obs::kNumSketches; ++s) {
      txt << "sketch_" << bsr::obs::name(static_cast<bsr::obs::Sketch>(s))
          << " " << sketches[s].count() << " " << sketches[s].p50() << " "
          << sketches[s].p90() << " " << sketches[s].p99() << " "
          << sketches[s].max() << "\n";
    }
    txt << "slo_samples " << slo_report.samples << "\n"
        << "slo_breaches " << slo_report.breaches << "\n"
        << "slo_recovers " << slo_report.recovers << "\n"
        << "episodes " << episode_report.episodes.size() << "\n"
        << "episodes_closed " << episodes_closed << "\n"
        << "episodes_exposure_ms "
        << static_cast<std::uint64_t>(episodes_exposure * 1e3 + 0.5) << "\n"
        << "episodes_malformed " << episode_report.malformed << "\n";
    std::cout << "wrote " << txt_path << "\n";
  }

  // --- JSON artifact -------------------------------------------------------
  harness.metric("vertices", static_cast<double>(n));
  harness.metric("brokers", static_cast<double>(brokers.size()));
  harness.metric("routes_served", static_cast<double>(served));
  harness.metric("routes_per_sec", routes_per_sec);
  harness.metric("query_ns", query_ns);
  harness.metric("query_ticks_p50", static_cast<double>(query_ticks.p50()));
  harness.metric("query_ticks_p99", static_cast<double>(query_ticks.p99()));
  harness.metric("oracle_build_seconds", build_s);
  harness.metric("journal_events", static_cast<double>(journal.events.size()));
  harness.metric("slo_samples", static_cast<double>(slo_report.samples));
  harness.metric("slo_breaches", static_cast<double>(slo_report.breaches));
  harness.metric("episodes", static_cast<double>(episode_report.episodes.size()));
  harness.metric("episodes_closed", static_cast<double>(episodes_closed));
  harness.metric("episodes_malformed",
                 static_cast<double>(episode_report.malformed));
  harness.raw_section("ablation", ablation_json.str());
  harness.write_json_file("BENCH_route_service.json", "BENCH_ROUTE_SERVICE_JSON");

  if (gate_failed) return 1;
  std::cout << "stale-vs-fresh gate: OK\n";
  return 0;
}
