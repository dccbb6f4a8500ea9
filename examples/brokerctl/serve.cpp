// Simulation commands: serve (route-serving plane), health (health plane).
#include <optional>

#include "cli.hpp"
#include "sim/churn.hpp"
#include "sim/demand.hpp"
#include "sim/route_service.hpp"

namespace brokerctl {

using bsr::sim::RouteAnswer;
using bsr::sim::RouteService;

// Route-serving plane: a long-lived RouteService (epochal landmark oracle)
// over a MaxSG broker set, driven end to end through a deterministic broker
// churn schedule — fail the top brokers one per round, heal them later —
// while gravity-demand query batches are served at every round. Shows the
// degradation tiers (fresh/stale/shedded/refused), the rebuild pipeline
// (starts, crashes, discards) and the deterministic answer digest.
int cmd_serve(int argc, char** argv) {
  const Args args = parse_args(
      argc, argv, 2,
      {"queries", "churn", "slo", "slo-out", "qtrace-out", "episodes-out"});
  if (args.operands.size() != 2) return usage();
  const std::string slo_spec = args.value("slo");
  if (args.has("slo-out") && slo_spec.empty()) {
    throw UsageError("--slo-out needs --slo <spec>");
  }
  // A bad spec fails before the topology loads or any output file opens.
  std::optional<bsr::obs::SloMonitor> monitor;
  if (!slo_spec.empty()) {
    monitor.emplace(bsr::obs::parse_slo_spec(slo_spec));
  }
  const auto env = bsr::io::experiment_env();
  const auto topo = bsr::topology::load_topology_file(args.operands[0]);
  const auto k = parse_u32("k", args.operands[1]);
  const std::uint32_t queries =
      args.has("queries") ? parse_u32("queries", args.value("queries")) : 100'000;
  const std::uint32_t churn_events =
      args.has("churn") ? parse_u32("churn", args.value("churn")) : 8;
  OutputFiles files("serve");
  std::ostream* slo_file = files.open(args.value("slo-out"));
  std::ostream* qtrace_file = files.open(args.value("qtrace-out"));
  std::ostream* episodes_file = files.open(args.value("episodes-out"));
  // The monitor itself is plain arithmetic and works in any build; the
  // per-query tracer only records from instrumented serve paths.
  const bool want_qtrace = qtrace_file != nullptr || episodes_file != nullptr;
  if (want_qtrace && !BSR_STATS_ENABLED) {
    std::cerr << "serve: built with BSR_STATS=OFF — the query trace will be "
                 "empty\n";
  }
  // Live episode reconstruction reads the flight recorder; without the
  // `record` wrapper the journal holds nothing and the report is empty.
  if (episodes_file != nullptr && !bsr::obs::recording_enabled()) {
    std::cerr << "serve: --episodes-out without `brokerctl record` — the "
                 "journal is empty, so the episode report will be too\n";
  }
  if (want_qtrace) bsr::obs::start_query_trace();

  const BrokerSet brokers = run_algorithm(topo, "maxsg", k, env.seed);
  bsr::graph::FaultPlane faults(topo.graph);
  RouteService service(topo.graph, brokers, &faults);
  std::cout << "route service: epoch " << service.epoch_id() << ", "
            << service.landmarks().size() << " landmarks over "
            << service.usable_broker_count() << " usable brokers\n";

  // One fail per round for the first half of the schedule, then the heals in
  // the same order — every event hits a distinct top-degree broker.
  std::vector<bsr::graph::NodeId> hubs(brokers.members().begin(),
                                       brokers.members().end());
  std::sort(hubs.begin(), hubs.end(),
            [&](bsr::graph::NodeId a, bsr::graph::NodeId b) {
              const auto da = topo.graph.degree(a);
              const auto db = topo.graph.degree(b);
              return da != db ? da > db : a < b;
            });
  const std::uint32_t fails =
      std::min<std::uint32_t>(churn_events / 2 + churn_events % 2,
                              static_cast<std::uint32_t>(hubs.size()));

  bsr::sim::DemandConfig demand;
  const std::uint32_t rounds = churn_events + 2;
  demand.num_flows = std::max<std::uint32_t>(queries / rounds, 1);
  bsr::graph::Rng demand_rng(env.seed + 70);
  const auto flows = bsr::sim::generate_flows(topo.graph, demand, demand_rng);

  std::vector<RouteAnswer> answers;
  std::vector<RouteAnswer> all;
  // Live SLO input: each round's answer-tag tallies are the delta of the
  // service's cumulative stats, and the costs come from the last-batch
  // sketch summary — the exact values the journal's batch events carry, so
  // the offline `brokerctl slo` replay reaches the same verdict.
  bsr::sim::RouteServiceStats prev{};
  const auto observe_round = [&](double when) {
    if (!monitor.has_value()) return;
    const auto& s = service.stats();
    bsr::obs::SloSample sample;
    sample.time = when;
    sample.fresh = s.fresh - prev.fresh;
    sample.stale_served = s.stale_served - prev.stale_served;
    sample.shedded = s.shedded - prev.shedded;
    sample.refused = s.refused - prev.refused;
    sample.staleness = service.stale_events();
    sample.p99_ticks = s.last_batch_p99_ticks;
    sample.max_ticks = s.last_batch_max_ticks;
    prev = s;
    monitor->observe(sample);
  };
  double now = 0.0;
  for (std::uint32_t round = 0; round < rounds; ++round) {
    now = static_cast<double>(round);
    service.advance(now);
    if (round >= 1 && round - 1 < churn_events) {
      const std::uint32_t e = round - 1;
      if (e < fails) {
        faults.fail_vertex(hubs[e]);
        service.on_fault(now);
      } else if (e - fails < fails) {
        faults.heal_vertex(hubs[e - fails]);
        service.on_heal(now);
      }
    }
    service.serve_batch(flows, now, answers);
    all.insert(all.end(), answers.begin(), answers.end());
    observe_round(now);
  }
  service.advance(now + 64.0);  // let the last rebuild land
  service.serve_batch(flows, now + 64.0, answers);
  all.insert(all.end(), answers.begin(), answers.end());
  observe_round(now + 64.0);

  const auto& stats = service.stats();
  std::cout << "served " << stats.queries << " routes over " << (rounds + 1)
            << " rounds (" << churn_events << " churn events)\n";
  bsr::io::Table table({"metric", "value"});
  table.row().cell("fresh answers").cell(stats.fresh);
  table.row().cell("stale served").cell(stats.stale_served);
  table.row().cell("shedded").cell(stats.shedded);
  table.row().cell("refused").cell(stats.refused);
  table.row().cell("staleness high-water").cell(stats.max_stale_served);
  table.row().cell("epochs published").cell(stats.epochs_published);
  table.row().cell("incremental patches").cell(stats.patches);
  table.row()
      .cell("rebuilds (crashed/discarded)")
      .cell(std::to_string(stats.rebuilds_started) + " (" +
            std::to_string(stats.rebuild_crashes) + "/" +
            std::to_string(stats.rebuilds_discarded) + ")");
  table.row().cell("final epoch").cell(service.epoch_id());
  table.row()
      .cell("degraded at exit")
      .cell(service.degraded() ? "yes" : "no");
  table.row().cell("answer digest").cell(bsr::sim::answer_digest(all));
  table.print(std::cout);

  int rc = 0;
  bsr::obs::QtraceSnapshot qtrace;
  if (want_qtrace) {
    bsr::obs::stop_query_trace();
    qtrace = bsr::obs::snapshot_query_trace();
  }
  if (qtrace_file != nullptr) bsr::obs::write_qtrace_jsonl(*qtrace_file, qtrace);
  if (episodes_file != nullptr) {
    // Same reconstruction the offline `brokerctl episodes` replay runs over
    // the exported journal + qtrace files — byte-identical by construction.
    const bsr::obs::Journal journal = bsr::obs::snapshot_journal();
    bsr::obs::write_episodes_jsonl(
        *episodes_file, bsr::obs::episodes_from_journal(journal, &qtrace));
  }
  if (monitor.has_value()) {
    const bsr::obs::SloReport& report = monitor->report();
    print_slo_summary(report);
    if (slo_file != nullptr) bsr::obs::write_slo_json(*slo_file, report);
    if (!report.ok()) {
      std::cerr << "serve: SLO BREACHED (" << report.breaches
                << " episode(s))\n";
      rc = 1;
    }
  }
  return files.close(rc);
}

// Health-plane simulation: broker outages and link flaps detected through
// probes, with stale views, hysteresis quarantine, and budgeted repair —
// the operator's view of how long dead capacity stays believed-routable.
int cmd_health(int argc, char** argv) {
  if (argc < 5) return usage();
  const auto env = bsr::io::experiment_env();
  const auto topo = bsr::topology::load_topology_file(argv[2]);
  const auto k = parse_u32("k", argv[4]);
  const double probe_interval =
      argc > 5 ? parse_positive_double("probe-interval", argv[5], 100.0) : 1.0;
  const BrokerSet brokers = run_algorithm(topo, argv[3], k, env.seed);

  const auto groups = bsr::topology::ixp_failure_groups(topo);
  bsr::sim::HealthChurnConfig churn;
  bsr::sim::LinkChurnConfig link;
  link.outage_rate = groups.empty() ? 0.0 : 0.05;
  bsr::sim::HealthConfig health;
  health.probe_interval = probe_interval;
  bsr::sim::RepairPolicy repair;
  repair.budget = std::max<std::uint32_t>(k / 20, 2);

  bsr::graph::Rng rng(env.seed + 60);
  const auto result = bsr::sim::simulate_churn_with_health(
      topo.graph, brokers, churn, link, groups, health, repair, rng);

  std::cout << "broker set: " << brokers.size() << " members; probe interval "
            << bsr::io::format_double(probe_interval, 2) << "; horizon "
            << bsr::io::format_double(churn.horizon, 0) << "\n";
  bsr::io::Table table({"metric", "value"});
  table.row().cell("departures / returns").cell(
      std::to_string(result.departures) + " / " + std::to_string(result.returns));
  table.row().cell("link outages / heals").cell(
      std::to_string(result.link_outages) + " / " +
      std::to_string(result.link_heals));
  table.row().cell("probe rounds").cell(result.probe_rounds);
  table.row().cell("views published").cell(result.views_published);
  table.row().cell("quarantines").cell(result.quarantines);
  table.row().cell("false-positive rate").percent(result.false_positive_rate());
  table.row()
      .cell("mean detection latency")
      .cell(result.mean_detection_latency(), 2);
  table.row().cell("dead-routable broker-time").cell(result.dead_routable_time, 1);
  table.row().cell("shunned-up broker-time").cell(result.shunned_up_time, 1);
  table.row()
      .cell("mean believed connectivity")
      .percent(result.mean_believed_connectivity);
  table.row()
      .cell("mean oracle connectivity")
      .percent(result.mean_oracle_connectivity);
  table.row()
      .cell("repair attempts (failed)")
      .cell(std::to_string(result.repair_attempts) + " (" +
            std::to_string(result.failed_repair_attempts) + ")");
  table.row()
      .cell("replacements recruited")
      .cell(static_cast<std::uint64_t>(result.replacements_added));
  table.print(std::cout);
  return 0;
}

}  // namespace brokerctl
