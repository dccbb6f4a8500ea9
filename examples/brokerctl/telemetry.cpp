// Telemetry commands: the stats and record wrappers, and the offline
// analyzers of recorded artifacts (report, slo, episodes).
#include <array>
#include <map>

#include "cli.hpp"

namespace brokerctl {

using bsr::obs::Event;
using bsr::obs::read_events_jsonl;

// `stats` is two commands sharing a name: the legacy dataset summary
// (`stats <in.topo>`) and the telemetry wrapper (`stats [--stats-out=<file>]
// <subcommand> [args...]`). Disambiguation: an operand naming a subcommand
// selects the wrapper; anything else is a topology path. The counter table
// goes to stderr, so stdout stays the wrapped command's own.
int cmd_stats(int argc, char** argv) {
  const Args args = parse_args(argc, argv, 2, {"stats-out"}, {}, true);
  if (args.rest >= argc) return usage();
  const bool wrapper = known_subcommand(argv[args.rest]);
  // Legacy dataset summary; --stats-out instruments it like any other.
  if (!wrapper && !args.has("stats-out")) {
    return cmd_dataset_stats(argv[args.rest]);
  }
  if (!BSR_STATS_ENABLED) {
    std::cerr << "brokerctl stats: built with BSR_STATS=OFF — "
                 "all counters will read zero\n";
  }
  OutputFiles files("stats");
  std::ostream* out = files.open(args.value("stats-out"));
  bsr::obs::reset();
  const int rc = wrapper ? dispatch(argc, argv, args.rest)
                         : cmd_dataset_stats(argv[args.rest]);
  const auto snap = bsr::obs::snapshot();
  bsr::obs::dump_pretty(std::cerr, snap);
  if (out != nullptr) bsr::obs::write_json(*out, snap);
  return files.close(rc);
}

// Flight-recorder wrapper: runs any subcommand with the event journal and
// interval sampler on, then writes the requested artifacts.
int cmd_record(int argc, char** argv) {
  const Args args = parse_args(
      argc, argv, 2, {"events-out", "series-out", "trace-out", "interval"}, {},
      true);
  if (args.rest >= argc) return usage();
  if (!known_subcommand(argv[args.rest])) {
    throw UsageError("unknown subcommand '" + std::string(argv[args.rest]) +
                     "'");
  }
  bsr::obs::JournalOptions options;
  if (args.has("interval")) {
    options.series_interval =
        parse_positive_double("interval", args.value("interval"), 1e9);
  }
  OutputFiles files("record");
  std::ostream* events_file = files.open(args.value("events-out"));
  std::ostream* series_file = files.open(args.value("series-out"));
  std::ostream* trace_file = files.open(args.value("trace-out"));
  if (!BSR_STATS_ENABLED) {
    std::cerr << "brokerctl record: built with BSR_STATS=OFF — "
                 "the journal will be empty\n";
  }

  bsr::obs::start_recording(options);
  int rc = 0;
  try {
    rc = dispatch(argc, argv, args.rest);
  } catch (...) {
    bsr::obs::stop_recording();
    throw;
  }
  bsr::obs::stop_recording();

  const bsr::obs::Journal journal = bsr::obs::snapshot_journal();
  const auto& series = bsr::obs::journal_series();
  if (events_file != nullptr) bsr::obs::write_events_jsonl(*events_file, journal);
  if (series_file != nullptr) bsr::obs::write_series_csv(*series_file, series);
  if (trace_file != nullptr) {
    bsr::obs::write_journal_chrome_trace(*trace_file, journal, series);
  }
  std::cerr << "record: " << journal.events.size() << " events ("
            << journal.dropped << " dropped), " << series.size()
            << " series rounds\n";
  return files.close(rc);
}

// Journal summary: per-type event counts, the worst misrouting window (the
// window of length W with the most integrated broker-down-but-not-yet-
// quarantined exposure — the interval a departure stays invisible to the
// detector is exactly when routing misroutes), and quarantine dwell times
// (quarantine -> first probation/recovery per failure episode).
int cmd_report(int argc, char** argv) {
  const Args args = parse_args(argc, argv, 2, {"window"});
  if (args.operands.size() != 1) return usage();
  const double window =
      args.has("window")
          ? parse_positive_double("window", args.value("window"), 1e9)
          : 10.0;
  const auto journal = load_artifact(args.operands[0], read_events_jsonl);

  std::map<std::string_view, std::uint64_t> counts;
  // Misrouting exposure: a departed broker is "exposed" until the detector
  // quarantines it or it returns on its own. Lines arrive time-sorted
  // (export order), so one forward scan closes intervals correctly.
  struct Interval {
    double start = 0.0;
    double end = 0.0;
  };
  std::map<std::uint64_t, double> down_since;  // vertex -> departure time
  std::vector<Interval> exposure;
  std::map<std::uint64_t, double> quarantined_at;  // episode -> quarantine time
  std::vector<double> dwells;
  double horizon = 0.0;
  for (const bsr::obs::EventRecord& event : journal.events) {
    ++counts[bsr::obs::name(event.type)];
    horizon = std::max(horizon, event.time);
    if (event.type == Event::kChurnDeparture) {
      down_since.emplace(event.subject, event.time);
    } else if (event.type == Event::kChurnReturn ||
               event.type == Event::kHealthQuarantine) {
      const auto it = down_since.find(event.subject);
      if (it != down_since.end()) {
        exposure.push_back({it->second, event.time});
        down_since.erase(it);
      }
    }
    if (event.type == Event::kHealthQuarantine && event.correlation != 0) {
      quarantined_at.emplace(event.correlation, event.time);
    } else if (event.type == Event::kHealthProbation ||
               event.type == Event::kHealthRecover) {
      const auto it = quarantined_at.find(event.correlation);
      if (it != quarantined_at.end()) {
        dwells.push_back(event.time - it->second);
        quarantined_at.erase(it);
      }
    }
  }
  // Departures never detected or returned: exposed to the end of the data.
  for (const auto& [vertex, since] : down_since) {
    exposure.push_back({since, horizon});
  }

  if (journal.dropped > 0) {
    std::cout << "ring dropped " << journal.dropped
              << " record(s) before export — oldest chains truncated\n";
  }
  bsr::io::Table counts_table({"event", "count"});
  for (const auto& [type, count] : counts) {
    counts_table.row().cell(std::string(type)).cell(count);
  }
  counts_table.print(std::cout);

  // Worst window: maximize the integral of the exposure step function over
  // [s, s + window]. The maximum is attained with the window flush against a
  // breakpoint, so trying every interval start and every end - window is
  // exhaustive. O(n^2) on the handful of departures a sim produces.
  if (exposure.empty()) {
    std::cout << "misrouting exposure: none (no undetected departures)\n";
  } else {
    const auto window_exposure = [&](double s) {
      double total = 0.0;
      for (const Interval& iv : exposure) {
        total += std::max(
            0.0, std::min(iv.end, s + window) - std::max(iv.start, s));
      }
      return total;
    };
    double best_start = 0.0;
    double best = -1.0;
    for (const Interval& iv : exposure) {
      for (const double s : {iv.start, iv.end - window}) {
        const double candidate = window_exposure(std::max(0.0, s));
        if (candidate > best) {
          best = candidate;
          best_start = std::max(0.0, s);
        }
      }
    }
    std::cout << "worst misrouting window: ["
              << bsr::io::format_double(best_start, 2) << ", "
              << bsr::io::format_double(best_start + window, 2) << ") with "
              << bsr::io::format_double(best, 2)
              << " broker-time of undetected-down exposure\n";
  }

  if (dwells.empty()) {
    std::cout << "quarantine dwells: none resolved\n";
  } else {
    // Same power-of-two-buckets convention as the registry histograms,
    // over integral milli-units of simulated time.
    std::array<std::uint64_t, bsr::obs::kHistogramBuckets> buckets{};
    for (const double dwell : dwells) {
      ++buckets[bsr::obs::bucket_of(static_cast<std::uint64_t>(dwell * 1e3))];
    }
    bsr::io::Table dwell_table({"dwell >= (ms)", "episodes"});
    for (std::size_t b = 0; b < buckets.size(); ++b) {
      if (buckets[b] == 0) continue;
      const std::uint64_t lo = b == 0 ? 0 : (std::uint64_t{1} << (b - 1));
      dwell_table.row().cell(lo).cell(buckets[b]);
    }
    dwell_table.print(std::cout);
  }
  if (!quarantined_at.empty()) {
    std::cout << quarantined_at.size()
              << " episode(s) still quarantined at end of journal\n";
  }
  return 0;
}

// Offline SLO evaluator: reconstruct the monitor's input from a recorded
// event journal and replay it through the same SloMonitor the live
// `serve --slo` runs. The journal's batch events carry the exact per-round
// tallies and costs the live monitor saw, so both verdicts agree byte for
// byte on the same run.
int cmd_slo(int argc, char** argv) {
  const Args args = parse_args(argc, argv, 2, {"spec", "out"});
  if (args.operands.size() != 1) return usage();
  const std::string& path = args.operands[0];
  // Defaults cover the route-serving plane's standing promises; override
  // any of them with --spec.
  const std::string spec_text =
      args.has("spec")
          ? args.value("spec")
          : "fresh_min=0.99,refusal_max=0.05,stale_max=64,window=5,long_window=30";
  OutputFiles files("slo");
  std::ostream* out = files.open(args.value("out"));
  const auto journal = load_artifact(path, read_events_jsonl);

  const auto samples = bsr::obs::slo_samples_from_journal(journal);
  if (samples.empty()) {
    std::cerr << "brokerctl slo: no sim.route_service.batch events in " << path
              << " — nothing to evaluate\n";
    return 1;
  }
  bsr::obs::SloMonitor monitor(bsr::obs::parse_slo_spec(spec_text));
  for (const bsr::obs::SloSample& s : samples) monitor.observe(s);
  const bsr::obs::SloReport& report = monitor.report();
  print_slo_summary(report);
  const int rc = report.ok() ? 0 : 1;
  if (out != nullptr) bsr::obs::write_slo_json(*out, report);
  if (rc != 0) {
    std::cerr << "brokerctl slo: SLO BREACHED (" << report.breaches
              << " episode(s))\n";
  }
  return files.close(rc);
}

// Offline episode analyzer: rebuild the journal (and optionally the qtrace
// rows) from recorded JSONL files and run the same reconstruction the live
// `serve --episodes-out` path runs, so both reports agree byte for byte for
// the same run. Prints the worst episodes by exposure with their phase
// decomposition; exit 1 when a drop-free journal contains malformed
// lifecycles (a producer contract violation), 0 otherwise — truncation by
// the ring is flagged, not fatal.
int cmd_episodes(int argc, char** argv) {
  const Args args =
      parse_args(argc, argv, 2, {"qtrace", "out", "trace-out", "top"});
  if (args.operands.size() != 1) return usage();
  const std::uint32_t top =
      args.has("top") ? parse_u32("top", args.value("top")) : 10;
  OutputFiles files("episodes");
  std::ostream* out = files.open(args.value("out"));
  std::ostream* trace = files.open(args.value("trace-out"));
  const auto journal = load_artifact(args.operands[0], read_events_jsonl);
  // Optional qtrace replay for degraded-answer attribution.
  const bool have_qtrace = args.has("qtrace");
  bsr::obs::QtraceSnapshot qtrace;
  if (have_qtrace) {
    qtrace = load_artifact(args.value("qtrace"), bsr::obs::read_qtrace_jsonl);
  }

  const bsr::obs::EpisodeReport report =
      bsr::obs::episodes_from_journal(journal, have_qtrace ? &qtrace : nullptr);

  std::uint64_t closed = 0, truncated = 0;
  for (const bsr::obs::Episode& ep : report.episodes) {
    closed += ep.closed ? 1 : 0;
    truncated += ep.truncated ? 1 : 0;
  }
  std::cout << "episodes: " << report.episodes.size() << " reconstructed ("
            << closed << " closed, " << truncated << " truncated), "
            << report.malformed << " malformed lifecycle(s)\n";
  if (report.truncated()) {
    std::cerr << "brokerctl episodes: ring dropped " << report.journal_dropped
              << " journal record(s) / " << report.qtrace_dropped
              << " qtrace row(s) — truncated episodes carry partial phase "
                 "sums\n";
  }

  if (!report.episodes.empty()) {
    // Worst episodes by exposure; ties broken by the report's deterministic
    // (open_time, kind, id) order.
    std::vector<const bsr::obs::Episode*> worst;
    worst.reserve(report.episodes.size());
    for (const bsr::obs::Episode& ep : report.episodes) worst.push_back(&ep);
    std::stable_sort(worst.begin(), worst.end(),
                     [](const bsr::obs::Episode* a, const bsr::obs::Episode* b) {
                       return a->span() > b->span();
                     });
    if (worst.size() > top) worst.resize(top);
    bsr::io::Table table({"kind", "id", "subject", "exposure", "detect",
                          "react", "queue", "exec", "drain", "attempts",
                          "degraded", "flags"});
    for (const bsr::obs::Episode* ep : worst) {
      std::string flags;
      if (!ep->closed) flags += "open ";
      if (ep->truncated) flags += "truncated ";
      if (ep->gave_up) flags += "gave-up ";
      if (!flags.empty()) flags.pop_back();
      auto row = table.row();
      row.cell(std::string(bsr::obs::to_string(ep->kind)))
          .cell(ep->id)
          .cell(ep->subject)
          .cell(ep->span(), 3);
      for (std::size_t p = 0; p < bsr::obs::kNumEpisodePhases; ++p) {
        row.cell(ep->phases[p], 3);
      }
      row.cell(std::uint64_t{ep->attempts})
          .cell(ep->stale_served + ep->shedded + ep->refused)
          .cell(flags.empty() ? "-" : flags);
    }
    table.print(std::cout);
  }

  int rc = 0;
  if (report.malformed > 0 && report.journal_dropped == 0) {
    std::cerr << "brokerctl episodes: " << report.malformed
              << " malformed lifecycle(s) in a drop-free journal — producer "
                 "contract violated\n";
    rc = 1;
  }
  if (out != nullptr) bsr::obs::write_episodes_jsonl(*out, report);
  if (trace != nullptr) bsr::obs::write_episode_chrome_trace(*trace, report);
  return files.close(rc);
}

}  // namespace brokerctl
