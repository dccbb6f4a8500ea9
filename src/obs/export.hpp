// Writers and readers for the telemetry plane's artifacts.
//
// Snapshot and span formats:
//   * write_json     — machine-readable snapshot with a stable, versioned
//                      schema ("obs_schema_version"); keys appear in fixed
//                      registry slot order so outputs diff cleanly run-to-run.
//                      This is what BENCH_*.json files and the CI counter
//                      tripwire are built from.
//   * dump_pretty    — aligned human table (brokerctl stats prints this to
//                      stderr). Zero-valued slots are skipped.
//   * write_chrome_trace — the drained span tree as Chrome trace_event JSON
//                      (load in chrome://tracing or Perfetto for a flame
//                      chart); counter deltas ride along in "args".
//
// Flight-recorder formats (journal.hpp / timeseries.hpp):
//   * write_events_jsonl — the event journal as JSON Lines under the
//                      versioned `bsr-events/1` schema: one header object
//                      (schema, event count, drop count), then one object
//                      per record. Doubles print via std::to_chars shortest
//                      round-trip, so a fixed seed produces a byte-identical
//                      file at any BSR_THREADS.
//   * write_series_csv — the per-round counter time series with one column
//                      per registry slot (stable header, every slot present).
//   * write_journal_chrome_trace — journal records as trace_event instant
//                      ("i") events plus per-round counter ("C") tracks, so
//                      a whole churn run loads in Perfetto.
//
// Serving-plane formats (qtrace.hpp / episode.hpp / slo.hpp):
// write_qtrace_jsonl, write_episodes_jsonl, write_episode_chrome_trace and
// write_slo_json. The three Chrome-trace writers share one emitter. Readers:
// read_events_jsonl and read_qtrace_jsonl parse their writers' output back.
//
// obs sits below every other library, so formatting here is hand-rolled
// rather than borrowed from bsr_io. Every writer except dump_pretty (a
// human table, streamed with <<) formats into one private 64 KiB chunk:
// strings are copied in, integers and doubles go through std::to_chars
// (doubles in shortest round-trip form), and each full chunk reaches the
// stream in one write(). So:
//   * memory is one chunk per call, whatever the artifact's size — no
//     writer builds a whole artifact in a string;
//   * the bytes ignore the stream's locale (a digit-grouping numpunct
//     imbued in the stream changes nothing);
//   * each writer hands its last chunk to the stream before it returns, and
//     nothing is written from a destructor, so a stream that rejected a
//     write is already failed (badbit) when the caller checks it. The
//     writers themselves never throw on a failed stream.
#pragma once

#include <iosfwd>
#include <span>

#include "obs/episode.hpp"
#include "obs/journal.hpp"
#include "obs/qtrace.hpp"
#include "obs/slo.hpp"
#include "obs/stats.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

namespace bsr::obs {

/// Versioned JSON snapshot. Histograms serialize as
/// {"buckets": [[bucket_index, count], ...], "total": N} with zero buckets
/// omitted; bucket b >= 1 covers values in [2^(b-1), 2^b).
void write_json(std::ostream& os, const Snapshot& snap);

/// Aligned `name  value` table of every non-zero slot; histograms render as
/// total plus a compact nonzero-bucket list.
void dump_pretty(std::ostream& os, const Snapshot& snap);

/// Chrome trace_event ("X" complete events) for one thread's drained spans.
void write_chrome_trace(std::ostream& os, std::span<const SpanRecord> spans);

/// Event journal as `bsr-events/1` JSON Lines: header object first
/// ({"schema": "bsr-events/1", "events": N, "dropped": D}), then one
/// {"t", "type", "subject", "corr"} object per record in export order.
void write_events_jsonl(std::ostream& os, const Journal& journal);

/// Per-round counter time series as CSV: `round,t_begin,t_end` followed by
/// one column per counter slot in registry order, every slot present.
void write_series_csv(std::ostream& os, std::span<const SeriesRow> rows);

/// Journal + series as Chrome trace_event JSON: records become instant
/// ("i") events at t*1e6 microseconds, and each counter that moved anywhere
/// in the series becomes a counter ("C") track with one sample per round.
void write_journal_chrome_trace(std::ostream& os, const Journal& journal,
                                std::span<const SeriesRow> rows);

/// Query traces as `bsr-qtrace/1` JSON Lines: header object first
/// ({"schema": "bsr-qtrace/1", "rows": N, "dropped": D}), then one object
/// per row in trace-id order with the answer tag rendered by name
/// ("fresh" / "stale_served" / "shedded" / "refused"; tag index =
/// sim::AnswerStatus value) and the per-stage tick costs nested under
/// "ticks". Byte-identical at any BSR_THREADS for a fixed seed.
void write_qtrace_jsonl(std::ostream& os, const QtraceSnapshot& snap);

/// Reconstructed episodes as `bsr-episodes/1` JSON Lines: header object
/// first ({"schema", "episodes", "journal_dropped", "qtrace_dropped",
/// "malformed", "unattributed"}), then one object per episode in report
/// order with the exact phase decomposition nested under "phases". Doubles
/// print via std::to_chars shortest round-trip — byte-identical for a fixed
/// journal at any BSR_THREADS, and identical between live emission and
/// offline replay of the same events file.
void write_episodes_jsonl(std::ostream& os, const EpisodeReport& report);

/// Reconstructed episodes as Chrome trace_event JSON: the health plane and
/// serve plane get one track each (thread_name metadata), every episode is
/// an enclosing complete ("X") slice with its phase partition nested inside,
/// and flow events ("s"/"f") draw an arrow from the health episode that was
/// live when each serve episode opened — the cross-plane causal link
/// Perfetto renders across tracks.
void write_episode_chrome_trace(std::ostream& os, const EpisodeReport& report);

/// Machine-readable SLO verdict under the `bsr-slo/1` schema: the spec,
/// sample/breach/recover totals, the boolean verdict `ok`, and one object
/// per objective (target, worst short/long burn, breach sample count, first
/// breach time; -1 = never). Doubles print via std::to_chars — byte-stable.
void write_slo_json(std::ostream& os, const SloReport& report);

/// Read write_events_jsonl / write_qtrace_jsonl output back: records in file
/// order (journal `seq` = line order), `dropped` from the header, `recorded`
/// = records + dropped. Throws std::runtime_error("line N: ...") on a missing
/// or foreign header, a record count other than the header's, a cut or empty
/// line, trailing bytes, a number outside its field's range (ticks are u16),
/// or an unknown event name or answer tag.
[[nodiscard]] Journal read_events_jsonl(std::istream& is);
[[nodiscard]] QtraceSnapshot read_qtrace_jsonl(std::istream& is);

}  // namespace bsr::obs
