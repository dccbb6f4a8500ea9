// Per-query trace records for the route-serving plane.
//
// Counters say how many queries each answer tag got; the journal says when
// epochs turned over. Neither can answer "what happened to *this* query" —
// which stage cost what, how stale the oracle was when it answered, which
// epoch served it. The query tracer fills that gap: while the runtime
// switch is on, RouteService stages one fixed-size QueryTraceRow per
// answered query (enqueue -> admit/shed -> oracle lookup -> stitch, with
// per-stage deterministic tick costs) and hands each batch's rows to one
// bounded ring in one call, and the tracer gives each row the next trace
// id.
//
// Determinism at any BSR_THREADS value (the property CI `cmp`s) follows
// from the journal's rule 3 (journal.hpp): rows are recorded only on the
// single-threaded control path, after a batch's worker shards have joined,
// in query order. So ids follow program order, the ring evicts the lowest
// ids first, and the snapshot is the same rows in the same order at any
// shard count. Rows carry only integers and the simulated-time double;
// exporters (export.hpp) print doubles via to_chars. Byte-identical output.
//
// Recording costs one branch while the switch is off. Under BSR_STATS=OFF
// the RouteService call sites compile away entirely (they sit inside
// BSR_STATS_ENABLED blocks), so hot libraries reference zero obs symbols;
// the tracer API itself stays linkable either way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace bsr::obs {

/// Version tag of the exported JSONL qtrace schema (the first line of every
/// qtrace file names it). Bump on breaking changes to row layout.
inline constexpr std::string_view kQtraceSchema = "bsr-qtrace/1";

/// One per-query trace record. Stage costs are the deterministic virtual
/// ticks RouteAnswer carries (admission constant, oracle landmark scan,
/// stitch walk) — functions of the topology and the query alone, never of
/// wall time, so rows are bit-identical across hosts and thread counts.
struct QueryTraceRow {
  std::uint64_t trace_id = 0;
  double time = 0.0;            ///< simulated time of the serving call
  std::uint64_t epoch = 0;      ///< oracle epoch that served the query
  std::uint64_t correlation = 0;///< failure-episode correlation: the truth
                                ///< version the epoch lagged behind (0 = fresh)
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint32_t dist_bound = 0;
  std::uint64_t stale_behind = 0;  ///< truth events the serving epoch missed
  std::uint16_t admit_ticks = 0;
  std::uint16_t lookup_ticks = 0;
  std::uint16_t stitch_ticks = 0;
  std::uint8_t status = 0;      ///< sim::AnswerStatus value (answer tag)
  std::uint8_t reachable = 0;
};

struct QtraceOptions {
  /// Rows the ring retains; older rows (lower trace ids) are evicted first.
  std::size_t capacity = std::size_t{1} << 16;
};

/// Turns query tracing on: allocates the ring and rewinds trace ids to 0.
/// Throws std::invalid_argument on zero capacity.
void start_query_trace(const QtraceOptions& options = {});

/// Turns tracing off. Recorded rows stay readable until the next
/// start_query_trace().
void stop_query_trace();

[[nodiscard]] bool query_trace_enabled() noexcept;

/// Records a copy of `row` under the next trace id (its own trace_id is
/// ignored). Control thread only. No-op unless tracing.
void qtrace_record(const QueryTraceRow& row) noexcept;

/// Records copies of `rows` under consecutive trace ids, in order, leaving
/// the ring exactly as that many qtrace_record calls would (their own
/// trace_ids are ignored). Control thread only. No-op unless tracing.
void qtrace_record_batch(std::span<const QueryTraceRow> rows) noexcept;

struct QtraceSnapshot {
  /// Surviving rows in ascending trace-id order (ids are unique).
  std::vector<QueryTraceRow> rows;
  std::uint64_t recorded = 0;  ///< rows ever offered to the ring
  std::uint64_t dropped = 0;   ///< rows evicted (== recorded - rows.size())
};

/// The ring's rows, oldest first.
[[nodiscard]] QtraceSnapshot snapshot_query_trace();

}  // namespace bsr::obs
