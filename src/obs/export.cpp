#include "obs/export.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <istream>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace bsr::obs {

namespace {

/// Largest |time|, in seconds, the readers accept and the trace writers
/// keep: its microseconds stay below 2^62, so a trace timestamp and the
/// difference of two always fit int64_t.
constexpr double kMaxSeconds = 4e12;

/// The one output buffer behind every artifact writer. Parts are appended
/// to a fixed chunk: strings by memcpy, integers and doubles by
/// std::to_chars (doubles in shortest round-trip form, the only formatting
/// whose bytes are a pure function of the value), and a full chunk reaches
/// the stream in one write(). So an artifact of any size costs one chunk of
/// memory, and its bytes ignore the stream's locale. Nothing is written from
/// the destructor: each writer calls flush() before it returns, and a stream
/// that rejected a write is already failed when the caller checks it.
class ChunkWriter {
 public:
  explicit ChunkWriter(std::ostream& os)
      : os_(os), buf_(std::make_unique_for_overwrite<char[]>(kChunk)) {}

  /// Appends each part in order: a bool as true/false, a char as itself,
  /// other arithmetic types as decimal numbers, anything else as the string
  /// it converts to.
  template <class... Parts>
  void put(const Parts&... parts) {
    (put_one(parts), ...);
  }

  /// Hands the buffered bytes to the stream.
  void flush() {
    os_.write(buf_.get(), static_cast<std::streamsize>(used_));
    used_ = 0;
  }

 private:
  static constexpr std::size_t kChunk = 64 * 1024;
  /// Room to_chars needs for any number put() formats; a shortest-form
  /// double takes at most 24 chars.
  static constexpr std::size_t kMaxNumber = 32;

  template <class T>
  void put_one(const T& part) {
    if constexpr (std::is_same_v<T, bool>) {
      put_text(part ? std::string_view("true") : std::string_view("false"));
    } else if constexpr (std::is_same_v<T, char>) {
      put_text(std::string_view(&part, 1));
    } else if constexpr (std::is_same_v<T, double>) {
      // Neighbouring records often share a timestamp, and finding a shortest
      // form costs more than copying one, so the last double's text is kept.
      const auto bits = std::bit_cast<std::uint64_t>(part);
      if (last_double_len_ == 0 || bits != last_double_bits_) {
        last_double_len_ = static_cast<std::size_t>(
            std::to_chars(last_double_, last_double_ + kMaxNumber, part).ptr -
            last_double_);
        last_double_bits_ = bits;
      }
      put_text(std::string_view(last_double_, last_double_len_));
    } else if constexpr (std::is_arithmetic_v<T>) {
      if (kChunk - used_ < kMaxNumber) flush();
      char* const at = buf_.get() + used_;
      used_ += static_cast<std::size_t>(
          std::to_chars(at, at + kMaxNumber, part).ptr - at);
    } else if constexpr (std::is_array_v<T>) {
      // A string literal: its length is known without a strlen.
      put_text(std::string_view(part, std::extent_v<T> - 1));
    } else {
      put_text(part);
    }
  }

  void put_text(std::string_view text) {
    if (text.size() > kChunk - used_) {
      flush();
      if (text.size() > kChunk) {
        os_.write(text.data(), static_cast<std::streamsize>(text.size()));
        return;
      }
    }
    std::memcpy(buf_.get() + used_, text.data(), text.size());
    used_ += text.size();
  }

  std::ostream& os_;
  std::unique_ptr<char[]> buf_;
  std::size_t used_ = 0;
  char last_double_[kMaxNumber] = {};
  std::size_t last_double_len_ = 0;  // 0 until the first double
  std::uint64_t last_double_bits_ = 0;
};

void json_histogram(ChunkWriter& out, const Snapshot& snap, Histogram h) {
  const auto& buckets = snap.histograms[static_cast<std::size_t>(h)];
  out.put("{\"total\": ", snap.histogram_total(h), ", \"buckets\": [");
  bool first = true;
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    if (buckets[b] == 0) continue;
    out.put(first ? "[" : ", [", b, ", ", buckets[b], "]");
    first = false;
  }
  out.put("]}");
}

/// The one Chrome trace_event emitter: it owns the file framing, separators,
/// integral-microsecond timestamps and each event shape's fixed fields. The
/// writers pick a shape, add "args", end() the event, and finish() the file.
class TraceEmitter {
 public:
  explicit TraceEmitter(std::ostream& os) : out_(os) {
    out_.put("{\"traceEvents\": [");
  }

  /// Simulated time -> microseconds, rounded so Perfetto gets monotone
  /// integral timestamps. Clamped to +-kMaxSeconds (NaN reads 0), so no
  /// result, nor the difference of two, can overflow.
  static std::int64_t us(double t) {
    if (std::isnan(t)) return 0;
    return std::llround(std::clamp(t, -kMaxSeconds, kMaxSeconds) * 1e6);
  }
  static std::int64_t us_from_ns(std::uint64_t ns) { return ns / 1000; }

  TraceEmitter& complete(std::string_view name, int tid, std::int64_t ts,
                         std::int64_t dur) {
    open(name);
    out_.put("\"ph\": \"X\", \"pid\": 1, \"tid\": ", tid, ", \"ts\": ", ts,
             ", \"dur\": ", dur);
    return *this;
  }
  TraceEmitter& instant(std::string_view name, std::int64_t ts) {
    open(name);
    out_.put("\"ph\": \"i\", \"s\": \"t\", \"pid\": 1, \"tid\": 1, \"ts\": ",
             ts);
    return *this;
  }
  TraceEmitter& counter(std::string_view name, std::int64_t ts) {
    open(name);
    out_.put("\"ph\": \"C\", \"pid\": 1, \"ts\": ", ts);
    return *this;
  }
  TraceEmitter& thread_name(int tid, std::string_view label) {
    open("thread_name");
    out_.put("\"ph\": \"M\", \"pid\": 1, \"tid\": ", tid);
    return arg("name", label);
  }
  /// Flow start ('s') or finish ('f', bound to the enclosing slice).
  TraceEmitter& flow(char ph, std::uint64_t id, int tid, std::int64_t ts) {
    open("episode");
    out_.put("\"cat\": \"episode\", \"ph\": \"", ph, "\", ",
             ph == 'f' ? "\"bp\": \"e\", " : "", "\"id\": ", id,
             ", \"pid\": 1, \"tid\": ", tid, ", \"ts\": ", ts);
    return *this;
  }
  /// One "args" entry: strings quoted, bools as true/false, integers decimal.
  template <class T>
  TraceEmitter& arg(std::string_view key, const T& value) {
    out_.put(in_args_ ? ", \"" : ", \"args\": {\"", key, "\": ");
    in_args_ = true;
    if constexpr (std::is_convertible_v<T, std::string_view>) {
      out_.put('"', value, '"');
    } else {
      out_.put(value);
    }
    return *this;
  }
  void end() {
    out_.put(in_args_ ? "}}" : "}");
    in_args_ = false;
  }
  /// Closes the file and hands its last chunk to the stream.
  void finish() {
    out_.put("\n], \"displayTimeUnit\": \"ms\"}\n");
    out_.flush();
  }

 private:
  void open(std::string_view name) {
    out_.put(first_ ? "\n" : ",\n", "  {\"name\": \"", name, "\", ");
    first_ = false;
  }

  ChunkWriter out_;
  bool first_ = true;
  bool in_args_ = false;
};

}  // namespace

void write_json(std::ostream& os, const Snapshot& snap) {
  ChunkWriter out(os);
  out.put("{\n  \"obs_schema_version\": ", kSchemaVersion,
          ",\n  \"stats_enabled\": ", snap.enabled,
          ",\n  \"work_units\": ", work_units(snap), ",\n  \"counters\": {");
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    out.put(i == 0 ? "\n" : ",\n", "    \"", name(static_cast<Counter>(i)),
            "\": ", snap.counters[i]);
  }
  out.put("\n  },\n  \"gauges\": {");
  for (std::size_t i = 0; i < kNumGauges; ++i) {
    out.put(i == 0 ? "\n" : ",\n", "    \"", name(static_cast<Gauge>(i)),
            "\": ", snap.gauges[i]);
  }
  out.put("\n  },\n  \"histograms\": {");
  for (std::size_t i = 0; i < kNumHistograms; ++i) {
    out.put(i == 0 ? "\n" : ",\n", "    \"", name(static_cast<Histogram>(i)),
            "\": ");
    json_histogram(out, snap, static_cast<Histogram>(i));
  }
  out.put("\n  }\n}\n");
  out.flush();
}

void dump_pretty(std::ostream& os, const Snapshot& snap) {
  if (!snap.enabled) {
    os << "telemetry: compiled out (build with -DBSR_STATS=ON)\n";
    return;
  }
  struct Line {
    std::string name;
    std::string value;
  };
  std::vector<Line> lines;
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    if (snap.counters[i] == 0) continue;
    lines.push_back({std::string(name(static_cast<Counter>(i))),
                     std::to_string(snap.counters[i])});
  }
  for (std::size_t i = 0; i < kNumGauges; ++i) {
    if (snap.gauges[i] == 0) continue;
    lines.push_back({std::string(name(static_cast<Gauge>(i))),
                     std::to_string(snap.gauges[i]) + " (max)"});
  }
  for (std::size_t i = 0; i < kNumHistograms; ++i) {
    const auto h = static_cast<Histogram>(i);
    const std::uint64_t total = snap.histogram_total(h);
    if (total == 0) continue;
    const auto& buckets = snap.histograms[i];
    std::string detail = std::to_string(total) + " obs:";
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      if (buckets[b] == 0) continue;
      // Bucket label: the inclusive lower bound of the value range.
      const std::uint64_t lo = b == 0 ? 0 : (std::uint64_t{1} << (b - 1));
      detail += " [" + std::to_string(lo) + "]x" + std::to_string(buckets[b]);
    }
    lines.push_back({std::string(name(h)), std::move(detail)});
  }
  if (lines.empty()) {
    os << "telemetry: no activity recorded\n";
    return;
  }
  std::size_t width = 0;
  for (const Line& line : lines) width = std::max(width, line.name.size());
  os << "telemetry (schema v" << kSchemaVersion << ", work units "
     << work_units(snap) << ")\n";
  for (const Line& line : lines) {
    os << "  " << line.name << std::string(width - line.name.size() + 2, ' ')
       << line.value << "\n";
  }
}

void write_chrome_trace(std::ostream& os, std::span<const SpanRecord> spans) {
  TraceEmitter trace(os);
  for (const SpanRecord& span : spans) {
    trace.complete(span.name, 1, TraceEmitter::us_from_ns(span.start_ns),
                   TraceEmitter::us_from_ns(span.duration_ns))
        .arg("work_units", span.work_units);
    for (const auto& [counter, moved] : span.counter_deltas) {
      trace.arg(name(counter), moved);
    }
    trace.end();
  }
  trace.finish();
}

void write_events_jsonl(std::ostream& os, const Journal& journal) {
  ChunkWriter out(os);
  out.put("{\"schema\": \"", kEventSchema, "\", \"events\": ",
          journal.events.size(), ", \"dropped\": ", journal.dropped, "}\n");
  for (const EventRecord& rec : journal.events) {
    out.put("{\"t\": ", rec.time, ", \"type\": \"", name(rec.type),
            "\", \"subject\": ", rec.subject, ", \"corr\": ", rec.correlation,
            "}\n");
  }
  out.flush();
}

void write_series_csv(std::ostream& os, std::span<const SeriesRow> rows) {
  ChunkWriter out(os);
  out.put("round,t_begin,t_end");
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    out.put(",", name(static_cast<Counter>(i)));
  }
  out.put("\n");
  for (const SeriesRow& row : rows) {
    out.put(row.round, ",", row.t_begin, ",", row.t_end);
    for (const std::uint64_t delta : row.deltas) out.put(",", delta);
    out.put("\n");
  }
  out.flush();
}

namespace {

/// Answer-tag names indexed by sim::AnswerStatus value. The obs layer sits
/// below sim, so the convention is re-stated here (and pinned by a test)
/// rather than included.
constexpr std::array<std::string_view, 4> kAnswerTagNames = {
    "fresh", "stale_served", "shedded", "refused"};

std::string_view answer_tag(std::uint8_t status) {
  return status < kAnswerTagNames.size() ? kAnswerTagNames[status] : "unknown";
}

}  // namespace

void write_qtrace_jsonl(std::ostream& os, const QtraceSnapshot& snap) {
  ChunkWriter out(os);
  out.put("{\"schema\": \"", kQtraceSchema, "\", \"rows\": ", snap.rows.size(),
          ", \"dropped\": ", snap.dropped, "}\n");
  for (const QueryTraceRow& row : snap.rows) {
    out.put("{\"id\": ", row.trace_id, ", \"t\": ", row.time,
            ", \"epoch\": ", row.epoch, ", \"corr\": ", row.correlation,
            ", \"src\": ", row.src, ", \"dst\": ", row.dst, ", \"tag\": \"",
            answer_tag(row.status), "\", \"reachable\": ", row.reachable != 0,
            ", \"dist\": ", row.dist_bound, ", \"stale\": ", row.stale_behind,
            ", \"ticks\": {\"admit\": ", row.admit_ticks,
            ", \"lookup\": ", row.lookup_ticks,
            ", \"stitch\": ", row.stitch_ticks, "}}\n");
  }
  out.flush();
}

void write_slo_json(std::ostream& os, const SloReport& report) {
  ChunkWriter out(os);
  out.put("{\n  \"slo_schema\": \"", kSloSchema, "\",\n  \"ok\": ", report.ok(),
          ",\n  \"in_breach\": ", report.in_breach,
          ",\n  \"samples\": ", report.samples,
          ",\n  \"breaches\": ", report.breaches,
          ",\n  \"recovers\": ", report.recovers,
          ",\n  \"spec\": {\"window\": ", report.spec.window,
          ", \"long_window\": ", report.spec.long_window,
          ", \"burn_threshold\": ", report.spec.burn_threshold,
          "},\n  \"objectives\": [");
  bool first = true;
  for (const SloObjectiveReport& obj : report.objectives) {
    if (!obj.enabled) continue;
    out.put(first ? "\n" : ",\n", "    {\"name\": \"", obj.name,
            "\", \"target\": ", obj.target,
            ", \"worst_short_burn\": ", obj.worst_short_burn,
            ", \"worst_long_burn\": ", obj.worst_long_burn,
            ", \"breach_samples\": ", obj.breach_samples,
            ", \"first_breach_t\": ", obj.first_breach_time, "}");
    first = false;
  }
  out.put("\n  ]\n}\n");
  out.flush();
}

void write_episodes_jsonl(std::ostream& os, const EpisodeReport& report) {
  ChunkWriter out(os);
  out.put("{\"schema\": \"", kEpisodeSchema,
          "\", \"episodes\": ", report.episodes.size(),
          ", \"journal_dropped\": ", report.journal_dropped,
          ", \"qtrace_dropped\": ", report.qtrace_dropped,
          ", \"malformed\": ", report.malformed,
          ", \"unattributed\": ", report.unattributed, "}\n");
  for (const Episode& ep : report.episodes) {
    out.put("{\"kind\": \"", to_string(ep.kind), "\", \"id\": ", ep.id,
            ", \"subject\": ", ep.subject, ", \"open\": ", ep.open_time,
            ", \"close\": ", ep.close_time, ", \"closed\": ", ep.closed,
            ", \"truncated\": ", ep.truncated, ", \"exposure\": ", ep.span(),
            ", \"phases\": {");
    for (std::size_t p = 0; p < kNumEpisodePhases; ++p) {
      out.put(p == 0 ? "\"" : ", \"", to_string(static_cast<EpisodePhase>(p)),
              "\": ", ep.phases[p]);
    }
    out.put("}, \"attempts\": ", ep.attempts, ", \"failures\": ", ep.failures,
            ", \"gave_up\": ", ep.gave_up,
            ", \"stale_served\": ", ep.stale_served,
            ", \"shedded\": ", ep.shedded, ", \"refused\": ", ep.refused,
            "}\n");
  }
  out.flush();
}

void write_episode_chrome_trace(std::ostream& os, const EpisodeReport& report) {
  TraceEmitter trace(os);
  trace.thread_name(1, "health plane").end();
  trace.thread_name(2, "serve plane").end();
  for (const Episode& ep : report.episodes) {
    const int tid = ep.kind == EpisodeKind::kHealth ? 1 : 2;
    // The enclosing episode slice, then its exact phase partition nested
    // inside (same track, contained timestamps).
    const std::int64_t open = TraceEmitter::us(ep.open_time);
    const std::string name = "episode " + std::string(to_string(ep.kind)) +
                             "#" + std::to_string(ep.id);
    trace.complete(name, tid, open, TraceEmitter::us(ep.close_time) - open)
        .arg("subject", ep.subject).arg("closed", ep.closed)
        .arg("truncated", ep.truncated).arg("attempts", ep.attempts)
        .arg("failures", ep.failures).arg("stale_served", ep.stale_served)
        .arg("shedded", ep.shedded).arg("refused", ep.refused)
        .end();
    for (const PhaseSlice& slice : ep.slices) {
      const std::int64_t begin = TraceEmitter::us(slice.begin);
      trace.complete(to_string(slice.phase), tid, begin,
                     TraceEmitter::us(slice.end) - begin)
          .arg("kind", to_string(ep.kind)).arg("id", ep.id)
          .end();
    }
  }
  // Flow arrows from the health-plane episode that was live when a serve
  // episode opened to that serve episode — the cross-plane causal link.
  std::uint64_t flow_id = 0;
  for (const Episode& serve : report.episodes) {
    if (serve.kind != EpisodeKind::kServe) continue;
    for (const Episode& health : report.episodes) {
      if (health.kind != EpisodeKind::kHealth) continue;
      if (serve.open_time < health.open_time ||
          serve.open_time > health.close_time) {
        continue;
      }
      ++flow_id;
      const std::int64_t ts = TraceEmitter::us(serve.open_time);
      trace.flow('s', flow_id, 1, ts).end();
      trace.flow('f', flow_id, 2, ts).end();
    }
  }
  trace.finish();
}

void write_journal_chrome_trace(std::ostream& os, const Journal& journal,
                                std::span<const SeriesRow> rows) {
  TraceEmitter trace(os);
  for (const EventRecord& rec : journal.events) {
    trace.instant(name(rec.type), TraceEmitter::us(rec.time))
        .arg("subject", rec.subject).arg("corr", rec.correlation)
        .arg("seq", rec.seq)
        .end();
  }
  // One counter track per slot that moved anywhere in the series; each round
  // contributes one sample at its start, holding the round's delta.
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    const bool moved = std::any_of(
        rows.begin(), rows.end(),
        [i](const SeriesRow& row) { return row.deltas[i] != 0; });
    if (!moved) continue;
    for (const SeriesRow& row : rows) {
      trace.counter(name(static_cast<Counter>(i)), TraceEmitter::us(row.t_begin))
          .arg("delta", row.deltas[i])
          .end();
    }
  }
  trace.finish();
}

namespace {

/// One line of a JSONL artifact, matched against its writer's exact layout.
/// Any mismatch throws std::runtime_error naming the line.
class LineCursor {
 public:
  LineCursor(std::string_view text, std::size_t line)
      : rest_(text), line_(line) {}

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("line " + std::to_string(line_) + ": " + what);
  }
  LineCursor& lit(std::string_view expected) {
    if (!rest_.starts_with(expected)) {
      fail("expected '" + std::string(expected) + "'");
    }
    rest_.remove_prefix(expected.size());
    return *this;
  }
  /// A finite double (JSON has no nan or inf), or an unsigned integer that
  /// must fit T.
  template <class T = std::uint64_t>
  T number() {
    T value{};
    const char* first = rest_.data();
    const auto [end, ec] = std::from_chars(first, first + rest_.size(), value);
    bool ok = ec == std::errc{};
    if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
    if (!ok) fail("bad or out-of-range number");
    rest_.remove_prefix(static_cast<std::size_t>(end - first));
    return value;
  }
  /// A time in seconds: a finite double within +-kMaxSeconds.
  double time() {
    const double t = number<double>();
    if (std::fabs(t) > kMaxSeconds) fail("time out of range");
    return t;
  }
  /// A quoted name (opening quote already consumed), as its index in `names`.
  std::size_t name(std::span<const std::string_view> names) {
    const std::string_view text = rest_.substr(0, rest_.find('"'));
    const auto it = std::find(names.begin(), names.end(), text);
    if (it == names.end() || text.size() == rest_.size()) {
      fail("unknown name '" + std::string(text) + "'");
    }
    rest_.remove_prefix(text.size() + 1);
    return static_cast<std::size_t>(it - names.begin());
  }
  bool boolean() {
    const bool value = rest_.starts_with("true");
    lit(value ? "true" : "false");
    return value;
  }
  void end() const {
    if (!rest_.empty()) fail("trailing bytes");
  }

 private:
  std::string_view rest_;
  std::size_t line_;
};

/// Reads the {"schema": "<schema>", "<count_key>": N, "dropped": D} header,
/// then exactly N newline-terminated lines, each handed to `record`; returns D.
template <class Record>
std::uint64_t read_jsonl(std::istream& is, std::string_view schema,
                         std::string_view count_key, Record record) {
  std::uint64_t count = 0, dropped = 0;
  std::size_t line = 0;
  for (std::string text; std::getline(is, text);) {
    LineCursor in(text, ++line);
    if (is.eof()) in.fail("unterminated line");  // cut before its newline
    if (text.empty()) in.fail("empty line");
    if (line == 1) {
      in.lit("{\"schema\": \"").lit(schema).lit("\", \"").lit(count_key);
      count = in.lit("\": ").number();
      dropped = in.lit(", \"dropped\": ").number();
      in.lit("}");
    } else if (line - 1 > count) {
      in.fail("more records than the header's " + std::to_string(count));
    } else {
      record(in);
    }
    in.end();
  }
  if (line == 0) {
    LineCursor("", 1).fail("missing " + std::string(schema) + " header");
  }
  if (line - 1 < count) {
    LineCursor("", line + 1).fail("header promises " + std::to_string(count) +
                                  " records, found " + std::to_string(line - 1));
  }
  return dropped;
}

}  // namespace

Journal read_events_jsonl(std::istream& is) {
  Journal journal;
  journal.dropped = read_jsonl(is, kEventSchema, "events", [&](LineCursor& in) {
    EventRecord& rec = journal.events.emplace_back();
    rec.time = in.lit("{\"t\": ").time();
    rec.type = static_cast<Event>(in.lit(", \"type\": \"").name(kEventNames));
    rec.subject = in.lit(", \"subject\": ").number();
    rec.correlation = in.lit(", \"corr\": ").number();
    rec.seq = journal.events.size() - 1;
    in.lit("}");
  });
  journal.recorded = journal.events.size() + journal.dropped;
  return journal;
}

QtraceSnapshot read_qtrace_jsonl(std::istream& is) {
  QtraceSnapshot snap;
  snap.dropped = read_jsonl(is, kQtraceSchema, "rows", [&](LineCursor& in) {
    QueryTraceRow& row = snap.rows.emplace_back();
    row.trace_id = in.lit("{\"id\": ").number();
    row.time = in.lit(", \"t\": ").time();
    row.epoch = in.lit(", \"epoch\": ").number();
    row.correlation = in.lit(", \"corr\": ").number();
    row.src = in.lit(", \"src\": ").number<std::uint32_t>();
    row.dst = in.lit(", \"dst\": ").number<std::uint32_t>();
    row.status = static_cast<std::uint8_t>(
        in.lit(", \"tag\": \"").name(kAnswerTagNames));
    row.reachable = in.lit(", \"reachable\": ").boolean();
    row.dist_bound = in.lit(", \"dist\": ").number<std::uint32_t>();
    row.stale_behind = in.lit(", \"stale\": ").number();
    row.admit_ticks = in.lit(", \"ticks\": {\"admit\": ").number<std::uint16_t>();
    row.lookup_ticks = in.lit(", \"lookup\": ").number<std::uint16_t>();
    row.stitch_ticks = in.lit(", \"stitch\": ").number<std::uint16_t>();
    in.lit("}}");
  });
  snap.recorded = snap.rows.size() + snap.dropped;
  return snap;
}

}  // namespace bsr::obs
