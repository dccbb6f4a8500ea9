// Reference implementations of the telemetry artifact writers, for
// differential tests against the chunk-buffered library code in obs/export.
//
// They are the straightforward versions the library used to ship: every
// part goes through its own `std::ostream::operator<<`, doubles through a
// per-value std::to_chars buffer, and the Chrome trace emitter closes the
// file from its destructor. None of them shares a line with the code under
// test, so "identical bytes" checks the buffer's chunk handling, its integer
// and double formatting and every writer's field layout. Run them on
// default-locale streams only: their integers follow the stream's locale.
#pragma once

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>

#include "obs/episode.hpp"
#include "obs/journal.hpp"
#include "obs/qtrace.hpp"
#include "obs/slo.hpp"
#include "obs/stats.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

namespace bsr::test::reference {

namespace detail {

using namespace bsr::obs;

inline void put_double(std::ostream& os, double value) {
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  os.write(buf, ptr - buf);
  static_cast<void>(ec);
}

inline void json_histogram(std::ostream& os, const Snapshot& snap, Histogram h) {
  const auto& buckets = snap.histograms[static_cast<std::size_t>(h)];
  os << "{\"total\": " << snap.histogram_total(h) << ", \"buckets\": [";
  bool first = true;
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    if (buckets[b] == 0) continue;
    if (!first) os << ", ";
    os << "[" << b << ", " << buckets[b] << "]";
    first = false;
  }
  os << "]}";
}

class TraceEmitter {
 public:
  explicit TraceEmitter(std::ostream& os) : os_(os) {
    os_ << "{\"traceEvents\": [";
  }
  TraceEmitter(const TraceEmitter&) = delete;
  TraceEmitter& operator=(const TraceEmitter&) = delete;
  ~TraceEmitter() { os_ << "\n], \"displayTimeUnit\": \"ms\"}\n"; }

  // Times past +-4e12 s clamp there and NaN reads 0, as in the library,
  // so any two timestamps subtract without overflow.
  static std::int64_t us(double t) {
    if (std::isnan(t)) return 0;
    return std::llround(std::clamp(t, -4e12, 4e12) * 1e6);
  }
  static std::int64_t us_from_ns(std::uint64_t ns) { return ns / 1000; }

  TraceEmitter& complete(std::string_view name, int tid, std::int64_t ts,
                         std::int64_t dur) {
    open(name) << "\"ph\": \"X\", \"pid\": 1, \"tid\": " << tid
               << ", \"ts\": " << ts << ", \"dur\": " << dur;
    return *this;
  }
  TraceEmitter& instant(std::string_view name, std::int64_t ts) {
    open(name) << "\"ph\": \"i\", \"s\": \"t\", \"pid\": 1, \"tid\": 1, \"ts\": "
               << ts;
    return *this;
  }
  TraceEmitter& counter(std::string_view name, std::int64_t ts) {
    open(name) << "\"ph\": \"C\", \"pid\": 1, \"ts\": " << ts;
    return *this;
  }
  TraceEmitter& thread_name(int tid, std::string_view label) {
    open("thread_name") << "\"ph\": \"M\", \"pid\": 1, \"tid\": " << tid;
    return arg("name", label);
  }
  TraceEmitter& flow(char ph, std::uint64_t id, int tid, std::int64_t ts) {
    open("episode") << "\"cat\": \"episode\", \"ph\": \"" << ph << "\", "
                    << (ph == 'f' ? "\"bp\": \"e\", " : "") << "\"id\": " << id
                    << ", \"pid\": 1, \"tid\": " << tid << ", \"ts\": " << ts;
    return *this;
  }
  template <class T>
  TraceEmitter& arg(std::string_view key, const T& value) {
    os_ << (in_args_ ? ", \"" : ", \"args\": {\"") << key << "\": ";
    in_args_ = true;
    if constexpr (std::is_same_v<T, bool>) {
      os_ << (value ? "true" : "false");
    } else if constexpr (std::is_convertible_v<T, std::string_view>) {
      os_ << '"' << value << '"';
    } else {
      os_ << value;
    }
    return *this;
  }
  void end() {
    os_ << (in_args_ ? "}}" : "}");
    in_args_ = false;
  }

 private:
  std::ostream& open(std::string_view name) {
    os_ << (first_ ? "\n" : ",\n") << "  {\"name\": \"" << name << "\", ";
    first_ = false;
    return os_;
  }

  std::ostream& os_;
  bool first_ = true;
  bool in_args_ = false;
};

inline constexpr std::array<std::string_view, 4> kAnswerTagNames = {
    "fresh", "stale_served", "shedded", "refused"};

inline std::string_view answer_tag(std::uint8_t status) {
  return status < kAnswerTagNames.size() ? kAnswerTagNames[status] : "unknown";
}

}  // namespace detail

inline void write_json(std::ostream& os, const bsr::obs::Snapshot& snap) {
  using namespace bsr::obs;
  os << "{\n  \"obs_schema_version\": " << kSchemaVersion
     << ",\n  \"stats_enabled\": " << (snap.enabled ? "true" : "false")
     << ",\n  \"work_units\": " << work_units(snap) << ",\n  \"counters\": {";
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    os << (i == 0 ? "\n" : ",\n") << "    \"" << name(static_cast<Counter>(i))
       << "\": " << snap.counters[i];
  }
  os << "\n  },\n  \"gauges\": {";
  for (std::size_t i = 0; i < kNumGauges; ++i) {
    os << (i == 0 ? "\n" : ",\n") << "    \"" << name(static_cast<Gauge>(i))
       << "\": " << snap.gauges[i];
  }
  os << "\n  },\n  \"histograms\": {";
  for (std::size_t i = 0; i < kNumHistograms; ++i) {
    os << (i == 0 ? "\n" : ",\n") << "    \"" << name(static_cast<Histogram>(i))
       << "\": ";
    detail::json_histogram(os, snap, static_cast<Histogram>(i));
  }
  os << "\n  }\n}\n";
}

inline void write_chrome_trace(std::ostream& os,
                               std::span<const bsr::obs::SpanRecord> spans) {
  using detail::TraceEmitter;
  TraceEmitter trace(os);
  for (const bsr::obs::SpanRecord& span : spans) {
    trace.complete(span.name, 1, TraceEmitter::us_from_ns(span.start_ns),
                   TraceEmitter::us_from_ns(span.duration_ns))
        .arg("work_units", span.work_units);
    for (const auto& [counter, moved] : span.counter_deltas) {
      trace.arg(bsr::obs::name(counter), moved);
    }
    trace.end();
  }
}

inline void write_events_jsonl(std::ostream& os, const bsr::obs::Journal& journal) {
  using namespace bsr::obs;
  os << "{\"schema\": \"" << kEventSchema
     << "\", \"events\": " << journal.events.size()
     << ", \"dropped\": " << journal.dropped << "}\n";
  for (const EventRecord& rec : journal.events) {
    os << "{\"t\": ";
    detail::put_double(os, rec.time);
    os << ", \"type\": \"" << name(rec.type) << "\", \"subject\": "
       << rec.subject << ", \"corr\": " << rec.correlation << "}\n";
  }
}

inline void write_series_csv(std::ostream& os,
                             std::span<const bsr::obs::SeriesRow> rows) {
  using namespace bsr::obs;
  os << "round,t_begin,t_end";
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    os << "," << name(static_cast<Counter>(i));
  }
  os << "\n";
  for (const SeriesRow& row : rows) {
    os << row.round << ",";
    detail::put_double(os, row.t_begin);
    os << ",";
    detail::put_double(os, row.t_end);
    for (std::size_t i = 0; i < kNumCounters; ++i) os << "," << row.deltas[i];
    os << "\n";
  }
}

inline void write_qtrace_jsonl(std::ostream& os,
                               const bsr::obs::QtraceSnapshot& snap) {
  using namespace bsr::obs;
  os << "{\"schema\": \"" << kQtraceSchema
     << "\", \"rows\": " << snap.rows.size()
     << ", \"dropped\": " << snap.dropped << "}\n";
  for (const QueryTraceRow& row : snap.rows) {
    os << "{\"id\": " << row.trace_id << ", \"t\": ";
    detail::put_double(os, row.time);
    os << ", \"epoch\": " << row.epoch << ", \"corr\": " << row.correlation
       << ", \"src\": " << row.src << ", \"dst\": " << row.dst
       << ", \"tag\": \"" << detail::answer_tag(row.status)
       << "\", \"reachable\": " << (row.reachable ? "true" : "false")
       << ", \"dist\": " << row.dist_bound << ", \"stale\": "
       << row.stale_behind << ", \"ticks\": {\"admit\": " << row.admit_ticks
       << ", \"lookup\": " << row.lookup_ticks
       << ", \"stitch\": " << row.stitch_ticks << "}}\n";
  }
}

inline void write_slo_json(std::ostream& os, const bsr::obs::SloReport& report) {
  using namespace bsr::obs;
  using detail::put_double;
  os << "{\n  \"slo_schema\": \"" << kSloSchema << "\",\n  \"ok\": "
     << (report.ok() ? "true" : "false")
     << ",\n  \"in_breach\": " << (report.in_breach ? "true" : "false")
     << ",\n  \"samples\": " << report.samples
     << ",\n  \"breaches\": " << report.breaches
     << ",\n  \"recovers\": " << report.recovers << ",\n  \"spec\": {";
  os << "\"window\": ";
  put_double(os, report.spec.window);
  os << ", \"long_window\": ";
  put_double(os, report.spec.long_window);
  os << ", \"burn_threshold\": ";
  put_double(os, report.spec.burn_threshold);
  os << "},\n  \"objectives\": [";
  bool first = true;
  for (const SloObjectiveReport& obj : report.objectives) {
    if (!obj.enabled) continue;
    os << (first ? "\n" : ",\n");
    first = false;
    os << "    {\"name\": \"" << obj.name << "\", \"target\": ";
    put_double(os, obj.target);
    os << ", \"worst_short_burn\": ";
    put_double(os, obj.worst_short_burn);
    os << ", \"worst_long_burn\": ";
    put_double(os, obj.worst_long_burn);
    os << ", \"breach_samples\": " << obj.breach_samples
       << ", \"first_breach_t\": ";
    put_double(os, obj.first_breach_time);
    os << "}";
  }
  os << "\n  ]\n}\n";
}

inline void write_episodes_jsonl(std::ostream& os,
                                 const bsr::obs::EpisodeReport& report) {
  using namespace bsr::obs;
  using detail::put_double;
  os << "{\"schema\": \"" << kEpisodeSchema
     << "\", \"episodes\": " << report.episodes.size()
     << ", \"journal_dropped\": " << report.journal_dropped
     << ", \"qtrace_dropped\": " << report.qtrace_dropped
     << ", \"malformed\": " << report.malformed
     << ", \"unattributed\": " << report.unattributed << "}\n";
  for (const Episode& ep : report.episodes) {
    os << "{\"kind\": \"" << to_string(ep.kind) << "\", \"id\": " << ep.id
       << ", \"subject\": " << ep.subject << ", \"open\": ";
    put_double(os, ep.open_time);
    os << ", \"close\": ";
    put_double(os, ep.close_time);
    os << ", \"closed\": " << (ep.closed ? "true" : "false")
       << ", \"truncated\": " << (ep.truncated ? "true" : "false")
       << ", \"exposure\": ";
    put_double(os, ep.span());
    os << ", \"phases\": {";
    for (std::size_t p = 0; p < kNumEpisodePhases; ++p) {
      os << (p == 0 ? "" : ", ") << "\""
         << to_string(static_cast<EpisodePhase>(p)) << "\": ";
      put_double(os, ep.phases[p]);
    }
    os << "}, \"attempts\": " << ep.attempts
       << ", \"failures\": " << ep.failures
       << ", \"gave_up\": " << (ep.gave_up ? "true" : "false")
       << ", \"stale_served\": " << ep.stale_served
       << ", \"shedded\": " << ep.shedded << ", \"refused\": " << ep.refused
       << "}\n";
  }
}

inline void write_episode_chrome_trace(std::ostream& os,
                                       const bsr::obs::EpisodeReport& report) {
  using namespace bsr::obs;
  using detail::TraceEmitter;
  TraceEmitter trace(os);
  trace.thread_name(1, "health plane").end();
  trace.thread_name(2, "serve plane").end();
  for (const Episode& ep : report.episodes) {
    const int tid = ep.kind == EpisodeKind::kHealth ? 1 : 2;
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
}

inline void write_journal_chrome_trace(std::ostream& os,
                                       const bsr::obs::Journal& journal,
                                       std::span<const bsr::obs::SeriesRow> rows) {
  using namespace bsr::obs;
  using detail::TraceEmitter;
  TraceEmitter trace(os);
  for (const EventRecord& rec : journal.events) {
    trace.instant(name(rec.type), TraceEmitter::us(rec.time))
        .arg("subject", rec.subject).arg("corr", rec.correlation)
        .arg("seq", rec.seq)
        .end();
  }
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
}

}  // namespace bsr::test::reference
