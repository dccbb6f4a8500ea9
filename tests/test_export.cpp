// Tests for the artifact writers and readers in obs/export: every writer
// against its `<<` reference byte for byte over seeded random and edge-value
// inputs (outputs past several chunks included), under a grouping locale and
// into a stream that rejects writes; write -> read -> write round trips over
// seeded random journals and query traces; a table of corrupt inputs that
// must each be rejected with their line named; and golden bytes for every
// trace writer.
#include "obs/export.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <locale>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <vector>

#include "graph/rng.hpp"
#include "reference_export.hpp"

namespace bsr::obs {
namespace {

constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();

// --- write -> read -> write -------------------------------------------------

/// Edge values first, then random ones: every draw below mixes both.
std::uint64_t pick_u64(bsr::graph::Rng& rng, std::uint64_t max) {
  const std::uint64_t edges[] = {0, 1, max - 1, max};
  return rng.bernoulli(0.5) ? edges[rng.uniform(4)] : rng() % max;
}

double pick_time(bsr::graph::Rng& rng) {
  const double edges[] = {0.0, -0.0, 0.1, 1e-300, 1e300, 1.0 / 3.0, 2.5, -1.0};
  return rng.bernoulli(0.5) ? edges[rng.uniform(8)] : rng.uniform01() * 1e4;
}

/// A record time the readers accept: at most 4e12 s either side of zero.
double pick_record_time(bsr::graph::Rng& rng) {
  const double edges[] = {0.0, -0.0, 0.1, 1e-300, 4e12, -4e12, 1.0 / 3.0, 2.5, -1.0};
  return rng.bernoulli(0.5) ? edges[rng.uniform(9)] : rng.uniform01() * 1e4;
}

Journal random_journal(std::uint64_t seed, std::size_t extra = 64,
                       std::size_t min_extra = 0) {
  bsr::graph::Rng rng(seed);
  Journal journal;
  const std::size_t n = kNumEvents + min_extra + rng.uniform(extra);
  for (std::size_t i = 0; i < n; ++i) {
    EventRecord rec;
    rec.time = pick_record_time(rng);
    // The first kNumEvents records cover every event type.
    rec.type = static_cast<Event>(i < kNumEvents ? i : rng.uniform(kNumEvents));
    rec.subject = pick_u64(rng, kMaxU64);
    rec.correlation = pick_u64(rng, kMaxU64);
    rec.seq = i;
    journal.events.push_back(rec);
  }
  journal.dropped = seed % 2 == 0 ? 0 : 1 + rng.uniform(1000);
  journal.recorded = journal.events.size() + journal.dropped;
  return journal;
}

constexpr std::uint64_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();

QtraceSnapshot random_qtrace(std::uint64_t seed, std::size_t extra = 64,
                             std::size_t min_extra = 0) {
  bsr::graph::Rng rng(seed);
  constexpr std::uint64_t kMaxU16 = std::numeric_limits<std::uint16_t>::max();
  QtraceSnapshot snap;
  const std::size_t n = 8 + min_extra + rng.uniform(extra);
  for (std::size_t i = 0; i < n; ++i) {
    QueryTraceRow row;
    row.trace_id = pick_u64(rng, kMaxU64);
    row.time = pick_record_time(rng);
    row.epoch = pick_u64(rng, kMaxU64);
    row.correlation = pick_u64(rng, kMaxU64);
    row.src = static_cast<std::uint32_t>(pick_u64(rng, kMaxU32));
    row.dst = static_cast<std::uint32_t>(pick_u64(rng, kMaxU32));
    row.dist_bound = static_cast<std::uint32_t>(pick_u64(rng, kMaxU32));
    row.stale_behind = pick_u64(rng, kMaxU64);
    row.admit_ticks = static_cast<std::uint16_t>(pick_u64(rng, kMaxU16));
    row.lookup_ticks = static_cast<std::uint16_t>(pick_u64(rng, kMaxU16));
    row.stitch_ticks = static_cast<std::uint16_t>(pick_u64(rng, kMaxU16));
    // Rows 0-7 cover every answer tag with reachable both ways.
    row.status = static_cast<std::uint8_t>(i < 8 ? i % 4 : rng.uniform(4));
    row.reachable = static_cast<std::uint8_t>(i < 8 ? i / 4 : rng.uniform(2));
    snap.rows.push_back(row);
  }
  snap.dropped = seed % 2 == 0 ? 0 : 1 + rng.uniform(1000);
  snap.recorded = snap.rows.size() + snap.dropped;
  return snap;
}

template <class T, class Write>
std::string written(const T& artifact, Write write) {
  std::ostringstream os;
  write(os, artifact);
  return os.str();
}

TEST(ExportReaders, JournalRoundTripsFieldForFieldAndByteForByte) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    const Journal journal = random_journal(seed);
    const std::string text = written(journal, write_events_jsonl);
    std::istringstream in(text);
    const Journal back = read_events_jsonl(in);
    EXPECT_EQ(written(back, write_events_jsonl), text);
    EXPECT_EQ(back.dropped, journal.dropped);
    EXPECT_EQ(back.recorded, journal.recorded);
    ASSERT_EQ(back.events.size(), journal.events.size());
    for (std::size_t i = 0; i < back.events.size(); ++i) {
      const EventRecord& a = journal.events[i];
      const EventRecord& b = back.events[i];
      EXPECT_EQ(b.time, a.time);
      EXPECT_EQ(b.type, a.type);
      EXPECT_EQ(b.subject, a.subject);
      EXPECT_EQ(b.correlation, a.correlation);
      EXPECT_EQ(b.seq, a.seq);
    }
  }
}

TEST(ExportReaders, QtraceRoundTripsFieldForFieldAndByteForByte) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    const QtraceSnapshot snap = random_qtrace(seed);
    const std::string text = written(snap, write_qtrace_jsonl);
    std::istringstream in(text);
    const QtraceSnapshot back = read_qtrace_jsonl(in);
    EXPECT_EQ(written(back, write_qtrace_jsonl), text);
    EXPECT_EQ(back.dropped, snap.dropped);
    EXPECT_EQ(back.recorded, snap.recorded);
    ASSERT_EQ(back.rows.size(), snap.rows.size());
    for (std::size_t i = 0; i < back.rows.size(); ++i) {
      const QueryTraceRow& a = snap.rows[i];
      const QueryTraceRow& b = back.rows[i];
      EXPECT_EQ(b.trace_id, a.trace_id);
      EXPECT_EQ(b.time, a.time);
      EXPECT_EQ(b.epoch, a.epoch);
      EXPECT_EQ(b.correlation, a.correlation);
      EXPECT_EQ(b.src, a.src);
      EXPECT_EQ(b.dst, a.dst);
      EXPECT_EQ(b.dist_bound, a.dist_bound);
      EXPECT_EQ(b.stale_behind, a.stale_behind);
      EXPECT_EQ(b.admit_ticks, a.admit_ticks);
      EXPECT_EQ(b.lookup_ticks, a.lookup_ticks);
      EXPECT_EQ(b.stitch_ticks, a.stitch_ticks);
      EXPECT_EQ(b.status, a.status);
      EXPECT_EQ(b.reachable, a.reachable);
    }
  }
}

// --- every writer against its reference -------------------------------------
// The writers share one chunked to_chars buffer; tests/reference_export.hpp
// keeps the per-part `<<` writers they replaced. Both must agree byte for
// byte on default-locale streams, whatever the input.

/// A time the episode trace writer can turn into microseconds and subtract
/// without overflowing int64 (1e300 would).
double pick_trace_time(bsr::graph::Rng& rng) {
  const double edges[] = {0.0, -0.0, 0.1, 1e-300, 1.0 / 3.0, 2.5, -1.0};
  return rng.bernoulli(0.5) ? edges[rng.uniform(7)] : rng.uniform01() * 1e4;
}

Snapshot random_snapshot(bsr::graph::Rng& rng) {
  Snapshot snap;
  snap.enabled = rng.bernoulli(0.8);
  for (std::uint64_t& c : snap.counters) c = pick_u64(rng, kMaxU64);
  for (std::uint64_t& g : snap.gauges) g = pick_u64(rng, kMaxU64);
  for (auto& buckets : snap.histograms) {
    for (std::uint64_t& b : buckets) {
      b = rng.bernoulli(0.7) ? 0 : pick_u64(rng, kMaxU64);
    }
  }
  return snap;
}

/// Span names: short ones, one that fills most of a chunk and one longer
/// than a chunk.
const char* pick_span_name(bsr::graph::Rng& rng) {
  static const std::string kMost(40'000, 'm');
  static const std::string kLong(150'000, 'l');
  const char* names[] = {"select", "bfs", "", kMost.c_str(), kLong.c_str()};
  return names[rng.bernoulli(0.9) ? rng.uniform(3) : 3 + rng.uniform(2)];
}

std::vector<SpanRecord> random_spans(bsr::graph::Rng& rng, std::size_t n) {
  std::vector<SpanRecord> spans(n);
  for (SpanRecord& span : spans) {
    span.name = pick_span_name(rng);
    span.start_ns = pick_u64(rng, kMaxU64);
    span.duration_ns = pick_u64(rng, kMaxU64);
    span.work_units = pick_u64(rng, kMaxU64);
    for (std::size_t c = 0; c < kNumCounters; ++c) {
      if (rng.bernoulli(0.1)) {
        span.counter_deltas.emplace_back(static_cast<Counter>(c),
                                         pick_u64(rng, kMaxU64));
      }
    }
  }
  return spans;
}

/// Mostly zero deltas, so the journal trace writer's counter tracks vary.
std::vector<SeriesRow> random_series(bsr::graph::Rng& rng, std::size_t n) {
  std::vector<SeriesRow> rows(n);
  for (SeriesRow& row : rows) {
    row.round = pick_u64(rng, kMaxU64);
    row.t_begin = pick_time(rng);
    row.t_end = pick_time(rng);
    for (std::uint64_t& d : row.deltas) {
      d = rng.bernoulli(0.8) ? 0 : pick_u64(rng, kMaxU64);
    }
  }
  return rows;
}

/// Trace-safe open, close and slice times; the phase totals, which only the
/// JSONL writer prints, take every edge value. Most episodes last under 10
/// time units, which keeps the health x serve flow arrows few.
EpisodeReport random_episodes(bsr::graph::Rng& rng, std::size_t n) {
  EpisodeReport report;
  report.journal_dropped = pick_u64(rng, kMaxU64);
  report.qtrace_dropped = pick_u64(rng, kMaxU64);
  report.malformed = pick_u64(rng, kMaxU64);
  report.unattributed = pick_u64(rng, kMaxU64);
  for (std::size_t i = 0; i < n; ++i) {
    Episode& ep = report.episodes.emplace_back();
    ep.kind = rng.bernoulli(0.5) ? EpisodeKind::kHealth : EpisodeKind::kServe;
    ep.id = pick_u64(rng, kMaxU64);
    ep.subject = pick_u64(rng, kMaxU64);
    ep.open_time = pick_trace_time(rng);
    ep.close_time = rng.bernoulli(0.1) ? pick_trace_time(rng)
                                       : ep.open_time + rng.uniform01() * 10;
    ep.closed = rng.bernoulli(0.5);
    ep.truncated = rng.bernoulli(0.5);
    ep.gave_up = rng.bernoulli(0.5);
    for (double& phase : ep.phases) phase = pick_time(rng);
    for (std::uint64_t s = rng.uniform(4); s > 0; --s) {
      const auto phase =
          static_cast<EpisodePhase>(rng.uniform(kNumEpisodePhases));
      ep.slices.push_back({phase, pick_trace_time(rng), pick_trace_time(rng)});
    }
    ep.attempts = static_cast<std::uint32_t>(pick_u64(rng, kMaxU32));
    ep.failures = static_cast<std::uint32_t>(pick_u64(rng, kMaxU32));
    ep.stale_served = pick_u64(rng, kMaxU64);
    ep.shedded = pick_u64(rng, kMaxU64);
    ep.refused = pick_u64(rng, kMaxU64);
  }
  return report;
}

/// Disabled objectives and never-breached ones (first_breach_t = -1) mixed
/// in.
SloReport random_slo(bsr::graph::Rng& rng) {
  SloReport report;
  report.spec.window = pick_time(rng);
  report.spec.long_window = pick_time(rng);
  report.spec.burn_threshold = pick_time(rng);
  report.samples = pick_u64(rng, kMaxU64);
  report.breaches = pick_u64(rng, kMaxU64);
  report.recovers = pick_u64(rng, kMaxU64);
  report.in_breach = rng.bernoulli(0.5);
  for (std::size_t i = 0; i < kNumSloObjectives; ++i) {
    SloObjectiveReport& obj = report.objectives[i];
    obj.name = name(static_cast<SloObjective>(i));
    obj.enabled = rng.bernoulli(0.6);
    obj.target = obj.enabled ? pick_time(rng) : -1.0;
    obj.worst_short_burn = pick_time(rng);
    obj.worst_long_burn = pick_time(rng);
    obj.breach_samples = pick_u64(rng, kMaxU64);
    obj.first_breach_time = rng.bernoulli(0.5) ? -1.0 : pick_time(rng);
  }
  return report;
}

/// One input per writer, drawn from one seed. At scale 1 every record count
/// may be zero; a larger scale puts at least `scale` times the scale-1
/// maximum in each. The qtrace tags run past 3, which prints "unknown".
struct Artifacts {
  Snapshot snap;
  std::vector<SpanRecord> spans;
  Journal journal;
  std::vector<SeriesRow> series;
  QtraceSnapshot qtrace;
  EpisodeReport episodes;
  SloReport slo;
};

Artifacts random_artifacts(std::uint64_t seed, std::size_t scale = 1) {
  bsr::graph::Rng rng(seed * 7919);
  const std::size_t min = scale == 1 ? 0 : scale;
  const auto count = [&](std::size_t max) {
    return max * min + rng.uniform(max * scale + 1);
  };
  Artifacts a;
  a.snap = random_snapshot(rng);
  a.spans = random_spans(rng, count(8));
  a.journal = random_journal(seed, 64 * scale, 64 * min);
  a.series = random_series(rng, count(8));
  a.qtrace = random_qtrace(seed, 64 * scale, 64 * min);
  for (QueryTraceRow& row : a.qtrace.rows) {
    if (rng.bernoulli(0.1)) {
      row.status = static_cast<std::uint8_t>(4 + rng.uniform(252));
    }
  }
  a.episodes = random_episodes(rng, count(8));
  a.slo = random_slo(rng);
  return a;
}

struct WriterPair {
  const char* name;
  std::function<void(std::ostream&, const Artifacts&)> library, reference;
};

/// Every artifact writer beside its reference twin.
const std::vector<WriterPair>& writer_pairs() {
  namespace ref = bsr::test::reference;
  using A = Artifacts;
  static const std::vector<WriterPair> pairs = {
      {"write_json",  //
       [](std::ostream& os, const A& a) { write_json(os, a.snap); },
       [](std::ostream& os, const A& a) { ref::write_json(os, a.snap); }},
      {"write_chrome_trace",
       [](std::ostream& os, const A& a) { write_chrome_trace(os, a.spans); },
       [](std::ostream& os, const A& a) {
         ref::write_chrome_trace(os, a.spans);
       }},
      {"write_events_jsonl",
       [](std::ostream& os, const A& a) { write_events_jsonl(os, a.journal); },
       [](std::ostream& os, const A& a) {
         ref::write_events_jsonl(os, a.journal);
       }},
      {"write_series_csv",
       [](std::ostream& os, const A& a) { write_series_csv(os, a.series); },
       [](std::ostream& os, const A& a) {
         ref::write_series_csv(os, a.series);
       }},
      {"write_journal_chrome_trace",
       [](std::ostream& os, const A& a) {
         write_journal_chrome_trace(os, a.journal, a.series);
       },
       [](std::ostream& os, const A& a) {
         ref::write_journal_chrome_trace(os, a.journal, a.series);
       }},
      {"write_qtrace_jsonl",
       [](std::ostream& os, const A& a) { write_qtrace_jsonl(os, a.qtrace); },
       [](std::ostream& os, const A& a) {
         ref::write_qtrace_jsonl(os, a.qtrace);
       }},
      {"write_episodes_jsonl",
       [](std::ostream& os, const A& a) {
         write_episodes_jsonl(os, a.episodes);
       },
       [](std::ostream& os, const A& a) {
         ref::write_episodes_jsonl(os, a.episodes);
       }},
      {"write_episode_chrome_trace",
       [](std::ostream& os, const A& a) {
         write_episode_chrome_trace(os, a.episodes);
       },
       [](std::ostream& os, const A& a) {
         ref::write_episode_chrome_trace(os, a.episodes);
       }},
      {"write_slo_json",
       [](std::ostream& os, const A& a) { write_slo_json(os, a.slo); },
       [](std::ostream& os, const A& a) { ref::write_slo_json(os, a.slo); }},
  };
  return pairs;
}

TEST(ExportReference, EveryWriterMatchesOnRandomInputs) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE(seed);
    const Artifacts a = random_artifacts(seed);
    for (const WriterPair& w : writer_pairs()) {
      SCOPED_TRACE(w.name);
      EXPECT_EQ(written(a, w.library), written(a, w.reference));
    }
  }
}

TEST(ExportReference, EveryWriterMatchesOnEmptyInputs) {
  const Artifacts a;
  for (const WriterPair& w : writer_pairs()) {
    SCOPED_TRACE(w.name);
    EXPECT_EQ(written(a, w.library), written(a, w.reference));
  }
}

TEST(ExportReference, OutputsPastSeveralChunksMatch) {
  // Well past the writers' 64 KiB chunk, with sizes that differ per seed so
  // the boundaries fall inside different numbers and names.
  constexpr std::size_t kSeveralChunks = 4 * 64 * 1024;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE(seed);
    const Artifacts a = random_artifacts(seed, 100);
    for (const WriterPair& w : writer_pairs()) {
      SCOPED_TRACE(w.name);
      const std::string bytes = written(a, w.library);
      EXPECT_EQ(bytes, written(a, w.reference));
      // The snapshot and the SLO verdict have a fixed number of fields.
      if (std::string_view(w.name) != "write_json" &&
          std::string_view(w.name) != "write_slo_json") {
        EXPECT_GT(bytes.size(), kSeveralChunks);
      }
    }
  }
}

/// Groups digits in threes with ',' and uses ',' as the decimal point.
struct GroupingPunct : std::numpunct<char> {
  char do_thousands_sep() const override { return ','; }
  std::string do_grouping() const override { return "\3"; }
  char do_decimal_point() const override { return ','; }
};

TEST(ExportLocale, GroupingLocaleLeavesEveryWriterInCLocaleBytes) {
  const std::locale grouping(std::locale::classic(), new GroupingPunct);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE(seed);
    const Artifacts a = random_artifacts(seed);
    for (const WriterPair& w : writer_pairs()) {
      SCOPED_TRACE(w.name);
      std::ostringstream os;
      os.imbue(grouping);
      w.library(os, a);
      EXPECT_EQ(os.str(), written(a, w.reference));
    }
  }
}

/// A stream buffer that accepts no byte.
struct RejectingBuf : std::streambuf {
  int_type overflow(int_type) override { return traits_type::eof(); }
  std::streamsize xsputn(const char*, std::streamsize) override { return 0; }
};

TEST(ExportFailure, RejectedWritesLeaveTheStreamFailed) {
  // Small outputs fail at the writer's final flush, large ones at an earlier
  // chunk; either way the writer returns and the stream reports it.
  for (const std::size_t scale : {std::size_t{1}, std::size_t{100}}) {
    SCOPED_TRACE(scale);
    const Artifacts a = random_artifacts(1, scale);
    for (const WriterPair& w : writer_pairs()) {
      SCOPED_TRACE(w.name);
      RejectingBuf buf;
      std::ostream os(&buf);
      EXPECT_NO_THROW(w.library(os, a));
      EXPECT_TRUE(os.bad());
    }
  }
}

// --- corrupt input ----------------------------------------------------------

const std::string kHeader =
    "{\"schema\": \"bsr-events/1\", \"events\": 2, \"dropped\": 0}\n";
const std::string kRec1 =
    "{\"t\": 0.5, \"type\": \"sim.churn.departure\", \"subject\": 17, "
    "\"corr\": 0}\n";
const std::string kRec2 =
    "{\"t\": 2.25, \"type\": \"sim.health.quarantine\", \"subject\": 17, "
    "\"corr\": 3}\n";

const std::string kQHeader =
    "{\"schema\": \"bsr-qtrace/1\", \"rows\": 1, \"dropped\": 0}\n";
const std::string kQRow =
    "{\"id\": 7, \"t\": 1.5, \"epoch\": 2, \"corr\": 3, \"src\": 11, "
    "\"dst\": 13, \"tag\": \"stale_served\", \"reachable\": true, "
    "\"dist\": 4, \"stale\": 1, \"ticks\": {\"admit\": 1, \"lookup\": 9, "
    "\"stitch\": 5}}\n";

std::string with(std::string text, const std::string& from,
                 const std::string& to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  return text.replace(at, from.size(), to);
}

struct Corrupt {
  const char* what;
  std::string text;
  int line;
  bool qtrace = false;
};

TEST(ExportReaders, ValidFixturesRead) {
  std::istringstream journal(kHeader + kRec1 + kRec2);
  EXPECT_EQ(read_events_jsonl(journal).events.size(), 2u);
  std::istringstream qtrace(kQHeader + kQRow);
  EXPECT_EQ(read_qtrace_jsonl(qtrace).rows.size(), 1u);
}

TEST(ExportReaders, CorruptInputThrowsNamingTheLine) {
  const std::string journal = kHeader + kRec1 + kRec2;
  const std::vector<Corrupt> cases = {
      // header problems
      {"missing header", "", 1},
      {"wrong schema", with(journal, "bsr-events/1", "bsr-events/2"), 1},
      {"foreign schema", kQHeader + kQRow, 1},
      {"negative drop count", with(journal, "\"dropped\": 0", "\"dropped\": -1"), 1},
      // count mismatch
      {"short of the header's count", kHeader + kRec1, 3},
      {"past the header's count",
       with(journal, "\"events\": 2", "\"events\": 1"), 3},
      // broken lines
      {"line cut mid-object", kHeader + kRec1 + kRec2.substr(0, 20), 3},
      {"line cut mid-object, newline kept",
       kHeader + kRec1.substr(0, 20) + "\n" + kRec2, 2},
      {"last newline cut", journal.substr(0, journal.size() - 1), 3},
      {"trailing bytes", kHeader + kRec1 + with(kRec2, "}\n", "} x\n"), 3},
      {"empty line", kHeader + kRec1 + "\n" + kRec2, 3},
      // bad numbers
      {"negative integer", with(journal, "\"subject\": 17", "\"subject\": -7"), 2},
      {"u64 overflow",
       with(journal, "\"subject\": 17", "\"subject\": 18446744073709551616"), 2},
      {"junk after a number", with(journal, "\"t\": 0.5", "\"t\": 1xyz"), 2},
      {"nan time", with(journal, "\"t\": 0.5", "\"t\": nan"), 2},
      {"infinite time", with(journal, "\"t\": 2.25", "\"t\": inf"), 3},
      {"negative infinite time", with(journal, "\"t\": 0.5", "\"t\": -inf"), 2},
      {"time past the trace range", with(journal, "\"t\": 0.5", "\"t\": 1e300"), 2},
      {"negative time past the trace range",
       with(journal, "\"t\": 2.25", "\"t\": -4.5e12"), 3},
      {"nan qtrace time",
       kQHeader + with(kQRow, "\"t\": 1.5", "\"t\": nan"), 2, true},
      {"infinite qtrace time",
       kQHeader + with(kQRow, "\"t\": 1.5", "\"t\": infinity"), 2, true},
      {"qtrace time past the trace range",
       kQHeader + with(kQRow, "\"t\": 1.5", "\"t\": 1e13"), 2, true},
      {"tick over 65535",
       kQHeader + with(kQRow, "\"admit\": 1", "\"admit\": 65536"), 2, true},
      {"u32 overflow",
       kQHeader + with(kQRow, "\"src\": 11", "\"src\": 4294967296"), 2, true},
      // bad names
      {"unknown event name",
       with(journal, "sim.churn.departure", "sim.churn.nope"), 2},
      {"unknown tag", kQHeader + with(kQRow, "stale_served", "stale"), 2, true},
      {"bad boolean",
       kQHeader + with(kQRow, "\"reachable\": true", "\"reachable\": yes"), 2,
       true},
      {"qtrace short of the header's count", kQHeader, 2, true},
  };
  for (const Corrupt& c : cases) {
    SCOPED_TRACE(c.what);
    std::istringstream in(c.text);
    try {
      if (c.qtrace) {
        (void)read_qtrace_jsonl(in);
      } else {
        (void)read_events_jsonl(in);
      }
      ADD_FAILURE() << "accepted";
    } catch (const std::runtime_error& error) {
      EXPECT_EQ(std::string(error.what())
                    .rfind("line " + std::to_string(c.line) + ": ", 0),
                0u)
          << error.what();
    }
  }
}

// --- golden trace bytes -----------------------------------------------------
// Each trace writer's bytes over fixed inputs, so a change to the emitter
// they share cannot move any writer's output unnoticed.

std::vector<SpanRecord> fixed_spans() {
  std::vector<SpanRecord> spans(2);
  spans[0].name = "select";
  spans[0].start_ns = 1'500'000;
  spans[0].duration_ns = 2'750'999;
  spans[0].work_units = 42;
  spans[0].counter_deltas = {{Counter::kEngineBfsRuns, 7},
                             {Counter::kEngineUniteEdgeScans, 1}};
  spans[1].name = "bfs";
  spans[1].parent = 0;
  spans[1].depth = 1;
  spans[1].start_ns = 1'600'500;
  spans[1].duration_ns = 999;
  return spans;
}

Journal fixed_journal() {
  Journal journal;
  journal.events = {{0.25, Event::kChurnDeparture, 6, 0, 0},
                    {1.0000005, Event::kHealthQuarantine, 6, 1, 1},
                    {2.5, Event::kRouteServiceBatch, std::uint64_t{1} << 40, 3, 2}};
  journal.recorded = 3;
  return journal;
}

std::vector<SeriesRow> fixed_series() {
  std::vector<SeriesRow> rows(2);
  rows[0] = {0, 0.0, 1.0, {}};
  rows[1] = {1, 1.0, 2.0, {}};
  rows[0].deltas[0] = 5;
  rows[1].deltas[4] = 9;
  return rows;
}

EpisodeReport fixed_episodes() {
  EpisodeReport report;
  Episode health;
  health.kind = EpisodeKind::kHealth;
  health.id = 3;
  health.subject = 17;
  health.open_time = 1.0;
  health.close_time = 4.5;
  health.closed = true;
  health.attempts = 2;
  health.failures = 1;
  health.slices = {{EpisodePhase::kDetect, 1.0, 2.25},
                   {EpisodePhase::kQueue, 2.25, 4.5}};
  Episode serve;
  serve.kind = EpisodeKind::kServe;
  serve.id = 9;
  serve.subject = 2;
  serve.open_time = 2.0;
  serve.close_time = 6.0000004;
  serve.truncated = true;
  serve.stale_served = 11;
  serve.shedded = 1;
  serve.refused = 2;
  serve.slices = {{EpisodePhase::kReact, 2.0, 6.0000004}};
  Episode late = serve;
  late.id = 10;
  late.open_time = 5.0;
  late.slices.clear();
  report.episodes = {health, serve, late};
  return report;
}

TEST(ExportTraceGolden, SpanTrace) {
  std::ostringstream os;
  write_chrome_trace(os, fixed_spans());
  EXPECT_EQ(os.str(),
      "{\"traceEvents\": [\n"
      "  {\"name\": \"select\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": 1500, \"dur\": 2750, \"args\": {\"work_units\": 42, \"engine.bfs.runs\": 7, \"engine.unite.edge_scans\": 1}},\n"
      "  {\"name\": \"bfs\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": 1600, \"dur\": 0, \"args\": {\"work_units\": 0}}\n"
      "], \"displayTimeUnit\": \"ms\"}\n");
  std::ostringstream empty;
  write_chrome_trace(empty, {});
  EXPECT_EQ(empty.str(),
      "{\"traceEvents\": [\n"
      "], \"displayTimeUnit\": \"ms\"}\n");
}

TEST(ExportTraceGolden, JournalTrace) {
  std::ostringstream os;
  const std::vector<SeriesRow> rows = fixed_series();
  write_journal_chrome_trace(os, fixed_journal(), rows);
  EXPECT_EQ(os.str(),
      "{\"traceEvents\": [\n"
      "  {\"name\": \"sim.churn.departure\", \"ph\": \"i\", \"s\": \"t\", \"pid\": 1, \"tid\": 1, \"ts\": 250000, \"args\": {\"subject\": 6, \"corr\": 0, \"seq\": 0}},\n"
      "  {\"name\": \"sim.health.quarantine\", \"ph\": \"i\", \"s\": \"t\", \"pid\": 1, \"tid\": 1, \"ts\": 1000001, \"args\": {\"subject\": 6, \"corr\": 1, \"seq\": 1}},\n"
      "  {\"name\": \"sim.route_service.batch\", \"ph\": \"i\", \"s\": \"t\", \"pid\": 1, \"tid\": 1, \"ts\": 2500000, \"args\": {\"subject\": 1099511627776, \"corr\": 3, \"seq\": 2}},\n"
      "  {\"name\": \"engine.bfs.runs\", \"ph\": \"C\", \"pid\": 1, \"ts\": 0, \"args\": {\"delta\": 5}},\n"
      "  {\"name\": \"engine.bfs.runs\", \"ph\": \"C\", \"pid\": 1, \"ts\": 1000000, \"args\": {\"delta\": 0}},\n"
      "  {\"name\": \"engine.unite.edge_scans\", \"ph\": \"C\", \"pid\": 1, \"ts\": 0, \"args\": {\"delta\": 0}},\n"
      "  {\"name\": \"engine.unite.edge_scans\", \"ph\": \"C\", \"pid\": 1, \"ts\": 1000000, \"args\": {\"delta\": 9}}\n"
      "], \"displayTimeUnit\": \"ms\"}\n");
  std::ostringstream empty;
  write_journal_chrome_trace(empty, Journal{}, {});
  EXPECT_EQ(empty.str(),
      "{\"traceEvents\": [\n"
      "], \"displayTimeUnit\": \"ms\"}\n");
}

TEST(ExportTraceGolden, EpisodeTraceClampsTimesPastTheRange) {
  // Times the readers reject can still reach the writer from memory: they
  // clamp to +-4e12 s (NaN to 0) before any microsecond arithmetic, so a
  // duration spanning the whole range still fits int64_t.
  EpisodeReport report;
  Episode& ep = report.episodes.emplace_back();
  ep.kind = EpisodeKind::kServe;
  ep.open_time = -1e300;
  ep.close_time = 1e300;
  ep.slices = {{EpisodePhase::kReact, std::nan(""), 5e12}};
  std::ostringstream os;
  write_episode_chrome_trace(os, report);
  const std::string trace = os.str();
  EXPECT_NE(trace.find("\"ts\": -4000000000000000000, \"dur\": 8000000000000000000"),
            std::string::npos) << trace;
  EXPECT_NE(trace.find("\"ts\": 0, \"dur\": 4000000000000000000"), std::string::npos)
      << trace;
}

TEST(ExportTraceGolden, EpisodeTrace) {
  std::ostringstream os;
  write_episode_chrome_trace(os, fixed_episodes());
  EXPECT_EQ(os.str(),
      "{\"traceEvents\": [\n"
      "  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, \"args\": {\"name\": \"health plane\"}},\n"
      "  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 2, \"args\": {\"name\": \"serve plane\"}},\n"
      "  {\"name\": \"episode health#3\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": 1000000, \"dur\": 3500000, \"args\": {\"subject\": 17, \"closed\": true, \"truncated\": false, \"attempts\": 2, \"failures\": 1, \"stale_served\": 0, \"shedded\": 0, \"refused\": 0}},\n"
      "  {\"name\": \"detect\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": 1000000, \"dur\": 1250000, \"args\": {\"kind\": \"health\", \"id\": 3}},\n"
      "  {\"name\": \"queue\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": 2250000, \"dur\": 2250000, \"args\": {\"kind\": \"health\", \"id\": 3}},\n"
      "  {\"name\": \"episode serve#9\", \"ph\": \"X\", \"pid\": 1, \"tid\": 2, \"ts\": 2000000, \"dur\": 4000000, \"args\": {\"subject\": 2, \"closed\": false, \"truncated\": true, \"attempts\": 0, \"failures\": 0, \"stale_served\": 11, \"shedded\": 1, \"refused\": 2}},\n"
      "  {\"name\": \"react\", \"ph\": \"X\", \"pid\": 1, \"tid\": 2, \"ts\": 2000000, \"dur\": 4000000, \"args\": {\"kind\": \"serve\", \"id\": 9}},\n"
      "  {\"name\": \"episode serve#10\", \"ph\": \"X\", \"pid\": 1, \"tid\": 2, \"ts\": 5000000, \"dur\": 1000000, \"args\": {\"subject\": 2, \"closed\": false, \"truncated\": true, \"attempts\": 0, \"failures\": 0, \"stale_served\": 11, \"shedded\": 1, \"refused\": 2}},\n"
      "  {\"name\": \"episode\", \"cat\": \"episode\", \"ph\": \"s\", \"id\": 1, \"pid\": 1, \"tid\": 1, \"ts\": 2000000},\n"
      "  {\"name\": \"episode\", \"cat\": \"episode\", \"ph\": \"f\", \"bp\": \"e\", \"id\": 1, \"pid\": 1, \"tid\": 2, \"ts\": 2000000}\n"
      "], \"displayTimeUnit\": \"ms\"}\n");
  std::ostringstream empty;
  write_episode_chrome_trace(empty, EpisodeReport{});
  EXPECT_EQ(empty.str(),
      "{\"traceEvents\": [\n"
      "  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, \"args\": {\"name\": \"health plane\"}},\n"
      "  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 2, \"args\": {\"name\": \"serve plane\"}}\n"
      "], \"displayTimeUnit\": \"ms\"}\n");
}

}  // namespace
}  // namespace bsr::obs
