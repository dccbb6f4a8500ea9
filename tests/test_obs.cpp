#include "obs/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "broker/maxsg.hpp"
#include "broker/mcbg_approx.hpp"
#include "graph/distance_histogram.hpp"
#include "graph/engine.hpp"
#include "graph/rng.hpp"
#include "graph/rollback_union_find.hpp"
#include "graph/sampling.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "test_util.hpp"

namespace bsr::obs {
namespace {

using bsr::graph::CsrGraph;
using bsr::graph::NodeId;
using bsr::test::make_connected_random;

namespace engine = bsr::graph::engine;

/// Restores thread count and tracing state even if a test fails mid-way.
struct ObsTestGuard {
  ObsTestGuard() {
    engine::set_num_threads(0);
    set_tracing(false);
    (void)drain_trace();
    reset();
  }
  ~ObsTestGuard() {
    engine::set_num_threads(0);
    set_tracing(false);
    clear_trace();
    reset();
  }
};

TEST(ObsRegistry, BucketOfIsPowerOfTwoLog) {
  EXPECT_EQ(bucket_of(0), 0u);
  EXPECT_EQ(bucket_of(1), 1u);
  EXPECT_EQ(bucket_of(2), 2u);
  EXPECT_EQ(bucket_of(3), 2u);
  EXPECT_EQ(bucket_of(4), 3u);
  EXPECT_EQ(bucket_of(7), 3u);
  EXPECT_EQ(bucket_of(8), 4u);
  EXPECT_EQ(bucket_of(std::uint64_t{1} << 62), 63u);
  // The top bucket saturates: even all-ones must stay in range.
  EXPECT_EQ(bucket_of(~std::uint64_t{0}), kHistogramBuckets - 1);
}

// bucket_of against the shift loop it replaced, at 0, at every 2^k - 1 and
// 2^k, and at the top of the range.
TEST(ObsRegistry, BucketOfMatchesShiftLoop) {
  const auto shift_loop = [](std::uint64_t value) {
    std::size_t b = 0;
    while (value != 0) {
      value >>= 1;
      ++b;
    }
    return b < kHistogramBuckets ? b : kHistogramBuckets - 1;
  };
  std::vector<std::uint64_t> values = {0, 1, std::uint64_t{1} << 62,
                                       std::uint64_t{1} << 63, ~std::uint64_t{0}};
  for (int k = 1; k < 64; ++k) {
    values.push_back((std::uint64_t{1} << k) - 1);
    values.push_back(std::uint64_t{1} << k);
  }
  for (const std::uint64_t v : values) {
    EXPECT_EQ(bucket_of(v), shift_loop(v)) << v;
  }
  static_assert(bucket_of(~std::uint64_t{0}) == kHistogramBuckets - 1);
  static_assert(bucket_of(0) == 0 && bucket_of(5) == 3);
}

TEST(ObsRegistry, NamesAreUniqueAndFollowConvention) {
  std::set<std::string_view> seen;
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    const auto n = name(static_cast<Counter>(i));
    EXPECT_FALSE(n.empty());
    EXPECT_NE(n.find('.'), std::string_view::npos) << n;
    EXPECT_TRUE(seen.insert(n).second) << "duplicate counter name " << n;
  }
  for (std::size_t i = 0; i < kNumGauges; ++i) {
    EXPECT_TRUE(seen.insert(name(static_cast<Gauge>(i))).second);
  }
  for (std::size_t i = 0; i < kNumHistograms; ++i) {
    EXPECT_TRUE(seen.insert(name(static_cast<Histogram>(i))).second);
  }
}

TEST(ObsRegistry, CountersAccumulateResetAndDelta) {
  if (!BSR_STATS_ENABLED) GTEST_SKIP() << "built with BSR_STATS=OFF";
  ObsTestGuard guard;

  BSR_COUNT(EngineBfsRuns);
  BSR_COUNT_N(EngineBfsEdgesScanned, 40);
  BSR_GAUGE_MAX(EngineWorkspaceHighWater, 7);
  BSR_GAUGE_MAX(EngineWorkspaceHighWater, 3);  // below the high water: ignored
  BSR_HISTO(RouterHops, 5);

  const Snapshot first = snapshot();
  EXPECT_EQ(first.counter(Counter::kEngineBfsRuns), 1u);
  EXPECT_EQ(first.counter(Counter::kEngineBfsEdgesScanned), 40u);
  EXPECT_EQ(first.gauge(Gauge::kEngineWorkspaceHighWater), 7u);
  EXPECT_EQ(first.histogram_total(Histogram::kRouterHops), 1u);
  EXPECT_EQ(first.histograms[static_cast<std::size_t>(Histogram::kRouterHops)]
                            [bucket_of(5)],
            1u);

  BSR_COUNT_N(EngineBfsEdgesScanned, 2);
  const Snapshot second = snapshot();
  const Snapshot diff = delta(first, second);
  EXPECT_EQ(diff.counter(Counter::kEngineBfsEdgesScanned), 2u);
  EXPECT_EQ(diff.counter(Counter::kEngineBfsRuns), 0u);
  // Gauges carry the `after` value — a high-water mark has no delta.
  EXPECT_EQ(diff.gauge(Gauge::kEngineWorkspaceHighWater), 7u);
  EXPECT_EQ(diff.histogram_total(Histogram::kRouterHops), 0u);

  reset();
  const Snapshot cleared = snapshot();
  for (std::size_t i = 0; i < kNumCounters; ++i) EXPECT_EQ(cleared.counters[i], 0u);
  EXPECT_EQ(cleared.gauge(Gauge::kEngineWorkspaceHighWater), 0u);
  EXPECT_EQ(cleared.histogram_total(Histogram::kRouterHops), 0u);
}

TEST(ObsRegistry, WorkUnitsSumOnlyWorkFlaggedCounters) {
  if (!BSR_STATS_ENABLED) GTEST_SKIP() << "built with BSR_STATS=OFF";
  ObsTestGuard guard;

  ASSERT_TRUE(is_work_unit(Counter::kEngineBfsEdgesScanned));
  ASSERT_FALSE(is_work_unit(Counter::kEngineBfsRuns));
  BSR_COUNT_N(EngineBfsEdgesScanned, 11);
  BSR_COUNT_N(EngineBfsRuns, 100);  // not a work unit: must not contribute
  EXPECT_EQ(work_units(snapshot()), 11u);
}

TEST(ObsRegistry, FusedUfFindUpdatesAllThreeSlots) {
  if (!BSR_STATS_ENABLED) GTEST_SKIP() << "built with BSR_STATS=OFF";
  ObsTestGuard guard;

  BSR_UF_FIND(0);
  BSR_UF_FIND(3);
  const Snapshot snap = snapshot();
  EXPECT_EQ(snap.counter(Counter::kUfFinds), 2u);
  EXPECT_EQ(snap.counter(Counter::kUfFindSteps), 3u);
  EXPECT_EQ(snap.histogram_total(Histogram::kUfFindDepth), 2u);
  EXPECT_EQ(snap.histograms[static_cast<std::size_t>(Histogram::kUfFindDepth)]
                           [bucket_of(0)],
            1u);
  EXPECT_EQ(snap.histograms[static_cast<std::size_t>(Histogram::kUfFindDepth)]
                           [bucket_of(3)],
            1u);
}

// The acceptance-critical determinism property: the same work produces the
// same snapshot at any BSR_THREADS value, because every counter records
// algorithm-order events and merges are commutative.
TEST(ObsRegistry, SnapshotsInvariantUnderThreadCount) {
  if (!BSR_STATS_ENABLED) GTEST_SKIP() << "built with BSR_STATS=OFF";
  ObsTestGuard guard;

  const CsrGraph g = make_connected_random(400, 0.02, 7);
  bsr::graph::Rng rng(99);
  const auto sources = bsr::graph::sample_distinct(rng, g.num_vertices(), 64);

  engine::set_num_threads(1);
  reset();
  const auto cdf_serial = bsr::graph::distance_cdf_from_sources(g, sources);
  const Snapshot serial = snapshot();

  engine::set_num_threads(4);
  reset();
  const auto cdf_parallel = bsr::graph::distance_cdf_from_sources(g, sources);
  const Snapshot parallel = snapshot();

  EXPECT_EQ(cdf_serial.cdf, cdf_parallel.cdf);  // engine contract, re-checked
  EXPECT_EQ(serial.counters, parallel.counters);
  EXPECT_EQ(serial.gauges, parallel.gauges);
  EXPECT_EQ(serial.histograms, parallel.histograms);
  EXPECT_GT(serial.counter(Counter::kEngineBfsRuns), 0u);
  // One shard batch per for_each_shard call — not one per worker spawned.
  EXPECT_EQ(serial.counter(Counter::kEngineShardBatches), 1u);
  EXPECT_EQ(parallel.counter(Counter::kEngineShardBatches), 1u);
}

// Counters are write-only from the algorithms' perspective: re-running the
// same selection under a dirty vs freshly-reset registry changes nothing,
// and the counter deltas themselves are reproducible.
TEST(ObsRegistry, StatsNeverPerturbResults) {
  ObsTestGuard guard;

  const CsrGraph g = make_connected_random(300, 0.03, 11);
  const auto first = bsr::broker::maxsg(g, 12);
  const Snapshot after_first = snapshot();
  const auto second = bsr::broker::maxsg(g, 12);
  const Snapshot after_second = snapshot();

  EXPECT_TRUE(std::ranges::equal(first.brokers.members(),
                                 second.brokers.members()));
  EXPECT_EQ(first.component_curve, second.component_curve);
  if (BSR_STATS_ENABLED) {
    const Snapshot run2 = delta(after_first, after_second);
    EXPECT_GT(run2.counter(Counter::kMaxsgRounds), 0u);
    // Identical work both runs: the delta of run 2 equals run 1's totals.
    EXPECT_EQ(run2.counters, after_first.counters);
  }
}

TEST(ObsTrace, TreeIsWellNestedInPreorder) {
  ObsTestGuard guard;
  set_tracing(true);
  {
    Span root("root");
    { Span child("child_a"); }
    { Span child("child_b"); }
  }
  set_tracing(false);
  const auto spans = drain_trace();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_STREQ(spans[0].name, "root");
  EXPECT_STREQ(spans[1].name, "child_a");
  EXPECT_STREQ(spans[2].name, "child_b");
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 0);
  EXPECT_EQ(spans[0].depth, 0u);
  EXPECT_EQ(spans[1].depth, 1u);
  EXPECT_EQ(spans[2].depth, 1u);
  EXPECT_GE(spans[0].duration_ns, spans[1].duration_ns);
  EXPECT_GE(spans[0].duration_ns, spans[2].duration_ns);
}

TEST(ObsTrace, EarlyReturnStillClosesSpan) {
  ObsTestGuard guard;
  set_tracing(true);
  const auto traced = [](bool bail) -> int {
    Span span("early_return");
    if (bail) return 1;
    return 0;
  };
  EXPECT_EQ(traced(true), 1);
  set_tracing(false);
  const auto spans = drain_trace();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "early_return");
  EXPECT_EQ(spans[0].parent, -1);
}

TEST(ObsTrace, ExceptionUnwindStillClosesSpans) {
  ObsTestGuard guard;
  set_tracing(true);
  try {
    Span outer("outer");
    Span inner("inner");
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  // A library span interrupted by its own argument validation: mcbg_approx
  // opens its span before throwing on an empty graph.
  try {
    (void)bsr::broker::mcbg_approx(CsrGraph(), 4);
  } catch (const std::invalid_argument&) {
  }
  set_tracing(false);
  const auto spans = drain_trace();
#if BSR_STATS_ENABLED
  ASSERT_EQ(spans.size(), 3u);  // outer, inner + the library's broker.mcbg
#else
  ASSERT_EQ(spans.size(), 2u);  // BSR_SPAN sites compile away
#endif
  EXPECT_STREQ(spans[0].name, "outer");
  EXPECT_STREQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].parent, 0);
  // After the unwind the tracer accepts new well-formed spans.
  set_tracing(true);
  { Span again("again"); }
  set_tracing(false);
  const auto after = drain_trace();
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].parent, -1);
  EXPECT_EQ(after[0].depth, 0u);
}

TEST(ObsTrace, CapturesCounterDeltasAndWorkUnits) {
  if (!BSR_STATS_ENABLED) GTEST_SKIP() << "built with BSR_STATS=OFF";
  ObsTestGuard guard;
  set_tracing(true);
  {
    Span span("worked");
    BSR_COUNT_N(EngineBfsEdgesScanned, 9);
    BSR_COUNT(EngineBfsRuns);
  }
  set_tracing(false);
  const auto spans = drain_trace();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].work_units, 9u);
  ASSERT_EQ(spans[0].counter_deltas.size(), 2u);
  EXPECT_EQ(spans[0].counter_deltas[0].first, Counter::kEngineBfsRuns);
  EXPECT_EQ(spans[0].counter_deltas[0].second, 1u);
  EXPECT_EQ(spans[0].counter_deltas[1].first, Counter::kEngineBfsEdgesScanned);
  EXPECT_EQ(spans[0].counter_deltas[1].second, 9u);
}

TEST(ObsTrace, RecordsNothingWhileTracingOff) {
  ObsTestGuard guard;
  ASSERT_FALSE(tracing_enabled());
  { Span span("invisible"); }
  EXPECT_TRUE(drain_trace().empty());
}

TEST(ObsExport, JsonCarriesSchemaVersionAndEverySlot) {
  ObsTestGuard guard;
  BSR_COUNT_N(MaxsgGainEvals, 5);
  std::ostringstream os;
  write_json(os, snapshot());
  const std::string json = os.str();
  EXPECT_NE(json.find("\"obs_schema_version\": 1"), std::string::npos);
  // Every slot appears, moved or not — consumers never probe for keys.
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    EXPECT_NE(json.find(std::string(name(static_cast<Counter>(i)))),
              std::string::npos);
  }
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  if (BSR_STATS_ENABLED) {
    EXPECT_NE(json.find("\"broker.maxsg.gain_evals\": 5"), std::string::npos);
  }
}

TEST(ObsExport, PrettyDumpShowsOnlyActiveSlots) {
  if (!BSR_STATS_ENABLED) GTEST_SKIP() << "built with BSR_STATS=OFF";
  ObsTestGuard guard;
  BSR_COUNT_N(HealthProbesSent, 17);
  std::ostringstream os;
  dump_pretty(os, snapshot());
  const std::string text = os.str();
  EXPECT_NE(text.find("sim.health.probes_sent"), std::string::npos);
  EXPECT_NE(text.find("17"), std::string::npos);
  EXPECT_EQ(text.find("engine.bfs.runs"), std::string::npos);  // zero: skipped
}

TEST(ObsExport, ChromeTraceEmitsCompleteEvents) {
  ObsTestGuard guard;
  set_tracing(true);
  {
    Span root("chrome_root");
    { Span child("chrome_child"); }
  }
  set_tracing(false);
  const auto spans = drain_trace();
  std::ostringstream os;
  write_chrome_trace(os, spans);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"chrome_root\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
}

// Round-trips the trace through a real JSON parse: the file must be valid
// JSON (Perfetto rejects almost-JSON), and the span tree's nesting must
// survive the flattening into [ts, ts+dur) complete events.
TEST(ObsExport, ChromeTraceRoundTripPreservesNesting) {
  ObsTestGuard guard;
  set_tracing(true);
  {
    Span root("rt_root");
    { Span child("rt_child_a"); }
    { Span child("rt_child_b"); }
  }
  set_tracing(false);
  std::ostringstream os;
  write_chrome_trace(os, drain_trace());
  const bsr::test::JsonValue trace = bsr::test::parse_json(os.str());
  const bsr::test::JsonValue* events = trace.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, bsr::test::JsonValue::Kind::kArray);
  const auto by_name = [&](std::string_view name) -> const bsr::test::JsonValue& {
    for (const auto& e : events->array) {
      if (e.find("name") != nullptr && e.find("name")->string == name) return e;
    }
    ADD_FAILURE() << "no trace event named " << name;
    return events->array.front();
  };
  const auto& root = by_name("rt_root");
  const auto& child_a = by_name("rt_child_a");
  const auto& child_b = by_name("rt_child_b");
  for (const auto* e : {&root, &child_a, &child_b}) {
    EXPECT_EQ(e->find("ph")->string, "X");
    ASSERT_NE(e->find("ts"), nullptr);
    ASSERT_NE(e->find("dur"), nullptr);
  }
  // Both children's [ts, ts+dur) intervals nest inside the root's, and the
  // siblings run in program order. ts and dur are rounded to µs
  // independently, so containment only holds up to 1µs of slack per rounded
  // quantity.
  constexpr double kSlackUs = 2.0;
  const double root_end = root.find("ts")->number + root.find("dur")->number;
  for (const auto* child : {&child_a, &child_b}) {
    EXPECT_GE(child->find("ts")->number, root.find("ts")->number - kSlackUs);
    EXPECT_LE(child->find("ts")->number + child->find("dur")->number,
              root_end + kSlackUs);
  }
  EXPECT_LE(child_a.find("ts")->number + child_a.find("dur")->number,
            child_b.find("ts")->number + child_b.find("dur")->number + kSlackUs);
}

}  // namespace
}  // namespace bsr::obs
