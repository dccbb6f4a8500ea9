// Query tracer: the bounded ring (eviction drops the lowest trace ids, ids
// follow record order), lifecycle edge cases, the exported JSONL shape, and
// thread-count invariance of the rows RouteService emits.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "broker/broker_set.hpp"
#include "graph/engine.hpp"
#include "graph/fault_plane.hpp"
#include "graph/rng.hpp"
#include "obs/export.hpp"
#include "obs/qtrace.hpp"
#include "sim/route_service.hpp"
#include "test_util.hpp"

namespace {

using bsr::obs::QtraceOptions;
using bsr::obs::QtraceSnapshot;
using bsr::obs::QueryTraceRow;

QueryTraceRow row_with_id(std::uint64_t id) {
  QueryTraceRow row;
  row.trace_id = id;
  row.src = static_cast<std::uint32_t>(id * 3);
  row.dst = static_cast<std::uint32_t>(id * 3 + 1);
  return row;
}

TEST(Qtrace, StartRejectsZeroCapacity) {
  QtraceOptions options;
  options.capacity = 0;
  EXPECT_THROW(bsr::obs::start_query_trace(options),
               std::invalid_argument);
  EXPECT_FALSE(bsr::obs::query_trace_enabled());
}

TEST(Qtrace, RecordIsANoOpWhileDisabled) {
  bsr::obs::stop_query_trace();
  bsr::obs::qtrace_record(row_with_id(42));
  const QtraceSnapshot snap = bsr::obs::snapshot_query_trace();
  EXPECT_EQ(snap.recorded, 0u);
  EXPECT_TRUE(snap.rows.empty());
}

TEST(Qtrace, RingKeepsTheNewestCapacityRows) {
  QtraceOptions options;
  options.capacity = 8;
  bsr::obs::start_query_trace(options);
  for (std::uint64_t i = 0; i < 20; ++i) {
    QueryTraceRow row = row_with_id(i);
    row.trace_id = 1000 + i;  // the tracer assigns ids itself
    bsr::obs::qtrace_record(row);
  }
  bsr::obs::stop_query_trace();

  const QtraceSnapshot snap = bsr::obs::snapshot_query_trace();
  EXPECT_EQ(snap.recorded, 20u);
  EXPECT_EQ(snap.dropped, 12u);
  ASSERT_EQ(snap.rows.size(), 8u);
  for (std::size_t i = 0; i < snap.rows.size(); ++i) {
    EXPECT_EQ(snap.rows[i].trace_id, 12u + i);  // ids 12..19, ascending
    // The payload travelled with its row through the wrap.
    EXPECT_EQ(snap.rows[i].src, (12u + i) * 3);
    EXPECT_EQ(snap.rows[i].dst, (12u + i) * 3 + 1);
  }
}

TEST(Qtrace, FullRingWithoutEvictionKeepsEveryRow) {
  QtraceOptions options;
  options.capacity = 4;
  bsr::obs::start_query_trace(options);
  for (std::uint64_t i = 0; i < 4; ++i) bsr::obs::qtrace_record(row_with_id(i));
  bsr::obs::stop_query_trace();
  const QtraceSnapshot snap = bsr::obs::snapshot_query_trace();
  EXPECT_EQ(snap.dropped, 0u);
  ASSERT_EQ(snap.rows.size(), 4u);
  for (std::size_t i = 0; i < snap.rows.size(); ++i) {
    EXPECT_EQ(snap.rows[i].trace_id, i);
    EXPECT_EQ(snap.rows[i].src, i * 3);
  }
}

// qtrace_record_batch leaves the ring exactly as one qtrace_record per row
// would: the same ids, payloads, counts and JSONL bytes after every batch.
// Batches shorter than, as long as and longer than a 7-row ring start at
// several head offsets, so runs wrap once, wrap twice and evict their own
// first rows.
TEST(Qtrace, BatchAppendMatchesOneByOneRecording) {
  QtraceOptions options;
  options.capacity = 7;
  const std::vector<std::size_t> batches = {1, 7, 10, 32, 0, 1, 10, 7, 32, 1};
  const auto run = [&](bool batched) {
    bsr::obs::start_query_trace(options);
    std::vector<std::string> exported;
    std::vector<QtraceSnapshot> snapshots;
    std::uint64_t payload = 0;
    for (const std::size_t size : batches) {
      std::vector<QueryTraceRow> rows;
      for (std::size_t i = 0; i < size; ++i) {
        rows.push_back(row_with_id(payload++));
        rows.back().trace_id = 5000;  // the tracer assigns ids itself
      }
      if (batched) {
        bsr::obs::qtrace_record_batch(rows);
      } else {
        for (const QueryTraceRow& row : rows) bsr::obs::qtrace_record(row);
      }
      snapshots.push_back(bsr::obs::snapshot_query_trace());
      std::ostringstream os;
      bsr::obs::write_qtrace_jsonl(os, snapshots.back());
      exported.push_back(os.str());
    }
    bsr::obs::stop_query_trace();
    return std::make_pair(snapshots, exported);
  };
  const auto [one_by_one, one_by_one_bytes] = run(false);
  const auto [batched, batched_bytes] = run(true);
  ASSERT_EQ(batched.size(), batches.size());
  for (std::size_t b = 0; b < batches.size(); ++b) {
    SCOPED_TRACE("after batch " + std::to_string(b));
    EXPECT_EQ(batched[b].recorded, one_by_one[b].recorded);
    EXPECT_EQ(batched[b].dropped, one_by_one[b].dropped);
    ASSERT_EQ(batched[b].rows.size(), one_by_one[b].rows.size());
    for (std::size_t i = 0; i < batched[b].rows.size(); ++i) {
      EXPECT_EQ(batched[b].rows[i].trace_id, one_by_one[b].rows[i].trace_id);
      EXPECT_EQ(batched[b].rows[i].src, one_by_one[b].rows[i].src);
      EXPECT_EQ(batched[b].rows[i].dst, one_by_one[b].rows[i].dst);
    }
    EXPECT_EQ(batched_bytes[b], one_by_one_bytes[b]);
  }
  EXPECT_EQ(batched.back().recorded, 101u);
  EXPECT_EQ(batched.back().rows.front().trace_id, 94u);

  bsr::obs::qtrace_record_batch(std::vector<QueryTraceRow>(3));  // tracing is off
  EXPECT_EQ(bsr::obs::snapshot_query_trace().recorded, 101u);
}

TEST(Qtrace, RestartResetsRingsAndIdAllocator) {
  bsr::obs::start_query_trace();
  bsr::obs::qtrace_record(row_with_id(0));
  bsr::obs::qtrace_record(row_with_id(1));
  bsr::obs::start_query_trace();  // restart: previous rows gone, ids rewind
  bsr::obs::qtrace_record(row_with_id(2));
  bsr::obs::stop_query_trace();
  const QtraceSnapshot snap = bsr::obs::snapshot_query_trace();
  EXPECT_EQ(snap.recorded, 1u);
  ASSERT_EQ(snap.rows.size(), 1u);
  EXPECT_EQ(snap.rows[0].trace_id, 0u);
  EXPECT_EQ(snap.rows[0].src, 6u);
}

// --- export golden -----------------------------------------------------------

TEST(QtraceExport, JsonlMatchesTheSchemaByteForByte) {
  QtraceSnapshot snap;
  snap.recorded = 3;
  snap.dropped = 1;
  QueryTraceRow row;
  row.trace_id = 7;
  row.time = 1.5;
  row.epoch = 2;
  row.correlation = 3;
  row.src = 11;
  row.dst = 13;
  row.dist_bound = 4;
  row.stale_behind = 1;
  row.admit_ticks = 1;
  row.lookup_ticks = 9;
  row.stitch_ticks = 5;
  row.status = 1;  // stale_served
  row.reachable = 1;
  snap.rows.push_back(row);
  row.trace_id = 8;
  row.status = 3;  // refused
  row.reachable = 0;
  snap.rows.push_back(row);

  std::ostringstream os;
  bsr::obs::write_qtrace_jsonl(os, snap);
  EXPECT_EQ(
      os.str(),
      "{\"schema\": \"bsr-qtrace/1\", \"rows\": 2, \"dropped\": 1}\n"
      "{\"id\": 7, \"t\": 1.5, \"epoch\": 2, \"corr\": 3, \"src\": 11, "
      "\"dst\": 13, \"tag\": \"stale_served\", \"reachable\": true, "
      "\"dist\": 4, \"stale\": 1, \"ticks\": {\"admit\": 1, \"lookup\": 9, "
      "\"stitch\": 5}}\n"
      "{\"id\": 8, \"t\": 1.5, \"epoch\": 2, \"corr\": 3, \"src\": 11, "
      "\"dst\": 13, \"tag\": \"refused\", \"reachable\": false, "
      "\"dist\": 4, \"stale\": 1, \"ticks\": {\"admit\": 1, \"lookup\": 9, "
      "\"stitch\": 5}}\n");
}

// --- thread-count invariance -------------------------------------------------

/// FNV-1a over the exported bytes.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

// The exported qtrace stream must be byte-identical at any BSR_THREADS:
// rows are recorded on the control thread in query order, so ids and
// eviction follow program order. This is the property the CI serve job
// `cmp`s. Batches, single query() calls and shedding interleave, and the
// bytes are pinned to a value captured before the serve path was folded
// into one, so a change that moves them at every thread count fails too.
TEST(QtraceThreads, RouteServiceTraceIsThreadCountInvariant) {
  if (!BSR_STATS_ENABLED) GTEST_SKIP() << "built with BSR_STATS=OFF";
  const bsr::graph::CsrGraph g = bsr::test::make_connected_random(300, 0.02, 17);
  std::vector<bsr::graph::NodeId> members;
  for (bsr::graph::NodeId v = 0; v < 30; ++v) members.push_back(v * 9);
  const bsr::broker::BrokerSet brokers(g.num_vertices(), members);

  bsr::sim::DemandConfig demand;
  demand.num_flows = 400;
  bsr::graph::Rng rng(3);
  const auto flows = bsr::sim::generate_flows(g, demand, rng);
  constexpr std::size_t kSingles = 24;  // query() calls after each batch

  const auto run_traced = [&]() -> std::string {
    QtraceOptions options;
    options.capacity = 512;  // smaller than total rows: eviction is exercised
    bsr::obs::start_query_trace(options);
    bsr::graph::FaultPlane faults(g);
    bsr::sim::RouteServiceConfig config;
    config.admit_rate = 600.0;  // sheds part of every batch
    bsr::sim::RouteService service(g, brokers, &faults, config);
    std::vector<bsr::sim::RouteAnswer> answers;
    const auto singles = [&](double now) {
      for (std::size_t i = 0; i < kSingles; ++i) {
        (void)service.query(flows[i].src, flows[i].dst, now);
      }
    };
    service.serve_batch(flows, 0.0, answers);
    singles(0.25);
    faults.fail_vertex(members[0]);
    service.on_fault(1.0);
    service.serve_batch(flows, 1.5, answers);  // stale epoch, correlation set
    singles(1.5);
    while (service.next_event_time() <= 1e9) {
      service.advance(service.next_event_time());
    }
    service.serve_batch(flows, 50.0, answers);
    singles(50.0);
    bsr::obs::stop_query_trace();
    std::ostringstream os;
    bsr::obs::write_qtrace_jsonl(os, bsr::obs::snapshot_query_trace());
    return os.str();
  };

  bsr::graph::engine::set_num_threads(1);
  const std::string t1 = run_traced();
  bsr::graph::engine::set_num_threads(4);
  const std::string t4 = run_traced();
  bsr::graph::engine::set_num_threads(7);
  const std::string t7 = run_traced();
  bsr::graph::engine::set_num_threads(0);

  EXPECT_EQ(t1, t4);
  EXPECT_EQ(t1, t7);
  EXPECT_EQ(fnv1a(t1), 0x4658a5b7448ae39bULL) << std::hex << fnv1a(t1);
  // The run recorded more rows than the ring holds, and the kept rows mix
  // shed and served answers.
  const QtraceSnapshot snap = bsr::obs::snapshot_query_trace();
  EXPECT_EQ(snap.recorded, 3u * (400u + kSingles));
  EXPECT_GT(snap.dropped, 0u);
  ASSERT_EQ(snap.rows.size(), 512u);
  const auto count_tag = [&](bsr::sim::AnswerStatus status) {
    return std::count_if(snap.rows.begin(), snap.rows.end(),
                         [&](const QueryTraceRow& row) {
                           return row.status == static_cast<std::uint8_t>(status);
                         });
  };
  EXPECT_GT(count_tag(bsr::sim::AnswerStatus::kShedded), 0);
  EXPECT_GT(count_tag(bsr::sim::AnswerStatus::kFresh), 0);
}

}  // namespace
