#include "obs/qtrace.hpp"

#include <algorithm>
#include <stdexcept>

namespace bsr::obs {

namespace {

/// The wrap-around ring, owned by the control thread. `head` is the next
/// write position (always recorded % capacity); kept explicitly so the
/// record path wraps with a compare instead of a 64-bit divide.
struct Tracer {
  std::vector<QueryTraceRow> rows;
  std::uint64_t recorded = 0;
  std::size_t head = 0;
  bool enabled = false;
};

Tracer& tracer() noexcept {
  static Tracer t;
  return t;
}

}  // namespace

void start_query_trace(const QtraceOptions& options) {
  if (options.capacity == 0) {
    throw std::invalid_argument("start_query_trace: capacity must be > 0");
  }
  Tracer& t = tracer();
  t.rows.assign(options.capacity, QueryTraceRow{});
  t.recorded = 0;
  t.head = 0;
  t.enabled = true;
}

void stop_query_trace() { tracer().enabled = false; }

bool query_trace_enabled() noexcept { return tracer().enabled; }

void qtrace_record(const QueryTraceRow& row) noexcept {
  Tracer& t = tracer();
  if (!t.enabled) return;
  QueryTraceRow& slot = t.rows[t.head];
  slot = row;
  slot.trace_id = t.recorded++;
  if (++t.head == t.rows.size()) t.head = 0;
}

void qtrace_record_batch(std::span<const QueryTraceRow> rows) noexcept {
  Tracer& t = tracer();
  if (!t.enabled) return;
  const std::size_t capacity = t.rows.size();
  while (!rows.empty()) {
    // One run up to the ring's end, then wrap.
    const std::size_t run = std::min(rows.size(), capacity - t.head);
    QueryTraceRow* slot = t.rows.data() + t.head;
    for (std::size_t i = 0; i < run; ++i) {
      slot[i] = rows[i];
      slot[i].trace_id = t.recorded++;
    }
    t.head += run;
    if (t.head == capacity) t.head = 0;
    rows = rows.subspan(run);
  }
}

QtraceSnapshot snapshot_query_trace() {
  const Tracer& t = tracer();
  QtraceSnapshot snap;
  snap.recorded = t.recorded;
  const auto head = t.rows.begin() + static_cast<std::ptrdiff_t>(t.head);
  if (t.recorded >= t.rows.size()) {
    // Full: the oldest surviving row sits at the write position.
    snap.rows.assign(head, t.rows.end());
    snap.rows.insert(snap.rows.end(), t.rows.begin(), head);
  } else {
    snap.rows.assign(t.rows.begin(), head);
  }
  snap.dropped = snap.recorded - snap.rows.size();
  return snap;
}

}  // namespace bsr::obs
