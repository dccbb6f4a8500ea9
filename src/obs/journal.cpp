#include "obs/journal.hpp"

#include <algorithm>
#include <array>
#include <iostream>
#include <ostream>
#include <stdexcept>
#include <tuple>

#include "graph/check.hpp"
#include "obs/timeseries.hpp"

namespace bsr::obs {

namespace {

/// How many trailing records the BSR_DCHECK hook dumps before the abort.
constexpr std::size_t kBlackBoxTail = 32;

// Recording is single-threaded by contract (journal.hpp rule 3): only the
// simulation event loops emit, and those never run concurrently with each
// other or with the engine's worker shards. One plain global, no locks.
struct Recorder {
  std::vector<EventRecord> ring;  // sized to capacity while recording
  std::size_t capacity = 0;
  std::uint64_t recorded = 0;
  double clock = 0.0;
  double high_water = 0.0;
  bool enabled = false;
  IntervalSampler sampler;
};

Recorder& recorder() noexcept {
  static Recorder r;
  return r;
}

void black_box_dump() {
  std::cerr << "obs journal: flight-recorder tail at DCHECK failure\n";
  dump_journal_tail(std::cerr, kBlackBoxTail);
}

}  // namespace

std::string_view name(Event e) noexcept {
  return kEventNames[static_cast<std::size_t>(e)];
}

void start_recording(const JournalOptions& options) {
  if (options.capacity == 0) {
    throw std::invalid_argument("start_recording: capacity must be > 0");
  }
  if (options.series_interval < 0.0) {
    throw std::invalid_argument("start_recording: series_interval must be >= 0");
  }
  Recorder& r = recorder();
  r.ring.assign(options.capacity, EventRecord{});
  r.capacity = options.capacity;
  r.recorded = 0;
  r.clock = 0.0;
  r.high_water = 0.0;
  r.sampler = IntervalSampler{};
  if (options.series_interval > 0.0) {
    r.sampler.begin(0.0, options.series_interval);
  }
  r.enabled = true;
  bsr::dcheck_failure_hook() = &black_box_dump;
}

void stop_recording() {
  Recorder& r = recorder();
  if (!r.enabled) return;
  r.enabled = false;
  r.sampler.finish(r.high_water);
  if (bsr::dcheck_failure_hook() == &black_box_dump) {
    bsr::dcheck_failure_hook() = nullptr;
  }
}

bool recording_enabled() noexcept { return recorder().enabled; }

void journal_set_time(double now) noexcept {
  Recorder& r = recorder();
  if (!r.enabled) return;
  r.clock = now;
  if (now > r.high_water) {
    r.high_water = now;
    r.sampler.advance(now);
  }
}

double journal_time() noexcept { return recorder().clock; }

void journal_event(Event e, double time, std::uint64_t subject,
                   std::uint64_t correlation) noexcept {
  Recorder& r = recorder();
  if (!r.enabled) return;
  r.ring[static_cast<std::size_t>(r.recorded % r.capacity)] =
      EventRecord{time, e, subject, correlation, r.recorded};
  ++r.recorded;
}

void journal_event_now(Event e, std::uint64_t subject,
                       std::uint64_t correlation) noexcept {
  journal_event(e, recorder().clock, subject, correlation);
}

namespace {

/// Surviving records in program (seq) order, oldest first.
std::vector<EventRecord> program_order() {
  const Recorder& r = recorder();
  std::vector<EventRecord> out;
  if (r.capacity == 0 || r.recorded == 0) return out;
  const std::uint64_t live = std::min<std::uint64_t>(r.recorded, r.capacity);
  out.reserve(static_cast<std::size_t>(live));
  const std::uint64_t oldest = r.recorded - live;
  for (std::uint64_t s = oldest; s < r.recorded; ++s) {
    out.push_back(r.ring[static_cast<std::size_t>(s % r.capacity)]);
  }
  return out;
}

}  // namespace

Journal snapshot_journal() {
  const Recorder& r = recorder();
  Journal j;
  j.events = program_order();
  j.recorded = r.recorded;
  const std::uint64_t live = std::min<std::uint64_t>(r.recorded, r.capacity);
  j.dropped = r.recorded - live;
  // The deterministic export key. Program order (seq) is the final tie-break
  // so the sort is a total order and the output byte-stable.
  std::sort(j.events.begin(), j.events.end(),
            [](const EventRecord& a, const EventRecord& b) {
              return std::tie(a.time, a.type, a.subject, a.seq) <
                     std::tie(b.time, b.type, b.subject, b.seq);
            });
  return j;
}

void dump_journal_tail(std::ostream& os, std::size_t max_events) {
  const Recorder& r = recorder();
  const std::vector<EventRecord> events = program_order();
  const std::size_t skip =
      events.size() > max_events ? events.size() - max_events : 0;
  os << "journal: " << r.recorded << " recorded, "
     << (r.recorded - events.size()) << " dropped, showing last "
     << (events.size() - skip) << "\n";
  for (std::size_t i = skip; i < events.size(); ++i) {
    const EventRecord& rec = events[i];
    os << "  [" << rec.seq << "] t=" << rec.time << " " << name(rec.type)
       << " subject=" << rec.subject << " corr=" << rec.correlation << "\n";
  }
}

const std::vector<SeriesRow>& journal_series() noexcept {
  return recorder().sampler.rows();
}

}  // namespace bsr::obs
