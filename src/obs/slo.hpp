// Declarative SLO monitor with multi-window burn rates, off the journal
// clock.
//
// The route-serving plane promises: answers are mostly fresh, cheap at the
// tail, never too stale, rarely refused. An SloSpec states those promises
// as objectives; an SloMonitor consumes per-batch SloSamples on the
// *simulated* clock and evaluates every objective over two sliding windows
// (a short one that reacts, a long one that filters flaps — the classic
// multi-window burn-rate scheme). An objective breaches only when BOTH
// windows burn past the threshold, so one bad round inside an otherwise
// healthy hour does not page, and a sustained degradation does.
//
// Burn rate = (observed badness) / (budgeted badness), so 1.0 means
// "consuming exactly the error budget":
//   fresh_min     fraction objective — burn = (1 - fresh_frac) / (1 - target)
//                 over fresh + stale_served + refused answers (shedded
//                 answers were never admitted, so they spend no budget).
//   refusal_max   fraction objective — burn = refused_frac / target over all
//                 answers.
//   p99_max       bound objective — burn = worst windowed p99 ticks / bound.
//   stale_max     bound objective — burn = worst windowed staleness / bound.
//
// Samples arrive in time order, so each window slides: it keeps integer
// running sums of the tallies and monotone queues for the two maxima, and
// observe() costs O(1) amortized however many samples a window spans. The
// aggregates are the same integers a re-scan of the window would give, so
// no burn rate, and no verdict byte, depends on the bookkeeping.
//
// Everything is deterministic: samples come from the journal's packed
// sim.route_service.batch / batch_cost events (slo_samples_from_journal) or
// from the live service's per-round stat deltas — identical values either
// way — so the live `brokerctl serve --slo` verdict and the offline
// `brokerctl slo events.jsonl` verdict agree byte for byte. Breach/recover
// transitions are journaled (slo.monitor.* events) and counted; under
// BSR_STATS=OFF those sites compile away but the monitor itself stays fully
// functional (it is plain arithmetic over its inputs).
#pragma once

#include <cstdint>
#include <deque>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/journal.hpp"

namespace bsr::obs {

/// Version tag of the machine-readable verdict JSON (export.hpp's
/// write_slo_json names it in the top-level "slo_schema" key).
inline constexpr std::string_view kSloSchema = "bsr-slo/1";

/// Declarative objectives. Negative target = objective disabled; a spec
/// with every objective disabled is invalid (parse_slo_spec throws).
struct SloSpec {
  double window = 5.0;        ///< short (paging) window, simulated time, > 0
  double long_window = 30.0;  ///< long (filtering) window, >= window
  double burn_threshold = 1.0;///< breach when BOTH windows burn >= this, > 0
  double fresh_min = -1.0;    ///< min fresh fraction, in (0, 1)
  double refusal_max = -1.0;  ///< max refused fraction, in (0, 1]
  double p99_ticks_max = -1.0;///< max windowed p99 query ticks, >= 1
  double stale_max = -1.0;    ///< max events-behind staleness, >= 1
};

/// Parses "key=value[,key=value...]" (',' or ';' separated; spaces allowed
/// around tokens). Keys: fresh_min, refusal_max, p99_max, stale_max,
/// window, long_window, burn (burn_threshold). A key left out keeps its
/// SloSpec default, so an objective left out is off. Every key named must
/// hold a finite value in its range (see the SloSpec field docs; the ranges
/// keep every burn rate finite): a negative target is an error, not "off".
/// Throws std::invalid_argument naming the key on an unknown key, a key
/// given twice, a malformed or out-of-range value; and on long_window <
/// window or a spec that enables no objective at all.
[[nodiscard]] SloSpec parse_slo_spec(std::string_view text);

/// One evaluation sample: the answer-tag tallies and deterministic tick
/// costs of one serve_batch round, stamped with simulated time. Matches the
/// packing of the sim.route_service.batch / batch_cost journal events.
struct SloSample {
  double time = 0.0;
  std::uint64_t fresh = 0;
  std::uint64_t stale_served = 0;
  std::uint64_t shedded = 0;
  std::uint64_t refused = 0;
  std::uint64_t staleness = 0;  ///< truth events the serving epoch is behind
  std::uint64_t p99_ticks = 0;  ///< batch p99 of per-query total ticks
  std::uint64_t max_ticks = 0;  ///< batch max of per-query total ticks
};

/// Objectives in declaration order; the journal breach-event subject is a
/// bitmask over these indices.
enum class SloObjective : std::uint8_t {
  kFreshFraction = 0,
  kRefusalRate = 1,
  kP99Ticks = 2,
  kStaleness = 3,
  kCount
};

inline constexpr std::size_t kNumSloObjectives =
    static_cast<std::size_t>(SloObjective::kCount);

[[nodiscard]] std::string_view name(SloObjective o) noexcept;

struct SloObjectiveReport {
  std::string_view name;        ///< name(SloObjective)
  bool enabled = false;
  double target = -1.0;
  double worst_short_burn = 0.0;
  double worst_long_burn = 0.0;
  std::uint64_t breach_samples = 0;  ///< samples at which this objective breached
  double first_breach_time = -1.0;   ///< -1 = never breached
};

struct SloReport {
  SloSpec spec;
  std::uint64_t samples = 0;
  std::uint64_t breaches = 0;  ///< breach episodes entered
  std::uint64_t recovers = 0;  ///< breach episodes exited
  bool in_breach = false;      ///< episode still open at the last sample
  SloObjectiveReport objectives[kNumSloObjectives];
  /// The verdict `brokerctl serve --slo` / `brokerctl slo` exit on.
  [[nodiscard]] bool ok() const noexcept { return breaches == 0; }
};

class SloMonitor {
 public:
  /// Same validation as parse_slo_spec; throws std::invalid_argument.
  explicit SloMonitor(const SloSpec& spec);

  /// Feeds one sample in O(1) amortized time. Samples must arrive in
  /// non-decreasing time order, and no time may be NaN (throws
  /// std::invalid_argument otherwise). Emits slo.monitor.* journal events
  /// and counters on breach/recover transitions.
  void observe(const SloSample& sample);

  [[nodiscard]] bool in_breach() const noexcept { return report_.in_breach; }
  [[nodiscard]] const SloReport& report() const noexcept { return report_; }

 private:
  /// Sliding maximum of one sample field: (sequence number, value) pairs
  /// with strictly decreasing values, so the front is the window's maximum.
  using MaxQueue = std::deque<std::pair<std::uint64_t, std::uint64_t>>;

  /// One trailing window [now - width, now]. Times arrive in order, so its
  /// samples are a suffix of the long window's: integer running sums plus
  /// the two maxima, each sample entering and leaving once.
  struct Window {
    std::uint64_t begin = 0;  ///< sequence number of its oldest sample
    std::uint64_t fresh = 0, stale_served = 0, shedded = 0, refused = 0;
    MaxQueue staleness, p99;
  };

  /// Admits sample number `seq`, then evicts what fell out of `width`.
  void slide(Window& w, double width, std::uint64_t seq, const SloSample& sample);

  SloSpec spec_;
  std::deque<SloSample> window_;  // the long window's samples, newest last
  std::uint64_t window_begin_ = 0;  // sequence number of window_.front()
  Window short_, long_;
  SloReport report_;
};

/// Rebuilds the monitor's input from a recorded journal: every
/// sim.route_service.batch / batch_cost event pair becomes one SloSample.
/// Events sharing one timestamp (e.g. single-query batches served at the
/// same instant) merge into one sample — tallies sum, costs and staleness
/// take the max — so the result is identical however the same queries were
/// batched into journal events. Assumes the ring dropped nothing.
[[nodiscard]] std::vector<SloSample> slo_samples_from_journal(const Journal& journal);

}  // namespace bsr::obs
