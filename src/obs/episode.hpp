// Causal episode reconstruction: fault-lifecycle stitching and critical-path
// latency decomposition over the flight-recorder journal.
//
// The journal (journal.hpp) records *events*; the qtrace ring (qtrace.hpp)
// records *answers*. Neither answers the operator question "for episode 17,
// how much of the 4.2 s of exposure was detection lag vs rebuild backoff vs
// rebuild execution, and which queries did it hurt?". The reconstructor here
// folds one pass over a journal snapshot (plus an optional qtrace snapshot)
// into per-episode causal records, one state machine per correlation id:
//
//   * `health` episodes follow one broker's failure lifecycle through the
//     HealthMonitor correlation id: churn fault (if stitchable) ->
//     pending probe misses -> suspect -> quarantine (repair attempts ride
//     along) -> probation -> recover.
//   * `serve` episodes follow one degradation of the route-serving oracle,
//     keyed by the truth version the opening degrade carried: churn fault ->
//     degrade -> rebuild attempt chain (start / crash / discard / give-up,
//     each retry separated by its backoff wait) -> epoch publish.
//
// Each episode's simulated-time exposure [open, close] is partitioned into
// named phases by label switching: every boundary event closes the interval
// since the previous boundary under the current label and switches labels.
// The partition is exact by construction — phase durations are accumulated
// from the same endpoints the span is computed from, and the closing step
// folds any floating-point residual into the largest phase — so
// `phase_total() == span()` holds bit-exactly (test-enforced).
//
//   phase     health meaning                    serve meaning
//   -------   -------------------------------   ---------------------------
//   detect    fault fired -> suspect declared   fault fired -> degrade
//   react     suspect dwell (miss accrual)      degrade -> first rebuild start
//   queue     quarantine dwell incl. reprobe    backoff waits between rebuild
//             backoff and repair attempts       attempts (and give-up dwell)
//   exec      (structurally 0: repairs are      rebuild execution intervals
//             instantaneous in the repair plane)
//   drain     probation hysteresis dwell        (structurally 0: a publish
//                                               restores freshness atomically
//                                               in the single-vantage oracle;
//                                               reserved for multi-vantage
//                                               convergence)
//
// Degraded answers attribute to serve episodes through the qtrace
// correlation id: a non-fresh row whose time falls inside [open, close] and
// whose correlation (the truth version the epoch lagged behind) is at or
// past the episode's opening truth version counts toward the episode.
//
// Truncation vs malformation: a ring that dropped records evicts oldest
// first, so an episode whose opener was evicted surfaces as a mid-chain
// orphan event. When the journal reports drops, orphans open *truncated*
// episodes (flagged, never trusted for phase sums); when it reports none,
// an orphan is a producer contract violation and counts as `malformed`.
//
// Reconstruction runs on single-threaded control paths and is deterministic:
// the journal snapshot is already in export order, so the same snapshot
// yields the same report byte-for-byte at any BSR_THREADS value. The module
// stays linkable under BSR_STATS=OFF (journals are plain data); only the
// counter/sketch side effects inside compile away.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "obs/journal.hpp"
#include "obs/qtrace.hpp"

namespace bsr::obs {

/// Version tag of the exported JSONL episode schema (the first line of every
/// episode file names it). Bump on breaking changes to record layout or
/// phase semantics.
inline constexpr std::string_view kEpisodeSchema = "bsr-episodes/1";

enum class EpisodeKind : std::uint8_t { kHealth, kServe };

[[nodiscard]] std::string_view to_string(EpisodeKind kind) noexcept;

/// Critical-path phase labels, in canonical (causal) order.
enum class EpisodePhase : std::uint8_t {
  kDetect,
  kReact,
  kQueue,
  kExec,
  kDrain,
  kCount
};

inline constexpr std::size_t kNumEpisodePhases =
    static_cast<std::size_t>(EpisodePhase::kCount);

[[nodiscard]] std::string_view to_string(EpisodePhase phase) noexcept;

/// One contiguous interval of an episode spent under one phase label, in
/// journal order. Slices partition [open_time, close_time] exactly; the
/// Perfetto exporter renders them as the episode's track.
struct PhaseSlice {
  EpisodePhase phase = EpisodePhase::kDetect;
  double begin = 0.0;
  double end = 0.0;
};

/// One reconstructed fault episode.
struct Episode {
  EpisodeKind kind = EpisodeKind::kHealth;
  /// health: the HealthMonitor failure-episode correlation id.
  /// serve: the truth version carried by the opening degrade. For truncated
  /// episodes (opener evicted) this is the correlation of the first
  /// surviving event.
  std::uint64_t id = 0;
  /// health: the broker vertex. serve: the serving epoch at open.
  std::uint64_t subject = 0;
  double open_time = 0.0;
  double close_time = 0.0;
  /// False when the journal ended before the terminal event; close_time is
  /// then the journal horizon (time of the last record).
  bool closed = false;
  /// True when the episode's opener was evicted by the ring: phase sums
  /// cover only the surviving suffix.
  bool truncated = false;

  /// Exposure per phase, indexed by EpisodePhase. Sums exactly to span().
  std::array<double, kNumEpisodePhases> phases{};
  /// The exact label-switching partition of [open_time, close_time]
  /// (zero-length intervals omitted). Not serialized to JSONL.
  std::vector<PhaseSlice> slices;

  /// serve: rebuild starts. health: repair attempts during quarantine.
  std::uint32_t attempts = 0;
  /// serve: rebuild crashes + stale discards. health: repair attempts that
  /// recruited no standby.
  std::uint32_t failures = 0;
  /// serve only: the scheduler exhausted its budget during the episode.
  bool gave_up = false;

  /// Degraded answers attributed from the qtrace snapshot (serve only).
  std::uint64_t stale_served = 0;
  std::uint64_t shedded = 0;
  std::uint64_t refused = 0;

  [[nodiscard]] double span() const noexcept { return close_time - open_time; }
  [[nodiscard]] double phase_total() const noexcept {
    double total = 0.0;
    for (const double d : phases) total += d;
    return total;
  }
};

struct EpisodeReport {
  /// Sorted by (open_time, kind, id) — deterministic for a fixed journal.
  std::vector<Episode> episodes;
  std::uint64_t journal_dropped = 0;
  std::uint64_t qtrace_dropped = 0;
  /// Lifecycle-contract violations observed with a drop-free journal:
  /// reopened correlation ids, events after a terminal, orphan mid-chain
  /// events. Always 0 for journals produced by the current sim libraries.
  std::uint64_t malformed = 0;
  /// Non-fresh qtrace rows carrying an episode correlation that no
  /// reconstructed serve episode claimed (e.g. rows outside every window).
  std::uint64_t unattributed = 0;

  [[nodiscard]] bool truncated() const noexcept {
    return journal_dropped != 0 || qtrace_dropped != 0;
  }
};

/// Folds one journal snapshot (and optionally a qtrace snapshot for
/// degraded-answer attribution) into the episode report. Pure with respect
/// to its inputs; as side effects it bumps the obs.episode.* counters and
/// feeds closed episodes' phase durations (in milli-time-units) into the
/// obs.episode.* sketch slots — both compiled out under BSR_STATS=OFF.
[[nodiscard]] EpisodeReport episodes_from_journal(
    const Journal& journal, const QtraceSnapshot* qtrace = nullptr);

}  // namespace bsr::obs
