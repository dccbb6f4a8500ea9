// Simulation flight recorder: a bounded ring-buffer event journal.
//
// The counter registry (stats.hpp) answers "how much work happened"; it
// cannot answer "what happened, in what order, to whom". The journal fills
// that gap for the simulated control plane: every churn departure, link
// flap, probe outcome, detector transition, view publication, repair step
// and routing verdict is one fixed-size record — simulated time, event
// type, subject vertex/edge, and a correlation id that links a
// probe -> suspect -> quarantine -> repair chain end to end. Record cheap,
// analyze offline: the ring costs a bounds-checked store per event while
// recording, and exporters (export.hpp) turn a drained journal into a
// versioned JSONL stream, a per-round counter time series, or a Chrome
// trace_event file that loads in Perfetto.
//
// Design rules, mirroring stats.hpp:
//   1. OFF builds cost nothing. Every BSR_EVENT / BSR_EVENT_NOW /
//      BSR_EVENT_TIME site compiles to an empty statement under
//      BSR_STATS=OFF; hot libraries reference zero obs symbols.
//   2. Recording is a runtime switch on top of the compile gate. With
//      recording off a site costs one predictable-branch bool load; nothing
//      allocates.
//   3. Output is deterministic at any BSR_THREADS. Events are only ever
//      recorded from the (single-threaded) simulation event loops — engine
//      worker shards never emit events — and exporters order records by the
//      deterministic key (simulated time, event slot, subject id), so a
//      fixed seed produces a byte-identical journal at any thread count.
//
// The event-type table is a fixed-slot X-macro like the counter tables: to
// add an event, append one X(EnumId, "layer.component.event") line and the
// enum and name table stay in sync by construction.
//
// When a BSR_DCHECK fires while recording is on, the journal dumps its most
// recent events to stderr before aborting — the flight recorder's black-box
// role (see start_recording / graph/check.hpp's failure hook).
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <vector>

#include "obs/stats.hpp"

namespace bsr::obs {

/// Version tag of the exported JSONL event schema (the first line of every
/// journal file names it). Bump on breaking changes to record layout or
/// event semantics.
inline constexpr std::string_view kEventSchema = "bsr-events/1";

// --- fixed-slot event-type table --------------------------------------------
// X(EnumId, "layer.component.event")
// Subject conventions: broker/vertex events carry the vertex id; link-group
// events carry the group's center vertex; view events carry the view
// version; router verdicts pack (src << 32) | dst. Correlation conventions:
// sim.health.* / sim.repair.* carry the failure-episode id
// (HealthTransition::episode; 0 = none); graph.fault.* carry the count of
// edges that actually transitioned; selection.robust.pick carries the
// worst-case surviving pair count after the pick; selection.robust.exposed
// carries the number of connected pairs the departure severed (absorbed
// departures severed none, so their correlation is 0);
// sim.route_service.* carry the serving epoch id as subject — rebuild
// lifecycle events (rebuild_start/crash/discard/give_up and the
// epoch_publish that ends a successful attempt) carry the rebuild-attempt
// id as correlation so one attempt chain links end to end, while
// degrade/patch carry the truth version that triggered them;
// sim.route_service.batch packs the answer-tag tallies of one serve_batch
// call — subject = (fresh << 32) | stale_served, correlation =
// (shedded << 32) | refused — and sim.route_service.batch_cost packs its
// deterministic tick costs — subject = (p99_ticks << 32) | max_ticks,
// correlation = stale events behind the truth at batch time (the SLO
// monitor's staleness signal); slo.monitor.breach / slo.monitor.recover
// carry the bitmask of breached objectives (bit i = objective i in
// slo.hpp's declaration order) as subject and the worst burn rate in
// percent (rounded) as correlation; everything else 0.
//
// These correlation chains are load-bearing: the episode reconstructor
// (episode.hpp) stitches sim.health.* / sim.repair.* records into health
// episodes by failure-episode id and degrade -> rebuild-attempt ->
// epoch_publish records into serve episodes, and expects every id to form a
// well-formed lifecycle — opened once, monotone timestamps, exactly one
// terminal (recover / publish / give-up) — which the producers enforce with
// BSR_DCHECKs and the route-service fuzz pins.

#define BSR_OBS_EVENT_TABLE(X)                            \
  X(ChurnDeparture, "sim.churn.departure")                \
  X(ChurnReturn, "sim.churn.return")                      \
  X(ChurnLinkOutage, "sim.churn.link_outage")             \
  X(ChurnLinkHeal, "sim.churn.link_heal")                 \
  X(ChurnRepair, "sim.churn.repair")                      \
  X(HealthProbeOk, "sim.health.probe_ok")                 \
  X(HealthProbeMiss, "sim.health.probe_miss")             \
  X(HealthSuspect, "sim.health.suspect")                  \
  X(HealthQuarantine, "sim.health.quarantine")            \
  X(HealthProbation, "sim.health.probation")              \
  X(HealthRecover, "sim.health.recover")                  \
  X(HealthViewPublish, "sim.health.view_publish")         \
  X(RepairRequest, "sim.repair.request")                  \
  X(RepairAttempt, "sim.repair.attempt")                  \
  X(RepairRecruit, "sim.repair.recruit")                  \
  X(RouteOk, "sim.router.ok")                             \
  X(RouteMisrouted, "sim.router.misrouted")               \
  X(RouteShunned, "sim.router.shunned")                   \
  X(RouteUnreachable, "sim.router.unreachable")           \
  X(FaultGroupFail, "graph.fault.group_fail")             \
  X(FaultGroupHeal, "graph.fault.group_heal")             \
  X(SelectionRobustPick, "selection.robust.pick")         \
  X(SelectionRobustAbsorbed, "selection.robust.absorbed") \
  X(SelectionRobustExposed, "selection.robust.exposed")   \
  X(RouteServiceDegrade, "sim.route_service.degrade")     \
  X(RouteServicePatch, "sim.route_service.patch")         \
  X(RouteServiceRebuildStart, "sim.route_service.rebuild_start") \
  X(RouteServiceRebuildCrash, "sim.route_service.rebuild_crash") \
  X(RouteServiceRebuildDiscard, "sim.route_service.rebuild_discard") \
  X(RouteServiceRebuildGiveUp, "sim.route_service.rebuild_give_up") \
  X(RouteServiceEpochPublish, "sim.route_service.epoch_publish") \
  X(RouteServiceBatch, "sim.route_service.batch")         \
  X(RouteServiceBatchCost, "sim.route_service.batch_cost") \
  X(SloBreach, "slo.monitor.breach")                      \
  X(SloRecover, "slo.monitor.recover")

enum class Event : std::uint16_t {
#define BSR_OBS_X(id, name) k##id,
  BSR_OBS_EVENT_TABLE(BSR_OBS_X)
#undef BSR_OBS_X
      kCount
};

inline constexpr std::size_t kNumEvents = static_cast<std::size_t>(Event::kCount);

/// Event names by slot: name(e) and the bsr-events/1 reader look them up here.
inline constexpr std::array<std::string_view, kNumEvents> kEventNames = {
#define BSR_OBS_X(id, name) name,
    BSR_OBS_EVENT_TABLE(BSR_OBS_X)
#undef BSR_OBS_X
};

[[nodiscard]] std::string_view name(Event e) noexcept;

/// One journal record. `seq` is the program-order sequence number on the
/// recording thread — the final, stable tie-break after the deterministic
/// (time, type, subject) export key.
struct EventRecord {
  double time = 0.0;
  Event type = Event::kChurnDeparture;
  std::uint64_t subject = 0;
  std::uint64_t correlation = 0;
  std::uint64_t seq = 0;
};

// --- recording ---------------------------------------------------------------

struct JournalOptions {
  /// Ring capacity in records; the oldest records are overwritten once the
  /// ring is full (`Journal::dropped` counts the overwrites).
  std::size_t capacity = std::size_t{1} << 16;
  /// Counter time-series round length in simulated time units; 0 disables
  /// the interval sampler (see timeseries.hpp).
  double series_interval = 1.0;
};

/// Turns the flight recorder on: resets the ring and the interval sampler,
/// snapshots the counter registry as the series baseline, and installs the
/// BSR_DCHECK failure hook that dumps the journal tail to stderr. Throws
/// std::invalid_argument on zero capacity or negative interval.
void start_recording(const JournalOptions& options = {});

/// Turns recording off, closes the trailing partial time-series round, and
/// uninstalls the BSR_DCHECK hook. Recorded data stays readable until the
/// next start_recording().
void stop_recording();

[[nodiscard]] bool recording_enabled() noexcept;

/// Advances the journal clock (and the interval sampler, monotonically).
/// Simulation event loops call this as they advance simulated time so that
/// sites without their own time operand (fault plane, router) stamp records
/// with the causally-current time.
void journal_set_time(double now) noexcept;
[[nodiscard]] double journal_time() noexcept;

/// Records one event at an explicit simulated time. No-op unless recording.
void journal_event(Event e, double time, std::uint64_t subject,
                   std::uint64_t correlation) noexcept;

/// Records one event at the current journal clock. No-op unless recording.
void journal_event_now(Event e, std::uint64_t subject,
                       std::uint64_t correlation) noexcept;

// --- reading the recorder back ----------------------------------------------

struct Journal {
  /// Surviving records in deterministic export order: ascending
  /// (time, event slot, subject id), program order as the final tie-break.
  std::vector<EventRecord> events;
  std::uint64_t recorded = 0;  // total records ever offered to the ring
  std::uint64_t dropped = 0;   // oldest records overwritten by the ring
};

/// Copies the current journal contents out in export order. Valid while
/// recording or after stop_recording().
[[nodiscard]] Journal snapshot_journal();

/// Writes the most recent `max_events` records (program order, oldest
/// first) as human-readable lines — the black-box dump used by the
/// BSR_DCHECK failure hook.
void dump_journal_tail(std::ostream& os, std::size_t max_events);

}  // namespace bsr::obs

// --- hot-path macros ---------------------------------------------------------
// BSR_EVENT(id, t, subject, corr)   — record at explicit simulated time.
// BSR_EVENT_NOW(id, subject, corr)  — record at the journal clock.
// BSR_EVENT_TIME(now)               — advance the journal clock / sampler.
// All compile to empty statements under BSR_STATS=OFF.

#if BSR_STATS_ENABLED
#define BSR_EVENT(id, t, subject, corr)                                     \
  ::bsr::obs::journal_event(::bsr::obs::Event::k##id,                       \
                            static_cast<double>(t),                         \
                            static_cast<std::uint64_t>(subject),            \
                            static_cast<std::uint64_t>(corr))
#define BSR_EVENT_NOW(id, subject, corr)                                    \
  ::bsr::obs::journal_event_now(::bsr::obs::Event::k##id,                   \
                                static_cast<std::uint64_t>(subject),        \
                                static_cast<std::uint64_t>(corr))
#define BSR_EVENT_TIME(now) ::bsr::obs::journal_set_time(static_cast<double>(now))
#else
#define BSR_EVENT(id, t, subject, corr) \
  do {                                  \
  } while (false)
#define BSR_EVENT_NOW(id, subject, corr) \
  do {                                   \
  } while (false)
#define BSR_EVENT_TIME(now) \
  do {                      \
  } while (false)
#endif
