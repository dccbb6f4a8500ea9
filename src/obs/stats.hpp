// Zero-overhead work-counter registry for the telemetry plane.
//
// Every hot layer (engine kernels, rollback union-find, broker selection,
// the churn/health/router sims) reports what it *did* — edges scanned, gain
// evaluations, probes sent — through the fixed-slot registry declared here.
// The design goals, in order:
//
//   1. An OFF build costs literally nothing. Every BSR_COUNT / BSR_GAUGE /
//      BSR_HISTO site compiles to an empty statement when BSR_STATS is not
//      defined (CMake -DBSR_STATS=OFF), so hot objects reference zero obs
//      symbols and binaries are unchanged modulo the obs library itself.
//   2. An ON build is cheap enough to leave on. Accumulation is a plain
//      (non-atomic) add into a thread-local block — no locks, no contention,
//      no false sharing. The hottest loops accumulate into a stack-local
//      integer under BSR_STATS_ONLY() and flush once per kernel call, so the
//      per-edge cost is one register increment that folds into the scan.
//   3. Enabling stats never perturbs results. Counters are write-only from
//      the algorithms' perspective; nothing reads them back on any decision
//      path. Per-thread blocks are merged in registration (shard) order with
//      integer-only commutative merges (sum for counters/histograms, max for
//      gauges), so snapshots are bit-identical at any BSR_THREADS value.
//
// Naming convention: `layer.component.metric` (e.g. engine.bfs.edges_scanned).
// To add a counter, append one X(...) line to the table below — the enum,
// name table, and work-unit flag stay in sync by construction. Slots are
// fixed at compile time; there is no dynamic registration.
//
// Threading contract: snapshot()/reset() may only run while worker threads
// are quiescent (engine::for_each_shard joins before returning, so any
// point between engine calls qualifies). Worker threads that exit flush
// their block into a retired accumulator, so counts survive thread churn.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>

// BSR_OBS_FORCE_OFF compiles a single TU as if the whole build were
// BSR_STATS=OFF. bench/bare_kernels.cpp uses it to recompile the hot kernels
// with the telemetry deleted — the uninstrumented twins perf_obs prices the
// instrumented library against. Define it before any include.
#if defined(BSR_STATS) && BSR_STATS && !defined(BSR_OBS_FORCE_OFF)
#define BSR_STATS_ENABLED 1
#else
#define BSR_STATS_ENABLED 0
#endif

namespace bsr::obs {

/// Version of the exported snapshot schema (bump on breaking changes to the
/// JSON layout or to counter semantics).
inline constexpr int kSchemaVersion = 1;

// --- fixed-slot id tables ---------------------------------------------------
// X(EnumId, "layer.component.metric", is_work_unit)
// A *work unit* is a machine-independent measure of algorithmic work (edges
// scanned, probes sent, ...) — the deterministic dimension traces and BENCH
// files are compared on across hosts.

#define BSR_OBS_COUNTER_TABLE(X)                                   \
  X(EngineBfsRuns, "engine.bfs.runs", false)                       \
  X(EngineBfsEdgesScanned, "engine.bfs.edges_scanned", true)       \
  X(EngineBfsVerticesVisited, "engine.bfs.vertices_visited", false)\
  X(EngineBfsBottomUpLevels, "engine.bfs.bottom_up_levels", false) \
  X(EngineUniteEdgeScans, "engine.unite.edge_scans", true)         \
  X(EngineUniteAdmitted, "engine.unite.admitted", false)           \
  X(EngineCompactEdgeScans, "engine.compact.edge_scans", true)     \
  X(EngineWorkspaceEpochBumps, "engine.workspace.epoch_bumps", false) \
  X(EngineShardBatches, "engine.shards.batches", false)            \
  X(UfFinds, "graph.uf.finds", false)                              \
  X(UfFindSteps, "graph.uf.find_steps", true)                      \
  X(UfUnites, "graph.uf.unites", false)                            \
  X(UfUnionsApplied, "graph.uf.unions_applied", false)             \
  X(UfCheckpoints, "graph.uf.checkpoints", false)                  \
  X(UfRollbacks, "graph.uf.rollbacks", false)                      \
  X(UfRollbackUndone, "graph.uf.rollback_undone", true)            \
  X(MaxsgRounds, "broker.maxsg.rounds", false)                     \
  X(MaxsgGainEvals, "broker.maxsg.gain_evals", true)               \
  X(GreedyRounds, "broker.greedy.rounds", false)                   \
  X(GreedyGainEvals, "broker.greedy.gain_evals", true)             \
  X(LocalSearchProbes, "broker.local_search.probes", true)         \
  X(LocalSearchSwaps, "broker.local_search.swaps", false)          \
  X(McbgStitchRounds, "broker.mcbg.stitch_rounds", false)          \
  X(McbgStitchPromotions, "broker.mcbg.stitch_promotions", true)   \
  X(RobustRounds, "broker.robust.rounds", false)                   \
  X(RobustScenarios, "broker.robust.scenarios", false)             \
  X(RobustGainEvals, "broker.robust.gain_evals", true)             \
  X(ChurnEvents, "sim.churn.events", true)                         \
  X(ChurnConnectivityEvals, "sim.churn.connectivity_evals", false) \
  X(HealthProbeRounds, "sim.health.probe_rounds", false)           \
  X(HealthProbesSent, "sim.health.probes_sent", true)              \
  X(HealthReprobes, "sim.health.reprobes", false)                  \
  X(HealthTransitions, "sim.health.transitions", false)            \
  X(HealthViewsPublished, "sim.health.views_published", false)     \
  X(RepairAttempts, "sim.repair.attempts", false)                  \
  X(RepairDeferred, "sim.repair.deferred", false)                  \
  X(RouterRoutes, "sim.router.routes", true)                       \
  X(RouterTierDominated, "sim.router.tier_dominated", false)       \
  X(RouterTierDegraded, "sim.router.tier_degraded", false)         \
  X(RouterTierFallback, "sim.router.tier_fallback", false)         \
  X(RouterTierUnreachable, "sim.router.tier_unreachable", false)   \
  X(RouterDeadHops, "sim.router.dead_hops", false)                 \
  X(RouteServiceQueries, "sim.route_service.queries", true)        \
  X(RouteServiceFresh, "sim.route_service.fresh", false)           \
  X(RouteServiceStaleServed, "sim.route_service.stale_served", false) \
  X(RouteServiceShedded, "sim.route_service.shedded", false)       \
  X(RouteServiceRefused, "sim.route_service.refused", false)       \
  X(RouteServiceRebuilds, "sim.route_service.rebuilds", false)     \
  X(RouteServiceRebuildCrashes, "sim.route_service.rebuild_crashes", false) \
  X(RouteServicePatches, "sim.route_service.patches", false)       \
  X(RouteServiceEpochsPublished, "sim.route_service.epochs_published", false) \
  X(SloEvaluations, "slo.monitor.evaluations", false)              \
  X(SloBreaches, "slo.monitor.breaches", false)                    \
  X(SloRecovers, "slo.monitor.recovers", false)                    \
  X(EpisodeReconstructed, "obs.episode.reconstructed", false)      \
  X(EpisodeClosed, "obs.episode.closed", false)                    \
  X(EpisodeTruncated, "obs.episode.truncated", false)              \
  X(EpisodeMalformed, "obs.episode.malformed", false)              \
  X(EpisodeDegradedAnswers, "obs.episode.degraded_answers", false)

#define BSR_OBS_GAUGE_TABLE(X)                                     \
  X(EngineWorkspaceHighWater, "engine.workspace.high_water")       \
  X(UfLogHighWater, "graph.uf.log_high_water")                     \
  X(RouterStateHighWater, "sim.router.state_high_water")           \
  X(RouteServiceStaleHighWater, "sim.route_service.stale_high_water") \
  X(SloWorstBurnPct, "slo.monitor.worst_burn_pct")

#define BSR_OBS_HISTOGRAM_TABLE(X)                                 \
  X(UfFindDepth, "graph.uf.find_depth")                            \
  X(HealthViewStalenessMs, "sim.health.view_staleness_ms")         \
  X(RouterHops, "sim.router.hops")                                 \
  X(RouteServiceDistBound, "sim.route_service.dist_bound")

enum class Counter : std::uint16_t {
#define BSR_OBS_X(id, name, work) k##id,
  BSR_OBS_COUNTER_TABLE(BSR_OBS_X)
#undef BSR_OBS_X
      kCount
};

enum class Gauge : std::uint16_t {
#define BSR_OBS_X(id, name) k##id,
  BSR_OBS_GAUGE_TABLE(BSR_OBS_X)
#undef BSR_OBS_X
      kCount
};

enum class Histogram : std::uint16_t {
#define BSR_OBS_X(id, name) k##id,
  BSR_OBS_HISTOGRAM_TABLE(BSR_OBS_X)
#undef BSR_OBS_X
      kCount
};

inline constexpr std::size_t kNumCounters = static_cast<std::size_t>(Counter::kCount);
inline constexpr std::size_t kNumGauges = static_cast<std::size_t>(Gauge::kCount);
inline constexpr std::size_t kNumHistograms =
    static_cast<std::size_t>(Histogram::kCount);

/// Power-of-two value histograms: bucket 0 holds value 0, bucket b >= 1 holds
/// values in [2^(b-1), 2^b). 64 buckets cover the whole uint64 range.
inline constexpr std::size_t kHistogramBuckets = 64;

[[nodiscard]] std::string_view name(Counter c) noexcept;
[[nodiscard]] std::string_view name(Gauge g) noexcept;
[[nodiscard]] std::string_view name(Histogram h) noexcept;
/// Whether this counter contributes to the deterministic work-unit dimension.
[[nodiscard]] bool is_work_unit(Counter c) noexcept;

[[nodiscard]] constexpr std::size_t bucket_of(std::uint64_t value) noexcept {
  // 0 for value 0, else 1 + floor(log2(value)); the top bucket absorbs
  // values >= 2^62 so bit 63 can never index past the array.
  return std::min<std::size_t>(std::bit_width(value), kHistogramBuckets - 1);
}

// --- thread-local accumulation ----------------------------------------------

struct ThreadBlock {
  std::array<std::uint64_t, kNumCounters> counters{};
  std::array<std::uint64_t, kNumGauges> gauges{};
  std::array<std::array<std::uint64_t, kHistogramBuckets>, kNumHistograms>
      histograms{};
};

namespace detail {
/// Cached pointer to this thread's registered block: null before first use
/// and after thread-exit flush. Implementation detail of tls_block() — the
/// cache lets the macros reach their slot with one TLS load and a
/// predictable branch instead of an out-of-line call per site, which is
/// what keeps per-item sites (UF finds, per-answer sketches) at a few
/// inline adds. constinit tells every including TU that the pointer needs
/// no dynamic initialization. Without it, GCC guards each site with a check
/// of (and a possible call to) the weak TLS init-function symbol, and an
/// optimized UBSan build aborts there on a null-pointer load.
extern constinit thread_local ThreadBlock* t_block;
}  // namespace detail

/// Registers this thread's block with the global registry and fills the
/// detail::t_block cache. Out-of-line cold path of tls_block().
[[nodiscard]] ThreadBlock& tls_block_slow() noexcept;

/// This thread's accumulator block; registered with the global registry on
/// first use and flushed into the retired pool when the thread exits.
[[nodiscard]] inline ThreadBlock& tls_block() noexcept {
  ThreadBlock* block = detail::t_block;
  return block != nullptr ? *block : tls_block_slow();
}

inline void count(Counter c, std::uint64_t n = 1) noexcept {
  tls_block().counters[static_cast<std::size_t>(c)] += n;
}

inline void gauge_max(Gauge g, std::uint64_t value) noexcept {
  std::uint64_t& slot = tls_block().gauges[static_cast<std::size_t>(g)];
  if (value > slot) slot = value;
}

/// Records `n` observations of `value`.
inline void observe(Histogram h, std::uint64_t value, std::uint64_t n = 1) noexcept {
  tls_block().histograms[static_cast<std::size_t>(h)][bucket_of(value)] += n;
}

/// Fused update for RollbackUnionFind::find — one TLS access covers the call
/// count, the step total, and the depth histogram, keeping the per-find cost
/// to a handful of adds on a path that is already pointer-chasing bound.
inline void count_uf_find(std::uint64_t steps) noexcept {
  ThreadBlock& block = tls_block();
  ++block.counters[static_cast<std::size_t>(Counter::kUfFinds)];
  block.counters[static_cast<std::size_t>(Counter::kUfFindSteps)] += steps;
  ++block.histograms[static_cast<std::size_t>(Histogram::kUfFindDepth)]
       [bucket_of(steps)];
}

// --- merged snapshots --------------------------------------------------------

/// Registry totals merged across every thread block (live + retired) in
/// registration order. All merges are integer and commutative, so the result
/// is identical at any BSR_THREADS value for the same work.
struct Snapshot {
  std::array<std::uint64_t, kNumCounters> counters{};
  std::array<std::uint64_t, kNumGauges> gauges{};
  std::array<std::array<std::uint64_t, kHistogramBuckets>, kNumHistograms>
      histograms{};
  /// Whether the producing build had BSR_STATS compiled in.
  bool enabled = BSR_STATS_ENABLED != 0;

  [[nodiscard]] std::uint64_t counter(Counter c) const noexcept {
    return counters[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] std::uint64_t gauge(Gauge g) const noexcept {
    return gauges[static_cast<std::size_t>(g)];
  }
  [[nodiscard]] std::uint64_t histogram_total(Histogram h) const noexcept;
};

/// Merged totals right now. Only call while worker threads are quiescent.
[[nodiscard]] Snapshot snapshot();

/// Zeroes every slot in every block (live and retired). Same quiescence
/// contract as snapshot().
void reset();

/// Zeroes one gauge's slot in every block (live and retired), leaving every
/// other metric untouched. A high-water gauge whose subject has a natural
/// epoch (e.g. the serving oracle's staleness) calls this at epoch rollover
/// so the merged value describes the *current* epoch, not the lifetime
/// worst. Same quiescence contract as snapshot().
void gauge_clear(Gauge g);

/// Counter/histogram difference `after - before`; gauges take the `after`
/// value (a high-water mark has no meaningful delta).
[[nodiscard]] Snapshot delta(const Snapshot& before, const Snapshot& after);

/// Sum of all work-unit counters — the machine-independent "how much
/// algorithmic work happened" scalar used by traces and BENCH files.
[[nodiscard]] std::uint64_t work_units(const Snapshot& snap) noexcept;

}  // namespace bsr::obs

// --- hot-path macros ---------------------------------------------------------
// All sites use the short enum id: BSR_COUNT(EngineBfsRuns). In an OFF build
// every macro is an empty statement and BSR_STATS_ONLY(...) drops its
// argument, so instrumented TUs reference no obs symbols.

#if BSR_STATS_ENABLED
#define BSR_COUNT(id) ::bsr::obs::count(::bsr::obs::Counter::k##id)
#define BSR_COUNT_N(id, n) \
  ::bsr::obs::count(::bsr::obs::Counter::k##id, static_cast<std::uint64_t>(n))
#define BSR_GAUGE_MAX(id, v)                      \
  ::bsr::obs::gauge_max(::bsr::obs::Gauge::k##id, \
                        static_cast<std::uint64_t>(v))
#define BSR_GAUGE_CLEAR(id) \
  ::bsr::obs::gauge_clear(::bsr::obs::Gauge::k##id)
#define BSR_HISTO(id, v)                            \
  ::bsr::obs::observe(::bsr::obs::Histogram::k##id, \
                      static_cast<std::uint64_t>(v))
#define BSR_UF_FIND(steps) \
  ::bsr::obs::count_uf_find(static_cast<std::uint64_t>(steps))
#define BSR_STATS_ONLY(...) __VA_ARGS__
#else
#define BSR_COUNT(id) \
  do {                \
  } while (false)
#define BSR_COUNT_N(id, n) \
  do {                     \
  } while (false)
#define BSR_GAUGE_MAX(id, v) \
  do {                       \
  } while (false)
#define BSR_GAUGE_CLEAR(id) \
  do {                      \
  } while (false)
#define BSR_HISTO(id, v) \
  do {                   \
  } while (false)
#define BSR_UF_FIND(steps) \
  do {                     \
  } while (false)
#define BSR_STATS_ONLY(...)
#endif
