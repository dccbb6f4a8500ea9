// Fault-tolerant route-serving plane: a long-lived landmark oracle service.
//
// The Router answers one query at a time with a full early-exit BFS — fine
// inside sim loops, hopeless for a brokerage serving millions of route
// lookups per second. RouteService turns the dominated subgraph G_B into a
// precomputed *oracle* and serves queries out of flat arrays:
//
//   * Exact reachability from a RollbackUnionFind over the usable dominated
//     edges, materialized into a per-vertex component label (two loads and a
//     compare per query).
//   * A landmark/hub sketch: BFS trees rooted at the top-degree usable
//     brokers. dist(s, t) is upper-bounded by min_l d(l, s) + d(l, t), and
//     the trees' parent arrays give an O(1) next hop toward the stitch
//     landmark plus full path recovery (stitch_path) without touching the
//     graph.
//
// An epoch build is compaction -> lane sweep -> components. The usable G_B
// is first copied out of the graph into a compacted CSR
// (engine::compact_dominated, a walk over the usable brokers' adjacency
// only; build scratch, dropped when the build ends). engine::lane_sweep
// then builds every landmark tree at once, up to 16 per level-synchronous
// pass, writing both oracle tables whole, sentinels included. A tree's
// parent is canonical: the lowest-id neighbour one level closer to its
// landmark, whichever direction the sweep ran a level in, so next hops
// depend only on G_B and the landmark set. The sweep is serial, so the
// tables cannot depend on BSR_THREADS. Components are read off the lanes:
// a lane reaches exactly its landmark's component, so each vertex some
// lane reached joins the lowest such landmark, and only the vertices no
// landmark reaches unite their own compacted edges.
//
// Layout for the read side. Landmark distances are stored vertex-major: one
// contiguous, cache-line-aligned row of num_landmarks uint16 per vertex
// ([v * num_lm + l]), so a query reads src's and dst's distances from two
// rows (32 bytes each at the default 16 landmarks, one line apiece) instead
// of one line per landmark and endpoint. The sweep writes a vertex's row
// as its lanes reach it. Parents stay landmark-major ([l * n + v]): a query
// reads one of them, in the row of the landmark it picked. serve()'s
// evaluation loop knows every key of its shard up front and runs as a
// three-stage pipeline, kPrefetchDistance flows apart: it prefetches a
// flow's liveness bytes, component labels and both distance rows; later
// looks the flow up from those cached lines and prefetches the one parent
// entry the pick names; later still stitches the next hop from it. Only the
// order of memory loads changes; answers are the same at any prefetch
// distance and any BSR_THREADS.
//
// The oracle is versioned by **epochs**. The driving loop notifies the
// service of ground-truth changes (on_fault / on_heal / on_health_view);
// every notification bumps the truth version, and an epoch is *fresh* iff
// its truth version matches. The robustness story is what happens when they
// diverge:
//
//   * Heal-only deltas are patched incrementally: union-find checkpoint,
//     unite the new edges, re-read the labels. One loop unites
//     (engine::unite_star, under the build's filter pair) the star of every
//     vertex whose up/usable state changed since the epoch's snapshot, and,
//     when a link came back — the fault plane's failed-link count fell below
//     the snapshot's — the star of every usable broker too, which is all of
//     G_B. Nothing is compacted. Additions keep reachability exact and
//     distance bounds admissible, so the epoch is re-stamped fresh without a
//     rebuild. A crashed patch rolls back to the checkpoint and falls
//     through to the rebuild path.
//   * Faults cannot be patched into a union-find, so the service enters
//     explicit degraded mode: it keeps serving the stale epoch, tagging
//     answers kStaleServed, until the staleness bound (max_stale_events)
//     trips and answers become kRefused. Full rebuilds are scheduled by a
//     RetryScheduler (sim/retry_scheduler.hpp, shared with broker repair)
//     with retry/exponential-backoff/budget semantics; rebuild attempts can be
//     crashed or invalidated mid-build (a truth change while building
//     discards the result) and restart idempotently — a half-built epoch is
//     never observable.
//   * Overload robustness: an optional token-bucket admission gate sheds
//     excess batch load deterministically (kShedded), with a configurable
//     capacity derate while degraded.
//
// Determinism contract: answers depend only on (epoch contents, query,
// admission prefix), never on thread count — serve_batch() shards the
// evaluation but every per-query decision is computed from shared immutable
// state, so the answer digest is bit-identical at any BSR_THREADS. query()
// is a one-flow batch through the same path. Journal events
// (sim.route_service.*) and per-query trace rows are recorded only on the
// single-threaded control path (construction, notifications, advance(), and
// a batch's bookkeeping after its shards join), never from worker shards.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <new>
#include <span>
#include <vector>

#include "broker/broker_set.hpp"
#include "graph/csr_graph.hpp"
#include "graph/engine.hpp"
#include "graph/fault_plane.hpp"
#include "graph/rng.hpp"
#include "graph/rollback_union_find.hpp"
#include "obs/qtrace.hpp"
#include "sim/demand.hpp"
#include "sim/health.hpp"
#include "sim/retry_scheduler.hpp"

namespace bsr::sim {

/// Degradation tier of one served answer, best first.
enum class AnswerStatus : std::uint8_t {
  kFresh,        // epoch matches ground truth: reachability is exact
  kStaleServed,  // serving a stale epoch in degraded mode (bounded staleness)
  kShedded,      // admission control dropped the query before evaluation
  kRefused,      // no usable oracle (null epoch or staleness bound exceeded)
};

[[nodiscard]] const char* to_string(AnswerStatus status) noexcept;

/// Sentinel next hop: the oracle has no hop to offer (unreachable, shedded,
/// or the pair's component holds no landmark).
inline constexpr bsr::graph::NodeId kNoNextHop =
    std::numeric_limits<bsr::graph::NodeId>::max();

struct RouteAnswer {
  AnswerStatus status = AnswerStatus::kRefused;
  /// Exact (union-find) reachability in the epoch's snapshot of G_B. For
  /// kFresh answers this matches the ground-truth oracle by construction.
  bool reachable = false;
  /// Landmark triangle upper bound on the dominated distance;
  /// graph::kUnreachable when unreachable or no landmark covers the pair.
  std::uint32_t dist_bound = bsr::graph::kUnreachable;
  /// First hop from src along a usable dominated path (kNoNextHop if none):
  /// src's parent in the tree of the landmark the bound picked, or, when src
  /// is that landmark, the vertex after it on dst's parent chain. A tree's
  /// parent of v is the lowest-id neighbour of v one level closer to its
  /// landmark, so the hop is a function of the epoch's G_B and landmark set.
  bsr::graph::NodeId next_hop = kNoNextHop;
  /// Epoch that served the answer (0 = no epoch built yet; the constructor
  /// always publishes epoch 1, so served answers carry ids >= 1).
  std::uint64_t epoch = 0;
  /// Deterministic virtual cost of the oracle lookup / path stitch stages:
  /// functions of the epoch contents and the query alone (component-label
  /// loads, landmarks scanned, parent-chain steps), never of wall time,
  /// so they are bit-identical across hosts and thread counts. Computed
  /// unconditionally (answer layout never depends on the stats gate); the
  /// per-query tracer and latency sketches consume them. Zero for queries
  /// that were shedded or refused before evaluation.
  std::uint16_t lookup_ticks = 0;
  std::uint16_t stitch_ticks = 0;
};

/// FNV-1a digest over the answer stream — the integer the CI `serve` job
/// `cmp`s across BSR_THREADS values.
[[nodiscard]] std::uint64_t answer_digest(std::span<const RouteAnswer> answers);

// --- rebuild scheduling -----------------------------------------------------

struct RebuildPolicy {
  /// Simulated duration of one full oracle rebuild.
  double build_time = 2.0;
  /// A requested rebuild starts this long after the triggering event; each
  /// failed attempt multiplies the restart delay by retry_factor up to
  /// retry_max (same shape as RepairPolicy).
  double retry_backoff = 0.5;
  double retry_factor = 2.0;
  double retry_max = 16.0;
  /// Consecutive failed attempts before the scheduler goes idle until the
  /// next truth event re-arms it.
  std::uint32_t max_retries = 8;
  /// Lifetime rebuild budget: attempts beyond this never start and the
  /// service stays degraded (the knob the monotonicity harness sweeps).
  std::uint32_t max_rebuilds = std::numeric_limits<std::uint32_t>::max();
};

// --- the service -------------------------------------------------------------

struct RouteServiceConfig {
  /// Landmark count (clamped to the number of usable brokers).
  std::uint32_t num_landmarks = 16;
  /// Truth events an epoch may lag before stale answers become kRefused.
  std::uint64_t max_stale_events = 64;
  RebuildPolicy rebuild;
  /// Admission token bucket: volume units admitted per simulated time unit;
  /// 0 disables shedding entirely.
  double admit_rate = 0.0;
  /// Bucket depth (burst); defaults to admit_rate when 0.
  double admit_burst = 0.0;
  /// Capacity multiplier applied while serving a stale epoch, in [0, 1] —
  /// a degraded service can deliberately shed harder.
  double degraded_admit_factor = 1.0;
};

/// Deterministic failure injection for the maintainer (tests/benches).
struct RebuildInjection {
  /// Crash the next N rebuild attempts (decremented as builds start).
  std::uint32_t crash_next_rebuilds = 0;
  /// Crash the next N incremental patches (rolled back via checkpoint).
  std::uint32_t crash_next_patches = 0;
  /// Additional per-attempt crash coin, drawn from a seeded Rng in event
  /// order — 0 disables.
  double crash_prob = 0.0;
  std::uint64_t seed = 0x5eedf00dULL;
};

struct RouteServiceStats {
  std::uint64_t queries = 0;
  std::uint64_t fresh = 0;
  std::uint64_t stale_served = 0;
  std::uint64_t shedded = 0;
  std::uint64_t refused = 0;
  std::uint64_t rebuilds_started = 0;
  std::uint64_t rebuild_crashes = 0;
  std::uint64_t rebuilds_discarded = 0;  // invalidated by a mid-build truth change
  std::uint64_t patches = 0;
  std::uint64_t patch_crashes = 0;
  std::uint64_t epochs_published = 0;
  /// Highest staleness (truth events behind) any stale answer was served at
  /// over the service lifetime (the obs gauge, by contrast, resets at each
  /// epoch publish and describes the current epoch only).
  std::uint64_t max_stale_served = 0;
  /// Tick-cost summary of the most recent non-empty batch (admit + lookup +
  /// stitch per query): exactly QuantileSketch::p99() and max() over the
  /// batch, read from its staged bucket counts by quantile()'s rank rule
  /// without building a sketch. An empty batch leaves both unchanged. Only
  /// maintained when BSR_STATS is compiled in; zero otherwise.
  std::uint64_t last_batch_p99_ticks = 0;
  std::uint64_t last_batch_max_ticks = 0;
};

/// Epoch-lifecycle transition, for invariant checking (the in-memory twin of
/// the sim.route_service.* journal events).
enum class EpochEventKind : std::uint8_t {
  kPublish,        // a freshly built epoch went live
  kPatch,          // heal-only delta folded in; epoch re-stamped fresh
  kDegrade,        // truth diverged; serving stale from here
  kRebuildStart,   // a rebuild attempt began
  kRebuildCrash,   // injected crash; attempt lost, restart scheduled
  kRebuildDiscard, // built against a stale truth version; thrown away
  kRebuildGiveUp,  // retries or budget exhausted; parked degraded
};

struct EpochTransition {
  double time = 0.0;
  EpochEventKind kind = EpochEventKind::kPublish;
  std::uint64_t epoch = 0;          // serving (or newly published) epoch id
  std::uint64_t truth_version = 0;  // truth version at the transition
  std::uint64_t attempt = 0;        // rebuild-attempt id (0 = none)
};

/// Comparison of one served answer against a ground-truth route, mirroring
/// route_with_health's belief-vs-truth verdicts.
enum class AuditOutcome : std::uint8_t {
  kAgree,        // answer and truth agree on reachability
  kMisrouted,    // service claims reachable, truth says no — blackholed
  kShunned,      // service refuses/denies a pair truth still connects
  kUnreachable,  // both sides agree the pair is lost
};

[[nodiscard]] AuditOutcome audit_answer(const RouteAnswer& answer,
                                        bool truth_reachable) noexcept;

/// Long-lived route oracle with epoch versioning, degraded-mode serving and
/// budgeted rebuilds. Single-threaded control surface; serve_batch shards
/// only the read-side evaluation.
class RouteService {
 public:
  /// Builds the initial epoch synchronously at time 0 from the current
  /// fault-plane state. `g`, `brokers` and `faults` are held by reference
  /// and must outlive the service; `faults` may be nullptr (pristine truth).
  /// An empty broker set (or one with every member failed) yields a
  /// well-defined null service that answers kRefused. Throws
  /// std::invalid_argument when `brokers` was built for a different vertex
  /// count than `g`.
  RouteService(const bsr::graph::CsrGraph& g, const bsr::broker::BrokerSet& brokers,
               const bsr::graph::FaultPlane* faults,
               const RouteServiceConfig& config = {},
               const RebuildInjection& injection = {});

  // --- truth notifications (single-threaded control path) -------------------

  /// A failure landed in the fault plane: degrade and schedule a rebuild.
  void on_fault(double now);

  /// A heal landed: patch the epoch incrementally if it was fresh (heal-only
  /// deltas keep the oracle exact); otherwise just bump the truth version —
  /// the pending rebuild will absorb it.
  void on_heal(double now);

  /// The health detector published a new belief: serve only brokers the view
  /// considers routable. Counts as a truth change (degrade + rebuild).
  void on_health_view(const HealthView& view, double now);

  // --- event loop -----------------------------------------------------------

  /// Time of the next internal event (build completion or due build start);
  /// infinity when idle.
  [[nodiscard]] double next_event_time() const noexcept;

  /// Processes every internal event with time <= now in deterministic order.
  /// Returns the number of events processed.
  std::size_t advance(double now);

  // --- serving --------------------------------------------------------------

  /// Answers one query at `now`: a one-flow batch of volume 1, so it is
  /// admitted, evaluated, counted and traced exactly as serve_batch would.
  [[nodiscard]] RouteAnswer query(bsr::graph::NodeId src, bsr::graph::NodeId dst,
                                  double now);

  /// Answers a batch: admission decided sequentially per flow volume, then
  /// the evaluation sharded by BSR_THREADS. `out` is resized to match. An
  /// admitted flow with an endpoint id >= the vertex count answers kRefused.
  void serve_batch(std::span<const Flow> queries, double now,
                   std::vector<RouteAnswer>& out);

  /// The distance, in flows, between the stages of each shard's serve loop:
  /// it prefetches a flow's six lines (two liveness bytes, two component
  /// labels, two distance rows), looks the flow up this many flows later
  /// and prefetches the parent entry the lookup picked, and stitches its
  /// next hop this many flows after that. Far enough apart for the misses
  /// to overlap, near enough that the lines are still cached when read.
  static constexpr std::size_t kPrefetchDistance = 12;

  /// Full stitched path src..dst through the best landmark of the serving
  /// epoch; empty when unreachable or no landmark covers the pair. The walk
  /// uses only usable dominated edges of the epoch's snapshot.
  [[nodiscard]] std::vector<bsr::graph::NodeId> stitch_path(
      bsr::graph::NodeId src, bsr::graph::NodeId dst) const;

  // --- introspection --------------------------------------------------------

  [[nodiscard]] std::uint64_t epoch_id() const noexcept { return epoch_id_; }
  [[nodiscard]] std::uint64_t truth_version() const noexcept {
    return truth_version_;
  }
  /// Truth events the serving epoch lags behind (0 = fresh).
  [[nodiscard]] std::uint64_t stale_events() const noexcept {
    return truth_version_ - epoch_truth_version_;
  }
  [[nodiscard]] bool degraded() const noexcept { return stale_events() != 0; }
  /// True iff the serving epoch has no usable broker (answers are kRefused).
  [[nodiscard]] bool null_epoch() const noexcept { return null_epoch_; }
  [[nodiscard]] bool rebuild_pending() const noexcept { return build_active_; }

  [[nodiscard]] const RouteServiceStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::span<const EpochTransition> transitions() const noexcept {
    return transitions_;
  }
  [[nodiscard]] std::span<const bsr::graph::NodeId> landmarks() const noexcept {
    return landmarks_;
  }
  [[nodiscard]] std::size_t usable_broker_count() const noexcept {
    return usable_broker_count_;
  }

 private:
  /// Sentinel in the uint16 landmark distance plane.
  static constexpr std::uint16_t kLmUnreachable = bsr::graph::engine::kLaneUnreached;

  /// Hands out 64-byte-aligned blocks. glibc returns 16-byte-aligned ones,
  /// where half of the 32-byte distance rows would straddle two lines. Each
  /// block is an ordinary allocation one line longer, stepped to its first
  /// line boundary past the block's start, with the block's own address kept
  /// in the bytes just before it. An aligned operator new would place the
  /// block by memalign instead, which held 10 MiB more peak RSS on perfbench
  /// `stress` for the same live data.
  template <class T>
  struct CacheLineAllocator {
    using value_type = T;
    static constexpr std::size_t kLine = 64;
    CacheLineAllocator() = default;
    template <class U>
    constexpr CacheLineAllocator(const CacheLineAllocator<U>&) noexcept {}
    [[nodiscard]] T* allocate(std::size_t count) {
      if (count > (std::numeric_limits<std::size_t>::max() - kLine) / sizeof(T)) {
        throw std::bad_array_new_length();
      }
      auto* block = static_cast<std::byte*>(::operator new(count * sizeof(T) + kLine));
      // At least 16 bytes on (glibc's alignment), so the address fits before.
      std::byte* line = block + (kLine - reinterpret_cast<std::uintptr_t>(block) % kLine);
      std::memcpy(line - sizeof(block), &block, sizeof(block));
      return reinterpret_cast<T*>(line);
    }
    void deallocate(T* p, std::size_t) noexcept {
      std::byte* block = nullptr;
      std::memcpy(&block, reinterpret_cast<std::byte*>(p) - sizeof(block), sizeof(block));
      ::operator delete(block);
    }
    friend bool operator==(CacheLineAllocator, CacheLineAllocator) noexcept {
      return true;
    }
  };

  /// Snapshots the fault plane's vertex states into `up` and marks the
  /// usable brokers (member, up, believed routable) in `mask`; returns their
  /// count.
  std::size_t usable_brokers(std::vector<std::uint8_t>& up,
                             std::vector<bool>& mask) const;
  /// The fault plane's failed-link count (0 without a plane).
  [[nodiscard]] std::uint64_t failed_edges() const noexcept {
    return faults_ != nullptr ? faults_->num_failed_edges() : 0;
  }
  void build_epoch(double now, std::uint64_t attempt);
  void try_patch(double now);
  void start_due_build(double now);
  void complete_build(double now);
  [[nodiscard]] bool draw_crash(std::uint32_t& deterministic_queue);
  void record(double now, EpochEventKind kind, std::uint64_t attempt);
  /// The landmark whose tree gives the least d(l, src) + d(l, dst) among
  /// those reaching both, ties to the lowest index; index ==
  /// landmarks_.size() when none does.
  struct Landmark {
    std::size_t index;
    std::uint32_t bound;
  };
  [[nodiscard]] Landmark best_landmark(bsr::graph::NodeId src,
                                       bsr::graph::NodeId dst) const;
  /// Read-side evaluation against the serving epoch, in two steps that the
  /// serve loop runs kPrefetchDistance flows apart; both thread-safe const.
  /// lookup fills the answer up to its next hop and returns the landmark to
  /// stitch through, index == landmarks_.size() when nothing is left to
  /// stitch (refused, unreachable, src == dst or uncovered).
  [[nodiscard]] Landmark lookup(bsr::graph::NodeId src, bsr::graph::NodeId dst,
                                RouteAnswer& answer) const;
  /// Fills next_hop and stitch_ticks from the tree of `best` (a landmark
  /// lookup returned for this pair).
  void stitch(bsr::graph::NodeId src, bsr::graph::NodeId dst, const Landmark& best,
              RouteAnswer& answer) const;
  [[nodiscard]] AnswerStatus serving_status() const noexcept;
  /// The one serve path behind query() and serve_batch(): admission, the
  /// sharded evaluation into `out` (default answers, one per query), then
  /// tally.
  void serve(std::span<const Flow> queries, double now, std::span<RouteAnswer> out);
  /// Control-thread bookkeeping after the shards join: stats, counters,
  /// sketches, journal events and trace rows.
  void tally(std::span<const Flow> queries, std::span<const RouteAnswer> answers,
             double now);

  const bsr::graph::CsrGraph* graph_;
  const bsr::broker::BrokerSet* brokers_;
  const bsr::graph::FaultPlane* faults_;
  RouteServiceConfig config_;
  RebuildInjection injection_;
  bsr::graph::Rng crash_rng_;

  // Belief mask from the last health view (empty = trust every member).
  std::vector<bool> believed_routable_;
  bool has_belief_ = false;

  // --- serving epoch (immutable between control-path mutations) ------------
  std::uint64_t epoch_id_ = 0;
  std::uint64_t epoch_truth_version_ = 0;
  bool null_epoch_ = true;
  bsr::graph::RollbackUnionFind uf_;
  std::vector<bsr::graph::NodeId> comp_;     // materialized uf_ root per vertex
  std::vector<bool> usable_mask_;            // broker && believed && vertex up
  std::vector<std::uint8_t> vertex_up_;      // vertex states at build/patch
  std::uint64_t failed_edges_ = 0;           // failed-link count at build/patch
  std::vector<bsr::graph::NodeId> landmarks_;
  /// [v * num_lm + l], kLmUnreachable = none: one row per vertex.
  std::vector<std::uint16_t, CacheLineAllocator<std::uint16_t>> lm_dist_;
  std::vector<bsr::graph::NodeId> lm_parent_;  // [l * n + v], toward landmark l
  std::size_t usable_broker_count_ = 0;

  // --- maintainer state ------------------------------------------------------
  std::uint64_t truth_version_ = 0;
  RetryScheduler scheduler_;
  bool build_active_ = false;
  double build_completes_at_ = 0.0;
  std::uint64_t build_base_truth_ = 0;
  bool build_will_crash_ = false;
  std::uint64_t build_attempt_ = 0;  // id of the in-flight attempt
  std::uint64_t next_attempt_ = 1;   // attempt-id allocator (0 = initial build)

  // --- admission bucket ------------------------------------------------------
  double tokens_ = 0.0;
  double bucket_at_ = 0.0;

  RouteServiceStats stats_;
  std::vector<EpochTransition> transitions_;

  // --- serve-path telemetry staging (tally; BSR_STATS builds only) ---------
  // Each batch's observations are staged here by QuantileSketch bucket and
  // merged into the registry once per batch. Every count is zero between
  // batches and cleared only over the buckets a batch occupied.
  /// QuantileSketch buckets an answer's 1 + lookup + stitch ticks (at most
  /// 1 + 2 * 0xffff) or distance bound (at most 2 * 0xfffe) can land in.
  static constexpr std::size_t kStageBuckets = 416;
  /// One batch's observations bound for one registry sketch: their counts
  /// by bucket, one past the highest occupied bucket, and how far the values
  /// past the exact buckets lie above their buckets' lower bounds in total
  /// (the rest of their sum follows from the counts).
  struct Stage {
    std::array<std::uint64_t, kStageBuckets> counts{};
    std::size_t top = 0;
    std::uint64_t excess = 0;
  };
  std::array<Stage, 4> tick_stage_{};  // by answer tag (AnswerStatus order)
  std::array<Stage, 2> dist_stage_{};  // kFresh, kStaleServed
  /// The batch's tick counts over every tag, for its p99 and max.
  std::array<std::uint64_t, kStageBuckets> batch_ticks_{};
  /// Query-trace rows staged for one append to the ring, at most
  /// kTraceChunk (16 KiB) at a time so they stay in L1 however long the
  /// batch; sized only while the tracer is on.
  static constexpr std::size_t kTraceChunk = 256;
  std::vector<bsr::obs::QueryTraceRow> trace_rows_;
};

}  // namespace bsr::sim
