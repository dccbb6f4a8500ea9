#include "sim/route_service.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "graph/engine.hpp"
#include "obs/journal.hpp"
#include "obs/qtrace.hpp"
#include "obs/sketch.hpp"
#include "obs/stats.hpp"

namespace bsr::sim {

using bsr::graph::FaultPlane;
using bsr::graph::NodeId;
namespace engine = bsr::graph::engine;

namespace {
constexpr double kNever = std::numeric_limits<double>::infinity();
}  // namespace

const char* to_string(AnswerStatus status) noexcept {
  switch (status) {
    case AnswerStatus::kFresh: return "fresh";
    case AnswerStatus::kStaleServed: return "stale-served";
    case AnswerStatus::kShedded: return "shedded";
    case AnswerStatus::kRefused: return "refused";
  }
  return "?";
}

std::uint64_t answer_digest(std::span<const RouteAnswer> answers) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  const auto mix = [&h](std::uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      h ^= (x >> (8 * b)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (const RouteAnswer& a : answers) {
    mix((static_cast<std::uint64_t>(a.status) << 8) |
        static_cast<std::uint64_t>(a.reachable));
    mix(a.dist_bound);
    mix(a.next_hop);
    mix(a.epoch);
  }
  return h;
}

AuditOutcome audit_answer(const RouteAnswer& answer, bool truth_reachable) noexcept {
  const bool served = answer.status == AnswerStatus::kFresh ||
                      answer.status == AnswerStatus::kStaleServed;
  const bool claims = served && answer.reachable;
  if (claims) return truth_reachable ? AuditOutcome::kAgree : AuditOutcome::kMisrouted;
  return truth_reachable ? AuditOutcome::kShunned : AuditOutcome::kUnreachable;
}

// --- RouteService -----------------------------------------------------------

RouteService::RouteService(const bsr::graph::CsrGraph& g,
                           const bsr::broker::BrokerSet& brokers,
                           const FaultPlane* faults,
                           const RouteServiceConfig& config,
                           const RebuildInjection& injection)
    : graph_(&g),
      brokers_(&brokers),
      faults_(faults),
      config_(config),
      injection_(injection),
      crash_rng_(injection.seed),
      uf_(g.num_vertices()),
      scheduler_(config.rebuild, config.rebuild.max_rebuilds) {
  if (brokers.num_vertices() != g.num_vertices()) {
    throw std::invalid_argument(
        "RouteService: broker set covers " +
        std::to_string(brokers.num_vertices()) + " vertices but the graph has " +
        std::to_string(g.num_vertices()));
  }
  if (faults_ != nullptr && &faults_->graph() != graph_) {
    // A plane bound to another graph would index that graph's arrays.
    throw std::invalid_argument(
        "RouteService: fault plane is bound to a different graph");
  }
  config_.degraded_admit_factor =
      std::clamp(config_.degraded_admit_factor, 0.0, 1.0);
  tokens_ = config_.admit_burst > 0.0 ? config_.admit_burst : config_.admit_rate;
  build_epoch(0.0, 0);
}

std::size_t RouteService::usable_brokers(std::vector<std::uint8_t>& up,
                                        std::vector<bool>& mask) const {
  const NodeId n = graph_->num_vertices();
  up.assign(n, 1);
  if (faults_ != nullptr) {
    for (NodeId v = 0; v < n; ++v) up[v] = faults_->vertex_ok(v) ? 1 : 0;
  }
  mask.assign(n, false);
  std::size_t count = 0;
  for (const NodeId v : brokers_->members()) {
    if (up[v] == 0) continue;
    if (has_belief_ &&
        !(v < believed_routable_.size() && believed_routable_[v])) {
      continue;
    }
    mask[v] = true;
    ++count;
  }
  return count;
}

void RouteService::materialize_components() {
  // RollbackUnionFind::find is const (no path compression), so concurrent
  // reads from shards are safe, and the label values are independent of the
  // sharding.
  engine::for_each_shard(graph_->num_vertices(),
                         [&](std::size_t, std::size_t begin, std::size_t end) {
                           for (std::size_t v = begin; v < end; ++v) {
                             comp_[v] = uf_.find(static_cast<NodeId>(v));
                           }
                         });
}

void RouteService::build_epoch(double now, std::uint64_t attempt) {
  const NodeId n = graph_->num_vertices();
  usable_broker_count_ = usable_brokers(vertex_up_, usable_mask_);
  null_epoch_ = usable_broker_count_ == 0;
  uf_.reset(n);
  comp_.resize(n);
  landmarks_.clear();
  if (null_epoch_) {
    lm_dist_.clear();
    lm_parent_.clear();
  } else {
    // Compaction -> unite -> landmark BFS. The compacted G_B is build
    // scratch: its lists keep g's order, so the unite sequence (hence every
    // root) and each BFS (hence every parent) match the filtered scans of g
    // they replace, over only the usable slots.
    const engine::Subgraph usable =
        engine::compact_dominated(*graph_, usable_mask_, faults_);
    engine::unite_edges(usable, uf_, engine::AllEdges{});
    materialize_components();

    // Landmarks: the top-degree usable brokers (ties by ascending id), the
    // hubs most shortest dominated paths already route through.
    for (NodeId v = 0; v < n; ++v) {
      if (usable_mask_[v]) landmarks_.push_back(v);
    }
    std::sort(landmarks_.begin(), landmarks_.end(), [this](NodeId a, NodeId b) {
      const auto da = graph_->degree(a);
      const auto db = graph_->degree(b);
      return da != db ? da > db : a < b;
    });
    if (landmarks_.size() > config_.num_landmarks) {
      landmarks_.resize(config_.num_landmarks);
    }

    // One BFS tree per landmark, sharded over landmarks: each tree is a
    // fully serial kernel writing a disjoint row, every entry exactly once,
    // so the arrays are bit-identical at any BSR_THREADS value.
    const std::size_t num_lm = landmarks_.size();
    lm_dist_.resize(num_lm * n);
    lm_parent_.resize(num_lm * n);
    engine::for_each_shard(
        num_lm, [&](std::size_t, std::size_t begin, std::size_t end) {
          engine::Workspace& ws = engine::tls_workspace();
          for (std::size_t li = begin; li < end; ++li) {
            const NodeId root = landmarks_[li];
            engine::bfs_dir_opt(usable, root, ws);
            const std::size_t row = li * n;
            for (NodeId v = 0; v < n; ++v) {
              if (!ws.visited(v)) {
                lm_dist_[row + v] = kLmUnreachable;
                lm_parent_[row + v] = kNoNextHop;
                continue;
              }
              lm_dist_[row + v] = static_cast<std::uint16_t>(
                  std::min<std::uint32_t>(ws.dist_unchecked(v), kLmUnreachable - 1));
              lm_parent_[row + v] = v == root ? root : ws.parent(v);
            }
          }
        });
  }

  ++epoch_id_;
  epoch_truth_version_ = truth_version_;
  ++stats_.epochs_published;
  // The staleness high-water gauge describes the *current* epoch: a freshly
  // published oracle has served nothing stale yet, so the gauge resets here.
  // (stats_.max_stale_served stays a lifetime high-water; try_patch keeps
  // the same epoch and so keeps the gauge.)
  BSR_GAUGE_CLEAR(RouteServiceStaleHighWater);
  BSR_COUNT(RouteServiceEpochsPublished);
  record(now, EpochEventKind::kPublish, attempt);
}

void RouteService::try_patch(double now) {
  // Heal-only delta: the usable set can only have grown, so uniting every
  // currently-usable dominated edge on top of the epoch's union-find yields
  // exactly the current edge set — reachability stays exact, the landmark
  // bounds stay admissible (paths only got shorter), and old next hops stay
  // usable. Staged through temporaries + a checkpoint so an injected crash
  // leaves the serving epoch untouched.
  std::vector<std::uint8_t> new_up;
  std::vector<bool> new_mask;
  const std::size_t new_count = usable_brokers(new_up, new_mask);

  const auto mark = uf_.checkpoint();
  const bool crash = draw_crash(injection_.crash_next_patches);
  engine::unite_edges(engine::compact_dominated(*graph_, new_mask, faults_), uf_,
                      engine::AllEdges{});
  if (crash) {
    uf_.rollback(mark);
    ++stats_.patch_crashes;
    record(now, EpochEventKind::kDegrade, 0);
    if (!build_active_) scheduler_.request(now);
    return;
  }
  vertex_up_ = std::move(new_up);
  usable_mask_ = std::move(new_mask);
  usable_broker_count_ = new_count;
  materialize_components();
  epoch_truth_version_ = truth_version_;
  ++stats_.patches;
  BSR_COUNT(RouteServicePatches);
  record(now, EpochEventKind::kPatch, 0);
}

void RouteService::on_fault(double now) {
  const bool was_fresh = stale_events() == 0;
  ++truth_version_;
  if (was_fresh) record(now, EpochEventKind::kDegrade, 0);
  if (!build_active_) scheduler_.request(now);
}

void RouteService::on_heal(double now) {
  const bool was_fresh = stale_events() == 0;
  ++truth_version_;
  if (was_fresh && !null_epoch_ && !build_active_) {
    try_patch(now);
    return;
  }
  if (was_fresh) record(now, EpochEventKind::kDegrade, 0);
  if (!build_active_) scheduler_.request(now);
}

void RouteService::on_health_view(const HealthView& view, double now) {
  believed_routable_ = view.routable;
  has_belief_ = true;
  const bool was_fresh = stale_events() == 0;
  ++truth_version_;
  if (was_fresh) record(now, EpochEventKind::kDegrade, 0);
  if (!build_active_) scheduler_.request(now);
}

double RouteService::next_event_time() const noexcept {
  const double done = build_active_ ? build_completes_at_ : kNever;
  return std::min(done, scheduler_.next_due());
}

std::size_t RouteService::advance(double now) {
  std::size_t processed = 0;
  for (;;) {
    const double done = build_active_ ? build_completes_at_ : kNever;
    const double start = scheduler_.next_due();
    const double t = std::min(done, start);
    if (t > now || t == kNever) break;
    // Completions before starts at equal times: a completion may re-arm the
    // scheduler, and the order is fixed so the event stream is deterministic.
    if (done <= start) {
      complete_build(done);
    } else {
      start_due_build(start);
    }
    ++processed;
  }
  return processed;
}

void RouteService::start_due_build(double now) {
  if (stale_events() == 0) {
    // A patch (or an earlier rebuild) already made the epoch fresh.
    scheduler_.cancel();
    return;
  }
  if (build_active_) {
    // The in-flight build's completion path re-arms on failure.
    scheduler_.cancel();
    return;
  }
  if (!scheduler_.begin()) {
    record(now, EpochEventKind::kRebuildGiveUp, 0);
    return;
  }
  build_active_ = true;
  build_attempt_ = next_attempt_++;
  build_base_truth_ = truth_version_;
  build_will_crash_ = draw_crash(injection_.crash_next_rebuilds);
  build_completes_at_ = now + config_.rebuild.build_time;
  ++stats_.rebuilds_started;
  BSR_COUNT(RouteServiceRebuilds);
  record(now, EpochEventKind::kRebuildStart, build_attempt_);
}

void RouteService::complete_build(double now) {
  build_active_ = false;
  if (build_will_crash_) {
    ++stats_.rebuild_crashes;
    BSR_COUNT(RouteServiceRebuildCrashes);
    record(now, EpochEventKind::kRebuildCrash, build_attempt_);
    scheduler_.report(now, false);
    if (scheduler_.next_due() == kNever) {
      record(now, EpochEventKind::kRebuildGiveUp, build_attempt_);
    }
    return;
  }
  if (truth_version_ != build_base_truth_) {
    // Truth moved while we were building: the result is stale at birth.
    // Discard it (never observable) and restart — idempotent by
    // construction, since a build only swaps in on success.
    ++stats_.rebuilds_discarded;
    record(now, EpochEventKind::kRebuildDiscard, build_attempt_);
    scheduler_.report(now, false);
    if (scheduler_.next_due() == kNever) {
      record(now, EpochEventKind::kRebuildGiveUp, build_attempt_);
    }
    return;
  }
  build_epoch(now, build_attempt_);
  scheduler_.report(now, true);
}

bool RouteService::draw_crash(std::uint32_t& deterministic_queue) {
  if (deterministic_queue > 0) {
    --deterministic_queue;
    return true;
  }
  if (injection_.crash_prob > 0.0) {
    return crash_rng_.bernoulli(injection_.crash_prob);
  }
  return false;
}

void RouteService::record(double now, EpochEventKind kind, std::uint64_t attempt) {
  // Episode-lifecycle hygiene (episode.hpp stitches on these): a degrade is
  // recorded exactly when freshness is lost (so degrades never nest), and a
  // publish only ever lands truth-current (so it closes the open episode).
  BSR_DCHECK(kind != EpochEventKind::kDegrade || stale_events() > 0);
  BSR_DCHECK(kind != EpochEventKind::kPublish || stale_events() == 0);
  transitions_.push_back({now, kind, epoch_id_, truth_version_, attempt});
  switch (kind) {
    case EpochEventKind::kPublish:
      BSR_EVENT(RouteServiceEpochPublish, now, epoch_id_, attempt);
      break;
    case EpochEventKind::kPatch:
      BSR_EVENT(RouteServicePatch, now, epoch_id_, truth_version_);
      break;
    case EpochEventKind::kDegrade:
      BSR_EVENT(RouteServiceDegrade, now, epoch_id_, truth_version_);
      break;
    case EpochEventKind::kRebuildStart:
      BSR_EVENT(RouteServiceRebuildStart, now, epoch_id_, attempt);
      break;
    case EpochEventKind::kRebuildCrash:
      BSR_EVENT(RouteServiceRebuildCrash, now, epoch_id_, attempt);
      break;
    case EpochEventKind::kRebuildDiscard:
      BSR_EVENT(RouteServiceRebuildDiscard, now, epoch_id_, attempt);
      break;
    case EpochEventKind::kRebuildGiveUp:
      BSR_EVENT(RouteServiceRebuildGiveUp, now, epoch_id_, attempt);
      break;
  }
}

AnswerStatus RouteService::serving_status() const noexcept {
  if (null_epoch_) return AnswerStatus::kRefused;
  const std::uint64_t lag = stale_events();
  if (lag == 0) return AnswerStatus::kFresh;
  if (lag <= config_.max_stale_events) return AnswerStatus::kStaleServed;
  return AnswerStatus::kRefused;
}

void RouteService::eval(NodeId src, NodeId dst, RouteAnswer& answer) const {
  const NodeId n = graph_->num_vertices();
  BSR_DCHECK(src < n && dst < n);
  if (src >= n || dst >= n) {
    answer.status = AnswerStatus::kRefused;
    answer.reachable = false;
    return;
  }
  // Virtual tick model: each exit charges the flat-array loads the lookup
  // performed (liveness pair = 1, component pair = +1, landmark scan = +1
  // per row) and the stitch charges its parent-chain steps. Pure integer
  // arithmetic on values both the instrumented and the force-off builds
  // compute identically, so the twin comparison is unaffected.
  answer.lookup_ticks = 1;
  if (vertex_up_[src] == 0 || vertex_up_[dst] == 0) return;  // unreachable
  if (src == dst) {
    answer.reachable = true;
    answer.dist_bound = 0;
    answer.next_hop = src;
    answer.stitch_ticks = 1;
    return;
  }
  answer.lookup_ticks = 2;
  if (comp_[src] != comp_[dst]) return;
  answer.reachable = true;

  // Landmark triangle bound: min over trees covering both endpoints. Ties
  // break toward the lowest landmark index, so the sketch is deterministic.
  const std::size_t num_lm = landmarks_.size();
  std::uint32_t best = bsr::graph::kUnreachable;
  std::size_t best_l = num_lm;
  for (std::size_t li = 0; li < num_lm; ++li) {
    const std::size_t row = li * n;
    const std::uint16_t ds = lm_dist_[row + src];
    const std::uint16_t dt = lm_dist_[row + dst];
    if (ds == kLmUnreachable || dt == kLmUnreachable) continue;
    const std::uint32_t bound =
        static_cast<std::uint32_t>(ds) + static_cast<std::uint32_t>(dt);
    if (bound < best) {
      best = bound;
      best_l = li;
    }
  }
  answer.lookup_ticks = static_cast<std::uint16_t>(
      std::min<std::size_t>(2 + num_lm, 0xffff));
  if (best_l == num_lm) return;  // reachable (exact), but no sketch covers it
  answer.dist_bound = best;
  const std::size_t row = best_l * n;
  if (lm_dist_[row + src] > 0) {
    answer.next_hop = lm_parent_[row + src];
    answer.stitch_ticks = 1;
  } else {
    // src *is* the landmark: the next hop toward dst is the vertex on dst's
    // parent chain adjacent to src. O(dist) on a path of a dozen hops.
    std::uint16_t steps = 0;
    NodeId p = dst;
    while (lm_parent_[row + p] != src) {
      p = lm_parent_[row + p];
      ++steps;
    }
    answer.next_hop = p;
    answer.stitch_ticks = static_cast<std::uint16_t>(steps + 1);
  }
}

#if BSR_STATS_ENABLED
namespace {

/// One qtrace row from a served answer. The failure-episode correlation is
/// the truth version the epoch lagged behind (0 when served fresh), linking
/// the row to the degrade/rebuild journal chain of the same divergence.
bsr::obs::QueryTraceRow make_trace_row(std::uint64_t id, double now, NodeId src,
                                       NodeId dst, const RouteAnswer& a,
                                       std::uint64_t truth_version,
                                       std::uint64_t stale_behind) {
  bsr::obs::QueryTraceRow row;
  row.trace_id = id;
  row.time = now;
  row.epoch = a.epoch;
  row.correlation = stale_behind == 0 ? 0 : truth_version;
  row.src = static_cast<std::uint32_t>(src);
  row.dst = static_cast<std::uint32_t>(dst);
  row.dist_bound = a.dist_bound;
  row.stale_behind = stale_behind;
  row.admit_ticks = 1;
  row.lookup_ticks = a.lookup_ticks;
  row.stitch_ticks = a.stitch_ticks;
  row.status = static_cast<std::uint8_t>(a.status);
  row.reachable = a.reachable ? 1 : 0;
  return row;
}

}  // namespace
#endif

RouteAnswer RouteService::query(NodeId src, NodeId dst, double now) {
  RouteAnswer answer;
  answer.epoch = epoch_id_;
  bool admitted = true;
  if (config_.admit_rate > 0.0) {
    const double burst =
        config_.admit_burst > 0.0 ? config_.admit_burst : config_.admit_rate;
    const double rate =
        config_.admit_rate * (degraded() ? config_.degraded_admit_factor : 1.0);
    if (now > bucket_at_) {
      tokens_ = std::min(burst, tokens_ + (now - bucket_at_) * rate);
      bucket_at_ = now;
    }
    if (tokens_ >= 1.0) {
      tokens_ -= 1.0;
    } else {
      admitted = false;
    }
  }
  answer.status = admitted ? serving_status() : AnswerStatus::kShedded;
  if (answer.status == AnswerStatus::kFresh ||
      answer.status == AnswerStatus::kStaleServed) {
    eval(src, dst, answer);
  }
#if BSR_STATS_ENABLED
  if (bsr::obs::query_trace_enabled()) {
    bsr::obs::qtrace_record(
        0, make_trace_row(bsr::obs::qtrace_begin_batch(1), now, src, dst,
                          answer, truth_version_, stale_events()));
  }
#endif
  tally({&answer, 1}, now);
  return answer;
}

void RouteService::serve_batch(std::span<const Flow> queries, double now,
                               std::vector<RouteAnswer>& out) {
  out.assign(queries.size(), RouteAnswer{});
  const AnswerStatus base = serving_status();

  // Admission runs sequentially (the bucket is a running prefix sum), so the
  // per-index verdicts — and therefore every answer — are independent of how
  // the evaluation below is sharded.
  if (config_.admit_rate > 0.0) {
    const double burst =
        config_.admit_burst > 0.0 ? config_.admit_burst : config_.admit_rate;
    const double rate =
        config_.admit_rate * (degraded() ? config_.degraded_admit_factor : 1.0);
    if (now > bucket_at_) {
      tokens_ = std::min(burst, tokens_ + (now - bucket_at_) * rate);
      bucket_at_ = now;
    }
    for (std::size_t i = 0; i < queries.size(); ++i) {
      if (tokens_ >= queries[i].volume) {
        tokens_ -= queries[i].volume;
        out[i].status = base;
      } else {
        out[i].status = AnswerStatus::kShedded;
      }
    }
  } else {
    for (RouteAnswer& a : out) a.status = base;
  }

#if BSR_STATS_ENABLED
  // Trace ids are reserved on the control thread (program order); each shard
  // writes only its own ring, in increasing query-index order — the two
  // properties the snapshot's thread-count invariance rests on (qtrace.hpp).
  const bool tracing = bsr::obs::query_trace_enabled();
  const std::uint64_t trace_base =
      tracing ? bsr::obs::qtrace_begin_batch(queries.size()) : 0;
  const std::uint64_t stale_behind = stale_events();
#endif
  engine::for_each_shard(queries.size(),
                         [&](std::size_t shard, std::size_t begin, std::size_t end) {
                           static_cast<void>(shard);
                           for (std::size_t i = begin; i < end; ++i) {
                             RouteAnswer& a = out[i];
                             a.epoch = epoch_id_;
                             if (a.status == AnswerStatus::kFresh ||
                                 a.status == AnswerStatus::kStaleServed) {
                               eval(queries[i].src, queries[i].dst, a);
                             }
#if BSR_STATS_ENABLED
                             if (tracing) {
                               bsr::obs::qtrace_record(
                                   shard,
                                   make_trace_row(trace_base + i, now,
                                                  queries[i].src, queries[i].dst,
                                                  a, truth_version_,
                                                  stale_behind));
                             }
#endif
                           }
                         });
  tally(out, now);
}

void RouteService::tally(std::span<const RouteAnswer> answers, double now) {
  static_cast<void>(now);
  std::uint64_t fresh = 0, stale = 0, shed = 0, refused = 0;
  for (const RouteAnswer& a : answers) {
    switch (a.status) {
      case AnswerStatus::kFresh: ++fresh; break;
      case AnswerStatus::kStaleServed: ++stale; break;
      case AnswerStatus::kShedded: ++shed; break;
      case AnswerStatus::kRefused: ++refused; break;
    }
  }
#if BSR_STATS_ENABLED
  // Distribution plane: per-answer-tag tick and distance sketches, the
  // distance histogram, a batch-local sketch for the batch's own p99/max,
  // and the packed journal events the SLO monitor replays offline
  // (subject/correlation layout in journal.hpp). tally runs on the control
  // thread after the worker shards join (journal.hpp rule 3), so the global
  // sketch registry needs no locks, and both sketch_observe and the counter
  // TLS fast path are inline — the per-answer cost is a few integer adds.
  bsr::obs::QuantileSketch batch_ticks;
  for (const RouteAnswer& a : answers) {
    const std::uint64_t ticks =
        std::uint64_t{1} + a.lookup_ticks + a.stitch_ticks;
    batch_ticks.observe(ticks);
    const bool bounded =
        a.reachable && a.dist_bound != bsr::graph::kUnreachable;
    switch (a.status) {
      case AnswerStatus::kFresh:
        BSR_SKETCH(RouteTicksFresh, ticks);
        if (bounded) {
          BSR_SKETCH(RouteDistFresh, a.dist_bound);
          BSR_HISTO(RouteServiceDistBound, a.dist_bound);
        }
        break;
      case AnswerStatus::kStaleServed:
        BSR_SKETCH(RouteTicksStale, ticks);
        if (bounded) {
          BSR_SKETCH(RouteDistStale, a.dist_bound);
          BSR_HISTO(RouteServiceDistBound, a.dist_bound);
        }
        break;
      case AnswerStatus::kShedded:
        BSR_SKETCH(RouteTicksShedded, ticks);
        break;
      case AnswerStatus::kRefused:
        BSR_SKETCH(RouteTicksRefused, ticks);
        break;
    }
  }
  if (!answers.empty()) {
    stats_.last_batch_p99_ticks = batch_ticks.p99();
    stats_.last_batch_max_ticks = batch_ticks.max();
    BSR_EVENT(RouteServiceBatch, now, (fresh << 32) | stale,
              (shed << 32) | refused);
    BSR_EVENT(RouteServiceBatchCost, now,
              (stats_.last_batch_p99_ticks << 32) | stats_.last_batch_max_ticks,
              stale_events());
  }
#endif
  stats_.queries += answers.size();
  stats_.fresh += fresh;
  stats_.stale_served += stale;
  stats_.shedded += shed;
  stats_.refused += refused;
  if (stale > 0) {
    stats_.max_stale_served = std::max(stats_.max_stale_served, stale_events());
    BSR_GAUGE_MAX(RouteServiceStaleHighWater, stale_events());
  }
  BSR_COUNT_N(RouteServiceQueries, answers.size());
  BSR_COUNT_N(RouteServiceFresh, fresh);
  BSR_COUNT_N(RouteServiceStaleServed, stale);
  BSR_COUNT_N(RouteServiceShedded, shed);
  BSR_COUNT_N(RouteServiceRefused, refused);
}

std::vector<NodeId> RouteService::stitch_path(NodeId src, NodeId dst) const {
  const NodeId n = graph_->num_vertices();
  if (null_epoch_ || src >= n || dst >= n) return {};
  if (vertex_up_[src] == 0 || vertex_up_[dst] == 0) return {};
  if (src == dst) return {src};
  if (comp_[src] != comp_[dst]) return {};

  const std::size_t num_lm = landmarks_.size();
  std::uint32_t best = bsr::graph::kUnreachable;
  std::size_t best_l = num_lm;
  for (std::size_t li = 0; li < num_lm; ++li) {
    const std::size_t row = li * n;
    const std::uint16_t ds = lm_dist_[row + src];
    const std::uint16_t dt = lm_dist_[row + dst];
    if (ds == kLmUnreachable || dt == kLmUnreachable) continue;
    const std::uint32_t bound =
        static_cast<std::uint32_t>(ds) + static_cast<std::uint32_t>(dt);
    if (bound < best) {
      best = bound;
      best_l = li;
    }
  }
  if (best_l == num_lm) return {};

  const std::size_t row = best_l * n;
  const NodeId landmark = landmarks_[best_l];
  std::vector<NodeId> path;
  path.push_back(src);
  for (NodeId p = src; p != landmark;) {
    p = lm_parent_[row + p];
    path.push_back(p);
  }
  std::vector<NodeId> tail;
  for (NodeId q = dst; q != landmark; q = lm_parent_[row + q]) {
    tail.push_back(q);
  }
  path.insert(path.end(), tail.rbegin(), tail.rend());
  return path;
}

}  // namespace bsr::sim
