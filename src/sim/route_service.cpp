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

static_assert(kNoNextHop == engine::kLaneNoParent);

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

void RouteService::build_epoch(double now, std::uint64_t attempt) {
  const NodeId n = graph_->num_vertices();
  usable_broker_count_ = usable_brokers(vertex_up_, usable_mask_);
  failed_edges_ = failed_edges();
  null_epoch_ = usable_broker_count_ == 0;
  uf_.reset(n);
  comp_.resize(n);
  landmarks_.clear();
  if (null_epoch_) {
    lm_dist_.clear();
    lm_parent_.clear();
  } else {
    // Compaction -> lane sweep -> components read off the lanes. The
    // compacted G_B is build scratch, dropped when the build ends.
    const engine::Subgraph usable =
        engine::compact_dominated(*graph_, usable_mask_, faults_);

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

    // Every landmark tree in sweeps of up to 16 lanes, each writing its
    // entries, sentinels included, straight into both tables: nothing fills
    // them first, and a same-size rebuild reuses their storage.
    const std::size_t num_lm = landmarks_.size();
    lm_dist_.resize(n * num_lm);
    lm_parent_.resize(num_lm * n);
    engine::lane_sweep(usable, landmarks_, lm_dist_, lm_parent_);

    // Components from the lanes. A lane reaches exactly its landmark's
    // component, so a vertex some lane reached joins the lowest such landmark
    // (the first finite entry of its row), which stays that component's
    // root: its first unite is a tie between singletons and every later one
    // adds a singleton to it. Only the vertices no landmark reaches unite
    // their compacted edges; their labels are read back once all are in.
    BSR_STATS_ONLY(std::uint64_t scans = 0; std::uint64_t admitted = 0;)
    for (NodeId v = 0; v < n; ++v) {
      const std::uint16_t* row = lm_dist_.data() + std::size_t{v} * num_lm;
      const std::size_t li = static_cast<std::size_t>(
          std::find_if(row, row + num_lm,
                       [](std::uint16_t d) { return d != kLmUnreachable; }) -
          row);
      if (li != num_lm) {
        uf_.unite(landmarks_[li], v);
        comp_[v] = landmarks_[li];
        continue;
      }
      comp_[v] = kNoNextHop;
      const auto neigh = usable.neighbors(v);
      BSR_STATS_ONLY(scans += neigh.size();)
      for (const NodeId u : neigh) {
        if (v < u) {
          BSR_STATS_ONLY(++admitted;)
          uf_.unite(v, u);
        }
      }
    }
    BSR_COUNT_N(EngineUniteEdgeScans, scans);
    BSR_COUNT_N(EngineUniteAdmitted, admitted);
    for (NodeId v = 0; v < n; ++v) {
      if (comp_[v] == kNoNextHop) comp_[v] = uf_.find(v);
    }
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
  // Heal-only delta: the usable edge set can only have grown, so uniting the
  // new edges on top of the epoch's union-find yields exactly the current
  // edge set — reachability stays exact, the landmark bounds stay
  // admissible (paths only got shorter), and old next hops stay usable.
  // A patch runs on a fresh epoch, so every change since the snapshot was a
  // heal. A new edge either has an endpoint whose up or usable state
  // changed, or is a link that came back, which only lowers the failed-link
  // count; every G_B edge has a usable-broker endpoint, so after a link heal
  // the usable brokers' stars cover the rest. One loop unites both kinds of
  // star under the filter pair a build compacts with (without a plane
  // nothing comes back, and it unites nothing). Roots may differ from a
  // fresh build's; comp_ is only compared for equality. Staged through
  // temporaries + a checkpoint so an injected crash leaves the serving epoch
  // untouched.
  std::vector<std::uint8_t> new_up;
  std::vector<bool> new_mask;
  const std::size_t new_count = usable_brokers(new_up, new_mask);
  const std::uint64_t new_failed_edges = failed_edges();
  const bool link_healed = new_failed_edges < failed_edges_;
  const NodeId n = graph_->num_vertices();

  const auto mark = uf_.checkpoint();
  const bool crash = draw_crash(injection_.crash_next_patches);
  const engine::BothFilters<engine::DominatedEdgeFilter, engine::FaultAwareFilter>
      admit{engine::DominatedEdgeFilter{&new_mask}, engine::FaultAwareFilter{faults_}};
  for (NodeId v = 0; v < n; ++v) {
    const bool changed =
        new_up[v] != vertex_up_[v] || new_mask[v] != usable_mask_[v];
    if (changed || (link_healed && new_mask[v])) {
      engine::unite_star(*graph_, uf_, v, admit);
    }
  }
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
  failed_edges_ = new_failed_edges;
  for (NodeId v = 0; v < n; ++v) comp_[v] = uf_.find(v);
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

// `inline`: without it GCC keeps this out of line and eval pays a call per
// reachable query.
inline RouteService::Landmark RouteService::best_landmark(NodeId src,
                                                          NodeId dst) const {
  // Landmark triangle bound: min over trees covering both endpoints. Ties
  // break toward the lowest landmark index, so the sketch is deterministic.
  // Both endpoints' distances are one contiguous row each.
  const std::size_t num_lm = landmarks_.size();
  const std::uint16_t* src_row = lm_dist_.data() + std::size_t{src} * num_lm;
  const std::uint16_t* dst_row = lm_dist_.data() + std::size_t{dst} * num_lm;
  Landmark best{num_lm, bsr::graph::kUnreachable};
  for (std::size_t li = 0; li < num_lm; ++li) {
    const std::uint16_t ds = src_row[li];
    const std::uint16_t dt = dst_row[li];
    if (ds == kLmUnreachable || dt == kLmUnreachable) continue;
    const std::uint32_t bound =
        static_cast<std::uint32_t>(ds) + static_cast<std::uint32_t>(dt);
    if (bound < best.bound) best = {li, bound};
  }
  return best;
}

RouteService::Landmark RouteService::lookup(NodeId src, NodeId dst,
                                            RouteAnswer& answer) const {
  const Landmark complete{landmarks_.size(), bsr::graph::kUnreachable};
  const NodeId n = graph_->num_vertices();
  if (src >= n || dst >= n) {
    answer.status = AnswerStatus::kRefused;
    answer.reachable = false;
    return complete;
  }
  // Virtual tick model: each exit charges the flat-array loads the lookup
  // performed (liveness pair = 1, component pair = +1, landmark scan = +1
  // per landmark) and the stitch charges its parent-chain steps. Pure integer
  // arithmetic on values both the instrumented and the force-off builds
  // compute identically, so the twin comparison is unaffected.
  answer.lookup_ticks = 1;
  if (vertex_up_[src] == 0 || vertex_up_[dst] == 0) return complete;  // unreachable
  if (src == dst) {
    answer.reachable = true;
    answer.dist_bound = 0;
    answer.next_hop = src;
    answer.stitch_ticks = 1;
    return complete;
  }
  answer.lookup_ticks = 2;
  if (comp_[src] != comp_[dst]) return complete;
  answer.reachable = true;

  const Landmark best = best_landmark(src, dst);
  answer.lookup_ticks = static_cast<std::uint16_t>(
      std::min<std::size_t>(2 + landmarks_.size(), 0xffff));
  // index == size: reachable, but no sketch covers it.
  if (best.index != landmarks_.size()) answer.dist_bound = best.bound;
  return best;
}

void RouteService::stitch(NodeId src, NodeId dst, const Landmark& best,
                          RouteAnswer& answer) const {
  const std::size_t row = best.index * graph_->num_vertices();
  if (lm_dist_[std::size_t{src} * landmarks_.size() + best.index] > 0) {
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

RouteAnswer RouteService::query(NodeId src, NodeId dst, double now) {
  const Flow flow{src, dst, 1.0};
  RouteAnswer answer;
  serve({&flow, 1}, now, {&answer, 1});
  return answer;
}

void RouteService::serve_batch(std::span<const Flow> queries, double now,
                               std::vector<RouteAnswer>& out) {
  out.assign(queries.size(), RouteAnswer{});
  serve(queries, now, out);
}

void RouteService::serve(std::span<const Flow> queries, double now,
                         std::span<RouteAnswer> out) {
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

  const auto evaluated = [](AnswerStatus status) {
    return status == AnswerStatus::kFresh || status == AnswerStatus::kStaleServed;
  };
  engine::for_each_shard(queries.size(), [&](std::size_t, std::size_t begin,
                                             std::size_t end) {
    // Group prefetch, software-pipelined in three stages k flows apart. The
    // lines a lookup reads are known from a flow's ids alone, so step j
    // prefetches them for flow j; step j then looks up flow j - k from its
    // cached lines and prefetches the one parent entry that lookup picked
    // (known only now); and it stitches flow j - 2k's next hop from that
    // entry. The misses of k flows overlap at both prefetching stages. Only
    // flows that will be evaluated are prefetched, which skips shed ones and
    // every flow of a null epoch (all refused), and an id past the graph
    // forms no address.
    // The prefetches stay in this loop's body: GCC finds a helper that only
    // prefetches free of side effects and deletes the calls to it.
    constexpr std::size_t k = kPrefetchDistance;
    const NodeId n = graph_->num_vertices();
    const std::size_t num_lm = landmarks_.size();
    // Flow i's pick, from its lookup to its stitch; slot i % 2k is next
    // written by flow i + 2k's lookup, after flow i's stitch.
    std::array<Landmark, 2 * k> picks;
    for (std::size_t j = begin; j < end + 2 * k; ++j) {
      if (j < end && evaluated(out[j].status)) {
        const NodeId src = queries[j].src;
        const NodeId dst = queries[j].dst;
        if (src < n && dst < n) {
          __builtin_prefetch(&vertex_up_[src]);
          __builtin_prefetch(&vertex_up_[dst]);
          __builtin_prefetch(&comp_[src]);
          __builtin_prefetch(&comp_[dst]);
          if (num_lm != 0) {  // else an epoch built with num_landmarks = 0
            __builtin_prefetch(&lm_dist_[std::size_t{src} * num_lm]);
            __builtin_prefetch(&lm_dist_[std::size_t{dst} * num_lm]);
          }
        }
      }
      if (j >= begin + k && j < end + k) {
        const std::size_t i = j - k;
        RouteAnswer& a = out[i];
        a.epoch = epoch_id_;
        Landmark& pick = picks[i % (2 * k)];
        pick.index = num_lm;  // nothing to stitch
        if (evaluated(a.status)) {
          pick = lookup(queries[i].src, queries[i].dst, a);
          if (pick.index != num_lm) {
            __builtin_prefetch(&lm_parent_[pick.index * n + queries[i].src]);
          }
        }
      }
      if (j >= begin + 2 * k) {
        const std::size_t i = j - 2 * k;
        const Landmark& pick = picks[i % (2 * k)];
        if (pick.index != num_lm) stitch(queries[i].src, queries[i].dst, pick, out[i]);
      }
    }
  });
  tally(queries, out, now);
}

void RouteService::tally(std::span<const Flow> queries,
                         std::span<const RouteAnswer> answers, double now) {
  static_cast<void>(queries);
  static_cast<void>(now);
  // Distribution plane (BSR_STATS builds). Per answer, tally only stages:
  // its ticks go into its tag's bucket counts and a bounded distance into
  // its tag's distance counts, both by QuantileSketch's bucket map, in the
  // same pass that counts the tags. Once per batch (below) the stages merge
  // into the registry by integer adds. tally runs on the control thread
  // after the worker shards join (journal.hpp rule 3), so the stages, the
  // registry and the trace ring need no locks.
  //
  // Staging is one increment per answer and stage; the rest is branches
  // that are rarely taken once a batch's range is known. A value's sum is
  // its bucket's lower bound, which the merge multiplies out, plus an excess
  // stored only for the rare value past the exact buckets.
#if BSR_STATS_ENABLED
  using bsr::obs::QuantileSketch;
  static_assert(QuantileSketch::bucket_of(1 + 2 * 0xffff) < kStageBuckets);
  const auto stage = [](Stage& st, std::uint64_t v) {
    const std::size_t b = QuantileSketch::bucket_of(v);
    ++st.counts[b];
    if (b >= st.top) st.top = b + 1;
    if (b >= 2 * QuantileSketch::kSubBuckets) {
      st.excess += v - QuantileSketch::bucket_lower(b);
    }
  };
#endif
  std::uint64_t fresh = 0, stale = 0, shed = 0, refused = 0;
  for (const RouteAnswer& a : answers) {
    switch (a.status) {
      case AnswerStatus::kFresh: ++fresh; break;
      case AnswerStatus::kStaleServed: ++stale; break;
      case AnswerStatus::kShedded: ++shed; break;
      case AnswerStatus::kRefused: ++refused; break;
    }
#if BSR_STATS_ENABLED
    const auto tag = static_cast<std::size_t>(a.status);
    stage(tick_stage_[tag], std::uint64_t{1} + a.lookup_ticks + a.stitch_ticks);
    if (a.reachable && a.dist_bound != bsr::graph::kUnreachable) {
      // Only evaluated (fresh or stale-served) answers are reachable.
      BSR_DCHECK(tag < dist_stage_.size());
      stage(dist_stage_[tag], a.dist_bound);
    }
#endif
  }
#if BSR_STATS_ENABLED
  if (bsr::obs::query_trace_enabled()) {
    // One row per answer in query order, staged kTraceChunk rows at a time
    // and handed to the ring one chunk per call (a batch of up to
    // kTraceChunk flows is one call). The failure-episode correlation is
    // the truth version the epoch lagged behind (0 when served fresh),
    // linking the row to the degrade/rebuild journal chain of the same
    // divergence. Kept out of the sketch loop above: folding it in measured
    // slower in perf_obs's traced twin.
    bsr::obs::QueryTraceRow row;
    row.time = now;
    row.stale_behind = stale_events();
    row.correlation = row.stale_behind == 0 ? 0 : truth_version_;
    row.admit_ticks = 1;
    trace_rows_.resize(std::min(answers.size(), kTraceChunk));
    for (std::size_t base = 0; base < answers.size(); base += kTraceChunk) {
      const std::size_t count = std::min(answers.size() - base, kTraceChunk);
      for (std::size_t j = 0; j < count; ++j) {
        const RouteAnswer& a = answers[base + j];
        row.epoch = a.epoch;
        row.src = static_cast<std::uint32_t>(queries[base + j].src);
        row.dst = static_cast<std::uint32_t>(queries[base + j].dst);
        row.dist_bound = a.dist_bound;
        row.lookup_ticks = a.lookup_ticks;
        row.stitch_ticks = a.stitch_ticks;
        row.status = static_cast<std::uint8_t>(a.status);
        row.reachable = a.reachable ? 1 : 0;
        trace_rows_[j] = row;
      }
      bsr::obs::qtrace_record_batch({trace_rows_.data(), count});
    }
  }
  if (!answers.empty()) {
    // The merge: each stage adds into its registry sketch and is cleared
    // over the range the batch occupied. Distance buckets also feed the
    // dist_bound histogram: a sketch bucket never straddles a power of two,
    // so sketch bucket b lies in histogram bucket bucket_of(bucket_lower(b)).
    // The tick stages sum into batch_ticks_, whose p99 and max are the
    // batch's own by quantile()'s rank rule. Every registry byte, both
    // fields and the BatchCost event are as if each answer were observed
    // into a sketch on its own.
    using bsr::obs::Sketch;
    const auto merge = [](Stage& st, Sketch slot, auto&& each) {
      if (st.top == 0) return;  // nothing staged
      const std::span<std::uint64_t> occupied(st.counts.data(), st.top);
      std::uint64_t sum = st.excess;
      for (std::size_t b = 0; b < occupied.size(); ++b) {
        sum += QuantileSketch::bucket_lower(b) * occupied[b];
        each(b, occupied[b]);
      }
      bsr::obs::sketch_merge_counts(slot, occupied, sum);
      std::fill(occupied.begin(), occupied.end(), 0);
      st.excess = 0;
      st.top = 0;
    };
    constexpr std::array<Sketch, 4> kTickSlots = {
        Sketch::kRouteTicksFresh, Sketch::kRouteTicksStale,
        Sketch::kRouteTicksShedded, Sketch::kRouteTicksRefused};
    constexpr std::array<Sketch, 2> kDistSlots = {Sketch::kRouteDistFresh,
                                                  Sketch::kRouteDistStale};
    std::size_t top = 0;
    for (std::size_t tag = 0; tag < tick_stage_.size(); ++tag) {
      top = std::max(top, tick_stage_[tag].top);
      merge(tick_stage_[tag], kTickSlots[tag],
            [this](std::size_t b, std::uint64_t c) { batch_ticks_[b] += c; });
    }
    for (std::size_t tag = 0; tag < dist_stage_.size(); ++tag) {
      merge(dist_stage_[tag], kDistSlots[tag], [](std::size_t b, std::uint64_t c) {
        if (c == 0) return;
        bsr::obs::observe(bsr::obs::Histogram::kRouteServiceDistBound,
                          QuantileSketch::bucket_lower(b), c);
      });
    }
    const std::span<std::uint64_t> occupied(batch_ticks_.data(), top);
    stats_.last_batch_p99_ticks = QuantileSketch::bucket_lower(
        QuantileSketch::quantile_bucket(occupied, answers.size(), 0.99));
    stats_.last_batch_max_ticks = QuantileSketch::bucket_lower(top - 1);
    std::fill(occupied.begin(), occupied.end(), 0);
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

  const Landmark best = best_landmark(src, dst);
  if (best.index == landmarks_.size()) return {};
  const std::size_t row = best.index * n;
  const NodeId landmark = landmarks_[best.index];
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
