#include "sim/health.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "graph/check.hpp"
#include "graph/engine.hpp"
#include "graph/sampling.hpp"
#include "obs/journal.hpp"
#include "obs/stats.hpp"

namespace bsr::sim {

using bsr::graph::NodeId;

const char* to_string(HealthState state) noexcept {
  switch (state) {
    case HealthState::kHealthy: return "healthy";
    case HealthState::kSuspect: return "suspect";
    case HealthState::kQuarantined: return "quarantined";
    case HealthState::kProbation: return "probation";
  }
  return "?";
}

namespace {
constexpr double kNever = std::numeric_limits<double>::infinity();
}  // namespace

HealthMonitor::HealthMonitor(const bsr::graph::CsrGraph& g,
                             const bsr::broker::BrokerSet& brokers,
                             const bsr::graph::FaultPlane& faults,
                             const HealthConfig& config, NodeId vantage,
                             std::uint64_t jitter_seed)
    : graph_(&g),
      brokers_(&brokers),
      faults_(&faults),
      config_(config),
      vantage_(vantage),
      jitter_rng_(jitter_seed),
      ws_(g.num_vertices()) {
  if (config_.probe_interval <= 0.0 || config_.propagation_delay < 0.0) {
    throw std::invalid_argument(
        "HealthMonitor: probe_interval must be positive, delay non-negative");
  }
  if (config_.quarantine_after <= config_.suspect_after ||
      config_.suspect_after == 0) {
    throw std::invalid_argument(
        "HealthMonitor: need 0 < suspect_after < quarantine_after");
  }
  if (config_.probation_successes == 0 || config_.reprobe_backoff <= 0.0 ||
      config_.backoff_factor < 1.0 || config_.backoff_max < config_.reprobe_backoff) {
    throw std::invalid_argument("HealthMonitor: bad backoff configuration");
  }
  if (config_.jitter < 0.0 || config_.jitter >= 1.0) {
    throw std::invalid_argument("HealthMonitor: jitter must be in [0, 1)");
  }
  if (vantage_ >= g.num_vertices()) {
    throw std::invalid_argument("HealthMonitor: vantage out of range");
  }
  members_.assign(brokers.members().begin(), brokers.members().end());
  cells_.resize(members_.size());
  // Version 0: everything healthy, visible from the start.
  publish(0.0);
  dirty_ = false;
}

NodeId HealthMonitor::choose_vantage(const bsr::graph::CsrGraph& g,
                                     const bsr::broker::BrokerSet& brokers) {
  if (brokers.empty()) {
    throw std::invalid_argument("choose_vantage: empty broker set");
  }
  NodeId best = brokers.members().front();
  for (const NodeId v : brokers.members()) {
    if (g.degree(v) > g.degree(best)) best = v;
  }
  return best;
}

double HealthMonitor::next_event_time() const noexcept {
  double next = members_.empty()
                    ? kNever
                    : static_cast<double>(next_round_) * config_.probe_interval;
  for (const Cell& cell : cells_) {
    if (cell.state == HealthState::kQuarantined) {
      next = std::min(next, cell.next_reprobe);
    }
  }
  return next;
}

std::size_t HealthMonitor::advance(double now) {
  const std::size_t before = transitions_.size();
  while (true) {
    // Earliest due event; ties resolve probe round first, then re-probes in
    // ascending member index — a fixed order, so identical runs replay
    // identical transition and jitter-draw sequences.
    const double round_time =
        static_cast<double>(next_round_) * config_.probe_interval;
    double best = members_.empty() ? kNever : round_time;
    std::size_t best_reprobe = cells_.size();
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      if (cells_[i].state != HealthState::kQuarantined) continue;
      if (cells_[i].next_reprobe < best) {
        best = cells_[i].next_reprobe;
        best_reprobe = i;
      }
    }
    if (best > now) break;
    if (best_reprobe == cells_.size()) {
      probe_round(best);
      ++next_round_;
    } else {
      reprobe(best, best_reprobe);
    }
    if (dirty_) publish(best);
  }
  return transitions_.size() - before;
}

void HealthMonitor::add_broker(NodeId v, double now) {
  BSR_DCHECK(v < graph_->num_vertices());
  members_.push_back(v);
  cells_.emplace_back();
  // The routable bitmap must cover the recruit: publish the enlarged
  // membership right away (recruits start kHealthy).
  publish(now);
}

const HealthView& HealthMonitor::view_at(double now) const noexcept {
  // Views are published in increasing time order; scan back for the newest
  // one old enough to have propagated.
  for (std::size_t i = views_.size(); i-- > 1;) {
    if (views_[i].published_at + config_.propagation_delay <= now) {
      // Staleness in integral milli-units so the histogram is deterministic.
      BSR_HISTO(HealthViewStalenessMs,
                static_cast<std::uint64_t>((now - views_[i].published_at) * 1e3));
      return views_[i];
    }
  }
  BSR_HISTO(HealthViewStalenessMs,
            static_cast<std::uint64_t>((now - views_.front().published_at) * 1e3));
  return views_.front();
}

HealthState HealthMonitor::state_of(std::size_t member_index) const noexcept {
  BSR_DCHECK(member_index < cells_.size());
  return cells_[member_index].state;
}

std::size_t HealthMonitor::routable_count() const noexcept {
  std::size_t count = 0;
  for (const Cell& cell : cells_) {
    if (is_routable(cell.state)) ++count;
  }
  return count;
}

void HealthMonitor::refresh_reachability() {
  namespace engine = bsr::graph::engine;
  // One fault-aware dominated BFS answers every probe of the round. The
  // dominated filter uses the *full* membership mask: probes ride the data
  // plane's physical edges regardless of what the detector believes.
  engine::bfs(*graph_, vantage_, ws_,
              engine::BothFilters{engine::DominatedEdgeFilter{&brokers_->mask()},
                                  engine::FaultAwareFilter{faults_}});
  reach_valid_ = true;
}

bool HealthMonitor::probe_target(std::size_t index) {
  const NodeId b = members_[index];
  if (!faults_->vertex_ok(b) || !faults_->vertex_ok(vantage_)) return false;
  if (b == vantage_) return true;
  if (!reach_valid_) refresh_reachability();
  return ws_.visited(b);
}

void HealthMonitor::transition(double now, std::size_t index, HealthState to) {
  Cell& cell = cells_[index];
  BSR_DCHECK(cell.state != to);
  BSR_COUNT(HealthTransitions);
  // Leaving kHealthy opens a new failure episode; the id rides every later
  // transition (and repair event) of the same suspicion chain as `corr`.
  // Recovery clears it below, so an id is never reused across overlapping
  // failures of the same broker and healthy-cell probes carry corr 0.
  if (cell.state == HealthState::kHealthy) {
    BSR_DCHECK(cell.episode == 0);
    cell.episode = next_episode_++;
  }
  BSR_DCHECK(cell.episode != 0);
  transitions_.push_back({now, members_[index], cell.state, to, cell.episode});
  switch (to) {
    case HealthState::kSuspect:
      BSR_EVENT(HealthSuspect, now, members_[index], cell.episode);
      break;
    case HealthState::kQuarantined:
      BSR_EVENT(HealthQuarantine, now, members_[index], cell.episode);
      break;
    case HealthState::kProbation:
      BSR_EVENT(HealthProbation, now, members_[index], cell.episode);
      break;
    case HealthState::kHealthy:
      BSR_EVENT(HealthRecover, now, members_[index], cell.episode);
      break;
  }
  cell.state = to;
  // kHealthy is the episode's terminal: the journal has just recorded
  // HealthRecover, so the id retires here and the next failure allocates a
  // fresh one.
  if (to == HealthState::kHealthy) cell.episode = 0;
  dirty_ = true;
}

double HealthMonitor::backoff_delay(std::uint32_t level) {
  double delay = config_.reprobe_backoff;
  for (std::uint32_t i = 0; i < level; ++i) {
    delay = std::min(delay * config_.backoff_factor, config_.backoff_max);
  }
  const double factor =
      1.0 + config_.jitter * (2.0 * jitter_rng_.uniform01() - 1.0);
  return delay * factor;
}

void HealthMonitor::probe_round(double now) {
  ++rounds_;
  BSR_COUNT(HealthProbeRounds);
  reach_valid_ = false;  // fault state may have changed since last round
  BSR_STATS_ONLY(std::uint64_t probes_sent = 0;)
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    Cell& cell = cells_[i];
    // Quarantined brokers are only re-probed on their backoff schedule.
    if (cell.state == HealthState::kQuarantined) continue;
    BSR_STATS_ONLY(++probes_sent;)
    const bool ok = probe_target(i);
    if (ok) {
      BSR_EVENT(HealthProbeOk, now, members_[i], cell.episode);
    } else {
      BSR_EVENT(HealthProbeMiss, now, members_[i], cell.episode);
    }
    switch (cell.state) {
      case HealthState::kHealthy:
        if (ok) {
          cell.misses = 0;
        } else if (++cell.misses >= config_.suspect_after) {
          transition(now, i, HealthState::kSuspect);
        }
        break;
      case HealthState::kSuspect:
        if (ok) {
          cell.misses = 0;
          transition(now, i, HealthState::kHealthy);
        } else if (++cell.misses >= config_.quarantine_after) {
          transition(now, i, HealthState::kQuarantined);
          ++quarantines_;
          if (faults_->vertex_ok(members_[i])) ++false_quarantines_;
          cell.next_reprobe = now + backoff_delay(cell.backoff_level);
        }
        break;
      case HealthState::kProbation:
        if (ok) {
          if (++cell.successes >= config_.probation_successes) {
            cell.successes = 0;
            cell.misses = 0;
            // Recovery completes the hysteresis loop: backoff depth decays
            // one level rather than resetting, so a chronic flapper climbs
            // the backoff ladder across episodes.
            if (cell.backoff_level > 0) --cell.backoff_level;
            transition(now, i, HealthState::kHealthy);
          }
        } else {
          // Flap: straight back to quarantine, one backoff level deeper.
          cell.successes = 0;
          transition(now, i, HealthState::kQuarantined);
          ++quarantines_;
          if (faults_->vertex_ok(members_[i])) ++false_quarantines_;
          ++cell.backoff_level;
          cell.next_reprobe = now + backoff_delay(cell.backoff_level);
        }
        break;
      case HealthState::kQuarantined:
        break;  // unreachable
    }
  }
  BSR_COUNT_N(HealthProbesSent, probes_sent);
}

void HealthMonitor::reprobe(double now, std::size_t index) {
  Cell& cell = cells_[index];
  BSR_DCHECK(cell.state == HealthState::kQuarantined);
  BSR_COUNT(HealthReprobes);
  BSR_COUNT(HealthProbesSent);
  reach_valid_ = false;  // point-in-time probe: refresh against current faults
  if (probe_target(index)) {
    BSR_EVENT(HealthProbeOk, now, members_[index], cell.episode);
    cell.successes = 0;
    transition(now, index, HealthState::kProbation);
  } else {
    BSR_EVENT(HealthProbeMiss, now, members_[index], cell.episode);
    ++cell.backoff_level;
    cell.next_reprobe = now + backoff_delay(cell.backoff_level);
  }
}

void HealthMonitor::publish(double now) {
  BSR_COUNT(HealthViewsPublished);
  BSR_EVENT(HealthViewPublish, now, views_.size(), 0);
  HealthView view;
  view.version = views_.size();
  view.published_at = now;
  view.states.reserve(cells_.size());
  view.routable.assign(graph_->num_vertices(), false);
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    view.states.push_back(cells_[i].state);
    if (is_routable(cells_[i].state)) view.routable[members_[i]] = true;
  }
  views_.push_back(std::move(view));
  dirty_ = false;
}

// --- measurement helpers ----------------------------------------------------

double lhop_connectivity(const bsr::graph::CsrGraph& g,
                         const std::vector<bool>& usable_brokers,
                         const bsr::graph::FaultPlane* faults, std::uint32_t l,
                         bsr::graph::Rng& rng, std::size_t num_sources) {
  namespace engine = bsr::graph::engine;
  BSR_DCHECK(usable_brokers.size() == g.num_vertices());
  const NodeId n = g.num_vertices();
  if (n < 2) return 0.0;
  const auto sources = bsr::graph::sample_distinct(
      rng, n, static_cast<NodeId>(std::min<std::size_t>(num_sources, n)));
  engine::Workspace& ws = engine::tls_workspace();
  const engine::DominatedEdgeFilter dom{&usable_brokers};
  std::uint64_t within = 0;
  for (const NodeId s : sources) {
    if (faults != nullptr) {
      if (!faults->vertex_ok(s)) continue;  // a dark source reaches nothing
      engine::bfs_bounded(g, s, l, ws,
                          engine::BothFilters{dom, engine::FaultAwareFilter{faults}});
    } else {
      engine::bfs_bounded(g, s, l, ws, dom);
    }
    within += ws.visit_order().size() - 1;  // exclude the source itself
  }
  return static_cast<double>(within) /
         (static_cast<double>(sources.size()) * static_cast<double>(n - 1));
}

}  // namespace bsr::sim
