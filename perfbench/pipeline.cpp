#include "pipeline.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include <sys/resource.h>
#include <unistd.h>

#include "broker/maxsg.hpp"
#include "broker/robust.hpp"
#include "graph/engine.hpp"
#include "graph/fault_plane.hpp"
#include "graph/renumbering.hpp"
#include "graph/rng.hpp"
#include "obs/episode.hpp"
#include "obs/export.hpp"
#include "obs/journal.hpp"
#include "obs/qtrace.hpp"
#include "obs/sketch.hpp"
#include "obs/slo.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"
#include "sim/route_service.hpp"
#include "stats.hpp"
#include "topology/renumber.hpp"
#include "topology/serialization.hpp"

namespace bsr::perfbench {

using bsr::graph::NodeId;
using bsr::sim::Flow;
using bsr::sim::RouteAnswer;
using bsr::sim::RouteService;

Sizes sizes_for(const std::string& workload, int seconds) {
  const int t = std::max(1, seconds);
  Sizes s;
  if (workload == "serve_churn") {
    // A pass (~6 s) keeps its size; longer runs make more passes, so the
    // churn loops, whose samples no round can spread, spread over the run.
    s.passes = std::max(3, t / 2);
    s.maxsg_reps = 2;
    s.build_reps = 0;
    s.churn_cycles = 8;
    s.report_renders = 6;
  } else if (workload == "stress") {
    // Every stage here takes seconds, so one pass already spreads them; one
    // setup (~8 s) is already a long sample. Its churn steps take ~13 us
    // between publishes of ~0.7 s, so three cycles spread them over ~8 s.
    s.stress = true;
    s.passes = 1;
    s.churn_cycles = 3;
    s.maxsg_k = kStressBrokers;
    s.robust_k = 6;
    s.robust_reps = 2;
    s.build_reps = std::max(3, t / 3);
    s.bulk_chunks = std::max(3, t / 3);
    s.report_renders = std::max(8, 4 * t / 3);
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  return s;
}

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Current resident set in MiB (0 where /proc is unavailable).
double rss_mb() {
  long pages = 0;
  long resident = 0;
  std::ifstream statm("/proc/self/statm");
  if (!(statm >> pages >> resident)) return 0.0;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

/// getrusage high-water resident set in MiB.
double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Flows per bulk batch.
constexpr std::size_t kBulkBatch = 65'536;

/// Timed batches per bulk chunk, and so per tail sample: the highest
/// percentile with ten batches beyond it is then p90.9 on every workload.
constexpr std::size_t kTailChunk = 110;

// --- serve_churn service configuration -------------------------------------

constexpr std::uint64_t kMaxStale = 2;
constexpr std::size_t kChurnBatch = 32;
constexpr double kCrashProb = 0.05;
constexpr const char* kSloSpec =
    "fresh_min=0.5,refusal_max=0.2,p99_max=64,stale_max=4,window=2,long_window=8";

/// Admission sized from the pool: 1.5x the mean offered volume while fresh,
/// a quarter of that while degraded; the burst admits the largest flow.
bsr::sim::RouteServiceConfig churn_config(const std::vector<Flow>& pool) {
  double volume = 0.0;
  for (const Flow& f : pool) volume += f.volume;
  const double mean = pool.empty() ? 1.0 : volume / static_cast<double>(pool.size());
  bsr::sim::RouteServiceConfig cfg;
  cfg.max_stale_events = kMaxStale;
  cfg.rebuild.build_time = 0.5;
  cfg.rebuild.retry_backoff = 0.1;
  cfg.rebuild.retry_factor = 2.0;
  cfg.rebuild.retry_max = 1.6;
  cfg.admit_rate = 1.5 * static_cast<double>(kChurnBatch) * mean / kStepDt;
  cfg.admit_burst = 2000.0;
  cfg.degraded_admit_factor = 0.25;
  return cfg;
}

// --- one pass ----------------------------------------------------------------

struct BulkSample {
  std::size_t offset = 0;
  std::vector<RouteAnswer> answers;
};

struct Audit {
  double now = 0.0;
  std::size_t offset = 0;
  std::vector<NodeId> failed;  // hubs down at the audited step
  std::vector<RouteAnswer> answers;
  bool exact = true;  // no in-place patch since the serving epoch was built
};

/// Where a pass samples its resident set: after setup, after its first
/// MaxSG call, once its first oracle is built, and at its end.
enum RssPoint { kRssLoad, kRssSelect, kRssBuild, kRssServe, kRssPoints };
constexpr const char* kRssNames[kRssPoints] = {"load", "select", "build", "serve"};

/// What the passes of one run measured, appended pass by pass. Timings in
/// seconds; counts are totals over the passes.
struct Samples {
  std::vector<double> setup, maxsg, robust, build, batch, report;
  std::vector<double> step_serve, step_patch, step_publish;
  double maxsg_orig = 0.0;  // traced passes only
  double churn_wall = 0.0;
  std::uint64_t churn_steps = 0;
  std::uint64_t bulk_queries = 0;
  std::uint64_t bulk_fresh = 0;
  bsr::sim::RouteServiceStats churn;  // counts summed, max_stale_served maxed
  std::uint64_t audit_failed = 0;
  std::uint64_t journal_recorded = 0;
  std::uint64_t journal_dropped = 0;
  std::uint64_t qtrace_rows = 0;
  std::uint64_t qtrace_dropped = 0;
  std::uint64_t episodes = 0;
  std::uint64_t malformed = 0;
  std::uint64_t export_bytes = 0;  // one render per pass
  double gap_ratio = 0.0;
  std::array<double, kRssPoints> rss{};  // of the last pass
  double wall = 0.0;

  void add_churn(const bsr::sim::RouteServiceStats& x) {
    churn.queries += x.queries;
    churn.fresh += x.fresh;
    churn.stale_served += x.stale_served;
    churn.shedded += x.shedded;
    churn.refused += x.refused;
    churn.rebuilds_started += x.rebuilds_started;
    churn.rebuild_crashes += x.rebuild_crashes;
    churn.rebuilds_discarded += x.rebuilds_discarded;
    churn.patches += x.patches;
    churn.patch_crashes += x.patch_crashes;
    churn.epochs_published += x.epochs_published;
    churn.max_stale_served = std::max(churn.max_stale_served, x.max_stale_served);
  }
};

/// RAII phase span; records only in the traced pass.
struct Phase {
  Phase(bool on, const char* name) {
    if (on) span.emplace(name);
  }
  std::optional<bsr::obs::Span> span;
};

/// One pass of the pipeline: setup, the churn loop, then `rounds` rounds
/// over which every other stage's calls are spread evenly (calls_in_round):
/// the MaxSG calls, robust_maxsg, the fault-free builds, the bulk batches
/// and one report render per round. The host's speed swings within seconds,
/// so each metric's samples cover the whole pass instead of one burst of
/// it. The churn loop comes first because the report renders its journal.
class Pass {
 public:
  Pass(const RunConfig& config, bool traced, int index, const std::vector<Flow>& flows,
       const ChurnSchedule& schedule, Samples& samples)
      : config_(config),
        sizes_(config.sizes),
        traced_(traced),
        index_(index),
        flows_(flows),
        schedule_(schedule),
        churn_cfg_(churn_config(flows)),
        slo_spec_(bsr::obs::parse_slo_spec(kSloSpec)),
        rng_(derive_seed(config.seed, 100 + static_cast<std::uint64_t>(index))),
        s_(samples) {
    const std::size_t timed = static_cast<std::size_t>(sizes_.bulk_chunks) * kTailChunk;
    bulk_next_ = static_cast<std::size_t>(index_) * timed;  // pool position
    sample_a_ = rng_.uniform(timed);
    sample_b_ = rng_.uniform(timed);
  }

  void run() {
    const auto t0 = Clock::now();
    setup();
    note_rss(kRssLoad);
    churn();
    const int rounds = sizes_.report_renders;
    const int batches = sizes_.bulk_chunks * static_cast<int>(kTailChunk);
    for (int r = 0; r < rounds; ++r) {
      for (int n = calls_in_round(sizes_.maxsg_reps, rounds, r); n > 0; --n) maxsg();
      for (int n = calls_in_round(sizes_.robust_reps, rounds, r); n > 0; --n) robust();
      for (int n = calls_in_round(sizes_.build_reps, rounds, r); n > 0; --n) build();
      bulk(calls_in_round(batches, rounds, r));
      render_report();
    }
    if (traced_) maxsg_original();
    note_rss(kRssServe);
    s_.episodes += episodes_.episodes.size();
    s_.malformed += episodes_.malformed;
    s_.wall += seconds_since(t0);
  }

  /// Output checks of this pass; untimed, after run().
  [[nodiscard]] CheckResult verify();

 private:
  template <class F>
  decltype(auto) call(const char* span, F&& f) {
    if (!traced_) return f();
    bsr::obs::Span guard(span);
    return f();
  }

  void note_rss(RssPoint point) {
    if (rss_taken_[point]) return;
    s_.rss[point] = rss_mb();
    rss_taken_[point] = true;
  }

  const bsr::graph::CsrGraph& graph() const { return topo_.graph; }
  std::uint32_t maxsg_k() const {
    return sizes_.maxsg_k != 0 ? sizes_.maxsg_k : planned_broker_count(topo_.num_vertices());
  }
  void start_recorder();
  void make_churn_service();
  void setup();
  void churn();
  void maxsg();
  void maxsg_original();
  void robust();
  void build();
  void bulk(int batches);
  void render_report();

  const RunConfig& config_;
  const Sizes& sizes_;
  const bool traced_;
  const int index_;
  const std::vector<Flow>& flows_;
  const ChurnSchedule& schedule_;
  const bsr::sim::RouteServiceConfig churn_cfg_;
  const bsr::obs::SloSpec slo_spec_;
  bsr::graph::Rng rng_;
  Samples& s_;
  bool rendered_ = false;
  std::array<bool, kRssPoints> rss_taken_{};
  std::size_t bulk_next_ = 0;  // next pool window of the bulk loop
  std::size_t bulk_timed_ = 0;  // timed bulk batches so far
  std::size_t sample_a_ = 0;    // timed batches kept for the checks
  std::size_t sample_b_ = 0;

  // Pipeline state. Services hold references into topo_, brokers_ and
  // faults_, so they are declared after them and destroyed first.
  bsr::topology::InternetTopology topo_;
  std::optional<bsr::topology::RenumberedTopology> ren_;
  bsr::broker::BrokerSet brokers_;
  std::vector<NodeId> planned_;  // the input broker list
  std::unique_ptr<RouteService> bulk_service_;
  std::unique_ptr<bsr::graph::FaultPlane> faults_;
  std::unique_ptr<RouteService> churn_service_;
  std::vector<RouteAnswer> bulk_out_;

  // Outputs of this pass, kept for its checks.
  std::optional<bsr::broker::MaxSgResult> maxsg_;
  std::optional<bsr::broker::MaxSgResult> maxsg_orig_;
  std::optional<bsr::broker::RobustResult> robust_;
  std::size_t repeats_ = 0;         // repeated maxsg calls compared
  std::size_t repeat_mismatch_ = 0;
  std::vector<BulkSample> bulk_samples_;
  std::vector<Audit> audits_;
  bsr::sim::RouteServiceStats churn_stats_;
  bsr::obs::Journal journal_;
  bsr::obs::QtraceSnapshot qtrace_;
  bsr::obs::EpisodeReport episodes_;
};

void Pass::start_recorder() {
  // Two journal events per batch plus the control events of every cycle;
  // sized so nothing is dropped.
  const std::size_t steps = static_cast<std::size_t>(sizes_.churn_cycles) * kCycleSteps;
  bsr::obs::JournalOptions journal;
  journal.capacity =
      std::bit_ceil(2 * steps + 64 * static_cast<std::size_t>(sizes_.churn_cycles) + 4096);
  call("obs::start_recording", [&] { bsr::obs::start_recording(journal); });
  call("obs::start_query_trace", [&] { bsr::obs::start_query_trace(); });
}

void Pass::make_churn_service() {
  faults_ = call("graph::FaultPlane",
                 [&] { return std::make_unique<bsr::graph::FaultPlane>(graph()); });
  bsr::sim::RebuildInjection injection;
  injection.crash_prob = kCrashProb;
  injection.seed = derive_seed(schedule_.crash_seed, static_cast<std::uint64_t>(index_));
  churn_service_ = call("sim::RouteService", [&] {
    return std::make_unique<RouteService>(graph(), brokers_, faults_.get(), churn_cfg_,
                                          injection);
  });
}

void Pass::setup() {
  Phase phase(traced_, "setup");
  const std::string& topo_path = sizes_.stress ? config_.inputs.topo10 : config_.inputs.topo1;
  const std::string& brokers_path =
      sizes_.stress ? config_.inputs.brokers10 : config_.inputs.brokers1;
  const auto t0 = Clock::now();
  topo_ = call("topology::load_topology_file",
               [&] { return bsr::topology::load_topology_file(topo_path); });
  const auto renumber = [&] {
    ren_ = call("topology::renumber_topology",
                [&] { return bsr::topology::renumber_topology(topo_); });
  };
  const auto read_brokers = [&] {
    planned_ = read_broker_list(brokers_path);
    brokers_ = call("broker::BrokerSet",
                    [&] { return bsr::broker::BrokerSet(topo_.num_vertices(), planned_); });
  };
  if (sizes_.stress) {
    renumber();
  } else {
    read_brokers();
    start_recorder();
    make_churn_service();
  }
  s_.setup.push_back(seconds_since(t0));
  // Untimed: both workloads serve the input broker list (the checks hold it
  // equal to the pass's MaxSG set), and MaxSG runs on the renumbered graph.
  if (sizes_.stress) {
    read_brokers();
  } else {
    renumber();
  }
}

void Pass::churn() {
  Phase phase(traced_, "serve");
  if (!churn_service_) {
    start_recorder();
    make_churn_service();
  }
  RouteService& svc = *churn_service_;
  const std::vector<NodeId> hubs(svc.landmarks().begin(), svc.landmarks().end());
  if (hubs.empty()) throw std::runtime_error("churn: the service has no landmarks");
  // Pass p replays cycles [p * cycles, (p + 1) * cycles) of the schedule on
  // a fresh service, its clock restarted at 0.
  const std::uint64_t steps =
      std::uint64_t{static_cast<std::uint32_t>(sizes_.churn_cycles)} * kCycleSteps;
  const std::uint64_t base = static_cast<std::uint64_t>(index_) * steps;
  const std::size_t windows = flows_.size() / kChurnBatch;
  std::vector<NodeId> failed;
  std::vector<RouteAnswer> out;
  std::size_t next_event = static_cast<std::size_t>(
      std::ranges::lower_bound(schedule_.events, base, {}, &ChurnEvent::step) -
      schedule_.events.begin());
  std::size_t next_audit = static_cast<std::size_t>(
      std::ranges::lower_bound(schedule_.audits, base) - schedule_.audits.begin());
  bool patched_since_publish = false;
  const auto loop_start = Clock::now();
  for (std::uint64_t k = base; k < base + steps; ++k) {
    const double now = static_cast<double>(k - base) * kStepDt;
    const std::size_t offset = (k % windows) * kChurnBatch;
    const auto before = svc.stats();
    const auto t0 = Clock::now();
    for (; next_event < schedule_.events.size() && schedule_.events[next_event].step <= k;
         ++next_event) {
      const ChurnEvent& e = schedule_.events[next_event];
      const NodeId hub = hubs[e.rank % hubs.size()];
      if (e.fail) {
        call("graph::FaultPlane::fail_vertex", [&] { faults_->fail_vertex(hub); });
        call("sim::RouteService::on_fault", [&] { svc.on_fault(now); });
        failed.push_back(hub);
      } else {
        const auto down = std::find(failed.begin(), failed.end(), hub);
        if (down == failed.end()) {
          throw std::runtime_error("churn schedule heals a broker that is not down");
        }
        failed.erase(down);
        call("graph::FaultPlane::heal_vertex", [&] { faults_->heal_vertex(hub); });
        call("sim::RouteService::on_heal", [&] { svc.on_heal(now); });
      }
    }
    call("sim::RouteService::advance", [&] { svc.advance(now); });
    call("sim::RouteService::serve_batch", [&] {
      svc.serve_batch({flows_.data() + offset, kChurnBatch}, now, out);
    });
    const double dt = seconds_since(t0);
    switch (classify_step(before, svc.stats())) {
      case StepKind::kPublish:
        s_.step_publish.push_back(dt);
        patched_since_publish = false;
        break;
      case StepKind::kPatch:
        s_.step_patch.push_back(dt);
        patched_since_publish = patched_since_publish || svc.stats().patches > before.patches;
        break;
      case StepKind::kServe:
        s_.step_serve.push_back(dt);
        break;
    }
    if (next_audit < schedule_.audits.size() && schedule_.audits[next_audit] == k) {
      audits_.push_back({now, offset, failed, out, !patched_since_publish});
      ++next_audit;
    }
  }
  s_.churn_wall += seconds_since(loop_start);
  s_.churn_steps += steps;
  churn_stats_ = svc.stats();
  s_.add_churn(churn_stats_);
  call("obs::stop_recording", [] { bsr::obs::stop_recording(); });
  call("obs::stop_query_trace", [] { bsr::obs::stop_query_trace(); });
  journal_ = call("obs::snapshot_journal", [] { return bsr::obs::snapshot_journal(); });
  qtrace_ = call("obs::snapshot_query_trace",
                 [] { return bsr::obs::snapshot_query_trace(); });
  s_.journal_recorded += journal_.recorded;
  s_.journal_dropped += journal_.dropped;
  s_.qtrace_rows += qtrace_.rows.size();
  s_.qtrace_dropped += qtrace_.dropped;
}

void Pass::maxsg() {
  Phase phase(traced_, "select");
  bsr::broker::MaxSgOptions options;
  options.renumbering = &ren_->renumbering;
  const auto t0 = Clock::now();
  auto r = call("broker::maxsg",
                [&] { return bsr::broker::maxsg(ren_->topo.graph, maxsg_k(), options); });
  s_.maxsg.push_back(seconds_since(t0));
  note_rss(kRssSelect);
  if (!maxsg_) {
    maxsg_ = std::move(r);
  } else {
    ++repeats_;
    if (!std::ranges::equal(r.brokers.members(), maxsg_->brokers.members())) ++repeat_mismatch_;
  }
}

void Pass::maxsg_original() {
  // The original labelling, for the renumbering anomaly; per-layer only.
  Phase phase(traced_, "select");
  const auto t0 = Clock::now();
  maxsg_orig_ = call("broker::maxsg[original labels]",
                     [&] { return bsr::broker::maxsg(graph(), maxsg_k()); });
  s_.maxsg_orig += seconds_since(t0);
}

void Pass::robust() {
  Phase phase(traced_, "select");
  bsr::broker::RobustOptions robust;
  robust.mode = bsr::broker::RobustMode::kBrokerFailures;
  robust.redundancy = 1;
  const auto t0 = Clock::now();
  robust_ = call("broker::robust_maxsg", [&] {
    return bsr::broker::robust_maxsg(ren_->topo.graph, sizes_.robust_k, robust);
  });
  s_.robust.push_back(seconds_since(t0));
}

void Pass::build() {
  Phase phase(traced_, "serve");
  const auto t0 = Clock::now();
  auto service = call("sim::RouteService", [&] {
    return std::make_unique<RouteService>(graph(), brokers_, nullptr);
  });
  s_.build.push_back(seconds_since(t0));
  if (!bulk_service_) bulk_service_ = std::move(service);
  note_rss(kRssBuild);
}

void Pass::bulk(int batches) {
  if (batches == 0) return;
  Phase phase(traced_, "serve");
  if (!bulk_service_) {
    bulk_service_ = call("sim::RouteService", [&] {
      return std::make_unique<RouteService>(graph(), brokers_, nullptr);
    });
  }
  const std::size_t batch = std::min(kBulkBatch, flows_.size());
  const std::size_t windows = flows_.size() / batch;
  const auto window = [&](std::size_t i) {
    return std::span<const Flow>(flows_.data() + (i % windows) * batch, batch);
  };
  // One untimed batch re-warms the oracle arrays and the answer buffer
  // after whatever stage ran before.
  call("sim::RouteService::serve_batch",
       [&] { bulk_service_->serve_batch(window(bulk_next_), 0.0, bulk_out_); });
  const auto before = bulk_service_->stats();
  for (int i = 0; i < batches; ++i, ++bulk_next_, ++bulk_timed_) {
    const auto t0 = Clock::now();
    call("sim::RouteService::serve_batch",
         [&] { bulk_service_->serve_batch(window(bulk_next_), 0.0, bulk_out_); });
    s_.batch.push_back(seconds_since(t0));
    if (bulk_timed_ == sample_a_ || bulk_timed_ == sample_b_) {
      bulk_samples_.push_back({(bulk_next_ % windows) * batch, bulk_out_});
    }
  }
  s_.bulk_queries += bulk_service_->stats().queries - before.queries;
  s_.bulk_fresh += bulk_service_->stats().fresh - before.fresh;
  note_rss(kRssBuild);
}

void Pass::render_report() {
  Phase phase(traced_, "report");
  const auto t0 = Clock::now();
  episodes_ = call("obs::episodes_from_journal",
                   [&] { return bsr::obs::episodes_from_journal(journal_, &qtrace_); });
  const bsr::obs::SloReport slo = call("obs::SloMonitor", [&] {
    bsr::obs::SloMonitor monitor(slo_spec_);
    for (const auto& sample : bsr::obs::slo_samples_from_journal(journal_)) {
      monitor.observe(sample);
    }
    return monitor.report();
  });
  std::ostringstream os;
  call("obs::export", [&] {
    bsr::obs::write_events_jsonl(os, journal_);
    bsr::obs::write_qtrace_jsonl(os, qtrace_);
    bsr::obs::write_episodes_jsonl(os, episodes_);
    bsr::obs::write_slo_json(os, slo);
  });
  s_.report.push_back(seconds_since(t0));
  if (!rendered_) s_.export_bytes += static_cast<std::uint64_t>(os.tellp());
  rendered_ = true;
}

CheckResult Pass::verify() {
  CheckResult out;
  s_.gap_ratio = bsr::graph::average_neighbor_gap(ren_->topo.graph) /
                 bsr::graph::average_neighbor_gap(graph());
  // select: the first result in full, every repeat against the first.
  out.merge(check_maxsg(graph(), *maxsg_));
  if (robust_) out.merge(check_robust(ren_->topo.graph, *robust_, 1));
  for (std::size_t i = 0; i < repeats_; ++i) {
    if (i < repeat_mismatch_) {
      out.fail("a repeated maxsg call returned a different set");
    } else {
      out.pass();
    }
  }
  if (maxsg_orig_) {
    if (std::ranges::equal(maxsg_orig_->brokers.members(), maxsg_->brokers.members())) {
      out.pass();
    } else {
      out.fail("maxsg on the original labelling differs from the renumbered run");
    }
  }
  if (std::ranges::equal(planned_, maxsg_->brokers.members())) {
    out.pass();
  } else {
    out.fail("the input broker list is not the MaxSG set of its topology");
  }

  // bulk: reachability of whole sampled batches, distances of a sample.
  const std::size_t dist_checks = sizes_.stress ? 12 : 24;
  for (const BulkSample& s : bulk_samples_) {
    const std::span<const Flow> queries(flows_.data() + s.offset, s.answers.size());
    std::vector<std::size_t> sample;
    for (std::size_t i = 0; i < dist_checks; ++i) sample.push_back(rng_.uniform(s.answers.size()));
    out.merge(check_answers(graph(), brokers_, {}, queries, s.answers, sample));
  }

  // churn: audits against from-scratch builds, then the run-level bounds.
  for (const Audit& a : audits_) {
    bsr::graph::FaultPlane plane(graph());
    for (const NodeId v : a.failed) plane.fail_vertex(v);
    bsr::sim::RouteServiceConfig cfg = churn_cfg_;
    cfg.admit_rate = 0.0;
    RouteService scratch(graph(), brokers_, &plane, cfg);
    std::vector<RouteAnswer> answers;
    scratch.serve_batch({flows_.data() + a.offset, kChurnBatch}, a.now, answers);
    const CheckResult audit = check_audit(a.answers, answers, a.exact);
    s_.audit_failed += audit.failed;
    out.merge(audit);
  }
  out.merge(check_churn_bounds(churn_stats_, kMaxStale, journal_.dropped, episodes_.malformed));
  return out;
}

std::vector<Metric> end_to_end(const Samples& s, const Sizes& sizes,
                               std::vector<std::string>& notes) {
  // The tail of every run of kTailChunk consecutive batches, then the median
  // over those runs: a burst of host contention moves one chunk, not the
  // figure, and every workload reports the same percentile.
  std::vector<double> tails;
  Tail tail;
  for (std::size_t i = 0; i + kTailChunk <= s.batch.size(); i += kTailChunk) {
    tail = tail_percentile({s.batch.begin() + static_cast<std::ptrdiff_t>(i),
                            s.batch.begin() + static_cast<std::ptrdiff_t>(i + kTailChunk)});
    tails.push_back(tail.value);
  }
  char line[200];
  std::snprintf(line, sizeof line,
                "batch_tail_ms is the median over %zu chunks of p%.2f of %zu batches of "
                "%zu flows (%zu beyond it)",
                tails.size(), tail.percentile, tail.samples, kBulkBatch, tail.beyond);
  notes.emplace_back(line);
  std::snprintf(line, sizeof line, "churn: %llu steps = %zu serve + %zu patch + %zu publish",
                static_cast<unsigned long long>(s.churn_steps), s.step_serve.size(),
                s.step_patch.size(), s.step_publish.size());
  notes.emplace_back(line);
  const bool churn = !sizes.stress;
  // The spread inside the run, next to each median it summarizes.
  const auto spread = [&](const char* metric, const std::vector<double>& v, double scale) {
    if (v.size() < 2) return;
    const Quartiles q = quartiles(v);
    std::snprintf(line, sizeof line, "%s: median %.4g, quartiles %.4g .. %.4g of %zu samples",
                  metric, scale * q.q2, scale * q.q1, scale * q.q3, v.size());
    notes.emplace_back(line);
  };
  spread("setup_s", s.setup, 1.0);
  spread("select_s", s.maxsg, 1.0);
  spread("robust_s", s.robust, 1.0);
  spread("build_ms", churn ? s.step_publish : s.build, 1e3);
  spread("step_p50_us", s.step_serve, 1e6);
  spread("report_ms", s.report, 1e3);

  double batch_sum = 0.0;
  for (const double t : s.batch) batch_sum += t;
  const double churn_queries = static_cast<double>(s.churn.queries);
  const double fresh =
      churn ? static_cast<double>(s.churn.fresh) / churn_queries
            : static_cast<double>(s.bulk_fresh) / static_cast<double>(s.bulk_queries);
  const double ok = churn ? (static_cast<double>(s.churn.fresh + s.churn.stale_served) -
                             static_cast<double>(s.audit_failed)) /
                                churn_queries
                          : fresh;
  return {
      {"setup_s", median(s.setup), "s"},
      {"select_s", median(s.maxsg), "s"},
      {"robust_s", median(s.robust), "s"},
      {"build_ms", 1e3 * median(churn ? s.step_publish : s.build), "ms"},
      {"serve_qps",
       churn ? churn_queries / s.churn_wall : static_cast<double>(s.bulk_queries) / batch_sum,
       "queries/s"},
      {"batch_tail_ms", 1e3 * median(tails), "ms"},
      {"step_p50_us", 1e6 * median(s.step_serve), "us"},
      {"report_ms", 1e3 * median(s.report), "ms"},
      {"fresh_frac", fresh, "ratio"},
      {"ok_frac", ok, "ratio"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
  };
}

std::string layer_of(const char* span_name) {
  const std::string name(span_name);
  const std::size_t colon = name.find("::");
  const std::size_t dot = name.find('.');
  if (colon != std::string::npos) return name.substr(0, colon);
  if (dot != std::string::npos) {
    const std::string prefix = name.substr(0, dot);
    return prefix == "engine" ? "graph" : prefix;
  }
  return "bench";
}

std::vector<Metric> per_layer(const Samples& s, const std::vector<bsr::obs::SpanRecord>& spans,
                              const bsr::obs::Snapshot& c, const bsr::obs::SketchSnapshot& sk,
                              double overhead_pct) {
  using bsr::obs::Counter;
  using bsr::obs::Sketch;
  std::map<std::string, double> busy_ms;
  for (const auto& s : spans) busy_ms[s.name] += static_cast<double>(s.duration_ns) / 1e6;
  const auto busy = [&](const char* name) {
    const auto it = busy_ms.find(name);
    return it == busy_ms.end() ? 0.0 : it->second;
  };
  const auto count = [&](Counter id) { return static_cast<double>(c.counter(id)); };
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  const auto merged = [&](Sketch a, Sketch b) {
    bsr::obs::QuantileSketch q = sk[static_cast<std::size_t>(a)];
    q.merge(sk[static_cast<std::size_t>(b)]);
    return q;
  };
  const auto ticks = merged(Sketch::kRouteTicksFresh, Sketch::kRouteTicksStale);
  const auto dist = merged(Sketch::kRouteDistFresh, Sketch::kRouteDistStale);
  const auto& queue = sk[static_cast<std::size_t>(Sketch::kEpisodeQueueMs)];
  const auto& exec = sk[static_cast<std::size_t>(Sketch::kEpisodeExecMs)];
  const auto& cs = s.churn;
  const double rebuilt = static_cast<double>(cs.rebuilds_started) -
                         static_cast<double>(cs.rebuild_crashes + cs.rebuilds_discarded);

  std::vector<Metric> m = {
      {"topology.load_ms", busy("topology::load_topology_file"), "ms"},
      {"topology.renumber_ms", busy("topology::renumber_topology"), "ms"},
      {"topology.gap_ratio", s.gap_ratio, "ratio"},
      {"engine.bfs.edges_scanned", count(Counter::kEngineBfsEdgesScanned), "count"},
      {"engine.bfs.vertices_visited", count(Counter::kEngineBfsVerticesVisited), "count"},
      {"engine.bfs.bottom_up_levels", count(Counter::kEngineBfsBottomUpLevels), "count"},
      {"engine.unite.edge_scans", count(Counter::kEngineUniteEdgeScans), "count"},
      {"graph.uf.find_steps", count(Counter::kUfFindSteps), "count"},
      {"graph.uf.rollback_undone", count(Counter::kUfRollbackUndone), "count"},
      {"engine.scan_per_visit",
       ratio(count(Counter::kEngineBfsEdgesScanned), count(Counter::kEngineBfsVerticesVisited)),
       "ratio"},
      {"broker.maxsg_ms", busy("broker::maxsg"), "ms"},
      {"broker.maxsg_orig_ms", busy("broker::maxsg[original labels]"), "ms"},
      {"broker.robust_ms", busy("broker::robust_maxsg"), "ms"},
      {"broker.maxsg.rounds", count(Counter::kMaxsgRounds), "count"},
      {"broker.maxsg.gain_evals", count(Counter::kMaxsgGainEvals), "count"},
      {"broker.robust.scenarios", count(Counter::kRobustScenarios), "count"},
      {"broker.robust.gain_evals", count(Counter::kRobustGainEvals), "count"},
      {"broker.maxsg.evals_per_pick",
       ratio(count(Counter::kMaxsgGainEvals), count(Counter::kMaxsgRounds)), "ratio"},
      {"sim.build_ms", busy("sim::RouteService"), "ms"},
      {"sim.serve_batch_ms", busy("sim::RouteService::serve_batch"), "ms"},
      {"sim.advance_ms", busy("sim::RouteService::advance"), "ms"},
      {"sim.on_fault_ms", busy("sim::RouteService::on_fault"), "ms"},
      {"sim.on_heal_ms", busy("sim::RouteService::on_heal"), "ms"},
      {"sim.ns_per_query",
       ratio(1e6 * busy("sim::RouteService::serve_batch"), count(Counter::kRouteServiceQueries)),
       "ns"},
      {"sim.lookup_ticks_p50", static_cast<double>(ticks.p50()), "ticks"},
      {"sim.lookup_ticks_p99", static_cast<double>(ticks.p99()), "ticks"},
      {"sim.dist_bound_p50", static_cast<double>(dist.p50()), "hops"},
      {"sim.dist_bound_p99", static_cast<double>(dist.p99()), "hops"},
      {"sim.route_service.queries", count(Counter::kRouteServiceQueries), "count"},
      {"sim.route_service.fresh", count(Counter::kRouteServiceFresh), "count"},
      {"sim.route_service.stale_served", count(Counter::kRouteServiceStaleServed), "count"},
      {"sim.route_service.refused", count(Counter::kRouteServiceRefused), "count"},
      {"sim.route_service.shedded", count(Counter::kRouteServiceShedded), "count"},
      {"sim.route_service.rebuilds", count(Counter::kRouteServiceRebuilds), "count"},
      {"sim.route_service.rebuild_crashes", count(Counter::kRouteServiceRebuildCrashes),
       "count"},
      {"sim.route_service.rebuilds_discarded", static_cast<double>(cs.rebuilds_discarded),
       "count"},
      {"sim.route_service.patches", count(Counter::kRouteServicePatches), "count"},
      {"sim.route_service.patch_crashes", static_cast<double>(cs.patch_crashes), "count"},
      {"sim.route_service.epochs_published", count(Counter::kRouteServiceEpochsPublished),
       "count"},
      {"sim.rebuild_yield", ratio(rebuilt, static_cast<double>(cs.rebuilds_started)), "ratio"},
      {"obs.journal.recorded", static_cast<double>(s.journal_recorded), "count"},
      {"obs.journal.dropped", static_cast<double>(s.journal_dropped), "count"},
      {"obs.qtrace.rows", static_cast<double>(s.qtrace_rows), "count"},
      {"obs.qtrace.dropped", static_cast<double>(s.qtrace_dropped), "count"},
      {"obs.episodes_ms", busy("obs::episodes_from_journal"), "ms"},
      {"obs.slo_ms", busy("obs::SloMonitor"), "ms"},
      {"obs.export_ms", busy("obs::export"), "ms"},
      {"obs.export_bytes", static_cast<double>(s.export_bytes), "bytes"},
      {"obs.episode.reconstructed", static_cast<double>(s.episodes), "count"},
      {"obs.episode.malformed", static_cast<double>(s.malformed), "count"},
      {"obs.episode.queue_ms.p50", static_cast<double>(queue.p50()), "ms"},
      {"obs.episode.exec_ms.p50", static_cast<double>(exec.p50()), "ms"},
  };
  for (int p = 0; p < kRssPoints; ++p) {
    m.push_back({std::string("mem.rss_after_") + kRssNames[p] + "_mb", s.rss[p], "MiB"});
  }
  m.push_back({"bench.trace_overhead_pct", overhead_pct, "%"});
  return m;
}

// --- traced-run artifacts ----------------------------------------------------

void put_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') os << '\\';
    os << ch;
  }
  os << '"';
}

/// Chrome trace-event JSON, which Perfetto opens directly. Every event
/// carries the run id, its layer and its parent span.
void write_perfetto(std::ostream& os, const std::vector<bsr::obs::SpanRecord>& spans,
                    const std::string& run_id) {
  os << "{\"traceEvents\": [";
  char num[64];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    os << (i == 0 ? "\n" : ",\n") << "{\"name\": ";
    put_json_string(os, s.name);
    std::snprintf(num, sizeof num, "%.3f", static_cast<double>(s.start_ns) / 1e3);
    os << ", \"cat\": ";
    put_json_string(os, layer_of(s.name));
    os << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": " << num;
    std::snprintf(num, sizeof num, "%.3f", static_cast<double>(s.duration_ns) / 1e3);
    os << ", \"dur\": " << num << ", \"args\": {\"run\": ";
    put_json_string(os, run_id);
    os << ", \"parent\": ";
    put_json_string(os, s.parent >= 0 ? spans[static_cast<std::size_t>(s.parent)].name : "");
    for (const auto& [counter, moved] : s.counter_deltas) {
      os << ", \"" << bsr::obs::name(counter) << "\": " << moved;
    }
    os << "}}";
  }
  os << "\n], \"displayTimeUnit\": \"ms\"}\n";
}

/// Per-layer busy time (outermost spans of the layer), self time (span
/// time not covered by child spans) and the layer's registry counts.
void write_layer_table(std::ostream& os, const std::vector<bsr::obs::SpanRecord>& spans,
                       const bsr::obs::Snapshot& counters, const std::string& run_id) {
  struct Row {
    std::size_t calls = 0;
    double busy_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Row> rows;
  std::vector<double> child_ms(spans.size(), 0.0);
  for (const auto& s : spans) {
    if (s.parent >= 0) {
      child_ms[static_cast<std::size_t>(s.parent)] += static_cast<double>(s.duration_ns) / 1e6;
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    const std::string layer = layer_of(s.name);
    Row& row = rows[layer];
    const double ms = static_cast<double>(s.duration_ns) / 1e6;
    const bool nested = s.parent >= 0 &&
                        layer_of(spans[static_cast<std::size_t>(s.parent)].name) == layer;
    if (!nested) {
      ++row.calls;
      row.busy_ms += ms;
    }
    row.self_ms += ms - child_ms[i];
  }
  os << "per-layer table, run " << run_id << "\n";
  char line[160];
  std::snprintf(line, sizeof line, "%-10s %10s %14s %14s\n", "layer", "calls", "busy_ms",
                "self_ms");
  os << line;
  for (const auto& [layer, row] : rows) {
    std::snprintf(line, sizeof line, "%-10s %10zu %14.3f %14.3f\n", layer.c_str(), row.calls,
                  row.busy_ms, row.self_ms);
    os << line;
  }
  os << "registry counts (delta over the traced passes, checks excluded):\n";
  for (std::size_t i = 0; i < bsr::obs::kNumCounters; ++i) {
    const auto id = static_cast<bsr::obs::Counter>(i);
    if (counters.counter(id) == 0) continue;
    const std::string counter(bsr::obs::name(id));
    os << "  " << layer_of(counter.c_str()) << "  " << counter << " = " << counters.counter(id)
       << "\n";
  }
}

}  // namespace

RunResult run_workload(const RunConfig& config, bool traced, std::ostream& log) {
  bsr::graph::engine::set_num_threads(1);
  log << "workload=" << config.workload << " seed=" << config.seed
      << " threads=" << bsr::graph::engine::num_threads()
      << " stats=" << (BSR_STATS_ENABLED ? "on" : "off") << " traced=" << traced << "\n";
  if (!BSR_STATS_ENABLED) throw std::runtime_error("the benchmark needs BSR_STATS=ON");

  // Inputs before any clock.
  const std::vector<Flow> flows =
      read_flows(config.sizes.stress ? config.inputs.flows10 : config.inputs.flows1);
  const ChurnSchedule schedule = read_churn(config.inputs.churn);

  if (schedule.audits.size() <
      static_cast<std::size_t>(config.sizes.passes * config.sizes.churn_cycles)) {
    throw std::runtime_error("the churn schedule has fewer cycles than the run needs");
  }

  RunResult result;
  // Registry deltas over the passes alone: the checks after each pass build
  // services of their own, which must not count.
  bsr::obs::Snapshot counters{};
  bsr::obs::SketchSnapshot sketches{};
  const auto run_passes = [&](bool traced_passes, Samples& samples) {
    counters = {};
    sketches = {};
    for (int p = 0; p < config.sizes.passes; ++p) {
      Pass pass(config, traced_passes, p, flows, schedule, samples);
      const auto counters_before = bsr::obs::snapshot();
      const auto sketches_before = bsr::obs::snapshot_sketches();
      bsr::obs::set_tracing(traced_passes);
      pass.run();
      bsr::obs::set_tracing(false);
      const auto moved = bsr::obs::delta(counters_before, bsr::obs::snapshot());
      const auto observed =
          bsr::obs::sketch_delta(sketches_before, bsr::obs::snapshot_sketches());
      for (std::size_t i = 0; i < bsr::obs::kNumCounters; ++i) {
        counters.counters[i] += moved.counters[i];
      }
      for (std::size_t i = 0; i < bsr::obs::kNumSketches; ++i) sketches[i].merge(observed[i]);
      result.checks.merge(pass.verify());
    }
    result.attempted += samples.setup.size() + samples.maxsg.size() + samples.robust.size() +
                        samples.build.size() + samples.batch.size() + samples.churn_steps +
                        samples.report.size();
  };
  bsr::obs::clear_trace();
  Samples reference;
  run_passes(false, reference);
  if (!config.sizes.stress) result.checks.merge(check_churn_coverage(reference.churn));
  if (!traced) {
    std::vector<std::string> notes;
    result.metrics = end_to_end(reference, config.sizes, notes);
    for (const auto& n : notes) log << n << "\n";
    log << "pipeline wall " << reference.wall << " s over " << config.sizes.passes
        << " passes\n";
  } else {
    Samples samples;
    run_passes(true, samples);
    const auto spans = bsr::obs::drain_trace();
    const double traced_wall = samples.wall - samples.maxsg_orig;
    const double overhead = 100.0 * (traced_wall - reference.wall) / reference.wall;
    log << "pipeline wall " << reference.wall << " s untraced, " << traced_wall
        << " s traced (maxsg on original labels excluded)\n";
    result.metrics = per_layer(samples, spans, counters, sketches, overhead);

    const std::string run_id = config.workload + "/seed=" + std::to_string(config.seed);
    std::ostringstream table;
    write_layer_table(table, spans, counters, run_id);
    log << table.str();
    if (!config.out_dir.empty()) {
      std::filesystem::create_directories(config.out_dir);
      const std::string stem = (std::filesystem::path(config.out_dir) /
                                (config.workload + "-seed" + std::to_string(config.seed)))
                                   .string();
      std::ofstream trace(stem + ".perfetto.json", std::ios::trunc);
      write_perfetto(trace, spans, run_id);
      std::ofstream layers(stem + ".layers.txt", std::ios::trunc);
      layers << table.str();
      for (const Metric& m : result.metrics) {
        layers << m.name << " = " << m.value << " " << m.unit << "\n";
      }
      if (!trace.flush() || !layers.flush()) {
        throw std::runtime_error("cannot write the trace under " + config.out_dir);
      }
      log << "wrote " << stem << ".perfetto.json and " << stem << ".layers.txt\n";
    }
  }
  for (const Metric& m : result.metrics) {
    log << "  " << m.name << " = " << m.value << " " << m.unit << "\n";
  }
  if (!result.checks.ok()) {
    log << "CHECK FAILED (" << result.checks.failed << " of " << result.checks.checked
        << "): " << result.checks.first_error << "\n";
  } else {
    log << "checks: " << result.checks.checked << " passed\n";
  }
  return result;
}

void write_result_line(std::ostream& os, const RunResult& result) {
  char num[64];
  os << "{\"correct\": " << (result.correct() ? "true" : "false")
     << ", \"attempted\": " << std::max<std::size_t>(result.attempted, 1)
     << ", \"failed\": " << std::min(result.checks.failed, std::max<std::size_t>(result.attempted, 1))
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    std::snprintf(num, sizeof num, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    os << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << num
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}\n";
}

}  // namespace bsr::perfbench
