// SloMonitor: spec parsing and its guards, multi-window burn-rate gating,
// breach/recover episode accounting, the incremental windows against a naive
// re-scan, journal replay equivalence, and the machine-readable verdict JSON.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "obs/export.hpp"
#include "obs/journal.hpp"
#include "obs/slo.hpp"

namespace {

using bsr::obs::Event;
using bsr::obs::EventRecord;
using bsr::obs::Journal;
using bsr::obs::SloMonitor;
using bsr::obs::SloObjective;
using bsr::obs::SloReport;
using bsr::obs::SloSample;
using bsr::obs::SloSpec;

SloSample sample(double t, std::uint64_t fresh, std::uint64_t stale,
                 std::uint64_t refused = 0, std::uint64_t staleness = 0,
                 std::uint64_t p99 = 10, std::uint64_t max = 12) {
  SloSample s;
  s.time = t;
  s.fresh = fresh;
  s.stale_served = stale;
  s.refused = refused;
  s.staleness = staleness;
  s.p99_ticks = p99;
  s.max_ticks = max;
  return s;
}

// --- spec parsing ------------------------------------------------------------

TEST(SloSpecParse, ParsesEveryKey) {
  const SloSpec spec = bsr::obs::parse_slo_spec(
      "fresh_min=0.99, refusal_max=0.05; p99_max=200, stale_max=64, "
      "window=2, long_window=8, burn=1.5");
  EXPECT_DOUBLE_EQ(spec.fresh_min, 0.99);
  EXPECT_DOUBLE_EQ(spec.refusal_max, 0.05);
  EXPECT_DOUBLE_EQ(spec.p99_ticks_max, 200.0);
  EXPECT_DOUBLE_EQ(spec.stale_max, 64.0);
  EXPECT_DOUBLE_EQ(spec.window, 2.0);
  EXPECT_DOUBLE_EQ(spec.long_window, 8.0);
  EXPECT_DOUBLE_EQ(spec.burn_threshold, 1.5);
}

TEST(SloSpecParse, RejectsMalformedInput) {
  const auto parse = [](std::string_view text) {
    (void)bsr::obs::parse_slo_spec(text);
  };
  EXPECT_THROW(parse(""), std::invalid_argument);
  EXPECT_THROW(parse("window=5"), std::invalid_argument)
      << "no objective enabled";
  EXPECT_THROW(parse("bogus_key=1"), std::invalid_argument);
  EXPECT_THROW(parse("fresh_min=abc"), std::invalid_argument);
  EXPECT_THROW(parse("fresh_min=1.5"), std::invalid_argument)
      << "fraction targets live in (0, 1)";
  EXPECT_THROW(parse("fresh_min"), std::invalid_argument) << "missing '='";
  EXPECT_THROW(parse("fresh_min=0.9,window=10,long_window=2"),
               std::invalid_argument)
      << "long window shorter than short window";
  // Non-finite numbers parse as doubles but are never valid: a nan bound
  // would silently disable its objective.
  for (const char* spec :
       {"fresh_min=0.9,p99_max=nan", "fresh_min=nan", "stale_max=inf",
        "fresh_min=0.9,window=inf", "fresh_min=0.9,burn=inf",
        "fresh_min=0.9,long_window=-inf"}) {
    SCOPED_TRACE(spec);
    try {
      parse(spec);
      ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_EQ(std::string(error.what()).rfind("slo spec: malformed number", 0),
                0u)
          << error.what();
    }
  }
  // A key the spec names must hold a value in its range (a negative target
  // is not "off"), and no key may be given twice; the error names the key.
  struct Bad {
    const char* spec;
    const char* message;
  };
  for (const Bad& bad : std::initializer_list<Bad>{
           {"fresh_min=0.9,stale_max=-3", "stale_max must be >= 1"},
           {"fresh_min=-1", "fresh_min must be in (0, 1)"},
           {"fresh_min=0.9,refusal_max=-0.5", "refusal_max must be in (0, 1]"},
           {"fresh_min=0.9,refusal_max=0", "refusal_max must be in (0, 1]"},
           {"stale_max=8,p99_max=-1", "p99_max must be >= 1"},
           {"stale_max=8,p99_max=0.5", "p99_max must be >= 1"},
           {"fresh_min=0.9,window=-2", "window must be > 0"},
           {"fresh_min=0.9,long_window=0", "long_window must be > 0"},
           {"fresh_min=0.9,burn=-1", "burn must be > 0"},
           {"fresh_min=0.9,fresh_min=0.5", "key 'fresh_min' given twice"},
           {"fresh_min=0.9, window=2; window=2", "key 'window' given twice"},
           {"stale_max=4,stale_max=-1", "key 'stale_max' given twice"},
       }) {
    SCOPED_TRACE(bad.spec);
    try {
      parse(bad.spec);
      ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_EQ(std::string(error.what()),
                std::string("slo spec: ") + bad.message);
    }
  }
}

TEST(SloSpecParse, MonitorRejectsInvalidSpecToo) {
  SloSpec spec;  // all objectives disabled
  EXPECT_THROW(SloMonitor{spec}, std::invalid_argument);
}

// --- burn-rate gating --------------------------------------------------------

TEST(SloMonitorGating, SingleBadRoundDoesNotPage) {
  // Short window reacts, long window filters: one partially-stale round
  // among healthy ones burns the 1-unit window but not the 10-unit one.
  SloMonitor monitor(
      bsr::obs::parse_slo_spec("fresh_min=0.9,window=1,long_window=10"));
  for (int t = 0; t < 8; ++t) {
    monitor.observe(t == 5 ? sample(5.0, 75, 25)
                           : sample(static_cast<double>(t), 100, 0));
  }
  const SloReport& report = monitor.report();
  EXPECT_EQ(report.breaches, 0u);
  EXPECT_TRUE(report.ok());
  const auto& fresh_obj = report.objectives[static_cast<std::size_t>(
      SloObjective::kFreshFraction)];
  EXPECT_TRUE(fresh_obj.enabled);
  EXPECT_GE(fresh_obj.worst_short_burn, 1.0) << "short window did burn";
  EXPECT_LT(fresh_obj.worst_long_burn, 1.0) << "long window filtered it";
}

TEST(SloMonitorGating, SustainedDegradationPagesThenRecovers) {
  SloMonitor monitor(
      bsr::obs::parse_slo_spec("fresh_min=0.9,window=1,long_window=4"));
  double t = 0.0;
  for (int i = 0; i < 6; ++i) monitor.observe(sample(t++, 100, 0));
  EXPECT_FALSE(monitor.in_breach());
  for (int i = 0; i < 6; ++i) monitor.observe(sample(t++, 0, 100));
  EXPECT_TRUE(monitor.in_breach());
  for (int i = 0; i < 8; ++i) monitor.observe(sample(t++, 100, 0));
  EXPECT_FALSE(monitor.in_breach());

  const SloReport& report = monitor.report();
  EXPECT_EQ(report.breaches, 1u) << "one episode, not one count per sample";
  EXPECT_EQ(report.recovers, 1u);
  EXPECT_FALSE(report.ok());
  const auto& fresh_obj = report.objectives[static_cast<std::size_t>(
      SloObjective::kFreshFraction)];
  EXPECT_GT(fresh_obj.breach_samples, 0u);
  EXPECT_GE(fresh_obj.first_breach_time, 6.0);
}

TEST(SloMonitorGating, BoundObjectivesUseWindowedWorstCase) {
  // stale_max: burn = worst staleness in window / bound.
  SloMonitor monitor(
      bsr::obs::parse_slo_spec("stale_max=8,window=2,long_window=4"));
  monitor.observe(sample(0.0, 10, 0, 0, /*staleness=*/4));
  EXPECT_FALSE(monitor.in_breach());
  monitor.observe(sample(1.0, 10, 0, 0, /*staleness=*/16));
  monitor.observe(sample(2.0, 10, 0, 0, /*staleness=*/16));
  monitor.observe(sample(3.0, 10, 0, 0, /*staleness=*/16));
  monitor.observe(sample(4.0, 10, 0, 0, /*staleness=*/16));
  EXPECT_TRUE(monitor.in_breach()) << "16 > bound 8 across both windows";
}

TEST(SloMonitorGating, SheddedAnswersSpendNoFreshBudget) {
  // All answers shedded: no admitted answers, so the fresh objective has
  // nothing to burn.
  SloMonitor monitor(
      bsr::obs::parse_slo_spec("fresh_min=0.9,window=1,long_window=2"));
  SloSample s = sample(0.0, 0, 0);
  s.shedded = 500;
  monitor.observe(s);
  EXPECT_FALSE(monitor.in_breach());
  EXPECT_EQ(monitor.report().breaches, 0u);
}

TEST(SloMonitorGating, RefusalObjective) {
  SloMonitor monitor(
      bsr::obs::parse_slo_spec("refusal_max=0.1,window=1,long_window=2"));
  monitor.observe(sample(0.0, 50, 0, /*refused=*/50));
  monitor.observe(sample(1.0, 50, 0, /*refused=*/50));
  monitor.observe(sample(2.0, 50, 0, /*refused=*/50));
  EXPECT_TRUE(monitor.in_breach());
}

TEST(SloMonitorGating, RejectsTimeTravel) {
  SloMonitor monitor(
      bsr::obs::parse_slo_spec("fresh_min=0.9,window=1,long_window=2"));
  monitor.observe(sample(5.0, 10, 0));
  EXPECT_THROW(monitor.observe(sample(4.0, 10, 0)), std::invalid_argument);
  EXPECT_THROW(monitor.observe(sample(std::nan(""), 10, 0)),
               std::invalid_argument);
}

// --- differential check against a naive monitor ------------------------------

/// The monitor without running sums: every observe re-scans the samples of
/// the trailing long window for both windows' aggregates. O(window) per
/// sample, and the reference the incremental monitor must match bit for bit.
class NaiveSloMonitor {
 public:
  explicit NaiveSloMonitor(const SloSpec& spec)
      : spec_(spec), report_(SloMonitor(spec).report()) {}

  void observe(const SloSample& s) {
    window_.push_back(s);
    while (window_.front().time < s.time - spec_.long_window) {
      window_.erase(window_.begin());
    }
    const Totals short_w = totals(s.time, spec_.window);
    const Totals long_w = totals(s.time, spec_.long_window);
    std::uint64_t mask = 0;
    for (std::size_t i = 0; i < bsr::obs::kNumSloObjectives; ++i) {
      auto& obj = report_.objectives[i];
      if (!obj.enabled) continue;
      const double short_burn = burn(i, short_w);
      const double long_burn = burn(i, long_w);
      obj.worst_short_burn = std::max(obj.worst_short_burn, short_burn);
      obj.worst_long_burn = std::max(obj.worst_long_burn, long_burn);
      if (short_burn >= spec_.burn_threshold &&
          long_burn >= spec_.burn_threshold) {
        mask |= std::uint64_t{1} << i;
        ++obj.breach_samples;
        if (obj.first_breach_time < 0.0) obj.first_breach_time = s.time;
      }
    }
    ++report_.samples;
    if (mask != 0 && !report_.in_breach) {
      report_.in_breach = true;
      ++report_.breaches;
    } else if (mask == 0 && report_.in_breach) {
      report_.in_breach = false;
      ++report_.recovers;
    }
  }

  [[nodiscard]] const SloReport& report() const { return report_; }

 private:
  struct Totals {
    std::uint64_t fresh = 0, stale = 0, shed = 0, refused = 0;
    std::uint64_t staleness = 0, p99 = 0;
  };

  Totals totals(double now, double width) const {
    Totals t;
    for (const SloSample& s : window_) {
      if (s.time < now - width) continue;
      t.fresh += s.fresh;
      t.stale += s.stale_served;
      t.shed += s.shedded;
      t.refused += s.refused;
      t.staleness = std::max(t.staleness, s.staleness);
      t.p99 = std::max(t.p99, s.p99_ticks);
    }
    return t;
  }

  double burn(std::size_t objective, const Totals& t) const {
    switch (static_cast<SloObjective>(objective)) {
      case SloObjective::kFreshFraction: {
        const auto denom = static_cast<double>(t.fresh + t.stale + t.refused);
        if (denom == 0.0) return 0.0;
        return ((denom - static_cast<double>(t.fresh)) / denom) /
               (1.0 - spec_.fresh_min);
      }
      case SloObjective::kRefusalRate: {
        const auto all =
            static_cast<double>(t.fresh + t.stale + t.shed + t.refused);
        if (all == 0.0) return 0.0;
        return (static_cast<double>(t.refused) / all) / spec_.refusal_max;
      }
      case SloObjective::kP99Ticks:
        return static_cast<double>(t.p99) / spec_.p99_ticks_max;
      case SloObjective::kStaleness:
        return static_cast<double>(t.staleness) / spec_.stale_max;
      case SloObjective::kCount:
        break;
    }
    return 0.0;
  }

  SloSpec spec_;
  std::vector<SloSample> window_;
  SloReport report_;
};

void expect_same_report(const SloReport& got, const SloReport& want,
                        std::size_t step) {
  ASSERT_EQ(got.samples, want.samples) << "step " << step;
  ASSERT_EQ(got.breaches, want.breaches) << "step " << step;
  ASSERT_EQ(got.recovers, want.recovers) << "step " << step;
  ASSERT_EQ(got.in_breach, want.in_breach) << "step " << step;
  for (std::size_t i = 0; i < bsr::obs::kNumSloObjectives; ++i) {
    const auto& a = got.objectives[i];
    const auto& b = want.objectives[i];
    ASSERT_EQ(a.name, b.name);
    ASSERT_EQ(a.enabled, b.enabled);
    ASSERT_EQ(a.target, b.target);
    // Exact, not approximate: the burns come from the same integers.
    ASSERT_EQ(a.worst_short_burn, b.worst_short_burn) << a.name << " step " << step;
    ASSERT_EQ(a.worst_long_burn, b.worst_long_burn) << a.name << " step " << step;
    ASSERT_EQ(a.breach_samples, b.breach_samples) << a.name << " step " << step;
    ASSERT_EQ(a.first_breach_time, b.first_breach_time) << a.name << " step " << step;
  }
}

TEST(SloMonitorDifferential, MatchesNaiveRescanOnRandomStreams) {
  // Times move on a 0.25 grid, so `now - window` lands exactly on earlier
  // samples (the closed left edge) and equal timestamps repeat; tallies
  // include all-zero rounds (empty denominators) and staleness/p99 spikes
  // that must age out of one window while staying in the other.
  const char* specs[] = {
      "fresh_min=0.9,refusal_max=0.2,p99_max=40,stale_max=3,window=2,"
      "long_window=8",
      "fresh_min=0.5,stale_max=2,window=1.5,long_window=1.5,burn=0.8",
      "refusal_max=0.05,p99_max=60,window=0.25,long_window=30,burn=2",
  };
  for (const char* text : specs) {
    const SloSpec spec = bsr::obs::parse_slo_spec(text);
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      std::mt19937_64 rng(seed);
      const auto draw = [&rng](std::uint64_t bound) { return rng() % bound; };
      SloMonitor monitor(spec);
      NaiveSloMonitor naive(spec);
      double t = 0.0;
      for (std::size_t step = 0; step < 1500; ++step) {
        const std::uint64_t jump = draw(16);
        if (jump < 5) {
          // equal timestamp
        } else if (jump < 13) {
          t += 0.25 * static_cast<double>(draw(4) + 1);
        } else if (jump < 15) {
          t += spec.window;  // the previous sample sits on the short edge
        } else {
          t += spec.long_window;  // ... or on the long edge
        }
        SloSample s;
        s.time = t;
        if (draw(10) != 0) {
          s.fresh = draw(100);
          s.stale_served = draw(4) == 0 ? draw(60) : 0;
          s.shedded = draw(3) == 0 ? draw(30) : 0;
          s.refused = draw(5) == 0 ? draw(40) : 0;
        }
        s.staleness = draw(6) == 0 ? draw(8) : 0;
        s.p99_ticks = draw(80);
        s.max_ticks = s.p99_ticks + draw(20);
        monitor.observe(s);
        naive.observe(s);
        expect_same_report(monitor.report(), naive.report(), step);
        if (HasFatalFailure()) return;
      }
    }
  }
}

// --- journal replay ----------------------------------------------------------

/// Packs one round the way RouteService::tally journals it.
void push_round(Journal& journal, double t, std::uint64_t fresh,
                std::uint64_t stale, std::uint64_t shed, std::uint64_t refused,
                std::uint64_t p99, std::uint64_t max, std::uint64_t staleness) {
  EventRecord batch;
  batch.time = t;
  batch.type = Event::kRouteServiceBatch;
  batch.subject = (fresh << 32) | stale;
  batch.correlation = (shed << 32) | refused;
  batch.seq = journal.recorded++;
  journal.events.push_back(batch);
  EventRecord cost;
  cost.time = t;
  cost.type = Event::kRouteServiceBatchCost;
  cost.subject = (p99 << 32) | max;
  cost.correlation = staleness;
  cost.seq = journal.recorded++;
  journal.events.push_back(cost);
}

TEST(SloJournalReplay, SamplesRoundTripThePackedEvents) {
  Journal journal;
  push_round(journal, 0.5, 90, 10, 3, 2, 21, 40, 7);
  push_round(journal, 1.5, 80, 20, 0, 0, 19, 22, 9);
  const auto samples = bsr::obs::slo_samples_from_journal(journal);
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_DOUBLE_EQ(samples[0].time, 0.5);
  EXPECT_EQ(samples[0].fresh, 90u);
  EXPECT_EQ(samples[0].stale_served, 10u);
  EXPECT_EQ(samples[0].shedded, 3u);
  EXPECT_EQ(samples[0].refused, 2u);
  EXPECT_EQ(samples[0].p99_ticks, 21u);
  EXPECT_EQ(samples[0].max_ticks, 40u);
  EXPECT_EQ(samples[0].staleness, 7u);
  EXPECT_EQ(samples[1].fresh, 80u);
}

TEST(SloJournalReplay, SameTimestampRoundsMergeIntoOneSample) {
  // Two single-query batches at the same instant must evaluate like one
  // batch of two — however the queries were batched, same verdict.
  Journal journal;
  push_round(journal, 2.0, 1, 0, 0, 0, 5, 5, 0);
  push_round(journal, 2.0, 0, 1, 0, 0, 9, 9, 3);
  const auto samples = bsr::obs::slo_samples_from_journal(journal);
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].fresh, 1u);
  EXPECT_EQ(samples[0].stale_served, 1u);
  EXPECT_EQ(samples[0].p99_ticks, 9u) << "costs take the max";
  EXPECT_EQ(samples[0].staleness, 3u);
}

TEST(SloJournalReplay, ReplayMatchesLiveObservation) {
  Journal journal;
  push_round(journal, 0.0, 100, 0, 0, 0, 10, 11, 0);
  push_round(journal, 1.0, 0, 100, 0, 0, 12, 14, 5);
  push_round(journal, 2.0, 0, 100, 0, 0, 12, 14, 6);
  push_round(journal, 3.0, 100, 0, 0, 0, 10, 11, 0);

  const char* spec = "fresh_min=0.99,window=1,long_window=2";
  SloMonitor live{bsr::obs::parse_slo_spec(spec)};
  for (const auto& s : bsr::obs::slo_samples_from_journal(journal)) {
    live.observe(s);
  }
  SloMonitor replay{bsr::obs::parse_slo_spec(spec)};
  for (const auto& s : bsr::obs::slo_samples_from_journal(journal)) {
    replay.observe(s);
  }
  std::ostringstream a, b;
  bsr::obs::write_slo_json(a, live.report());
  bsr::obs::write_slo_json(b, replay.report());
  EXPECT_EQ(a.str(), b.str()) << "verdicts must agree byte for byte";
  EXPECT_EQ(live.report().breaches, 1u);
}

// --- verdict JSON ------------------------------------------------------------

TEST(SloVerdictJson, GoldenShape) {
  SloMonitor monitor(
      bsr::obs::parse_slo_spec("fresh_min=0.5,window=1,long_window=2"));
  monitor.observe(sample(0.0, 100, 0));
  std::ostringstream os;
  bsr::obs::write_slo_json(os, monitor.report());
  const std::string json = os.str();
  EXPECT_NE(json.find("\"slo_schema\": \"bsr-slo/1\""), std::string::npos);
  EXPECT_NE(json.find("\"ok\": true"), std::string::npos);
  EXPECT_NE(json.find("\"samples\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"fresh_fraction\""), std::string::npos);
  EXPECT_EQ(json.find("refusal"), std::string::npos)
      << "disabled objectives stay out of the verdict";
}

}  // namespace
