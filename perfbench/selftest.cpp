// Self-tests of the pipeline benchmark: the statistics helpers, the step
// classifier, one corrupted output per check, and the repeatability of two
// runs of one seed. Usage: bsrbench_selftest <scratch dir> (run.py passes
// one under its build directory). Exit 0 iff every test passes.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "broker/maxsg.hpp"
#include "broker/robust.hpp"
#include "checks.hpp"
#include "inputs.hpp"
#include "pipeline.hpp"
#include "sim/route_service.hpp"
#include "stats.hpp"
#include "topology/serialization.hpp"

namespace {

using namespace bsr::perfbench;
using bsr::sim::AnswerStatus;
using bsr::sim::RouteAnswer;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "  ok    " : "  FAIL  ") << what << "\n";
  if (!ok) ++g_failures;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

template <class F>
bool throws(F&& f) {
  try {
    f();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

void test_statistics() {
  std::cout << "statistics helpers\n";
  expect(near(median({3, 1, 2}), 2.0), "median of an odd sample");
  expect(near(median({4, 1, 3, 2}), 2.5), "median of an even sample");
  expect(throws([] { static_cast<void>(median({})); }), "median of nothing throws");
  // Reference values from Python's statistics.quantiles(v, n=4).
  const Quartiles a = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  expect(near(a.q1, 2.75) && near(a.q2, 5.5) && near(a.q3, 8.25), "quartiles of 1..10");
  const Quartiles b = quartiles({1, 2, 3, 4, 5});
  expect(near(b.q1, 1.5) && near(b.q2, 3.0) && near(b.q3, 4.5), "quartiles of 1..5");
  const Quartiles c = quartiles({5, 1});
  expect(near(c.q1, 0.0) && near(c.q2, 3.0) && near(c.q3, 6.0), "quartiles of two samples");
  const Quartiles d = quartiles({0.5, 7, 2, 9, 3.25, 11, 4});
  expect(near(d.q1, 2.0) && near(d.q2, 4.0) && near(d.q3, 9.0), "quartiles, unsorted input");

  std::vector<double> v;
  for (int i = 110; i >= 1; --i) v.push_back(i);
  const Tail t = tail_percentile(v);
  expect(near(t.value, 100.0) && near(t.percentile, 100.0 * 100 / 110) && t.samples == 110 &&
             t.beyond == 10,
         "tail of 110 samples is p90.9 with 10 beyond");
  const Tail u = tail_percentile({7, 3, 5, 1, 9, 2, 8, 4, 6, 11, 10});
  expect(near(u.value, 1.0) && u.samples == 11 && u.beyond == 10,
         "tail of 11 samples is the minimum");
  expect(throws([] { static_cast<void>(tail_percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10})); }),
         "tail of 10 samples throws");

  const auto rounds_of = [](int total, int rounds) {
    std::vector<int> out;
    for (int r = 0; r < rounds; ++r) out.push_back(calls_in_round(total, rounds, r));
    return out;
  };
  expect(rounds_of(1, 16) == std::vector<int>{0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0},
         "one call lands mid-pass");
  expect(rounds_of(3, 6) == std::vector<int>{0, 1, 0, 1, 0, 1}, "three calls over six rounds");
  expect(rounds_of(6, 6) == std::vector<int>(6, 1), "as many calls as rounds: one each");
  expect(rounds_of(0, 6) == std::vector<int>(6, 0), "no calls: none in any round");
  bool sums = true;
  for (int total : {1, 2, 5, 110, 330}) {
    for (int rounds : {1, 3, 6, 16}) {
      int sum = 0;
      int low = total;
      int high = 0;
      for (const int n : rounds_of(total, rounds)) {
        sum += n;
        low = std::min(low, n);
        high = std::max(high, n);
      }
      sums = sums && sum == total && high - low <= 1;
    }
  }
  expect(sums, "every call lands in exactly one round, evenly spread");
}

void test_classifier() {
  std::cout << "publish-step classifier\n";
  bsr::sim::RouteServiceStats before;
  before.epochs_published = 3;
  before.patches = 5;
  auto after = before;
  after.queries += 32;
  after.rebuilds_started += 1;
  after.rebuild_crashes += 1;
  expect(classify_step(before, after) == StepKind::kServe,
         "queries, rebuild starts and crashes alone are a serve step");
  after.epochs_published += 1;
  expect(classify_step(before, after) == StepKind::kPublish, "epochs_published rose: publish");
  after.patches += 1;
  expect(classify_step(before, after) == StepKind::kPublish,
         "a publish that also patched is still a publish");
  after.epochs_published = before.epochs_published;
  expect(classify_step(before, after) == StepKind::kPatch, "patches rose alone: patch");
  after = before;
  after.patch_crashes += 1;
  expect(classify_step(before, after) == StepKind::kPatch, "a crashed patch is a patch");
}

void test_checks() {
  std::cout << "output checks on corrupted outputs\n";
  auto config = bsr::topology::InternetConfig{}.scaled(0.02);
  config.seed = 7;
  const auto topo = bsr::topology::make_internet(config);
  const auto& g = topo.graph;

  const auto sel = bsr::broker::maxsg(g, planned_broker_count(g.num_vertices()));
  expect(check_maxsg(g, sel).ok(), "maxsg check passes on a real selection");
  auto bad = sel;
  ++bad.coverage;
  expect(!check_maxsg(g, bad).ok(), "maxsg check fails on a wrong coverage");
  bad = sel;
  ++bad.final_component;
  expect(!check_maxsg(g, bad).ok(), "maxsg check fails on a wrong final_component");
  bad = sel;
  bad.brokers = sel.brokers.prefix(1);
  expect(!check_maxsg(g, bad).ok(), "maxsg check fails on a corrupted selection");

  bsr::broker::RobustOptions ro;
  ro.redundancy = 1;
  const auto robust = bsr::broker::robust_maxsg(g, 6, ro);
  expect(check_robust(g, robust, 1).ok(), "robust check passes on a real selection");
  auto bad_robust = robust;
  ++bad_robust.surviving_pairs;
  expect(!check_robust(g, bad_robust, 1).ok(), "robust check fails on wrong surviving_pairs");

  bsr::graph::Rng rng(11);
  bsr::sim::DemandConfig demand;
  demand.num_flows = 512;
  const auto flows = bsr::sim::generate_flows(g, demand, rng);
  bsr::sim::RouteService service(g, sel.brokers, nullptr);
  std::vector<RouteAnswer> answers;
  service.serve_batch(flows, 0.0, answers);
  std::vector<std::size_t> all(answers.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  expect(check_answers(g, sel.brokers, {}, flows, answers, all).ok(),
         "answer check passes on real answers");
  std::size_t hop = answers.size();
  for (std::size_t i = 0; i < answers.size() && hop == answers.size(); ++i) {
    if (answers[i].reachable && answers[i].dist_bound != bsr::graph::kUnreachable &&
        flows[i].src != flows[i].dst) {
      hop = i;
    }
  }
  expect(hop < answers.size(), "the batch holds a reachable pair with a distance bound");
  if (hop < answers.size()) {
    auto corrupt = answers;
    corrupt[hop].reachable = false;
    expect(!check_answers(g, sel.brokers, {}, flows, corrupt, {}).ok(),
           "answer check fails on flipped reachability");
    corrupt = answers;
    corrupt[hop].dist_bound = 0;
    const std::size_t one[] = {hop};
    expect(!check_answers(g, sel.brokers, {}, flows, corrupt, one).ok(),
           "answer check fails on a bound below the BFS distance");

    expect(check_audit(answers, answers, true).ok(), "audit passes on identical answers");
    corrupt = answers;
    corrupt[hop].reachable = false;
    expect(!check_audit(corrupt, answers, false).ok(),
           "audit fails on a fresh answer with the wrong reachability");
    corrupt = answers;
    corrupt[hop].dist_bound += 1;
    expect(!check_audit(corrupt, answers, true).ok(),
           "exact audit fails on a different distance bound");
    expect(check_audit(corrupt, answers, false).ok(),
           "after a patch the audit compares reachability only");
  }

  bsr::sim::RouteServiceStats stats;
  stats.max_stale_served = 2;
  expect(check_churn_bounds(stats, 2, 0, 0).ok(), "churn bounds pass within the bound");
  stats.max_stale_served = 3;
  expect(!check_churn_bounds(stats, 2, 0, 0).ok(), "churn bounds fail past the staleness bound");
  stats.max_stale_served = 0;
  expect(!check_churn_bounds(stats, 2, 1, 0).ok(), "churn bounds fail on a dropped event");
  expect(!check_churn_bounds(stats, 2, 0, 1).ok(), "churn bounds fail on a malformed episode");

  bsr::sim::RouteServiceStats totals;
  totals.fresh = totals.stale_served = totals.refused = totals.shedded = 5;
  totals.patches = totals.rebuilds_discarded = 1;
  expect(check_churn_coverage(totals).ok(), "coverage passes when every path ran");
  totals.refused = 0;
  expect(!check_churn_coverage(totals).ok(), "coverage fails when no answer was refused");
}

std::vector<Metric> run_tiny(const std::string& dir, bool traced) {
  RunConfig config;
  config.workload = "serve_churn";
  config.seed = 3;
  config.sizes = sizes_for(config.workload, 1);
  config.inputs = input_files(dir);
  std::ostringstream log;
  const RunResult r = run_workload(config, traced, log);
  expect(r.correct(), std::string("tiny ") + (traced ? "traced" : "untraced") +
                          " run passes its checks" +
                          (r.correct() ? "" : ": " + r.checks.first_error));
  return r.metrics;
}

bool exact_unit(const std::string& unit) {
  return unit == "count" || unit == "ratio" || unit == "ticks" || unit == "hops" ||
         unit == "bytes";
}

void test_repeatability(const std::string& dir) {
  std::cout << "two runs of one seed\n";
  generate_inputs(dir, 3, false, 0.02, std::size_t{1} << 14);
  const auto a = run_tiny(dir, true);
  const auto b = run_tiny(dir, true);
  bool same = a.size() == b.size();
  std::size_t compared = 0;
  for (std::size_t i = 0; same && i < a.size(); ++i) {
    if (!exact_unit(a[i].unit) || a[i].name == "bench.trace_overhead_pct") continue;
    ++compared;
    if (a[i].name != b[i].name || a[i].value != b[i].value) {
      same = false;
      std::cout << "        " << a[i].name << ": " << a[i].value << " vs " << b[i].value << "\n";
    }
  }
  expect(same && compared > 30, "traced runs repeat every count and ratio (" +
                                    std::to_string(compared) + " metrics)");
  const auto c = run_tiny(dir, false);
  const auto d = run_tiny(dir, false);
  const auto value = [](const std::vector<Metric>& m, const std::string& name) {
    for (const Metric& x : m) {
      if (x.name == name) return x.value;
    }
    return -1.0;
  };
  expect(value(c, "fresh_frac") == value(d, "fresh_frac") && value(c, "fresh_frac") > 0.0 &&
             value(c, "fresh_frac") < 1.0,
         "fresh_frac repeats exactly");
  expect(value(c, "ok_frac") == value(d, "ok_frac") && value(c, "ok_frac") > 0.0,
         "ok_frac repeats exactly");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: bsrbench_selftest <scratch dir>\n";
    return 2;
  }
  test_statistics();
  test_classifier();
  test_checks();
  test_repeatability(argv[1]);
  std::cout << (g_failures == 0 ? "all self-tests passed\n" : "SELF-TESTS FAILED\n");
  return g_failures == 0 ? 0 : 1;
}
