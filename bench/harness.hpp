// Unified bench harness over the telemetry plane.
//
// Every perf/ablation binary used to hand-roll its own std::chrono stopwatch
// and ad-hoc JSON. This header centralizes that: a Harness names the suite,
// run() times a callable (optionally repeated), wraps it in a BSR_SPAN so the
// phase shows up in traces, and captures the counter delta so each run
// carries its deterministic work-unit dimension next to its wall time.
//
// The emitted schema ("bsr-bench/1") is shared by every bench:
//   {
//     "bench_schema": "bsr-bench/1",
//     "suite": "...", "scale": ..., "seed": ..., "threads": ...,
//     "stats_enabled": true|false,
//     "total_work_units": sum of every run's work_units,
//     "metrics": { suite-level numbers },
//     "runs": [
//       { "name": ..., "repetitions": N, "wall_ms": ...,
//         "work_units": ..., "metrics": {...}, "counters": { nonzero only } }
//     ]
//   }
// Suites may append extra top-level sections through raw_section() for
// suite-specific detail (perf_scale, perf_route_service, ablation_health);
// consumers that only speak bsr-bench/1 can ignore those.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "graph/engine.hpp"
#include "obs/export.hpp"
#include "obs/sketch.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace bsr::bench {

/// Peak resident set size of this process in bytes; 0 when the platform
/// offers no getrusage. The scale suite uses this to track the memory cost
/// of the 10x stress topology alongside its wall times.
inline std::uint64_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(usage.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;  // KiB elsewhere
#endif
#else
  return 0;
#endif
}

struct RunResult {
  std::string name;
  int repetitions = 1;
  double wall_ms = 0.0;
  std::uint64_t work_units = 0;                        // delta over the run
  bsr::obs::Snapshot counters;                         // delta over the run
  bsr::obs::SketchSnapshot sketches{};                 // delta over the run
  std::vector<std::pair<std::string, double>> metrics; // per-run extras

  /// Wall milliseconds per single repetition.
  [[nodiscard]] double ms_per_rep() const {
    return repetitions > 0 ? wall_ms / repetitions : wall_ms;
  }
};

class Harness {
 public:
  explicit Harness(std::string suite, const BenchContext& ctx)
      : suite_(std::move(suite)), env_(ctx.env) {}

  /// Times `reps` back-to-back calls of fn() under a span named after the
  /// run; the recorded counters/work_units are the delta across all reps.
  template <class Fn>
  RunResult& run(const std::string& name, int reps, Fn&& fn) {
    runs_.push_back(RunResult{});
    RunResult& out = runs_.back();
    out.name = name;
    out.repetitions = reps;
    const bsr::obs::Snapshot before = bsr::obs::snapshot();
    const bsr::obs::SketchSnapshot sk_before = bsr::obs::snapshot_sketches();
    Stopwatch watch;
    {
      bsr::obs::Span span(out.name.c_str());
      for (int r = 0; r < reps; ++r) fn();
    }
    out.wall_ms = watch.seconds() * 1e3;
    out.counters = bsr::obs::delta(before, bsr::obs::snapshot());
    out.sketches =
        bsr::obs::sketch_delta(sk_before, bsr::obs::snapshot_sketches());
    out.work_units = bsr::obs::work_units(out.counters);
    return out;
  }

  template <class Fn>
  RunResult& run(const std::string& name, Fn&& fn) {
    return run(name, 1, std::forward<Fn>(fn));
  }

  /// Suite-level metric (appears under top-level "metrics").
  void metric(const std::string& key, double value) {
    metrics_.emplace_back(key, value);
  }

  /// Per-run metric, attached to the result returned by run().
  static void metric(RunResult& r, const std::string& key, double value) {
    r.metrics.emplace_back(key, value);
  }

  /// Extra top-level JSON section: emitted verbatim as `"key": <json>`.
  void raw_section(const std::string& key, std::string json) {
    raw_.emplace_back(key, std::move(json));
  }

  [[nodiscard]] const std::deque<RunResult>& runs() const { return runs_; }

  /// Deterministic work across every recorded run — the headline scalar the
  /// bench trend report (scripts/bench_report.py) compares across commits.
  [[nodiscard]] std::uint64_t total_work_units() const {
    std::uint64_t total = 0;
    for (const RunResult& r : runs_) total += r.work_units;
    return total;
  }

  void write_json(std::ostream& os) const {
    os << "{\n"
       << "  \"bench_schema\": \"bsr-bench/1\",\n"
       << "  \"suite\": \"" << suite_ << "\",\n"
       << "  \"scale\": " << env_.scale << ",\n"
       << "  \"seed\": " << env_.seed << ",\n"
       << "  \"threads\": " << bsr::graph::engine::num_threads() << ",\n"
       << "  \"stats_enabled\": " << (BSR_STATS_ENABLED ? "true" : "false")
       << ",\n  \"total_work_units\": " << total_work_units();
    if (const std::uint64_t rss = peak_rss_bytes(); rss != 0) {
      os << ",\n  \"peak_rss_bytes\": " << rss;
    }
    os << ",\n  \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      os << (i == 0 ? "\n" : ",\n") << "    \"" << metrics_[i].first
         << "\": " << metrics_[i].second;
    }
    os << (metrics_.empty() ? "" : "\n  ") << "},\n  \"runs\": [";
    for (std::size_t i = 0; i < runs_.size(); ++i) {
      const RunResult& r = runs_[i];
      os << (i == 0 ? "\n" : ",\n") << "    {\"name\": \"" << r.name
         << "\", \"repetitions\": " << r.repetitions
         << ", \"wall_ms\": " << r.wall_ms
         << ", \"work_units\": " << r.work_units << ",\n     \"metrics\": {";
      for (std::size_t m = 0; m < r.metrics.size(); ++m) {
        os << (m == 0 ? "" : ", ") << "\"" << r.metrics[m].first
           << "\": " << r.metrics[m].second;
      }
      os << "},\n     \"counters\": {";
      bool first = true;
      for (std::size_t c = 0; c < bsr::obs::kNumCounters; ++c) {
        if (r.counters.counters[c] == 0) continue;
        os << (first ? "" : ", ") << "\""
           << bsr::obs::name(static_cast<bsr::obs::Counter>(c))
           << "\": " << r.counters.counters[c];
        first = false;
      }
      os << "},\n     \"histograms\": {";
      first = true;
      for (std::size_t h = 0; h < bsr::obs::kNumHistograms; ++h) {
        const auto& hist = r.counters.histograms[h];
        std::uint64_t total = 0;
        for (const std::uint64_t c : hist) total += c;
        if (total == 0) continue;
        os << (first ? "" : ", ") << "\""
           << bsr::obs::name(static_cast<bsr::obs::Histogram>(h))
           << "\": {\"total\": " << total << ", \"buckets\": [";
        bool first_bucket = true;
        for (std::size_t b = 0; b < bsr::obs::kHistogramBuckets; ++b) {
          if (hist[b] == 0) continue;
          os << (first_bucket ? "" : ", ") << "[" << b << ", " << hist[b]
             << "]";
          first_bucket = false;
        }
        os << "]}";
        first = false;
      }
      os << "},\n     \"sketches\": {";
      first = true;
      for (std::size_t s = 0; s < bsr::obs::kNumSketches; ++s) {
        const bsr::obs::QuantileSketch& sk = r.sketches[s];
        if (sk.count() == 0) continue;
        os << (first ? "" : ", ") << "\""
           << bsr::obs::name(static_cast<bsr::obs::Sketch>(s))
           << "\": {\"count\": " << sk.count() << ", \"sum\": " << sk.sum()
           << ", \"p50\": " << sk.p50() << ", \"p90\": " << sk.p90()
           << ", \"p99\": " << sk.p99() << ", \"max\": " << sk.max()
           << ", \"buckets\": [";
        bool first_bucket = true;
        for (std::size_t b = 0; b < bsr::obs::QuantileSketch::kBuckets; ++b) {
          if (sk.buckets()[b] == 0) continue;
          os << (first_bucket ? "" : ", ") << "[" << b << ", "
             << sk.buckets()[b] << "]";
          first_bucket = false;
        }
        os << "]}";
        first = false;
      }
      os << "}}";
    }
    os << "\n  ]";
    for (const auto& [key, json] : raw_) {
      os << ",\n  \"" << key << "\": " << json;
    }
    os << "\n}\n";
  }

  /// Writes the suite file to `default_path` unless `env_override` names an
  /// alternative (the established BENCH_*_JSON convention). Logs the path.
  void write_json_file(const std::string& default_path,
                       const char* env_override) const {
    const char* from_env =
        env_override != nullptr ? std::getenv(env_override) : nullptr;
    const std::string path = from_env != nullptr ? from_env : default_path;
    std::ofstream out(path);
    write_json(out);
    std::cout << "\nwrote " << path << "\n";
  }

 private:
  std::string suite_;
  bsr::io::ExperimentEnv env_;
  // deque: run() hands out references that must survive later run() calls.
  std::deque<RunResult> runs_;
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<std::pair<std::string, std::string>> raw_;
};

}  // namespace bsr::bench
