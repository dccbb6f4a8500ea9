#!/usr/bin/env python3
"""Aggregate bsr-bench/1 suite files into one markdown trend table.

Every bench binary (bench/perf_*) writes a BENCH_<suite>.json in the shared
bsr-bench/1 schema (see bench/harness.hpp). CI uploads those as artifacts,
but eyeballing N separate JSON files across commits is hopeless — this script
folds them into a single markdown report: one summary row per suite (scale,
seed, threads, peak RSS when recorded, total deterministic work units) and
one detail row per run (wall ms, ms/rep, work units, and the run's largest
counters). Committing or uploading the report alongside the raw JSON gives a
diffable trend line: wall-ms columns move with hardware noise, work-unit
columns only move when the algorithms change.

Inputs are treated as best-effort: a missing file, truncated JSON (a bench
binary killed mid-write), or a malformed field produces a stderr warning and
a skipped file or placeholder cell, never a traceback — CI aggregates
whatever artifacts the matrix produced, including partial ones.

Usage: bench_report.py [--out report.md] BENCH_a.json [BENCH_b.json ...]
Exits 1 if no input parses as bsr-bench/1 (so CI fails loudly when the
bench step silently produced nothing), 2 on usage errors.
"""

import argparse
import json
import sys

# Counters shown per run, capped so the table stays readable.
MAX_COUNTERS_PER_RUN = 3


def load_suite(path):
    """Returns the parsed suite dict, or None (with a stderr note) if the
    file is unreadable, not JSON, or not a bsr-bench/1 object."""
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"bench_report: skipping {path}: {err}", file=sys.stderr)
        return None
    if not isinstance(data, dict):
        print(f"bench_report: skipping {path}: top level is "
              f"{type(data).__name__}, expected an object", file=sys.stderr)
        return None
    if data.get("bench_schema") != "bsr-bench/1":
        print(f"bench_report: skipping {path}: bench_schema is "
              f"{data.get('bench_schema')!r}, expected 'bsr-bench/1'",
              file=sys.stderr)
        return None
    data["_path"] = path
    return data


def as_number(value, path, what):
    """Returns value as a number, or None (with a stderr warning) when a
    field that should be numeric isn't — partial artifacts stay reportable."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return value
    if value is not None:
        print(f"bench_report: {path}: ignoring non-numeric {what}: "
              f"{value!r}", file=sys.stderr)
    return None


def runs_of(suite):
    runs = suite.get("runs", [])
    if not isinstance(runs, list):
        print(f"bench_report: {suite['_path']}: 'runs' is not a list",
              file=sys.stderr)
        return []
    return [r for r in runs if isinstance(r, dict)]


def headline_counters(run, path):
    raw = run.get("counters", {})
    if not isinstance(raw, dict):
        return "—"
    counters = [(name, value) for name, value in raw.items()
                if as_number(value, path, f"counter {name}") is not None]
    counters.sort(key=lambda kv: (-kv[1], kv[0]))
    shown = ", ".join(f"{name}={value:,}"
                      for name, value in counters[:MAX_COUNTERS_PER_RUN])
    if len(counters) > MAX_COUNTERS_PER_RUN:
        shown += f", +{len(counters) - MAX_COUNTERS_PER_RUN} more"
    return shown or "—"


def format_rss(rss_bytes):
    if rss_bytes is None:
        return "—"
    return f"{rss_bytes / (1024.0 * 1024.0):,.1f}"


def headline_quantiles(run, path):
    """p50/p90/p99 cells from the run's largest quantile sketch (the one that
    saw the most observations — the headline distribution). Runs without
    sketches (older artifacts, non-serving benches) render as em-dashes."""
    raw = run.get("sketches", {})
    if not isinstance(raw, dict) or not raw:
        return ("—", "—", "—")
    best = None
    best_count = -1
    for name, sketch in raw.items():
        if not isinstance(sketch, dict):
            continue
        count = as_number(sketch.get("count"), path, f"sketch {name} count")
        if count is not None and count > best_count:
            best, best_count = sketch, count
    if best is None:
        return ("—", "—", "—")
    cells = []
    for q in ("p50", "p90", "p99"):
        value = as_number(best.get(q), path, f"sketch {q}")
        cells.append(f"{value:,}" if value is not None else "—")
    return tuple(cells)


EPISODE_PHASES = ("detect", "react", "queue", "exec", "drain")


def episode_phase_line(suite, path):
    """One-line critical-path decomposition for suites whose runs fed the
    obs.episode.* phase sketches (see src/obs/episode.hpp); None when no run
    carries all five phase slots."""
    for r in runs_of(suite):
        sketches = r.get("sketches", {})
        if not isinstance(sketches, dict):
            continue
        cells = []
        episodes = None
        for phase in EPISODE_PHASES:
            sketch = sketches.get(f"obs.episode.{phase}_ms")
            if not isinstance(sketch, dict):
                break
            p50 = as_number(sketch.get("p50"), path, f"episode {phase} p50")
            count = as_number(sketch.get("count"), path,
                              f"episode {phase} count")
            cells.append(f"{phase} {p50:,}" if p50 is not None
                         else f"{phase} —")
            if episodes is None and count is not None:
                episodes = int(count)
        else:
            return (f"Episode critical path (p50 ms/phase over "
                    f"{episodes if episodes is not None else 0} closed "
                    f"episode(s)): " + ", ".join(cells))
    return None


def paired_overhead_line(run, path):
    """Telemetry overhead of a run priced by interleaved bare/instrumented
    pairs (perf_obs's route twins): the median per-pair overhead with its
    IQR and per-query cost, sketches only and traced; None for runs without
    a pair count."""
    metrics = run.get("metrics", {})
    if not isinstance(metrics, dict):
        return None
    pairs = as_number(metrics.get("pairs"), path, "metric pairs")
    if pairs is None:
        return None
    cells = []
    for label, prefix in (("sketches only", "base_"), ("traced", "")):
        median = as_number(metrics.get(prefix + "overhead_pct"), path,
                           f"metric {prefix}overhead_pct")
        if median is None:
            continue
        cell = f"{label} {median:.1f} %"
        iqr = as_number(metrics.get(prefix + "overhead_iqr_pct"), path,
                        f"metric {prefix}overhead_iqr_pct")
        if iqr is not None:
            cell += f" (IQR {iqr:.1f} pts)"
        cost = as_number(metrics.get(prefix + "cost_ns_per_query"), path,
                         f"metric {prefix}cost_ns_per_query")
        if cost is not None:
            cell += f", {cost:.2f} ns/query"
        cells.append(cell)
    if not cells:
        return None
    return (f"Telemetry overhead of {run.get('name', '?')}, median of "
            f"{int(pairs)} interleaved pairs: " + "; ".join(cells))


def render(suites):
    lines = ["# Bench trend report", ""]
    lines.append("| suite | scale | seed | threads | stats | runs | "
                 "peak RSS (MiB) | total work units |")
    lines.append("|---|---:|---:|---:|---|---:|---:|---:|")
    for s in suites:
        path = s["_path"]
        runs = runs_of(s)
        total = as_number(s.get("total_work_units"), path, "total_work_units")
        if total is None:
            total = sum(as_number(r.get("work_units", 0), path,
                                  "work_units") or 0 for r in runs)
        rss = as_number(s.get("peak_rss_bytes"), path, "peak_rss_bytes")
        lines.append(
            f"| {s.get('suite', '?')} | {s.get('scale', '?')} "
            f"| {s.get('seed', '?')} | {s.get('threads', '?')} "
            f"| {'on' if s.get('stats_enabled') else 'off'} "
            f"| {len(runs)} | {format_rss(rss)} | {total:,} |")
    for s in suites:
        path = s["_path"]
        lines.append("")
        lines.append(f"## {s.get('suite', '?')} ({path})")
        lines.append("")
        metrics = s.get("metrics", {})
        if isinstance(metrics, dict) and metrics:
            shown = ", ".join(
                f"{k}={v:g}" for k, v in sorted(metrics.items())
                if as_number(v, path, f"metric {k}") is not None)
            if shown:
                lines.append(f"Suite metrics: {shown}")
                lines.append("")
        episode_line = episode_phase_line(s, path)
        if episode_line is not None:
            lines.append(episode_line)
            lines.append("")
        for r in runs_of(s):
            overhead_line = paired_overhead_line(r, path)
            if overhead_line is not None:
                lines.append(overhead_line)
                lines.append("")
        lines.append("| run | reps | wall ms | ms/rep | work units | "
                     "p50 | p90 | p99 | top counters |")
        lines.append("|---|---:|---:|---:|---:|---:|---:|---:|---|")
        for r in runs_of(s):
            reps = as_number(r.get("repetitions", 1), path, "repetitions") or 1
            wall = as_number(r.get("wall_ms", 0.0), path, "wall_ms")
            work = as_number(r.get("work_units", 0), path, "work_units")
            wall_cell = f"{wall:.3f}" if wall is not None else "—"
            per_rep = f"{wall / reps:.3f}" if wall is not None else "—"
            work_cell = f"{work:,}" if work is not None else "—"
            p50, p90, p99 = headline_quantiles(r, path)
            lines.append(
                f"| {r.get('name', '?')} | {reps} | {wall_cell} "
                f"| {per_rep} | {work_cell} | {p50} | {p90} | {p99} "
                f"| {headline_counters(r, path)} |")
    lines.append("")
    lines.append("Work-unit and p50/p90/p99 columns are deterministic "
                 "(seed + scale only; quantiles come from the run's largest "
                 "sketch, in virtual ticks); wall-ms and peak-RSS columns "
                 "carry hardware noise. A deterministic change without a "
                 "matching code change is drift — see "
                 "scripts/check_obs_drift.py.")
    lines.append("")
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(
        prog="bench_report.py",
        description="Aggregate bsr-bench/1 JSON files into a markdown "
                    "trend table.")
    parser.add_argument("inputs", nargs="+", metavar="BENCH.json")
    parser.add_argument("--out", metavar="report.md",
                        help="write the report here instead of stdout")
    args = parser.parse_args()

    suites = [s for s in map(load_suite, args.inputs) if s is not None]
    if not suites:
        print("bench_report: no valid bsr-bench/1 inputs", file=sys.stderr)
        return 1
    suites.sort(key=lambda s: (s.get("suite", ""), s["_path"]))

    report = render(suites)
    if args.out:
        try:
            with open(args.out, "w") as f:
                f.write(report)
        except OSError as err:
            print(f"bench_report: cannot write {args.out}: {err}",
                  file=sys.stderr)
            return 1
        print(f"bench_report: wrote {args.out} "
              f"({len(suites)} suite(s), "
              f"{sum(len(runs_of(s)) for s in suites)} run(s))")
    else:
        print(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
