// Summary statistics and step classification for the pipeline benchmark.
//
// Header-only and free of clocks, so the self-tests exercise exactly the
// code that turns raw timings into the printed metrics.
#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "sim/route_service.hpp"

namespace bsr::perfbench {

/// Median of `v` (mean of the two middle values for an even count).
/// Throws std::invalid_argument on an empty sample.
inline double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of an empty sample");
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};

/// Quartiles by the same rule as Python's statistics.quantiles(v, n=4)
/// (the default "exclusive" method), so the benchmark's own spread figures
/// match the ones computed over its printed results. Needs >= 2 samples.
inline Quartiles quartiles(std::vector<double> v) {
  if (v.size() < 2) throw std::invalid_argument("quartiles need >= 2 samples");
  std::sort(v.begin(), v.end());
  const long n = 4;
  const long ld = static_cast<long>(v.size());
  const long m = ld + 1;
  double cut[3] = {0.0, 0.0, 0.0};
  for (long i = 1; i < n; ++i) {
    long j = i * m / n;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * n;
    cut[i - 1] = (v[j - 1] * static_cast<double>(n - delta) +
                  v[j] * static_cast<double>(delta)) /
                 static_cast<double>(n);
  }
  return {cut[0], cut[1], cut[2]};
}

/// The highest percentile of a sample that still has at least `min_beyond`
/// samples strictly above its rank, with the sample count it was read from.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;  // rank / count * 100
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

/// Throws std::invalid_argument when the sample has no such rank
/// (fewer than min_beyond + 1 samples).
inline Tail tail_percentile(std::vector<double> v, std::size_t min_beyond = 10) {
  if (v.size() <= min_beyond) {
    throw std::invalid_argument("tail_percentile: too few samples");
  }
  std::sort(v.begin(), v.end());
  const std::size_t rank = v.size() - min_beyond;  // 1-based rank
  Tail t;
  t.value = v[rank - 1];
  t.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(v.size());
  t.samples = v.size();
  t.beyond = v.size() - rank;
  return t;
}

/// How many of `total` calls fall in round `r` of `rounds` when they are
/// spread evenly and each sits at the centre of its share of the rounds
/// (call i goes to round floor((2i + 1) * rounds / (2 * total))): a single
/// call lands mid-pass, `rounds` calls one per round.
inline int calls_in_round(int total, int rounds, int r) noexcept {
  const auto upto = [&](int k) {  // calls in rounds [0, k)
    const long x = 2L * k * total - rounds;
    return x <= 0 ? 0L : std::min<long>(total, (x + 2L * rounds - 1) / (2L * rounds));
  };
  return static_cast<int>(upto(r + 1) - upto(r));
}

/// What one serve_churn step did, read from the service's cumulative stats
/// before and after it. A step counts as a publish if and only if
/// epochs_published rose; otherwise a rise in patches or patch_crashes makes
/// it a patch (both re-unite every usable edge); everything else is a serve
/// step, whose cost is one batch plus constant-time control work.
enum class StepKind { kServe, kPatch, kPublish };

inline StepKind classify_step(const sim::RouteServiceStats& before,
                              const sim::RouteServiceStats& after) noexcept {
  if (after.epochs_published > before.epochs_published) return StepKind::kPublish;
  if (after.patches > before.patches || after.patch_crashes > before.patch_crashes) {
    return StepKind::kPatch;
  }
  return StepKind::kServe;
}

}  // namespace bsr::perfbench
