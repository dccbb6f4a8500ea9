// Deterministic streaming quantile sketches for the telemetry plane.
//
// The counter registry (stats.hpp) totals work; the power-of-two histograms
// there are too coarse (one bucket per octave) to answer "what is the p99
// query cost". QuantileSketch is the missing distribution primitive: a
// DDSketch-style log-bucketed sketch over unsigned integer values with a
// *fixed-point* bucket map — every observation lands in one of 1920
// compile-time buckets, merging two sketches is a bucket-wise integer add,
// and every extracted quantile is a bucket lower bound. No floating point
// touches the data path, so:
//
//   1. Merge is commutative and associative bit-for-bit. Per-shard sketches
//      merged in any order produce the identical byte pattern, which is what
//      keeps exports byte-identical at any BSR_THREADS value.
//   2. Quantiles carry a guaranteed relative error. Buckets subdivide each
//      octave into 32 linear steps (kSubBits = 5), so for any value v the
//      bucket lower bound L satisfies L <= v < L + max(1, L/32): quantile()
//      underestimates by at most a factor of 1/32 (~3.1%).
//   3. The representation is the whole state. count + sum + buckets — no
//      cached extrema, no lazy fields — so equality, delta (bucket-wise
//      subtract) and snapshotting are trivial and exact.
//
// Like the journal (journal.hpp rule 3), the *global* sketch registry below
// is written only from single-threaded control paths (RouteService::tally
// runs after the worker shards join), so plain unsynchronized state is
// correct. BSR_SKETCH sites compile to nothing under BSR_STATS=OFF; the
// QuantileSketch class itself stays linkable either way so harnesses and
// tests build in both modes.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

#include "obs/stats.hpp"

namespace bsr::obs {

class QuantileSketch {
 public:
  /// Sub-bucket resolution: each power-of-two octave is split into
  /// 2^kSubBits linear buckets, bounding the relative error at 2^-kSubBits.
  static constexpr unsigned kSubBits = 5;
  static constexpr std::uint64_t kSubBuckets = std::uint64_t{1} << kSubBits;

  /// Values below 2 * kSubBuckets are exact (one bucket per value, using the
  /// first two octaves' worth of indices); above, bucket (q, r) covers
  /// [(kSubBuckets + r) << (q - 1), ...). The top octave (bit_width 64) maps
  /// to q = 64 - kSubBits, so the whole uint64 range needs
  /// (65 - kSubBits) * kSubBuckets buckets.
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>((65 - kSubBits) * kSubBuckets);

  /// Index of the bucket holding `v`. Monotone in v.
  [[nodiscard]] static constexpr std::size_t bucket_of(std::uint64_t v) noexcept {
    if (v < 2 * kSubBuckets) return static_cast<std::size_t>(v);
    const unsigned m = std::bit_width(v) - 1;  // m >= kSubBits + 1
    return static_cast<std::size_t>(
        ((m - kSubBits) << kSubBits) + (v >> (m - kSubBits)));
  }

  /// Smallest value mapping to bucket `idx` (the canonical representative
  /// every extraction returns). Inverse of bucket_of on bucket lower bounds.
  [[nodiscard]] static constexpr std::uint64_t bucket_lower(std::size_t idx) noexcept {
    if (idx < 2 * kSubBuckets) return static_cast<std::uint64_t>(idx);
    const std::uint64_t q = static_cast<std::uint64_t>(idx) >> kSubBits;
    const std::uint64_t r = static_cast<std::uint64_t>(idx) & (kSubBuckets - 1);
    return (kSubBuckets + r) << (q - 1);
  }

  void observe(std::uint64_t v) noexcept {
    ++buckets_[bucket_of(v)];
    ++count_;
    sum_ += v;
  }

  /// Bucket-wise integer add: commutative, associative, bit-exact.
  void merge(const QuantileSketch& other) noexcept {
    count_ += other.count_;
    sum_ += other.sum_;
    for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  }

  /// Adds staged observations: `counts` by bucket index (a prefix of the
  /// bucket range) and `sum`, their values' total. The same bytes as
  /// observing each value on its own.
  void merge_counts(std::span<const std::uint64_t> counts,
                    std::uint64_t sum) noexcept {
    for (std::size_t i = 0; i < counts.size(); ++i) {
      buckets_[i] += counts[i];
      count_ += counts[i];
    }
    sum_ += sum;
  }

  void clear() noexcept { *this = QuantileSketch{}; }

  /// Bucket-wise `*this - before`. Exact whenever `before` is an earlier
  /// state of this sketch (no clear in between).
  [[nodiscard]] QuantileSketch delta_since(const QuantileSketch& before) const noexcept {
    QuantileSketch out;
    out.count_ = count_ - before.count_;
    out.sum_ = sum_ - before.sum_;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      out.buckets_[i] = buckets_[i] - before.buckets_[i];
    }
    return out;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

  /// Lower bound of the bucket holding the ceil(q * count)-th smallest
  /// observation (q clamped to [0, 1]); 0 on an empty sketch. The returned
  /// value L satisfies L <= x_q < L + max(1, L >> kSubBits) for the exact
  /// q-quantile x_q.
  [[nodiscard]] std::uint64_t quantile(double q) const noexcept;

  /// The rank rule behind quantile(), over bucket counts held anywhere:
  /// the index of the bucket holding the ceil(q * count)-th smallest of
  /// `count` > 0 observations whose bucket_of counts are `counts` (a prefix
  /// of the bucket range is enough; q clamped to [0, 1]).
  [[nodiscard]] static std::size_t quantile_bucket(
      std::span<const std::uint64_t> counts, std::uint64_t count,
      double q) noexcept;

  [[nodiscard]] std::uint64_t p50() const noexcept { return quantile(0.50); }
  [[nodiscard]] std::uint64_t p90() const noexcept { return quantile(0.90); }
  [[nodiscard]] std::uint64_t p99() const noexcept { return quantile(0.99); }
  /// Lower bounds of the extreme occupied buckets; 0 on an empty sketch.
  [[nodiscard]] std::uint64_t min() const noexcept;
  [[nodiscard]] std::uint64_t max() const noexcept;

  [[nodiscard]] const std::array<std::uint64_t, kBuckets>& buckets() const noexcept {
    return buckets_;
  }

  friend bool operator==(const QuantileSketch& a, const QuantileSketch& b) {
    return a.count_ == b.count_ && a.sum_ == b.sum_ && a.buckets_ == b.buckets_;
  }

 private:
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::array<std::uint64_t, kBuckets> buckets_{};
};

// --- fixed-slot sketch registry ---------------------------------------------
// X(EnumId, "layer.component.metric") — same convention as the counter
// tables. Per-answer-tag tick costs and distance bounds of the
// route-serving plane, plus the episode reconstructor's critical-path
// phase durations in milli-time-units (episode.hpp); append one X(...)
// line to add a slot.

#define BSR_OBS_SKETCH_TABLE(X)                                    \
  X(RouteTicksFresh, "sim.route_service.ticks.fresh")              \
  X(RouteTicksStale, "sim.route_service.ticks.stale_served")       \
  X(RouteTicksShedded, "sim.route_service.ticks.shedded")          \
  X(RouteTicksRefused, "sim.route_service.ticks.refused")          \
  X(RouteDistFresh, "sim.route_service.dist.fresh")                \
  X(RouteDistStale, "sim.route_service.dist.stale_served")         \
  X(EpisodeDetectMs, "obs.episode.detect_ms")                      \
  X(EpisodeReactMs, "obs.episode.react_ms")                        \
  X(EpisodeQueueMs, "obs.episode.queue_ms")                        \
  X(EpisodeExecMs, "obs.episode.exec_ms")                          \
  X(EpisodeDrainMs, "obs.episode.drain_ms")

enum class Sketch : std::uint16_t {
#define BSR_OBS_X(id, name) k##id,
  BSR_OBS_SKETCH_TABLE(BSR_OBS_X)
#undef BSR_OBS_X
      kCount
};

inline constexpr std::size_t kNumSketches = static_cast<std::size_t>(Sketch::kCount);

[[nodiscard]] std::string_view name(Sketch s) noexcept;

/// The merged registry state: one sketch per fixed slot.
using SketchSnapshot = std::array<QuantileSketch, kNumSketches>;

namespace detail {
/// The global slots. Single-threaded by contract (journal.hpp rule 3): only
/// control paths record, never worker shards — one plain leaked global, no
/// locks, same shape as the journal's Recorder. Inline so sketch_observe
/// compiles to a handful of adds at per-answer sites instead of an
/// out-of-line registry call.
[[nodiscard]] inline SketchSnapshot& sketch_registry() noexcept {
  static SketchSnapshot* slots = new SketchSnapshot();  // leaked: no dtor order
  return *slots;
}
}  // namespace detail

/// Records `v` into the global slot. Single-threaded control paths only
/// (journal.hpp rule 3) — worker shards must never call this directly.
inline void sketch_observe(Sketch s, std::uint64_t v) noexcept {
  detail::sketch_registry()[static_cast<std::size_t>(s)].observe(v);
}

/// QuantileSketch::merge_counts into the global slot. Single-threaded
/// control paths only, like sketch_observe.
inline void sketch_merge_counts(Sketch s, std::span<const std::uint64_t> counts,
                                std::uint64_t sum) noexcept {
  detail::sketch_registry()[static_cast<std::size_t>(s)].merge_counts(counts, sum);
}

/// Read-only view of one global slot (live; same quiescence contract as
/// stats.hpp snapshot()).
[[nodiscard]] const QuantileSketch& sketch(Sketch s) noexcept;

[[nodiscard]] SketchSnapshot snapshot_sketches();
void reset_sketches();

/// Bucket-wise `after - before` for every slot. Valid whenever `before` was
/// snapshotted earlier than `after` with no reset in between.
[[nodiscard]] SketchSnapshot sketch_delta(const SketchSnapshot& before,
                                          const SketchSnapshot& after);

}  // namespace bsr::obs

// BSR_SKETCH(id, v) — record one observation into a registry slot. Empty
// statement under BSR_STATS=OFF, like every other obs site.
#if BSR_STATS_ENABLED
#define BSR_SKETCH(id, v)                              \
  ::bsr::obs::sketch_observe(::bsr::obs::Sketch::k##id, \
                             static_cast<std::uint64_t>(v))
#else
#define BSR_SKETCH(id, v) \
  do {                    \
  } while (false)
#endif
