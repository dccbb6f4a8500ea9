#include "obs/sketch.hpp"

namespace bsr::obs {

namespace {

constexpr std::array<std::string_view, kNumSketches> kSketchNames = {{
#define BSR_OBS_X(id, str) str,
    BSR_OBS_SKETCH_TABLE(BSR_OBS_X)
#undef BSR_OBS_X
}};

}  // namespace

std::uint64_t QuantileSketch::quantile(double q) const noexcept {
  if (count_ == 0) return 0;
  return bucket_lower(quantile_bucket(buckets_, count_, q));
}

std::size_t QuantileSketch::quantile_bucket(std::span<const std::uint64_t> counts,
                                            std::uint64_t count,
                                            double q) noexcept {
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // rank = ceil(q * count), at least 1: the k-th smallest observation.
  std::uint64_t rank = static_cast<std::uint64_t>(
      q * static_cast<double>(count));
  if (static_cast<double>(rank) < q * static_cast<double>(count)) ++rank;
  if (rank < 1) rank = 1;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (seen >= rank) return i;
  }
  return counts.size() - 1;
}

std::uint64_t QuantileSketch::min() const noexcept {
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (buckets_[i] != 0) return bucket_lower(i);
  }
  return 0;
}

std::uint64_t QuantileSketch::max() const noexcept {
  for (std::size_t i = kBuckets; i-- > 0;) {
    if (buckets_[i] != 0) return bucket_lower(i);
  }
  return 0;
}

std::string_view name(Sketch s) noexcept {
  return kSketchNames[static_cast<std::size_t>(s)];
}

const QuantileSketch& sketch(Sketch s) noexcept {
  return detail::sketch_registry()[static_cast<std::size_t>(s)];
}

SketchSnapshot snapshot_sketches() { return detail::sketch_registry(); }

void reset_sketches() {
  for (QuantileSketch& s : detail::sketch_registry()) s.clear();
}

SketchSnapshot sketch_delta(const SketchSnapshot& before,
                            const SketchSnapshot& after) {
  SketchSnapshot out;
  for (std::size_t s = 0; s < kNumSketches; ++s) {
    out[s] = after[s].delta_since(before[s]);
  }
  return out;
}

}  // namespace bsr::obs
