#include "obs/stats.hpp"

#include <mutex>
#include <vector>

namespace bsr::obs {

namespace {

struct CounterMeta {
  std::string_view name;
  bool work;
};

constexpr std::array<CounterMeta, kNumCounters> kCounterMeta = {{
#define BSR_OBS_X(id, str, work) {str, work},
    BSR_OBS_COUNTER_TABLE(BSR_OBS_X)
#undef BSR_OBS_X
}};

constexpr std::array<std::string_view, kNumGauges> kGaugeNames = {{
#define BSR_OBS_X(id, str) str,
    BSR_OBS_GAUGE_TABLE(BSR_OBS_X)
#undef BSR_OBS_X
}};

constexpr std::array<std::string_view, kNumHistograms> kHistogramNames = {{
#define BSR_OBS_X(id, str) str,
    BSR_OBS_HISTOGRAM_TABLE(BSR_OBS_X)
#undef BSR_OBS_X
}};

/// Commutative integer merge: sum counters/histogram buckets, max gauges.
void merge_into(Snapshot& out, const ThreadBlock& block) {
  for (std::size_t i = 0; i < kNumCounters; ++i) out.counters[i] += block.counters[i];
  for (std::size_t i = 0; i < kNumGauges; ++i) {
    if (block.gauges[i] > out.gauges[i]) out.gauges[i] = block.gauges[i];
  }
  for (std::size_t h = 0; h < kNumHistograms; ++h) {
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      out.histograms[h][b] += block.histograms[h][b];
    }
  }
}

void merge_block(ThreadBlock& out, const ThreadBlock& block) {
  for (std::size_t i = 0; i < kNumCounters; ++i) out.counters[i] += block.counters[i];
  for (std::size_t i = 0; i < kNumGauges; ++i) {
    if (block.gauges[i] > out.gauges[i]) out.gauges[i] = block.gauges[i];
  }
  for (std::size_t h = 0; h < kNumHistograms; ++h) {
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      out.histograms[h][b] += block.histograms[h][b];
    }
  }
}

/// Global registry of live thread blocks plus the retired accumulator.
/// Blocks register in first-use order; engine shards spawn and use their
/// block deterministically, and every merge is commutative, so the order
/// never affects snapshot contents.
struct Registry {
  std::mutex mutex;
  std::vector<ThreadBlock*> live;
  ThreadBlock retired;  // flushed blocks of exited threads
};

Registry& registry() {
  static Registry* instance = new Registry();  // leaked: outlives all threads
  return *instance;
}

/// Registers on construction, flushes + unregisters on thread exit.
struct TlsSlot {
  ThreadBlock block;

  TlsSlot() {
    Registry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    reg.live.push_back(&block);
  }

  ~TlsSlot() {
    detail::t_block = nullptr;  // stop handing out a block being retired
    Registry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    merge_block(reg.retired, block);
    for (std::size_t i = 0; i < reg.live.size(); ++i) {
      if (reg.live[i] == &block) {
        reg.live.erase(reg.live.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
  }
};

}  // namespace

std::string_view name(Counter c) noexcept {
  return kCounterMeta[static_cast<std::size_t>(c)].name;
}

std::string_view name(Gauge g) noexcept {
  return kGaugeNames[static_cast<std::size_t>(g)];
}

std::string_view name(Histogram h) noexcept {
  return kHistogramNames[static_cast<std::size_t>(h)];
}

bool is_work_unit(Counter c) noexcept {
  return kCounterMeta[static_cast<std::size_t>(c)].work;
}

namespace detail {
constinit thread_local ThreadBlock* t_block = nullptr;
}  // namespace detail

ThreadBlock& tls_block_slow() noexcept {
  thread_local TlsSlot slot;
  detail::t_block = &slot.block;
  return slot.block;
}

std::uint64_t Snapshot::histogram_total(Histogram h) const noexcept {
  std::uint64_t total = 0;
  for (const std::uint64_t b : histograms[static_cast<std::size_t>(h)]) total += b;
  return total;
}

Snapshot snapshot() {
  Snapshot out;
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  merge_into(out, reg.retired);
  for (const ThreadBlock* block : reg.live) merge_into(out, *block);
  return out;
}

void reset() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  reg.retired = ThreadBlock{};
  for (ThreadBlock* block : reg.live) *block = ThreadBlock{};
}

void gauge_clear(Gauge g) {
  const std::size_t slot = static_cast<std::size_t>(g);
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  reg.retired.gauges[slot] = 0;
  for (ThreadBlock* block : reg.live) block->gauges[slot] = 0;
}

Snapshot delta(const Snapshot& before, const Snapshot& after) {
  Snapshot out;
  out.enabled = after.enabled;
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    out.counters[i] = after.counters[i] - before.counters[i];
  }
  out.gauges = after.gauges;
  for (std::size_t h = 0; h < kNumHistograms; ++h) {
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      out.histograms[h][b] = after.histograms[h][b] - before.histograms[h][b];
    }
  }
  return out;
}

std::uint64_t work_units(const Snapshot& snap) noexcept {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    if (kCounterMeta[i].work) total += snap.counters[i];
  }
  return total;
}

}  // namespace bsr::obs
