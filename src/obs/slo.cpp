#include "obs/slo.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <iterator>
#include <stdexcept>
#include <string>

namespace bsr::obs {

namespace {

constexpr std::array<std::string_view, kNumSloObjectives> kObjectiveNames = {
    "fresh_fraction", "refusal_rate", "p99_ticks", "staleness"};

[[noreturn]] void bad_spec(const std::string& what) {
  throw std::invalid_argument("slo spec: " + what);
}

/// One spec key: the field it sets and its documented range. The ranges keep
/// every burn rate finite: a fresh_min of 1 (or a zero bound) would divide by
/// a zero error budget.
struct SpecKey {
  std::string_view name;
  double SloSpec::*field;
  bool objective;  ///< a target, off in an SloSpec while negative
  bool (*in_range)(double);
  std::string_view range;
};

constexpr SpecKey kSpecKeys[] = {
    {"fresh_min", &SloSpec::fresh_min, true,
     [](double v) { return v > 0.0 && v < 1.0; }, "in (0, 1)"},
    {"refusal_max", &SloSpec::refusal_max, true,
     [](double v) { return v > 0.0 && v <= 1.0; }, "in (0, 1]"},
    {"p99_max", &SloSpec::p99_ticks_max, true,
     [](double v) { return v >= 1.0; }, ">= 1"},
    {"stale_max", &SloSpec::stale_max, true,
     [](double v) { return v >= 1.0; }, ">= 1"},
    {"window", &SloSpec::window, false,
     [](double v) { return v > 0.0; }, "> 0"},
    {"long_window", &SloSpec::long_window, false,
     [](double v) { return v > 0.0; }, "> 0"},
    {"burn", &SloSpec::burn_threshold, false,
     [](double v) { return v > 0.0; }, "> 0"},
};

void check_range(const SpecKey& key, double value) {
  if (!key.in_range(value)) {
    bad_spec(std::string(key.name) + " must be " + std::string(key.range));
  }
}

void validate_spec(const SloSpec& spec) {
  bool any_objective = false;
  for (const SpecKey& key : kSpecKeys) {
    const double value = spec.*key.field;
    if (key.objective && !(value >= 0.0)) continue;  // objective off
    any_objective = any_objective || key.objective;
    check_range(key, value);
  }
  if (!(spec.long_window >= spec.window)) {
    bad_spec("long_window must be >= window");
  }
  if (!any_objective) {
    bad_spec("no objective enabled (set at least one of fresh_min, "
             "refusal_max, p99_max, stale_max)");
  }
}

std::string_view trimmed(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

double parse_number(std::string_view key, std::string_view text) {
  const std::string_view value = trimmed(text);
  double out = 0.0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), out);
  // nan and inf parse, but neither is a target or a window: a nan bound
  // would silently disable its objective.
  if (ec != std::errc{} || ptr != value.data() + value.size() ||
      !std::isfinite(out)) {
    bad_spec("malformed number for '" + std::string(key) + "': '" +
             std::string(value) + "'");
  }
  return out;
}

/// Windowed aggregates over [now - w, now] (closed on the right: the sample
/// at `now` always counts).
struct WindowStats {
  std::uint64_t fresh = 0, stale_served = 0, shedded = 0, refused = 0;
  std::uint64_t worst_staleness = 0, worst_p99 = 0;
};

/// Burn rate of one objective over one window's aggregates; 0 when the
/// objective is disabled or the window holds no admitted answers.
double burn_rate(SloObjective objective, const SloSpec& spec,
                 const WindowStats& w) {
  switch (objective) {
    case SloObjective::kFreshFraction: {
      if (spec.fresh_min < 0.0) return 0.0;
      // Shedded answers were never admitted: they spend no freshness budget.
      const double denom =
          static_cast<double>(w.fresh + w.stale_served + w.refused);
      if (denom == 0.0) return 0.0;
      const double bad = denom - static_cast<double>(w.fresh);
      return (bad / denom) / (1.0 - spec.fresh_min);
    }
    case SloObjective::kRefusalRate: {
      if (spec.refusal_max < 0.0) return 0.0;
      const double all = static_cast<double>(w.fresh + w.stale_served +
                                             w.shedded + w.refused);
      if (all == 0.0) return 0.0;
      return (static_cast<double>(w.refused) / all) / spec.refusal_max;
    }
    case SloObjective::kP99Ticks:
      if (spec.p99_ticks_max < 0.0) return 0.0;
      return static_cast<double>(w.worst_p99) / spec.p99_ticks_max;
    case SloObjective::kStaleness:
      if (spec.stale_max < 0.0) return 0.0;
      return static_cast<double>(w.worst_staleness) / spec.stale_max;
    case SloObjective::kCount:
      break;
  }
  return 0.0;
}

double objective_target(SloObjective objective, const SloSpec& spec) {
  switch (objective) {
    case SloObjective::kFreshFraction:
      return spec.fresh_min;
    case SloObjective::kRefusalRate:
      return spec.refusal_max;
    case SloObjective::kP99Ticks:
      return spec.p99_ticks_max;
    case SloObjective::kStaleness:
      return spec.stale_max;
    case SloObjective::kCount:
      break;
  }
  return -1.0;
}

}  // namespace

std::string_view name(SloObjective o) noexcept {
  return kObjectiveNames[static_cast<std::size_t>(o)];
}

SloSpec parse_slo_spec(std::string_view text) {
  SloSpec spec;
  bool seen[std::size(kSpecKeys)] = {};
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t end = text.find_first_of(",;", pos);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view token = trimmed(text.substr(pos, end - pos));
    pos = end + 1;
    if (token.empty()) continue;
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos) {
      bad_spec("expected key=value, got '" + std::string(token) + "'");
    }
    const std::string_view name = trimmed(token.substr(0, eq));
    const auto key =
        std::find_if(std::begin(kSpecKeys), std::end(kSpecKeys),
                     [&](const SpecKey& k) { return k.name == name; });
    if (key == std::end(kSpecKeys)) {
      bad_spec("unknown key '" + std::string(name) + "'");
    }
    bool& named = seen[key - std::begin(kSpecKeys)];
    if (named) bad_spec("key '" + std::string(name) + "' given twice");
    named = true;
    // A named key is checked on its own: a negative target is out of range
    // here, not "off" (leaving the key out turns its objective off).
    const double value = parse_number(name, token.substr(eq + 1));
    check_range(*key, value);
    spec.*key->field = value;
  }
  validate_spec(spec);
  return spec;
}

SloMonitor::SloMonitor(const SloSpec& spec) : spec_(spec) {
  validate_spec(spec_);
  report_.spec = spec_;
  for (std::size_t i = 0; i < kNumSloObjectives; ++i) {
    const SloObjective o = static_cast<SloObjective>(i);
    report_.objectives[i].name = name(o);
    report_.objectives[i].target = objective_target(o, spec_);
    report_.objectives[i].enabled = report_.objectives[i].target >= 0.0;
  }
}

void SloMonitor::slide(Window& w, double width, std::uint64_t seq,
                       const SloSample& sample) {
  w.fresh += sample.fresh;
  w.stale_served += sample.stale_served;
  w.shedded += sample.shedded;
  w.refused += sample.refused;
  const auto push = [seq](MaxQueue& q, std::uint64_t value) {
    while (!q.empty() && q.back().second <= value) q.pop_back();
    q.emplace_back(seq, value);
  };
  push(w.staleness, sample.staleness);
  push(w.p99, sample.p99_ticks);
  // Times arrive in order, so the left edge only moves right: a sample that
  // falls out never comes back. The new sample itself always stays.
  const double edge = sample.time - width;
  while (w.begin < seq && window_[w.begin - window_begin_].time < edge) {
    const SloSample& old = window_[w.begin - window_begin_];
    w.fresh -= old.fresh;
    w.stale_served -= old.stale_served;
    w.shedded -= old.shedded;
    w.refused -= old.refused;
    ++w.begin;
  }
  for (MaxQueue* q : {&w.staleness, &w.p99}) {
    while (q->front().first < w.begin) q->pop_front();
  }
}

void SloMonitor::observe(const SloSample& sample) {
  // NaN would break the ordering every window edge relies on.
  if (std::isnan(sample.time) ||
      (!window_.empty() && sample.time < window_.back().time)) {
    throw std::invalid_argument(
        "SloMonitor::observe: samples must arrive in time order");
  }
  const std::uint64_t seq = window_begin_ + window_.size();
  window_.push_back(sample);
  slide(short_, spec_.window, seq, sample);
  slide(long_, spec_.long_window, seq, sample);
  // The short window is a suffix of the long one, so the long window's left
  // edge is the oldest sample either still needs.
  for (; window_begin_ < long_.begin; ++window_begin_) window_.pop_front();

  const auto stats = [](const Window& w) {
    return WindowStats{w.fresh,
                       w.stale_served,
                       w.shedded,
                       w.refused,
                       w.staleness.front().second,
                       w.p99.front().second};
  };
  const WindowStats short_w = stats(short_);
  const WindowStats long_w = stats(long_);

  std::uint64_t breach_mask = 0;
  double worst_burn = 0.0;
  for (std::size_t i = 0; i < kNumSloObjectives; ++i) {
    SloObjectiveReport& obj = report_.objectives[i];
    if (!obj.enabled) continue;
    const SloObjective o = static_cast<SloObjective>(i);
    const double short_burn = burn_rate(o, spec_, short_w);
    const double long_burn = burn_rate(o, spec_, long_w);
    obj.worst_short_burn = std::max(obj.worst_short_burn, short_burn);
    obj.worst_long_burn = std::max(obj.worst_long_burn, long_burn);
    worst_burn = std::max(worst_burn, std::min(short_burn, long_burn));
    // Multi-window gate: breach only when the short window shows the
    // current pain AND the long window shows it is sustained.
    if (short_burn >= spec_.burn_threshold &&
        long_burn >= spec_.burn_threshold) {
      breach_mask |= std::uint64_t{1} << i;
      ++obj.breach_samples;
      if (obj.first_breach_time < 0.0) obj.first_breach_time = sample.time;
    }
  }

  ++report_.samples;
  BSR_COUNT(SloEvaluations);
  BSR_STATS_ONLY(const auto burn_pct =
                     static_cast<std::uint64_t>(std::llround(worst_burn * 100.0));)
  BSR_GAUGE_MAX(SloWorstBurnPct, burn_pct);
  if (breach_mask != 0 && !report_.in_breach) {
    report_.in_breach = true;
    ++report_.breaches;
    BSR_COUNT(SloBreaches);
    BSR_EVENT(SloBreach, sample.time, breach_mask, burn_pct);
  } else if (breach_mask == 0 && report_.in_breach) {
    report_.in_breach = false;
    ++report_.recovers;
    BSR_COUNT(SloRecovers);
    BSR_EVENT(SloRecover, sample.time, breach_mask, burn_pct);
  }
}

std::vector<SloSample> slo_samples_from_journal(const Journal& journal) {
  std::vector<SloSample> out;
  for (const EventRecord& rec : journal.events) {
    if (rec.type != Event::kRouteServiceBatch &&
        rec.type != Event::kRouteServiceBatchCost) {
      continue;
    }
    // journal.events is sorted by time first, so one pass groups samples.
    if (out.empty() || out.back().time != rec.time) {
      out.push_back(SloSample{});
      out.back().time = rec.time;
    }
    SloSample& s = out.back();
    constexpr std::uint64_t kLow32 = 0xffffffffu;
    if (rec.type == Event::kRouteServiceBatch) {
      s.fresh += rec.subject >> 32;
      s.stale_served += rec.subject & kLow32;
      s.shedded += rec.correlation >> 32;
      s.refused += rec.correlation & kLow32;
    } else {
      s.p99_ticks = std::max(s.p99_ticks, rec.subject >> 32);
      s.max_ticks = std::max(s.max_ticks, rec.subject & kLow32);
      s.staleness = std::max(s.staleness, rec.correlation);
    }
  }
  return out;
}

}  // namespace bsr::obs
