// Request -> backoff -> give-up scheduling for retried maintenance work.
//
// Broker repair (sim/churn's health loop) and route-oracle rebuilds
// (sim/route_service) both turn trigger signals into attempts that can fail
// and be retried. RetryScheduler owns only the timing and budget state; the
// caller arms it (request), starts the due attempt (begin), does the work,
// and reports the outcome (report). A failure schedules a retry after an
// exponentially growing delay; max_retries consecutive failures park the
// scheduler until the next request re-arms it, and a spent lifetime start
// budget parks it for good.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>

namespace bsr::sim {

class RetryScheduler {
 public:
  static constexpr std::uint32_t kUnlimited =
      std::numeric_limits<std::uint32_t>::max();

  /// Takes the backoff shape from any policy with retry_backoff,
  /// retry_factor, retry_max and max_retries fields (RepairPolicy,
  /// RebuildPolicy); `max_starts` is the lifetime start budget.
  template <class Policy>
  explicit RetryScheduler(const Policy& policy, std::uint32_t max_starts = kUnlimited)
      : backoff_(policy.retry_backoff),
        factor_(policy.retry_factor),
        max_delay_(policy.retry_max),
        max_retries_(policy.max_retries),
        max_starts_(max_starts) {}

  /// Arms an attempt at `now` + retry_backoff, unless one is already pending
  /// or the start budget is spent.
  void request(double now) {
    if (due_ != kNever || exhausted()) return;
    retries_ = 0;
    due_ = now + backoff_;
  }

  /// Time of the next due attempt (infinity if idle).
  [[nodiscard]] double next_due() const noexcept { return due_; }

  /// Consumes the due attempt: true iff it may start (budget left).
  [[nodiscard]] bool begin() {
    due_ = kNever;
    if (exhausted()) return false;
    ++starts_;
    return true;
  }

  /// Disarms a pending attempt (the work became unnecessary).
  void cancel() noexcept {
    due_ = kNever;
    retries_ = 0;
  }

  /// Reports a started attempt's outcome. A failure schedules a retry after
  /// retry_backoff * retry_factor^(consecutive failures), capped at
  /// retry_max, until max_retries is exceeded or the budget is spent.
  void report(double now, bool success) {
    if (success) {
      due_ = kNever;
      retries_ = 0;
      return;
    }
    ++failures_;
    if (++retries_ > max_retries_ || exhausted()) {
      due_ = kNever;  // give up until the next request re-arms us
      return;
    }
    double delay = backoff_;
    for (std::uint32_t i = 0; i < retries_; ++i) {
      delay = std::min(delay * factor_, max_delay_);
    }
    due_ = now + delay;
  }

  [[nodiscard]] bool exhausted() const noexcept { return starts_ >= max_starts_; }
  [[nodiscard]] std::uint64_t starts() const noexcept { return starts_; }
  [[nodiscard]] std::uint64_t failures() const noexcept { return failures_; }

 private:
  static constexpr double kNever = std::numeric_limits<double>::infinity();

  double backoff_;
  double factor_;
  double max_delay_;
  std::uint32_t max_retries_;
  std::uint32_t max_starts_;
  double due_ = kNever;
  std::uint32_t retries_ = 0;
  std::uint64_t starts_ = 0;
  std::uint64_t failures_ = 0;
};

}  // namespace bsr::sim
