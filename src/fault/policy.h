#ifndef UCTR_FAULT_POLICY_H_
#define UCTR_FAULT_POLICY_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "common/rng.h"
#include "common/status.h"
#include "obs/metrics.h"

namespace uctr::fault {

/// \brief Backoff shape for RetryPolicy: jittered exponential, capped both
/// per sleep and in total per Run call.
struct RetryOptions {
  /// Total tries, including the first (1 = no retries).
  int max_attempts = 3;
  double initial_backoff_ms = 1.0;
  double backoff_multiplier = 2.0;
  /// Per-sleep ceiling.
  double max_backoff_ms = 50.0;
  /// Each sleep is scaled by a uniform factor in [1-j, 1+j) (decorrelates
  /// retry storms across workers).
  double jitter_fraction = 0.5;
  /// Hard cap on cumulative sleep per Run call; once spent, the next
  /// failure is returned instead of retried. 0 = no budget (attempts
  /// alone bound the loop).
  double backoff_budget_ms = 250.0;
};

/// \brief Retries an operation on *transient* failure (IsTransient:
/// kUnavailable / kDeadlineExceeded) with jittered exponential backoff.
/// Permanent errors — parse errors, type errors, invariant violations —
/// return immediately: retrying can't fix a malformed table.
///
/// Thread-safe: one policy instance may serve every worker thread.
/// Metrics (when a registry is given): `retry_attempts_total`,
/// `retry_backoffs_total`, `retry_exhausted_total`.
class RetryPolicy {
 public:
  explicit RetryPolicy(RetryOptions options = {}, uint64_t seed = 0x5EEDULL,
                       obs::MetricsRegistry* metrics = nullptr);

  /// \brief Runs `op` until it succeeds, fails permanently, or the retry
  /// budget is exhausted; returns the final Status. `op_name` tags log /
  /// trace context only.
  Status Run(const char* op_name, const std::function<Status()>& op);

  /// \brief Test hook: replaces the real sleep with a recorder. Called
  /// with the jittered backoff in milliseconds.
  void set_sleep_fn(std::function<void(double)> fn);

  const RetryOptions& options() const { return options_; }

 private:
  double NextBackoffMs(int completed_attempts);

  RetryOptions options_;
  std::mutex mu_;  // guards rng_
  Rng rng_;
  std::function<void(double)> sleep_fn_;
  obs::Counter* attempts_ = nullptr;
  obs::Counter* backoffs_ = nullptr;
  obs::Counter* exhausted_ = nullptr;
};

/// \brief Circuit-breaker knobs.
struct CircuitBreakerOptions {
  /// Consecutive failures (while closed) that open the circuit.
  int failure_threshold = 5;
  /// Cooldown before an open circuit lets a half-open probe through.
  double open_duration_ms = 250.0;
};

/// \brief Per-dependency circuit breaker: closed (normal) -> open (reject
/// everything for a cooldown after repeated failures) -> half-open (one
/// probe at a time; success closes, failure re-opens).
///
/// Use Allow()/RecordSuccess()/RecordFailure() around a dependency call.
/// A rejected call costs one mutex acquisition and no dependency work —
/// that is the point: a dependency that is down stops being hammered and
/// gets its cooldown.
///
/// Metrics (per breaker `name`): `circuit_open_total{breaker="..."}` on
/// each close->open / half-open->open transition and
/// `circuit_rejected_total{breaker="..."}` per rejected call.
class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };
  using Clock = std::chrono::steady_clock;

  explicit CircuitBreaker(std::string name, CircuitBreakerOptions options = {},
                          obs::MetricsRegistry* metrics = nullptr);

  /// \brief True when a call may proceed now. In half-open state at most
  /// one caller at a time is granted a probe; it must report back via
  /// RecordSuccess/RecordFailure.
  bool Allow();
  void RecordSuccess();
  void RecordFailure();

  State state() const;
  const std::string& name() const { return name_; }

  /// \brief Test hook: replaces the wall clock.
  void set_clock_fn(std::function<Clock::time_point()> fn);

 private:
  Clock::time_point Now() const;

  std::string name_;
  CircuitBreakerOptions options_;
  mutable std::mutex mu_;
  State state_ = State::kClosed;
  int consecutive_failures_ = 0;
  bool probe_in_flight_ = false;
  Clock::time_point reopen_at_{};
  std::function<Clock::time_point()> clock_fn_;
  obs::Counter* opened_ = nullptr;
  obs::Counter* rejected_ = nullptr;
};

}  // namespace uctr::fault

#endif  // UCTR_FAULT_POLICY_H_
