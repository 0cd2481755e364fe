#include "fault/policy.h"

#include <algorithm>
#include <thread>

namespace uctr::fault {

// ------------------------------------------------------------ RetryPolicy

RetryPolicy::RetryPolicy(RetryOptions options, uint64_t seed,
                         obs::MetricsRegistry* metrics)
    : options_(options), rng_(seed) {
  options_.max_attempts = std::max(options_.max_attempts, 1);
  if (metrics != nullptr) {
    attempts_ = metrics->counter("retry_attempts_total");
    backoffs_ = metrics->counter("retry_backoffs_total");
    exhausted_ = metrics->counter("retry_exhausted_total");
  }
}

void RetryPolicy::set_sleep_fn(std::function<void(double)> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  sleep_fn_ = std::move(fn);
}

double RetryPolicy::NextBackoffMs(int completed_attempts) {
  double base = options_.initial_backoff_ms;
  for (int i = 1; i < completed_attempts; ++i) {
    base *= options_.backoff_multiplier;
  }
  base = std::min(base, options_.max_backoff_ms);
  double jitter = std::clamp(options_.jitter_fraction, 0.0, 1.0);
  std::lock_guard<std::mutex> lock(mu_);
  return base * rng_.UniformDouble(1.0 - jitter, 1.0 + jitter);
}

Status RetryPolicy::Run(const char* op_name,
                        const std::function<Status()>& op) {
  (void)op_name;  // tag for callers/debuggers; policy behavior is uniform
  double slept_ms = 0.0;
  for (int attempt = 1;; ++attempt) {
    if (attempts_ != nullptr) attempts_->Increment();
    Status status = op();
    if (status.ok() || !IsTransient(status)) return status;
    if (attempt >= options_.max_attempts) {
      if (exhausted_ != nullptr) exhausted_->Increment();
      return status;
    }
    double backoff_ms = NextBackoffMs(attempt);
    if (options_.backoff_budget_ms > 0 &&
        slept_ms + backoff_ms > options_.backoff_budget_ms) {
      if (exhausted_ != nullptr) exhausted_->Increment();
      return status;
    }
    slept_ms += backoff_ms;
    if (backoffs_ != nullptr) backoffs_->Increment();
    std::function<void(double)> sleeper;
    {
      std::lock_guard<std::mutex> lock(mu_);
      sleeper = sleep_fn_;
    }
    if (sleeper) {
      sleeper(backoff_ms);
    } else {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(backoff_ms));
    }
  }
}

// ---------------------------------------------------------- CircuitBreaker

CircuitBreaker::CircuitBreaker(std::string name,
                               CircuitBreakerOptions options,
                               obs::MetricsRegistry* metrics)
    : name_(std::move(name)), options_(options) {
  options_.failure_threshold = std::max(options_.failure_threshold, 1);
  if (metrics != nullptr) {
    opened_ =
        metrics->counter("circuit_open_total{breaker=\"" + name_ + "\"}");
    rejected_ =
        metrics->counter("circuit_rejected_total{breaker=\"" + name_ + "\"}");
  }
}

void CircuitBreaker::set_clock_fn(std::function<Clock::time_point()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  clock_fn_ = std::move(fn);
}

CircuitBreaker::Clock::time_point CircuitBreaker::Now() const {
  return clock_fn_ ? clock_fn_() : Clock::now();
}

bool CircuitBreaker::Allow() {
  std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kOpen:
      if (Now() < reopen_at_) {
        if (rejected_ != nullptr) rejected_->Increment();
        return false;
      }
      state_ = State::kHalfOpen;
      probe_in_flight_ = true;  // this caller is the probe
      return true;
    case State::kHalfOpen:
      if (probe_in_flight_) {
        if (rejected_ != nullptr) rejected_->Increment();
        return false;
      }
      probe_in_flight_ = true;
      return true;
  }
  return true;
}

void CircuitBreaker::RecordSuccess() {
  std::lock_guard<std::mutex> lock(mu_);
  probe_in_flight_ = false;
  // A half-open probe's success closes the circuit; a straggler that
  // succeeds after the circuit opened does not.
  if (state_ == State::kHalfOpen) state_ = State::kClosed;
  consecutive_failures_ = 0;
}

void CircuitBreaker::RecordFailure() {
  std::lock_guard<std::mutex> lock(mu_);
  probe_in_flight_ = false;
  if (state_ == State::kHalfOpen ||
      (state_ == State::kClosed &&
       ++consecutive_failures_ >= options_.failure_threshold)) {
    state_ = State::kOpen;
    reopen_at_ = Now() + std::chrono::microseconds(static_cast<int64_t>(
                             options_.open_duration_ms * 1000.0));
    consecutive_failures_ = 0;
    if (opened_ != nullptr) opened_->Increment();
  }
}

CircuitBreaker::State CircuitBreaker::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

}  // namespace uctr::fault
