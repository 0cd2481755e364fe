#include "serve/scheduler.h"

#include <algorithm>

#include "fault/fault.h"

namespace uctr::serve {

namespace {

/// EMA smoothing for the per-job duration estimate behind
/// deadline-aware admission.
constexpr double kDurationEmaAlpha = 0.2;

}  // namespace

Scheduler::Scheduler(SchedulerConfig config, MetricsRegistry* metrics)
    : config_(config) {
  config_.num_workers = std::max<size_t>(config_.num_workers, 1);
  config_.queue_capacity = std::max<size_t>(config_.queue_capacity, 1);
  if (metrics != nullptr) {
    submitted_ = metrics->counter("jobs_submitted_total");
    rejected_ = metrics->counter("jobs_rejected_total");
    rejected_shutdown_ = metrics->counter("jobs_rejected_shutdown_total");
    shed_deadline_ = metrics->counter("jobs_shed_deadline_total");
    expired_ = metrics->counter("jobs_expired_total");
    queue_wait_us_ = metrics->histogram("latency_queue_wait_us");
  }
  workers_.reserve(config_.num_workers);
  for (size_t i = 0; i < config_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

Scheduler::~Scheduler() { Shutdown(); }

Status Scheduler::Submit(Job job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      // Teardown, not load: tagged message + its own counter so callers
      // and dashboards never mistake shutdown for backpressure.
      if (rejected_shutdown_ != nullptr) rejected_shutdown_->Increment();
      return Status::Unavailable("scheduler shut down (not accepting work)");
    }
    if (queue_.size() >= config_.queue_capacity) {
      if (rejected_ != nullptr) rejected_->Increment();
      return Status::Unavailable("request queue full (" +
                                 std::to_string(config_.queue_capacity) +
                                 " pending)");
    }
    // Deadline-aware admission: shed now when the projected queue wait
    // (queued jobs spread over the worker pool, at the recent per-job EMA
    // duration) already blows the job's deadline. Cheaper than queueing a
    // request only to expire it at dequeue, and it frees queue slots for
    // jobs that can still make their deadlines. Conservative: only sheds
    // once an EMA exists, and only counts jobs *ahead in the queue* (the
    // in-flight ones are already partially done).
    if (job.deadline != Clock::time_point::max() && job_ema_us_ > 0.0 &&
        !queue_.empty()) {
      double wait_us = job_ema_us_ * (static_cast<double>(queue_.size()) /
                                      static_cast<double>(workers_.size()));
      auto projected_start =
          Clock::now() + std::chrono::microseconds(
                             static_cast<int64_t>(wait_us));
      if (projected_start > job.deadline) {
        if (shed_deadline_ != nullptr) shed_deadline_->Increment();
        return Status::DeadlineExceeded(
            "shed: projected queue wait of " +
            std::to_string(static_cast<int64_t>(wait_us)) +
            "us exceeds the job deadline");
      }
    }
    queue_.push_back(QueuedJob{std::move(job), Clock::now()});
    if (submitted_ != nullptr) submitted_->Increment();
  }
  not_empty_.notify_one();
  return Status::OK();
}

void Scheduler::WorkerLoop() {
  while (true) {
    QueuedJob item;
    {
      std::unique_lock<std::mutex> lock(mu_);
      not_empty_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      item = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }

    // Latency-injection site: chaos schedules stall workers here to widen
    // Submit/Shutdown/Drain race windows and to age queued deadlines. An
    // error rule at this site is ignored — the dequeued job must still
    // run or expire exactly once.
    (void)UCTR_FAULT_POINT("sched.dequeue");

    Clock::time_point now = Clock::now();
    if (queue_wait_us_ != nullptr) {
      queue_wait_us_->Observe(
          std::chrono::duration<double, std::micro>(now - item.enqueue_time)
              .count());
    }
    bool ran = false;
    if (now > item.job.deadline) {
      if (expired_ != nullptr) expired_->Increment();
      if (item.job.on_expired) item.job.on_expired();
    } else if (item.job.run) {
      item.job.run();
      ran = true;
    }

    {
      std::lock_guard<std::mutex> lock(mu_);
      if (ran) {
        double run_us = std::chrono::duration<double, std::micro>(
                            Clock::now() - now)
                            .count();
        job_ema_us_ = job_ema_us_ == 0.0
                          ? run_us
                          : kDurationEmaAlpha * run_us +
                                (1.0 - kDurationEmaAlpha) * job_ema_us_;
      }
      --in_flight_;
    }
    idle_.notify_all();
  }
}

void Scheduler::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void Scheduler::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ && workers_.empty()) return;
    stopping_ = true;
  }
  not_empty_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
}

size_t Scheduler::QueueDepth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

size_t Scheduler::InFlight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return in_flight_;
}

double Scheduler::EstimatedJobMicros() const {
  std::lock_guard<std::mutex> lock(mu_);
  return job_ema_us_;
}

}  // namespace uctr::serve
