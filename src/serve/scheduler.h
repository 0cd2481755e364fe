#ifndef UCTR_SERVE_SCHEDULER_H_
#define UCTR_SERVE_SCHEDULER_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace uctr::serve {

// The serving subsystem records into the shared observability layer
// (src/obs/); these aliases keep the serve:: spelling that predates it.
using obs::Counter;
using obs::Histogram;
using obs::MetricsRegistry;

/// \brief Worker-pool knobs.
struct SchedulerConfig {
  size_t num_workers = 4;
  /// Maximum queued (not yet running) jobs; Submit rejects above this.
  size_t queue_capacity = 256;
  /// Deadline-aware admission control: when true, Submit sheds a job whose
  /// deadline would already be blown by the projected queue wait
  /// (estimated from an EMA of recent job durations) instead of letting it
  /// queue up and expire unserved. Returns kDeadlineExceeded — distinct
  /// from kUnavailable backpressure — so callers answer "timeout", not
  /// "rejected".
  bool deadline_admission = true;
  /// EMA smoothing for the per-job duration estimate (0 < alpha <= 1).
  double duration_ema_alpha = 0.2;
};

/// \brief A fixed worker pool over a bounded FIFO queue with backpressure
/// and per-job deadlines.
///
/// - Submit never blocks: when the queue is full it returns
///   Status::Unavailable immediately (the caller surfaces a `rejected`
///   response — load shedding, not buffering). A submit after Shutdown is
///   also kUnavailable but with a "scheduler shut down" message and its
///   own counter (`jobs_rejected_shutdown_total`), so dashboards can tell
///   load shedding from teardown.
/// - Deadline-aware admission (SchedulerConfig::deadline_admission): a job
///   whose deadline is provably inside the projected queue wait is shed at
///   Submit with kDeadlineExceeded (`jobs_shed_deadline_total`) — cheaper
///   than queueing it only to expire it later.
/// - A job whose deadline has passed by the time a worker picks it up is
///   not run; its `on_expired` callback fires instead (the backstop half
///   of deadline handling; jobs are not preempted mid-run).
/// - Shutdown() drains the queue (running or expiring every queued job)
///   and joins the workers; the destructor calls it.
class Scheduler {
 public:
  using Clock = std::chrono::steady_clock;

  struct Job {
    /// Executed on a worker thread.
    std::function<void()> run;
    /// Executed instead of `run` when the deadline expired in-queue.
    /// May be empty (the job is then silently dropped on expiry).
    std::function<void()> on_expired;
    /// Default: no deadline.
    Clock::time_point deadline = Clock::time_point::max();
  };

  /// \param metrics optional; when set, records `jobs_submitted_total`,
  ///        `jobs_rejected_total` (backpressure),
  ///        `jobs_rejected_shutdown_total`, `jobs_shed_deadline_total`,
  ///        `jobs_expired_total`, and the `latency_queue_wait_us`
  ///        histogram.
  explicit Scheduler(SchedulerConfig config,
                     MetricsRegistry* metrics = nullptr);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// \brief Enqueues a job. Rejections are distinguishable by code and
  /// message:
  ///   - kUnavailable "request queue full ..."  — backpressure, retryable
  ///   - kUnavailable "scheduler shut down ..." — teardown, not retryable
  ///     against this instance
  ///   - kDeadlineExceeded "shed: ..."          — deadline-aware admission
  ///     control (the job could not finish in time)
  Status Submit(Job job);

  /// \brief Blocks until every submitted job has finished (or expired).
  void Drain();

  /// \brief Stops accepting jobs, drains the queue, joins all workers.
  /// Idempotent.
  void Shutdown();

  size_t QueueDepth() const;
  /// \brief Jobs dequeued by a worker and not yet finished. With
  /// QueueDepth this is the load snapshot the `health` op reports.
  size_t InFlight() const;
  size_t num_workers() const { return workers_.size(); }

  /// \brief EMA of recent job run durations in microseconds (0 until the
  /// first job completes). Drives deadline-aware admission; exposed for
  /// tests.
  double EstimatedJobMicros() const;

 private:
  struct QueuedJob {
    Job job;
    Clock::time_point enqueue_time;
  };

  void WorkerLoop();

  SchedulerConfig config_;
  Counter* submitted_ = nullptr;
  Counter* rejected_ = nullptr;
  Counter* rejected_shutdown_ = nullptr;
  Counter* shed_deadline_ = nullptr;
  Counter* expired_ = nullptr;
  Histogram* queue_wait_us_ = nullptr;

  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable idle_;
  std::deque<QueuedJob> queue_;
  size_t in_flight_ = 0;  // dequeued but not yet finished
  double job_ema_us_ = 0.0;  // EMA of run durations (guarded by mu_)
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace uctr::serve

#endif  // UCTR_SERVE_SCHEDULER_H_
