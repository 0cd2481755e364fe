#ifndef UCTR_OBS_METRICS_H_
#define UCTR_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace uctr::obs {

/// \brief A monotonically increasing counter. Increment is lock-free;
/// reads are racy-but-atomic (fine for monitoring).
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// \brief A latency histogram over exponential microsecond buckets:
/// bucket 0 is the underflow bucket for < 1us, bucket i >= 1 holds
/// observations in [2^(i-1), 2^i) microseconds, and the last bucket is an
/// overflow bucket for everything at or above 2^26 us (~67 s).
/// Observe is lock-free (one relaxed add per observation).
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 28;  // overflow from 2^26 us ≈ 67 s

  void Observe(double micros);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  /// \brief Sum of all observations in microseconds.
  double sum_micros() const {
    return static_cast<double>(sum_nanos_.load(std::memory_order_relaxed)) /
           1000.0;
  }
  double mean_micros() const {
    uint64_t n = count();
    return n == 0 ? 0.0 : sum_micros() / static_cast<double>(n);
  }
  /// \brief Bucket-upper-bound estimate of the q-quantile (q in [0,1]).
  double QuantileMicros(double q) const;

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_nanos_{0};
};

/// \brief Named counters and histograms shared by every pipeline stage,
/// with a plain-text exposition dump (Prometheus-flavored `name value`
/// lines).
///
/// counter()/histogram() return stable pointers: instruments live as long
/// as the registry, so hot paths look them up once and then update
/// lock-free. Lookup itself takes a mutex (cold path only).
class MetricsRegistry {
 public:
  Counter* counter(const std::string& name);
  Histogram* histogram(const std::string& name);

  /// \brief All instruments, sorted by name:
  ///   requests_total 42
  ///   latency_execute_us{stat="count"} 40
  ///   latency_execute_us{stat="mean"} 1320.5
  ///   latency_execute_us{stat="p50"} 1024
  ///   latency_execute_us{stat="p99"} 8192
  std::string ExpositionText() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// \brief The process-wide registry. Library code (executors, the
/// generator, the corpus loader, serving) records here by default, so one
/// dump covers every stage; callers that need isolated counts (tests,
/// embedded servers) pass their own registry where an API accepts one.
MetricsRegistry& DefaultRegistry();

}  // namespace uctr::obs

#endif  // UCTR_OBS_METRICS_H_
