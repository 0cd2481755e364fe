#ifndef UCTR_OBS_TRACE_H_
#define UCTR_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace uctr::obs {

/// \brief One finished span: a named wall-time interval with a parent
/// link and free-form key/value attributes.
struct TraceEvent {
  uint64_t span_id = 0;
  uint64_t parent_id = 0;  ///< 0 = root span.
  std::string name;
  int64_t start_us = 0;  ///< Microseconds since the tracer's epoch.
  int64_t duration_us = 0;
  std::vector<std::pair<std::string, std::string>> attrs;
};

class Tracer;

/// \brief RAII span handle returned by Tracer::StartSpan. Records a
/// TraceEvent into the tracer's ring buffer when destroyed (or ended
/// explicitly). Neither copyable nor movable: StartSpan returns a
/// prvalue, which initializes the caller's span in place. A
/// default-constructed span is inactive and every operation on it is a
/// no-op — which is also what StartSpan returns while the tracer is
/// disabled, so instrumentation sites pay one relaxed atomic load when
/// tracing is off.
class Span {
 public:
  Span() = default;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { End(); }

  void AddAttr(std::string key, std::string value);
  /// \brief Records the span now instead of at destruction. Idempotent.
  void End();

  bool active() const { return tracer_ != nullptr; }
  uint64_t span_id() const { return event_.span_id; }

 private:
  friend class Tracer;
  Span(Tracer* tracer, std::string_view name, uint64_t span_id,
       uint64_t parent_id, std::chrono::steady_clock::time_point start);

  Tracer* tracer_ = nullptr;
  TraceEvent event_;
  std::chrono::steady_clock::time_point start_{};
  uint64_t restore_parent_ = 0;  ///< Thread-local parent to restore on End.
};

/// \brief A lightweight in-process tracer: spans nest via a thread-local
/// current-span id, finished spans land in a bounded ring buffer (oldest
/// events are overwritten — memory use is fixed at `capacity` events),
/// and the buffer dumps as ldjson (one JSON object per line).
///
/// Tracing is off by default: StartSpan is a single relaxed atomic load
/// until set_enabled(true), so instrumented hot paths keep their lock-free
/// contract. When enabled, recording a finished span takes a mutex —
/// tracing is an opt-in diagnostic mode, not part of the steady-state
/// hot path.
class Tracer {
 public:
  static constexpr size_t kDefaultCapacity = 8192;

  explicit Tracer(size_t capacity = kDefaultCapacity);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// \brief Starts a span whose parent is the calling thread's innermost
  /// active span (spans nest lexically per thread). Inactive no-op span
  /// when the tracer is disabled.
  Span StartSpan(std::string_view name);

  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  size_t capacity() const { return capacity_; }
  /// \brief Finished spans currently buffered (<= capacity()).
  size_t size() const;

  /// \brief Buffered events, oldest first.
  std::vector<TraceEvent> Snapshot() const;

  /// \brief One JSON object per buffered event, oldest first:
  ///   {"name":"serve.execute","span":7,"parent":5,"start_us":120,
  ///    "dur_us":3142,"attrs":{"op":"verify"}}
  std::string ToLdjson() const;

  /// \brief The process-wide tracer that instrumented library code
  /// records into; disabled until a front end opts in (e.g. uctr_serve
  /// --trace-out).
  static Tracer& Default();

 private:
  friend class Span;
  void Record(TraceEvent event);

  const size_t capacity_;
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_span_id_{1};
  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mu_;
  std::vector<TraceEvent> ring_;
  size_t next_slot_ = 0;
};

}  // namespace uctr::obs

#endif  // UCTR_OBS_TRACE_H_
