#include "obs/trace.h"

#include "common/json.h"

namespace uctr::obs {

namespace {

/// Innermost active span of this thread; 0 when no span is open. Spans
/// restore the previous value when they end, so the chain behaves like a
/// per-thread stack without allocating one.
thread_local uint64_t tls_current_span = 0;

}  // namespace

Span::Span(Tracer* tracer, std::string_view name, uint64_t span_id,
           uint64_t parent_id, std::chrono::steady_clock::time_point start)
    : tracer_(tracer), start_(start), restore_parent_(parent_id) {
  event_.span_id = span_id;
  event_.parent_id = parent_id;
  event_.name.assign(name.data(), name.size());
  tls_current_span = span_id;
}

void Span::AddAttr(std::string key, std::string value) {
  if (tracer_ == nullptr) return;
  event_.attrs.emplace_back(std::move(key), std::move(value));
}

void Span::End() {
  if (tracer_ == nullptr) return;
  auto now = std::chrono::steady_clock::now();
  event_.start_us = std::chrono::duration_cast<std::chrono::microseconds>(
                        start_ - tracer_->epoch_)
                        .count();
  event_.duration_us =
      std::chrono::duration_cast<std::chrono::microseconds>(now - start_)
          .count();
  // Pop this span off the thread's nesting chain. A span ended on a
  // different thread than it started on (rare; discouraged) leaves that
  // thread's chain alone.
  if (tls_current_span == event_.span_id) {
    tls_current_span = restore_parent_;
  }
  Tracer* tracer = tracer_;
  tracer_ = nullptr;
  tracer->Record(std::move(event_));
}

Tracer::Tracer(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      epoch_(std::chrono::steady_clock::now()) {}

Span Tracer::StartSpan(std::string_view name) {
  if (!enabled()) return Span();
  uint64_t id = next_span_id_.fetch_add(1, std::memory_order_relaxed);
  return Span(this, name, id, tls_current_span,
              std::chrono::steady_clock::now());
}

void Tracer::Record(TraceEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(event));
  } else {
    ring_[next_slot_] = std::move(event);
  }
  next_slot_ = (next_slot_ + 1) % capacity_;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

std::vector<TraceEvent> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  // When the ring has wrapped, next_slot_ points at the oldest event.
  size_t start = ring_.size() < capacity_ ? 0 : next_slot_;
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

std::string Tracer::ToLdjson() const {
  std::string out;
  for (const TraceEvent& ev : Snapshot()) {
    out += "{\"name\":" + json::Quote(ev.name) +
           ",\"span\":" + std::to_string(ev.span_id) +
           ",\"parent\":" + std::to_string(ev.parent_id) +
           ",\"start_us\":" + std::to_string(ev.start_us) +
           ",\"dur_us\":" + std::to_string(ev.duration_us);
    if (!ev.attrs.empty()) {
      out += ",\"attrs\":{";
      for (size_t i = 0; i < ev.attrs.size(); ++i) {
        if (i > 0) out += ",";
        out += json::Quote(ev.attrs[i].first) + ":" +
               json::Quote(ev.attrs[i].second);
      }
      out += "}";
    }
    out += "}\n";
  }
  return out;
}

Tracer& Tracer::Default() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

}  // namespace uctr::obs
