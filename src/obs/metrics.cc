#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

namespace uctr::obs {

namespace {

/// About 31 years: the largest observation kept as is, so that the casts
/// below stay defined (micros * 1000 fits in a uint64_t).
constexpr double kMaxMicros = 1e15;

size_t BucketFor(double micros) {
  if (!(micros >= 1.0)) return 0;  // underflow (and NaN) land in bucket 0
  size_t b = static_cast<size_t>(std::log2(micros)) + 1;
  return std::min(b, Histogram::kNumBuckets - 1);
}

std::string FormatValue(double v) {
  char buf[64];
  if (v == static_cast<double>(static_cast<uint64_t>(v))) {
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.3f", v);
  }
  return buf;
}

}  // namespace

void Histogram::Observe(double micros) {
  if (micros < 0.0 || std::isnan(micros)) micros = 0.0;
  micros = std::min(micros, kMaxMicros);  // +inf lands in the overflow
  buckets_[BucketFor(micros)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_nanos_.fetch_add(static_cast<uint64_t>(micros * 1000.0),
                       std::memory_order_relaxed);
}

double Histogram::QuantileMicros(double q) const {
  q = std::clamp(q, 0.0, 1.0);
  uint64_t counts[kNumBuckets];
  uint64_t total = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  if (total == 0) return 0.0;
  // Rank is 1-based: the ceil(q * total)-th smallest observation.
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * total));
  rank = std::max<uint64_t>(rank, 1);
  uint64_t seen = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    seen += counts[i];
    if (seen >= rank) {
      // Upper bound of bucket i: 2^i microseconds (bucket 0 = sub-1us).
      return std::ldexp(1.0, static_cast<int>(i));
    }
  }
  return std::ldexp(1.0, static_cast<int>(kNumBuckets - 1));
}

Counter* MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Histogram* MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return slot.get();
}

std::string MetricsRegistry::ExpositionText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, c] : counters_) {
    out += name + " " + FormatValue(static_cast<double>(c->value())) + "\n";
  }
  for (const auto& [name, h] : histograms_) {
    out += name + "{stat=\"count\"} " +
           FormatValue(static_cast<double>(h->count())) + "\n";
    out += name + "{stat=\"sum\"} " + FormatValue(h->sum_micros()) + "\n";
    out += name + "{stat=\"mean\"} " + FormatValue(h->mean_micros()) + "\n";
    out += name + "{stat=\"p50\"} " + FormatValue(h->QuantileMicros(0.5)) +
           "\n";
    out += name + "{stat=\"p90\"} " + FormatValue(h->QuantileMicros(0.9)) +
           "\n";
    out += name + "{stat=\"p99\"} " + FormatValue(h->QuantileMicros(0.99)) +
           "\n";
  }
  return out;
}

MetricsRegistry& DefaultRegistry() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

}  // namespace uctr::obs
