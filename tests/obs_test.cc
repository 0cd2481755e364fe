// Tests of the cross-cutting observability layer (src/obs/): lock-free
// counters/histograms + registry exposition, and the bounded-ring tracer
// with nesting RAII spans.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace uctr::obs {
namespace {

// ---------------------------------------------------------------- Metrics

TEST(ObsCounterTest, IncrementsAreCumulativeAndPointersStable) {
  MetricsRegistry registry;
  Counter* c = registry.counter("things_total");
  EXPECT_EQ(c, registry.counter("things_total"));
  EXPECT_EQ(c->value(), 0u);
  c->Increment();
  c->Increment(9);
  EXPECT_EQ(c->value(), 10u);
}

TEST(ObsHistogramTest, QuantileEdgeCases) {
  MetricsRegistry registry;
  Histogram* h = registry.histogram("latency_edge_us");

  // Empty histogram: every quantile is 0, not a crash or NaN.
  EXPECT_EQ(h->count(), 0u);
  EXPECT_DOUBLE_EQ(h->QuantileMicros(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h->QuantileMicros(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h->QuantileMicros(1.0), 0.0);
  EXPECT_DOUBLE_EQ(h->mean_micros(), 0.0);

  for (int i = 0; i < 100; ++i) h->Observe(100.0);  // bucket [64,128)us
  // q=0 clamps to the first observation's bucket; q=1 to the last.
  EXPECT_GT(h->QuantileMicros(0.0), 0.0);
  EXPECT_LE(h->QuantileMicros(0.0), 128.0);
  EXPECT_LE(h->QuantileMicros(1.0), 128.0);
  EXPECT_GE(h->QuantileMicros(1.0), h->QuantileMicros(0.0));
}

TEST(ObsHistogramTest, NegativeAndNanObservationsClampToZeroBucket) {
  MetricsRegistry registry;
  Histogram* h = registry.histogram("latency_weird_us");
  h->Observe(-123.0);
  h->Observe(std::numeric_limits<double>::quiet_NaN());
  h->Observe(0.0);
  EXPECT_EQ(h->count(), 3u);
  // All land in the underflow bucket: the median is its upper bound.
  EXPECT_LE(h->QuantileMicros(0.5), 1.0);
}

// +inf and values whose nanoseconds overflow a uint64_t count in the
// overflow bucket and add a finite amount to the sum.
TEST(ObsHistogramTest, InfiniteAndHugeObservationsLandInLastBucket) {
  MetricsRegistry registry;
  Histogram* h = registry.histogram("latency_inf_us");
  h->Observe(std::numeric_limits<double>::infinity());
  h->Observe(1e300);
  h->Observe(std::numeric_limits<double>::max());
  EXPECT_EQ(h->count(), 3u);
  EXPECT_EQ(h->QuantileMicros(0.0), h->QuantileMicros(1.0));
  EXPECT_GT(h->QuantileMicros(0.0), 1e6);
  EXPECT_TRUE(std::isfinite(h->sum_micros()));
  EXPECT_GT(h->sum_micros(), 1e12);
}

TEST(ObsHistogramTest, OverflowObservationsLandInLastBucket) {
  MetricsRegistry registry;
  Histogram* h = registry.histogram("latency_huge_us");
  h->Observe(1e12);  // far beyond the top bucket (~134s)
  EXPECT_EQ(h->count(), 1u);
  EXPECT_GT(h->QuantileMicros(0.5), 1e6);
}

TEST(ObsRegistryTest, ExpositionCoversCountersAndHistogramStats) {
  MetricsRegistry registry;
  registry.counter("requests_total")->Increment(7);
  registry.histogram("latency_x_us")->Observe(100.0);
  std::string text = registry.ExpositionText();
  EXPECT_NE(text.find("requests_total 7"), std::string::npos) << text;
  EXPECT_NE(text.find("latency_x_us{stat=\"count\"} 1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("latency_x_us{stat=\"p50\"}"), std::string::npos)
      << text;
}

TEST(ObsRegistryTest, DefaultRegistryIsProcessWideSingleton) {
  EXPECT_EQ(&DefaultRegistry(), &DefaultRegistry());
}

TEST(ObsCounterTest, ConcurrentIncrementsAreNotLost) {
  MetricsRegistry registry;
  Counter* c = registry.counter("contended_total");
  Histogram* h = registry.histogram("latency_contended_us");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c, h] {
      for (int i = 0; i < kPerThread; ++i) {
        c->Increment();
        h->Observe(static_cast<double>(i % 512));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c->value(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h->count(), static_cast<uint64_t>(kThreads) * kPerThread);
}

// ----------------------------------------------------------------- Tracer

TEST(TracerTest, DisabledTracerYieldsInactiveSpans) {
  Tracer tracer;
  EXPECT_FALSE(tracer.enabled());
  Span span = tracer.StartSpan("noop");
  EXPECT_FALSE(span.active());
  span.AddAttr("k", "v");  // no-ops, no crash
  span.End();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_TRUE(tracer.Snapshot().empty());
}

TEST(TracerTest, SpansNestViaThreadLocalParent) {
  Tracer tracer;
  tracer.set_enabled(true);
  uint64_t outer_id = 0;
  {
    Span outer = tracer.StartSpan("outer");
    ASSERT_TRUE(outer.active());
    outer_id = outer.span_id();
    {
      Span inner = tracer.StartSpan("inner");
      inner.AddAttr("depth", "2");
    }
    // A sibling started after `inner` ended still parents to `outer`.
    Span sibling = tracer.StartSpan("sibling");
    EXPECT_TRUE(sibling.active());
  }
  // After all spans ended, a new span is a root again.
  Span root = tracer.StartSpan("root2");
  root.End();

  std::vector<TraceEvent> events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Recorded in END order: inner, sibling, outer, root2.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[0].parent_id, outer_id);
  ASSERT_EQ(events[0].attrs.size(), 1u);
  EXPECT_EQ(events[0].attrs[0].first, "depth");
  EXPECT_EQ(events[1].name, "sibling");
  EXPECT_EQ(events[1].parent_id, outer_id);
  EXPECT_EQ(events[2].name, "outer");
  EXPECT_EQ(events[2].parent_id, 0u) << "outer must be a root span";
  EXPECT_EQ(events[3].name, "root2");
  EXPECT_EQ(events[3].parent_id, 0u)
      << "parent must be restored once the stack unwinds";
  for (const TraceEvent& e : events) {
    EXPECT_GE(e.duration_us, 0);
    EXPECT_GE(e.start_us, 0);
  }
}

TEST(TracerTest, RingBufferBoundsMemory) {
  Tracer tracer(/*capacity=*/16);
  tracer.set_enabled(true);
  for (int i = 0; i < 100; ++i) {
    Span span = tracer.StartSpan("s" + std::to_string(i));
  }
  EXPECT_EQ(tracer.size(), 16u);
  EXPECT_EQ(tracer.capacity(), 16u);
  // Oldest events were overwritten: the snapshot is the newest 16,
  // oldest first.
  std::vector<TraceEvent> events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 16u);
  EXPECT_EQ(events.front().name, "s84");
  EXPECT_EQ(events.back().name, "s99");
}

TEST(TracerTest, ToLdjsonEmitsOneObjectPerSpan) {
  Tracer tracer;
  tracer.set_enabled(true);
  {
    Span span = tracer.StartSpan("serve.execute");
    span.AddAttr("op", "verify");
  }
  std::string ldjson = tracer.ToLdjson();
  EXPECT_NE(ldjson.find("\"name\":\"serve.execute\""), std::string::npos)
      << ldjson;
  EXPECT_NE(ldjson.find("\"op\":\"verify\""), std::string::npos) << ldjson;
  EXPECT_NE(ldjson.find("\"dur_us\":"), std::string::npos) << ldjson;
  EXPECT_EQ(ldjson.back(), '\n');
}

// Four threads each record 100 "outerN" spans, each holding one "innerN".
void RecordConcurrentSpans(Tracer& tracer) {
  tracer.set_enabled(true);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&tracer, t] {
      for (int i = 0; i < 100; ++i) {
        Span outer = tracer.StartSpan("outer" + std::to_string(t));
        Span inner = tracer.StartSpan("inner" + std::to_string(t));
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

TEST(TracerTest, ConcurrentSpansRecordWithoutCorruption) {
  // With room for all 800, every span is recorded exactly once.
  Tracer roomy(/*capacity=*/1024);
  RecordConcurrentSpans(roomy);
  EXPECT_EQ(roomy.size(), 800u);
  std::map<std::string, int> counts;
  for (const TraceEvent& e : roomy.Snapshot()) ++counts[e.name];
  ASSERT_EQ(counts.size(), 8u);
  for (int t = 0; t < 4; ++t) {
    EXPECT_EQ(counts["outer" + std::to_string(t)], 100) << t;
    EXPECT_EQ(counts["inner" + std::to_string(t)], 100) << t;
  }

  Tracer tracer(/*capacity=*/64);
  RecordConcurrentSpans(tracer);
  EXPECT_EQ(tracer.size(), 64u);
  // The ring wrapped many times; each surviving event is whole: an outer
  // span is a root and an inner span has a parent.
  for (const TraceEvent& e : tracer.Snapshot()) {
    ASSERT_EQ(e.name.size(), 6u) << e.name;
    const char thread = e.name.back();
    EXPECT_TRUE(thread >= '0' && thread <= '3') << e.name;
    if (e.name.starts_with("outer")) {
      EXPECT_EQ(e.parent_id, 0u);
    } else {
      EXPECT_TRUE(e.name.starts_with("inner")) << e.name;
      EXPECT_NE(e.parent_id, 0u);
    }
  }
}

}  // namespace
}  // namespace uctr::obs
