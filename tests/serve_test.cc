// Tests of the serving subsystem: sharded LRU result cache, scheduler
// backpressure and deadlines, metrics, the JSON wire protocol, and a
// multi-threaded smoke test pinning worker-count determinism.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "obs/metrics.h"
#include "serve/engine.h"
#include "serve/result_cache.h"
#include "serve/scheduler.h"
#include "serve/server.h"

namespace uctr::serve {
namespace {

// ------------------------------------------------------------ ResultCache

TEST(ResultCacheTest, GetReturnsWhatPutStored) {
  ResultCache cache(8, 1);
  EXPECT_FALSE(cache.Get(1, "q").has_value());
  cache.Put(1, "q", "value");
  auto hit = cache.Get(1, "q");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "value");
  // Same query over a different table is a different entry.
  EXPECT_FALSE(cache.Get(2, "q").has_value());
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsed) {
  ResultCache cache(3, 1);
  ASSERT_EQ(cache.num_shards(), 1u);
  cache.Put(1, "a", "A");
  cache.Put(1, "b", "B");
  cache.Put(1, "c", "C");
  // Touch "a" so "b" becomes the least recently used entry.
  EXPECT_TRUE(cache.Get(1, "a").has_value());
  cache.Put(1, "d", "D");
  EXPECT_FALSE(cache.Get(1, "b").has_value()) << "LRU entry must be evicted";
  EXPECT_TRUE(cache.Get(1, "a").has_value());
  EXPECT_TRUE(cache.Get(1, "c").has_value());
  EXPECT_TRUE(cache.Get(1, "d").has_value());
  EXPECT_EQ(cache.size(), 3u);
}

TEST(ResultCacheTest, PutRefreshesRecencyAndValue) {
  ResultCache cache(2, 1);
  cache.Put(1, "a", "A1");
  cache.Put(1, "b", "B");
  cache.Put(1, "a", "A2");  // refresh: "b" is now LRU
  cache.Put(1, "c", "C");
  EXPECT_FALSE(cache.Get(1, "b").has_value());
  auto a = cache.Get(1, "a");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(*a, "A2");
}

TEST(ResultCacheTest, ShardsAreIndependent) {
  ResultCache cache(8, 4);
  EXPECT_EQ(cache.num_shards(), 4u);
  EXPECT_EQ(cache.shard_capacity(), 2u);

  // Find three keys landing in the same shard; overflowing that shard
  // must evict within it while other shards are untouched.
  size_t target = cache.ShardIndex(1, "other-shard-probe");
  std::vector<std::string> same_shard;
  for (int i = 0; same_shard.size() < 3 && i < 10000; ++i) {
    std::string q = "query" + std::to_string(i);
    if (cache.ShardIndex(1, q) == target) same_shard.push_back(q);
  }
  ASSERT_EQ(same_shard.size(), 3u);
  cache.Put(1, "other-shard-probe", "X");
  for (const std::string& q : same_shard) cache.Put(1, q, "v");
  // Shard capacity is 2: the first same-shard key (plus possibly the
  // probe, if it shares the shard) has been evicted, the newest survive.
  EXPECT_TRUE(cache.Get(1, same_shard[2]).has_value());
  EXPECT_TRUE(cache.Get(1, same_shard[1]).has_value());
  EXPECT_FALSE(cache.Get(1, same_shard[0]).has_value());
}

TEST(ResultCacheTest, ShardIndexIsStableAndInRange) {
  ResultCache cache(64, 8);
  for (int i = 0; i < 100; ++i) {
    std::string q = "q" + std::to_string(i);
    size_t s = cache.ShardIndex(7, q);
    EXPECT_LT(s, cache.num_shards());
    EXPECT_EQ(s, cache.ShardIndex(7, q));
  }
}

TEST(ResultCacheTest, NormalizeQueryCanonicalizes) {
  EXPECT_EQ(ResultCache::NormalizeQuery("  The Total  IS 30. "),
            "the total is 30");
  EXPECT_EQ(ResultCache::NormalizeQuery("Which item is best?"),
            "which item is best");
  EXPECT_EQ(ResultCache::NormalizeQuery("x"), "x");
  EXPECT_EQ(ResultCache::NormalizeQuery("   "), "");
}

TEST(ResultCacheTest, FingerprintTracksContent) {
  Table a = Table::FromCsv("x,y\n1,2\n", "t").ValueOrDie();
  Table b = Table::FromCsv("x,y\n1,3\n", "t").ValueOrDie();
  EXPECT_NE(ResultCache::FingerprintTable(a),
            ResultCache::FingerprintTable(b));
  EXPECT_EQ(ResultCache::FingerprintTable(a),
            ResultCache::FingerprintTable(a));
  EXPECT_NE(ResultCache::FingerprintCsv("x,y\n1,2\n"),
            ResultCache::FingerprintCsv("x,y\n1,3\n"));
}

TEST(ResultCacheTest, RecordsHitAndMissMetrics) {
  MetricsRegistry metrics;
  ResultCache cache(4, 2, &metrics);
  cache.Get(1, "q");
  cache.Put(1, "q", "v");
  cache.Get(1, "q");
  EXPECT_EQ(metrics.counter("cache_misses_total")->value(), 1u);
  EXPECT_EQ(metrics.counter("cache_hits_total")->value(), 1u);
}

// --------------------------------------------------------------- Metrics

TEST(MetricsTest, CountersAreStableAndCumulative) {
  MetricsRegistry metrics;
  Counter* c = metrics.counter("widgets_total");
  EXPECT_EQ(c, metrics.counter("widgets_total"));
  c->Increment();
  c->Increment(4);
  EXPECT_EQ(c->value(), 5u);
  EXPECT_NE(metrics.ExpositionText().find("widgets_total 5"),
            std::string::npos);
}

TEST(MetricsTest, HistogramTracksCountSumQuantiles) {
  MetricsRegistry metrics;
  Histogram* h = metrics.histogram("latency_test_us");
  for (int i = 0; i < 90; ++i) h->Observe(10.0);    // bucket [8,16)us
  for (int i = 0; i < 10; ++i) h->Observe(5000.0);  // bucket [4096,8192)us
  EXPECT_EQ(h->count(), 100u);
  EXPECT_NEAR(h->sum_micros(), 90 * 10.0 + 10 * 5000.0, 1.0);
  EXPECT_LE(h->QuantileMicros(0.5), 16.0);
  EXPECT_GE(h->QuantileMicros(0.99), 4096.0);
  std::string text = metrics.ExpositionText();
  EXPECT_NE(text.find("latency_test_us{stat=\"count\"} 100"),
            std::string::npos);
}

// ------------------------------------------------------------- Scheduler

TEST(SchedulerTest, RunsEverySubmittedJob) {
  SchedulerConfig config;
  config.num_workers = 4;
  config.queue_capacity = 128;
  Scheduler scheduler(config);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(scheduler.Submit({[&done] { done++; }, nullptr}).ok());
  }
  scheduler.Drain();
  EXPECT_EQ(done.load(), 100);
}

// A job that blocks until released, to hold a worker busy.
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  bool entered = false;

  void WaitUntilEntered() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return entered; });
  }
  void Enter() {
    std::unique_lock<std::mutex> lock(mu);
    entered = true;
    cv.notify_all();
    cv.wait(lock, [this] { return open; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu);
    open = true;
    cv.notify_all();
  }
};

TEST(SchedulerTest, RejectsWithUnavailableWhenQueueFull) {
  SchedulerConfig config;
  config.num_workers = 1;
  config.queue_capacity = 1;
  MetricsRegistry metrics;
  Scheduler scheduler(config, &metrics);

  Gate gate;
  ASSERT_TRUE(scheduler.Submit({[&gate] { gate.Enter(); }, nullptr}).ok());
  gate.WaitUntilEntered();  // worker is now busy, queue is empty

  ASSERT_TRUE(scheduler.Submit({[] {}, nullptr}).ok());  // fills queue
  Status rejected = scheduler.Submit({[] {}, nullptr});
  EXPECT_EQ(rejected.code(), StatusCode::kUnavailable);
  EXPECT_EQ(metrics.counter("jobs_rejected_total")->value(), 1u);

  gate.Open();
  scheduler.Drain();
  EXPECT_EQ(metrics.counter("jobs_submitted_total")->value(), 2u);
}

TEST(SchedulerTest, ExpiresJobsWhoseDeadlinePassedInQueue) {
  SchedulerConfig config;
  config.num_workers = 1;
  config.queue_capacity = 8;
  MetricsRegistry metrics;
  Scheduler scheduler(config, &metrics);

  Gate gate;
  ASSERT_TRUE(scheduler.Submit({[&gate] { gate.Enter(); }, nullptr}).ok());
  gate.WaitUntilEntered();

  // Queued behind the busy worker with an already-expired deadline.
  std::atomic<bool> ran{false};
  std::atomic<bool> expired{false};
  Scheduler::Job job;
  job.run = [&ran] { ran = true; };
  job.on_expired = [&expired] { expired = true; };
  job.deadline = Scheduler::Clock::now() - std::chrono::milliseconds(1);
  ASSERT_TRUE(scheduler.Submit(std::move(job)).ok());

  gate.Open();
  scheduler.Drain();
  EXPECT_TRUE(expired.load());
  EXPECT_FALSE(ran.load());
  EXPECT_EQ(metrics.counter("jobs_expired_total")->value(), 1u);
}

TEST(SchedulerTest, SubmitAfterShutdownIsRejected) {
  Scheduler scheduler({1, 4});
  scheduler.Shutdown();
  EXPECT_EQ(scheduler.Submit({[] {}, nullptr}).code(),
            StatusCode::kUnavailable);
}

// -------------------------------------------------- OrderedResponseWriter

TEST(OrderedResponseWriterTest, FlushesInSequenceOrder) {
  std::vector<std::string> out;
  OrderedResponseWriter writer([&out](const std::string& s) {
    out.push_back(s);
  });
  uint64_t s0 = writer.NextSequence();
  uint64_t s1 = writer.NextSequence();
  uint64_t s2 = writer.NextSequence();
  writer.Write(s2, "two");
  EXPECT_TRUE(out.empty());
  writer.Write(s0, "zero");
  EXPECT_EQ(out, (std::vector<std::string>{"zero"}));
  writer.Write(s1, "one");
  EXPECT_EQ(out, (std::vector<std::string>{"zero", "one", "two"}));
}

// Regression test: Write used to invoke the sink while holding the
// writer's (non-recursive) mutex, so a sink that re-enters Write —
// e.g. an inline cache-hit response produced while flushing — deadlocked.
TEST(OrderedResponseWriterTest, ReentrantSinkDoesNotDeadlock) {
  std::vector<std::string> out;
  OrderedResponseWriter* writer_ptr = nullptr;
  uint64_t reentrant_seq = 0;
  bool reentered = false;
  OrderedResponseWriter writer([&](const std::string& s) {
    out.push_back(s);
    if (!reentered) {
      reentered = true;
      // Deadlocks (and the test times out) if the lock is still held.
      writer_ptr->Write(reentrant_seq, "one-from-sink");
    }
  });
  writer_ptr = &writer;
  uint64_t s0 = writer.NextSequence();
  reentrant_seq = writer.NextSequence();
  writer.Write(s0, "zero");
  EXPECT_EQ(out, (std::vector<std::string>{"zero", "one-from-sink"}));
}

// The sink contract: lines arrive exactly once and in sequence order even
// when many threads complete out of order concurrently.
TEST(OrderedResponseWriterTest, ConcurrentWritesStayOrdered) {
  constexpr int kLines = 256;
  std::vector<std::string> out;
  OrderedResponseWriter writer([&out](const std::string& s) {
    out.push_back(s);  // Serialized by the writer's flushing protocol.
  });
  std::vector<uint64_t> seqs;
  for (int i = 0; i < kLines; ++i) seqs.push_back(writer.NextSequence());
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&writer, &seqs, t] {
      for (int i = t; i < kLines; i += 8) {
        writer.Write(seqs[i], std::to_string(i));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(out.size(), static_cast<size_t>(kLines));
  for (int i = 0; i < kLines; ++i) {
    EXPECT_EQ(out[i], std::to_string(i));
  }
}

// ------------------------------------------------------- Engine + Server

const char* kMedalsCsv =
    "nation,gold,silver,bronze,total\n"
    "united states,10,12,8,30\n"
    "china,8,6,10,24\n"
    "japan,5,9,4,18\n";

const char* kFinanceCsv =
    "item,2019,2018\n"
    "revenue,\"$2,350.4\",\"$2,014.9\"\n"
    "net income,\"$310.5\",\"$225.1\"\n";

std::string JsonEscapeNewlines(std::string text) {
  std::string out;
  for (char c : text) {
    if (c == '\n') {
      out += "\\n";
    } else if (c == '"') {
      out += "\\\"";
    } else {
      out += c;
    }
  }
  return out;
}

std::string VerifyRequest(uint64_t id, const std::string& csv,
                          const std::string& claim) {
  return "{\"id\":" + std::to_string(id) + ",\"op\":\"verify\",\"table\":\"" +
         JsonEscapeNewlines(csv) + "\",\"query\":\"" + claim + "\"}";
}

std::string AnswerRequest(uint64_t id, const std::string& csv,
                          const std::string& question) {
  return "{\"id\":" + std::to_string(id) + ",\"op\":\"answer\",\"table\":\"" +
         JsonEscapeNewlines(csv) + "\",\"query\":\"" + question + "\"}";
}

const InferenceEngine& SharedEngine() {
  static const InferenceEngine engine = [] {
    EngineConfig config;
    return InferenceEngine::Create(config, "", "").ValueOrDie();
  }();
  return engine;
}

TEST(EngineTest, CreateRejectsCorruptWeights) {
  EngineConfig config;
  EXPECT_FALSE(InferenceEngine::Create(config, "garbage", "").ok());
  EXPECT_FALSE(InferenceEngine::Create(config, "", "garbage").ok());
  EXPECT_TRUE(InferenceEngine::Create(config, "", "").ok());
}

TEST(EngineTest, VerifyAndAnswerAreDeterministic) {
  const InferenceEngine& engine = SharedEngine();
  Table medals = Table::FromCsv(kMedalsCsv).ValueOrDie();
  std::string claim = "The gold of the row whose nation is japan is 5.";
  std::string v1 = engine.Verify(medals, claim, {});
  std::string v2 = engine.Verify(medals, claim, {});
  EXPECT_EQ(v1, v2);
  Table finance = Table::FromCsv(kFinanceCsv).ValueOrDie();
  std::string q = "Which item has the highest 2019?";
  EXPECT_EQ(engine.Answer(finance, q, {}), engine.Answer(finance, q, {}));
}

TEST(ServerTest, VerifyAndAnswerRoundTrip) {
  ServerConfig config;
  config.scheduler.num_workers = 2;
  Server server(&SharedEngine(), config);
  std::string verify = server.HandleLine(VerifyRequest(
      7, kMedalsCsv, "The gold of the row whose nation is japan is 5."));
  EXPECT_NE(verify.find("\"id\":7"), std::string::npos) << verify;
  EXPECT_NE(verify.find("\"status\":\"ok\""), std::string::npos) << verify;
  EXPECT_NE(verify.find("\"label\":"), std::string::npos) << verify;

  std::string answer = server.HandleLine(
      AnswerRequest(8, kFinanceCsv, "Which item has the highest 2019?"));
  EXPECT_NE(answer.find("\"id\":8"), std::string::npos) << answer;
  EXPECT_NE(answer.find("\"answer\":"), std::string::npos) << answer;
}

TEST(ServerTest, MalformedRequestsYieldErrorResponses) {
  ServerConfig config;
  config.scheduler.num_workers = 1;
  Server server(&SharedEngine(), config);
  EXPECT_NE(server.HandleLine("not json").find("\"status\":\"error\""),
            std::string::npos);
  EXPECT_NE(server.HandleLine("[1,2]").find("\"status\":\"error\""),
            std::string::npos);
  EXPECT_NE(server.HandleLine("{\"id\":1,\"op\":\"fly\"}")
                .find("\"status\":\"error\""),
            std::string::npos);
  // Missing table/query.
  EXPECT_NE(server.HandleLine("{\"id\":1,\"op\":\"verify\"}")
                .find("\"status\":\"error\""),
            std::string::npos);
  // A table that fails to parse reports an error, not a crash.
  std::string bad_table =
      server.HandleLine("{\"id\":2,\"op\":\"verify\",\"table\":\"\","
                        "\"query\":\"x is 1.\"}");
  EXPECT_NE(bad_table.find("\"status\":\"error\""), std::string::npos)
      << bad_table;
}

TEST(ServerTest, PingAndMetricsOps) {
  ServerConfig config;
  Server server(&SharedEngine(), config);
  EXPECT_NE(server.HandleLine("{\"op\":\"ping\",\"id\":3}")
                .find("\"status\":\"ok\""),
            std::string::npos);
  std::string metrics = server.HandleLine("{\"op\":\"metrics\"}");
  EXPECT_NE(metrics.find("requests_total"), std::string::npos);
}

TEST(ServerTest, HealthOpReportsLiveThenDraining) {
  ServerConfig config;
  Server server(&SharedEngine(), config);
  // Liveness must answer inline — it never queues through the scheduler,
  // so it works even when every worker is wedged.
  // The enriched health line carries a load snapshot after the phase;
  // the prefix (id, status, phase) stays the contract probers match on.
  EXPECT_EQ(server.HandleLine("{\"id\":7,\"op\":\"health\"}")
                .rfind("{\"id\":7,\"status\":\"ok\",\"health\":\"live\"", 0),
            0u);
  server.set_draining(true);
  EXPECT_TRUE(server.draining());
  EXPECT_EQ(server.HandleLine("{\"id\":8,\"op\":\"health\"}")
                .rfind("{\"id\":8,\"status\":\"ok\",\"health\":\"draining\"",
                       0),
            0u);
  server.set_draining(false);
  std::string live = server.HandleLine("{\"id\":9,\"op\":\"health\"}");
  EXPECT_EQ(live.rfind("{\"id\":9,\"status\":\"ok\",\"health\":\"live\"", 0), 0u);
  EXPECT_NE(live.find("\"queue_depth\":"), std::string::npos) << live;
  EXPECT_NE(live.find("\"in_flight\":"), std::string::npos) << live;
  EXPECT_NE(live.find("\"workers\":"), std::string::npos) << live;
}

TEST(ServerTest, StatsOpReturnsPopulatedJson) {
  MetricsRegistry metrics;
  ServerConfig config;
  config.metrics = &metrics;
  config.scheduler.num_workers = 1;
  Server server(&SharedEngine(), config);
  // One real request so the stats carry non-trivial values.
  server.HandleLine(VerifyRequest(
      1, kMedalsCsv, "The gold of the row whose nation is japan is 5."));

  std::string stats = server.HandleLine("{\"op\":\"stats\",\"id\":42}");
  EXPECT_NE(stats.find("\"id\":42"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"status\":\"ok\""), std::string::npos) << stats;
  // 2 = the verify request plus the stats request itself.
  EXPECT_NE(stats.find("\"requests_total\":2"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"cache_misses_total\":1"), std::string::npos)
      << stats;
  EXPECT_NE(stats.find("\"workers\":1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"execute_p50_us\":"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"queue_depth\":"), std::string::npos) << stats;
}

// The server's own bodies carry JSON booleans; clients parse them with
// the same json::Parse the server reads requests with.
TEST(ServerTest, StatsAndStoreFallbackResponsesParse) {
  std::string dir = (std::filesystem::temp_directory_path() /
                     ("uctr_serve_test_stats_" +
                      std::to_string(static_cast<unsigned long>(::getpid()))))
                        .string();
  std::filesystem::remove_all(dir);
  {
    MetricsRegistry metrics;
    ServerConfig config;
    config.metrics = &metrics;
    config.scheduler.num_workers = 1;
    config.store_dir = dir;
    Server server(&SharedEngine(), config);
    ASSERT_TRUE(server.recovery_status().ok());

    auto stats = json::Parse(server.HandleLine("{\"op\":\"stats\",\"id\":1}"));
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    const json::Value& body = stats->as_object().at("stats");
    ASSERT_TRUE(body.as_object().at("store_durable").is_bool());
    EXPECT_TRUE(body.as_object().at("store_durable").as_bool());
    EXPECT_EQ(json::GetStringOr(body.as_object(), "store_fsync_mode", ""),
              "interval");

    // An unregistered table_ref answered from the inline table.
    std::string fallback = server.HandleLine(
        "{\"id\":2,\"op\":\"verify\",\"table_ref\":\"ffffffffffffffff\","
        "\"table\":\"" +
        JsonEscapeNewlines(kMedalsCsv) +
        "\",\"query\":\"The gold of the row whose nation is japan is 5.\"}");
    auto parsed = json::Parse(fallback);
    ASSERT_TRUE(parsed.ok()) << fallback;
    const json::Value::Object& obj = parsed->as_object();
    EXPECT_EQ(json::GetStringOr(obj, "status", ""), "ok") << fallback;
    EXPECT_FALSE(json::GetStringOr(obj, "label", "").empty()) << fallback;
    ASSERT_TRUE(obj.at("degraded").is_bool()) << fallback;
    EXPECT_TRUE(obj.at("degraded").as_bool());
  }
  std::filesystem::remove_all(dir);

  ServerConfig memory_only;
  memory_only.scheduler.num_workers = 1;
  Server server(&SharedEngine(), memory_only);
  auto stats = json::Parse(server.HandleLine("{\"op\":\"stats\",\"id\":3}"));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const json::Value& durable =
      stats->as_object().at("stats").as_object().at("store_durable");
  ASSERT_TRUE(durable.is_bool());
  EXPECT_FALSE(durable.as_bool());
}

TEST(ServerTest, RepeatedRequestIsServedFromCache) {
  // Exact-count assertions need a registry isolated from the process-wide
  // default that other tests (and library code) share.
  MetricsRegistry metrics;
  ServerConfig config;
  config.metrics = &metrics;
  config.scheduler.num_workers = 1;
  Server server(&SharedEngine(), config);
  std::string request = VerifyRequest(
      1, kMedalsCsv, "The gold of the row whose nation is china is 8.");
  std::string first = server.HandleLine(request);
  std::string second = server.HandleLine(request);
  EXPECT_EQ(first, second);
  EXPECT_EQ(server.metrics()->counter("cache_hits_total")->value(), 1u);
  EXPECT_EQ(server.metrics()->counter("jobs_submitted_total")->value(), 1u);

  // Insignificant surface differences (case/whitespace/punctuation) hit
  // the same entry; a different id reuses the cached body.
  std::string variant = VerifyRequest(
      9, kMedalsCsv, "  the GOLD of the row whose nation is china is 8 ");
  std::string third = server.HandleLine(variant);
  EXPECT_EQ(server.metrics()->counter("cache_hits_total")->value(), 2u);
  EXPECT_NE(third.find("\"id\":9"), std::string::npos);
}

TEST(ServerTest, QueueFullRequestsAreRejected) {
  MetricsRegistry metrics;
  ServerConfig config;
  config.metrics = &metrics;
  config.scheduler.num_workers = 1;
  config.scheduler.queue_capacity = 1;
  Server server(&SharedEngine(), config);

  // Many distinct requests at once on one slow worker: some must be
  // rejected with backpressure, none may be dropped silently.
  std::mutex mu;
  std::vector<std::string> responses;
  const int kTotal = 40;
  for (int i = 0; i < kTotal; ++i) {
    std::string claim = "The gold of the row whose nation is japan is " +
                        std::to_string(i) + ".";
    server.SubmitLine(VerifyRequest(i + 1, kMedalsCsv, claim),
                      [&mu, &responses](std::string r) {
                        std::lock_guard<std::mutex> lock(mu);
                        responses.push_back(std::move(r));
                      });
  }
  server.Drain();
  ASSERT_EQ(responses.size(), static_cast<size_t>(kTotal));
  uint64_t rejected =
      server.metrics()->counter("responses_rejected_total")->value();
  uint64_t ok = server.metrics()->counter("responses_ok_total")->value();
  EXPECT_GT(rejected, 0u) << "expected backpressure on a full queue";
  EXPECT_GT(ok, 0u);
  EXPECT_EQ(rejected + ok, static_cast<uint64_t>(kTotal));
}

TEST(ServerTest, ExpiredDeadlinesReportTimeout) {
  ServerConfig config;
  config.scheduler.num_workers = 1;
  config.scheduler.queue_capacity = 16;
  Server server(&SharedEngine(), config);

  // Saturate the single worker, then submit a request whose deadline is
  // far tighter than the backlog.
  std::mutex mu;
  std::vector<std::string> responses;
  auto collect = [&mu, &responses](std::string r) {
    std::lock_guard<std::mutex> lock(mu);
    responses.push_back(std::move(r));
  };
  for (int i = 0; i < 8; ++i) {
    std::string claim = "The total of the row whose nation is china is " +
                        std::to_string(100 + i) + ".";
    server.SubmitLine(VerifyRequest(i + 1, kMedalsCsv, claim), collect);
  }
  std::string tight =
      "{\"id\":99,\"op\":\"verify\",\"table\":\"" +
      JsonEscapeNewlines(kMedalsCsv) +
      "\",\"query\":\"The gold of the row whose nation is china is 1.\","
      "\"timeout_ms\":0.001}";
  server.SubmitLine(tight, collect);
  server.Drain();

  bool saw_timeout = false;
  for (const std::string& r : responses) {
    if (r.find("\"id\":99") != std::string::npos &&
        r.find("\"status\":\"timeout\"") != std::string::npos) {
      saw_timeout = true;
    }
  }
  EXPECT_TRUE(saw_timeout)
      << "a request with an expired deadline must report status=timeout";
}

// Regression test: a huge client-supplied timeout_ms used to overflow the
// int64 microsecond cast (UB) and could wrap to a deadline in the past,
// instantly expiring the request. Out-of-range timeouts now mean "no
// deadline" and the request completes normally.
TEST(ServerTest, HugeTimeoutRunsWithoutDeadline) {
  ServerConfig config;
  config.scheduler.num_workers = 1;
  Server server(&SharedEngine(), config);
  for (const char* timeout : {"1e18", "1e308"}) {
    std::string request =
        "{\"id\":5,\"op\":\"verify\",\"table\":\"" +
        JsonEscapeNewlines(kMedalsCsv) +
        "\",\"query\":\"The gold of the row whose nation is japan is 5.\","
        "\"timeout_ms\":" + std::string(timeout) + "}";
    std::string response = server.HandleLine(request);
    EXPECT_NE(response.find("\"status\":\"ok\""), std::string::npos)
        << "timeout_ms=" << timeout << " -> " << response;
  }
}

// The multi-threaded smoke test of the satellite checklist: the same
// request stream must produce byte-identical ordered responses at any
// worker count, and match single-threaded serial execution.
TEST(ServerTest, ConcurrentResponsesMatchSerialExecution) {
  std::vector<std::string> requests;
  uint64_t id = 0;
  for (const char* nation : {"united states", "china", "japan"}) {
    for (int gold : {5, 8, 10, 12}) {
      requests.push_back(VerifyRequest(
          ++id, kMedalsCsv,
          std::string("The gold of the row whose nation is ") + nation +
              " is " + std::to_string(gold) + "."));
    }
  }
  for (const char* q :
       {"Which item has the highest 2019?", "What is the 2018 of revenue?",
        "What is the 2019 of net income?"}) {
    requests.push_back(AnswerRequest(++id, kFinanceCsv, q));
  }

  auto run = [&requests](size_t workers) {
    ServerConfig config;
    config.scheduler.num_workers = workers;
    config.scheduler.queue_capacity = 1024;
    Server server(&SharedEngine(), config);
    std::vector<std::string> ordered;
    std::mutex mu;
    OrderedResponseWriter writer([&ordered, &mu](const std::string& line) {
      std::lock_guard<std::mutex> lock(mu);
      ordered.push_back(line);
    });
    for (const std::string& request : requests) {
      uint64_t seq = writer.NextSequence();
      server.SubmitLine(request, [seq, &writer](std::string response) {
        writer.Write(seq, std::move(response));
      });
    }
    server.Drain();
    return ordered;
  };

  std::vector<std::string> serial = run(1);
  ASSERT_EQ(serial.size(), requests.size());
  for (size_t workers : {2u, 4u, 8u}) {
    EXPECT_EQ(run(workers), serial)
        << "responses diverged at " << workers << " workers";
  }
}

}  // namespace
}  // namespace uctr::serve
