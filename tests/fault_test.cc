// Chaos suite for the fault-injection + resilience subsystem (src/fault/):
// spec parsing, deterministic injection, retry/backoff, circuit breaking,
// deadline-aware admission, scheduler shutdown races, serving under faults
// at admission and the durable table store (answer-equivalence with the
// healthy path), and checkpointed generation (kill/resume byte-identity,
// poison-shard quarantine).
//
// Everything here runs under the ASan/TSan jobs; the randomized chaos
// schedules are seeded, so a failure reproduces from the test name alone.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "common/status.h"
#include "datasets/corpus.h"
#include "fault/fault.h"
#include "fault/policy.h"
#include "gen/generator.h"
#include "gen/parallel.h"
#include "obs/metrics.h"
#include "program/library.h"
#include "serve/engine.h"
#include "serve/scheduler.h"
#include "serve/server.h"
#include "store/wal.h"

namespace uctr {
namespace {

using fault::CircuitBreaker;
using fault::CircuitBreakerOptions;
using fault::FaultInjector;
using fault::FaultRule;
using fault::RetryOptions;
using fault::RetryPolicy;
using obs::MetricsRegistry;

/// Scopes the process-global injector: disarms + reseeds on entry, disarms
/// and restores the default metrics sink on exit, so no test leaks armed
/// rules into the next one (the suite also runs as one binary).
class FaultGuard {
 public:
  explicit FaultGuard(const std::string& spec = "",
                      uint64_t seed = 0xFA17ULL) {
    FaultInjector::Global().Disarm();
    FaultInjector::Global().Seed(seed);
    if (!spec.empty()) {
      Status s = FaultInjector::Global().ArmSpec(spec);
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
  }
  ~FaultGuard() {
    FaultInjector::Global().Disarm();
    FaultInjector::Global().set_metrics(nullptr);
  }
};

// ----------------------------------------------------- Status::IsTransient

TEST(StatusTransientTest, OnlyUnavailableAndDeadlineAreTransient) {
  EXPECT_TRUE(Status::Unavailable("x").IsTransient());
  EXPECT_TRUE(Status::DeadlineExceeded("x").IsTransient());
  EXPECT_FALSE(Status::OK().IsTransient());
  EXPECT_FALSE(Status::ParseError("x").IsTransient());
  EXPECT_FALSE(Status::InvalidArgument("x").IsTransient());
  EXPECT_FALSE(Status::Internal("x").IsTransient());
  EXPECT_TRUE(IsTransient(Status::Unavailable("free function")));
}

// ----------------------------------------------------------- Spec parsing

TEST(FaultSpecTest, ParsesFullGrammar) {
  std::vector<FaultRule> rules;
  ASSERT_TRUE(FaultInjector::ParseSpec(
                  "serve.store_get=error(internal):p=0.25;"
                  "sched.dequeue = latency(5) : n=3 : after=2;"
                  "gen.*=alloc",
                  &rules)
                  .ok());
  ASSERT_EQ(rules.size(), 3u);
  EXPECT_EQ(rules[0].site, "serve.store_get");
  EXPECT_EQ(rules[0].kind, fault::FaultKind::kError);
  EXPECT_EQ(rules[0].code, StatusCode::kInternal);
  EXPECT_DOUBLE_EQ(rules[0].probability, 0.25);
  EXPECT_EQ(rules[1].site, "sched.dequeue");
  EXPECT_EQ(rules[1].kind, fault::FaultKind::kLatency);
  EXPECT_EQ(rules[1].latency_ms, 5);
  EXPECT_EQ(rules[1].max_triggers, 3);
  EXPECT_EQ(rules[1].skip_first, 2);
  EXPECT_EQ(rules[2].site, "gen.*");
  EXPECT_EQ(rules[2].code, StatusCode::kUnavailable);
  EXPECT_NE(rules[2].message.find("allocation"), std::string::npos);
}

TEST(FaultSpecTest, RejectsMalformedSpecs) {
  std::vector<FaultRule> rules;
  // No '=' between site and action.
  EXPECT_FALSE(FaultInjector::ParseSpec("serve.submit", &rules).ok());
  // Unknown action and unknown status code.
  EXPECT_FALSE(FaultInjector::ParseSpec("a=explode", &rules).ok());
  EXPECT_FALSE(FaultInjector::ParseSpec("a=error(nope)", &rules).ok());
  // latency requires a positive millis argument.
  EXPECT_FALSE(FaultInjector::ParseSpec("a=latency", &rules).ok());
  EXPECT_FALSE(FaultInjector::ParseSpec("a=latency(0)", &rules).ok());
  // Options must be known key=value with sane ranges.
  EXPECT_FALSE(FaultInjector::ParseSpec("a=error:p=1.5", &rules).ok());
  EXPECT_FALSE(FaultInjector::ParseSpec("a=error:bogus", &rules).ok());
  EXPECT_FALSE(FaultInjector::ParseSpec("a=error:x=1", &rules).ok());
}

// -------------------------------------------------------------- Injection

TEST(FaultInjectorTest, DisarmedIsOkAndCheap) {
  FaultGuard guard;
  EXPECT_FALSE(FaultInjector::Global().armed());
  EXPECT_TRUE(UCTR_FAULT_POINT("anything.at_all").ok());
}

TEST(FaultInjectorTest, ExactSiteMatchInjectsTaggedStatus) {
  FaultGuard guard("serve.store_put=error(execution_error)");
  Status hit = UCTR_FAULT_POINT("serve.store_put");
  EXPECT_EQ(hit.code(), StatusCode::kExecutionError);
  EXPECT_NE(hit.message().find("serve.store_put"), std::string::npos);
  EXPECT_TRUE(UCTR_FAULT_POINT("serve.store_get").ok())
      << "non-matching site must pass through";
}

TEST(FaultInjectorTest, WildcardMatchesPrefix) {
  FaultGuard guard("serve.*=error");
  EXPECT_FALSE(UCTR_FAULT_POINT("serve.submit").ok());
  EXPECT_FALSE(UCTR_FAULT_POINT("serve.store_put").ok());
  EXPECT_TRUE(UCTR_FAULT_POINT("sched.dequeue").ok());
}

TEST(FaultInjectorTest, TriggerCapAndSkipFirstBoundTheBlastRadius) {
  FaultGuard guard("a=error:n=2:after=1");
  EXPECT_TRUE(UCTR_FAULT_POINT("a").ok());   // skipped (after=1)
  EXPECT_FALSE(UCTR_FAULT_POINT("a").ok());  // trigger 1
  EXPECT_FALSE(UCTR_FAULT_POINT("a").ok());  // trigger 2
  EXPECT_TRUE(UCTR_FAULT_POINT("a").ok());   // cap reached
  EXPECT_EQ(FaultInjector::Global().injected_total(), 2u);
}

TEST(FaultInjectorTest, ProbabilityStreamIsSeedDeterministic) {
  auto run = [] {
    FaultGuard guard("p.site=error:p=0.5", /*seed=*/42);
    std::string fired;
    for (int i = 0; i < 64; ++i) {
      fired += UCTR_FAULT_POINT("p.site").ok() ? '.' : 'X';
    }
    return fired;
  };
  std::string first = run();
  EXPECT_EQ(first, run()) << "same (spec, seed) must replay the schedule";
  EXPECT_NE(first.find('X'), std::string::npos);
  EXPECT_NE(first.find('.'), std::string::npos);
}

TEST(FaultInjectorTest, LatencyRuleSleepsThenPasses) {
  FaultGuard guard("slow.site=latency(20):n=1");
  auto started = std::chrono::steady_clock::now();
  EXPECT_TRUE(UCTR_FAULT_POINT("slow.site").ok());
  auto elapsed = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - started)
                     .count();
  EXPECT_GE(elapsed, 15.0);
}

TEST(FaultInjectorTest, InjectionsAreCountedPerSite) {
  FaultGuard guard;
  MetricsRegistry metrics;
  FaultInjector::Global().set_metrics(&metrics);
  ASSERT_TRUE(FaultInjector::Global().ArmSpec("m.site=error:n=3").ok());
  for (int i = 0; i < 5; ++i) (void)UCTR_FAULT_POINT("m.site");
  EXPECT_EQ(
      metrics.counter("faults_injected_total{site=\"m.site\"}")->value(),
      3u);
}

// ------------------------------------------------------------ RetryPolicy

TEST(RetryPolicyTest, RetriesTransientFailuresUntilSuccess) {
  MetricsRegistry metrics;
  RetryOptions options;
  options.max_attempts = 5;
  RetryPolicy policy(options, /*seed=*/1, &metrics);
  std::vector<double> sleeps;
  policy.set_sleep_fn([&sleeps](double ms) { sleeps.push_back(ms); });

  int calls = 0;
  Status s = policy.Run("op", [&calls] {
    return ++calls < 3 ? Status::Unavailable("flaky") : Status::OK();
  });
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(sleeps.size(), 2u);
  EXPECT_EQ(metrics.counter("retry_attempts_total")->value(), 3u);
  EXPECT_EQ(metrics.counter("retry_backoffs_total")->value(), 2u);
  EXPECT_EQ(metrics.counter("retry_exhausted_total")->value(), 0u);
}

TEST(RetryPolicyTest, PermanentFailuresAreNeverRetried) {
  RetryPolicy policy;
  policy.set_sleep_fn([](double) { FAIL() << "must not back off"; });
  int calls = 0;
  Status s = policy.Run("op", [&calls] {
    ++calls;
    return Status::ParseError("malformed table");
  });
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(calls, 1) << "retrying cannot fix a parse error";
}

TEST(RetryPolicyTest, ExhaustsAfterMaxAttempts) {
  MetricsRegistry metrics;
  RetryOptions options;
  options.max_attempts = 3;
  RetryPolicy policy(options, 1, &metrics);
  policy.set_sleep_fn([](double) {});
  int calls = 0;
  Status s = policy.Run("op", [&calls] {
    ++calls;
    return Status::Unavailable("still down");
  });
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(metrics.counter("retry_exhausted_total")->value(), 1u);
}

TEST(RetryPolicyTest, BackoffIsExponentialAndCapped) {
  RetryOptions options;
  options.max_attempts = 6;
  options.initial_backoff_ms = 1.0;
  options.backoff_multiplier = 2.0;
  options.max_backoff_ms = 4.0;
  options.jitter_fraction = 0.0;  // deterministic shape
  options.backoff_budget_ms = 0.0;
  RetryPolicy policy(options);
  std::vector<double> sleeps;
  policy.set_sleep_fn([&sleeps](double ms) { sleeps.push_back(ms); });
  (void)policy.Run("op", [] { return Status::Unavailable("down"); });
  ASSERT_EQ(sleeps.size(), 5u);
  EXPECT_DOUBLE_EQ(sleeps[0], 1.0);
  EXPECT_DOUBLE_EQ(sleeps[1], 2.0);
  EXPECT_DOUBLE_EQ(sleeps[2], 4.0);
  EXPECT_DOUBLE_EQ(sleeps[3], 4.0);  // per-sleep cap
  EXPECT_DOUBLE_EQ(sleeps[4], 4.0);
}

TEST(RetryPolicyTest, JitterStaysInsideTheConfiguredBand) {
  RetryOptions options;
  options.max_attempts = 20;
  options.initial_backoff_ms = 10.0;
  options.backoff_multiplier = 1.0;
  options.max_backoff_ms = 10.0;
  options.jitter_fraction = 0.5;
  options.backoff_budget_ms = 0.0;
  RetryPolicy policy(options, /*seed=*/7);
  std::vector<double> sleeps;
  policy.set_sleep_fn([&sleeps](double ms) { sleeps.push_back(ms); });
  (void)policy.Run("op", [] { return Status::Unavailable("down"); });
  ASSERT_EQ(sleeps.size(), 19u);
  for (double ms : sleeps) {
    EXPECT_GE(ms, 5.0);
    EXPECT_LT(ms, 15.0);
  }
}

TEST(RetryPolicyTest, BackoffBudgetStopsRetryingEarly) {
  RetryOptions options;
  options.max_attempts = 10;
  options.initial_backoff_ms = 10.0;
  options.backoff_multiplier = 1.0;
  options.max_backoff_ms = 10.0;
  options.jitter_fraction = 0.0;
  options.backoff_budget_ms = 25.0;  // room for two 10ms sleeps only
  RetryPolicy policy(options);
  policy.set_sleep_fn([](double) {});
  int calls = 0;
  Status s = policy.Run("op", [&calls] {
    ++calls;
    return Status::Unavailable("down");
  });
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(calls, 3) << "attempts bounded by the sleep budget, not "
                         "max_attempts";
}

// ---------------------------------------------------------- CircuitBreaker

TEST(CircuitBreakerTest, OpensAfterConsecutiveFailuresAndRejects) {
  MetricsRegistry metrics;
  CircuitBreakerOptions options;
  options.failure_threshold = 3;
  options.open_duration_ms = 100.0;
  CircuitBreaker breaker("dep", options, &metrics);

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(breaker.Allow());
    breaker.RecordFailure();
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.Allow()) << "open circuit must shed calls";
  EXPECT_EQ(metrics.counter("circuit_open_total{breaker=\"dep\"}")->value(),
            1u);
  EXPECT_GE(
      metrics.counter("circuit_rejected_total{breaker=\"dep\"}")->value(),
      1u);
}

TEST(CircuitBreakerTest, HalfOpenProbeClosesOnSuccessReopensOnFailure) {
  CircuitBreakerOptions options;
  options.failure_threshold = 2;
  options.open_duration_ms = 100.0;
  CircuitBreaker breaker("dep", options);
  auto t = CircuitBreaker::Clock::now();
  breaker.set_clock_fn([&t] { return t; });

  auto trip = [&] {
    for (int i = 0; i < 2; ++i) {
      if (breaker.Allow()) breaker.RecordFailure();
    }
    ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  };
  trip();
  EXPECT_FALSE(breaker.Allow()) << "cooldown not elapsed yet";

  // After the cooldown exactly one probe is let through at a time.
  t += std::chrono::milliseconds(150);
  EXPECT_TRUE(breaker.Allow());
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(breaker.Allow()) << "second caller must wait for the probe";
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.Allow());
  breaker.RecordSuccess();

  // A failed probe re-opens immediately.
  trip();
  t += std::chrono::milliseconds(150);
  ASSERT_TRUE(breaker.Allow());
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
}

TEST(CircuitBreakerTest, RunWrapsAllowAndRecord) {
  CircuitBreakerOptions options;
  options.failure_threshold = 1;
  options.open_duration_ms = 10000.0;
  CircuitBreaker breaker("model", options);
  EXPECT_FALSE(
      breaker.Run([] { return Status::Internal("dependency blew up"); })
          .ok());
  Status rejected = breaker.Run([] { return Status::OK(); });
  EXPECT_EQ(rejected.code(), StatusCode::kUnavailable);
  EXPECT_NE(rejected.message().find("circuit"), std::string::npos);
}

// ------------------------------------------------- Scheduler resilience

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

TEST(SchedulerResilienceTest, ShutdownRejectionIsDistinctFromBackpressure) {
  serve::SchedulerConfig config;
  config.num_workers = 1;
  config.queue_capacity = 4;
  MetricsRegistry metrics;
  serve::Scheduler scheduler(config, &metrics);
  scheduler.Shutdown();

  Status rejected = scheduler.Submit({[] {}, nullptr});
  EXPECT_EQ(rejected.code(), StatusCode::kUnavailable);
  EXPECT_NE(rejected.message().find("shut down"), std::string::npos);
  EXPECT_EQ(metrics.counter("jobs_rejected_shutdown_total")->value(), 1u);
  EXPECT_EQ(metrics.counter("jobs_rejected_total")->value(), 0u)
      << "teardown must not inflate the backpressure counter";
}

TEST(SchedulerResilienceTest, ShedsJobsWhoseDeadlineCannotBeMet) {
  serve::SchedulerConfig config;
  config.num_workers = 1;
  config.queue_capacity = 16;
  config.deadline_admission = true;
  MetricsRegistry metrics;
  serve::Scheduler scheduler(config, &metrics);

  // Prime the duration EMA with a deliberately slow job.
  ASSERT_TRUE(scheduler
                  .Submit({[] {
                             std::this_thread::sleep_for(
                                 std::chrono::milliseconds(30));
                           },
                           nullptr})
                  .ok());
  scheduler.Drain();
  ASSERT_GT(scheduler.EstimatedJobMicros(), 10000.0);

  // Occupy the worker and put one job in the queue; the projected wait
  // for anything behind it is now ~one EMA (≈30ms).
  Gate gate;
  ASSERT_TRUE(scheduler.Submit({[&gate] { gate.Enter(); }, nullptr}).ok());
  gate.WaitUntilEntered();
  ASSERT_TRUE(scheduler.Submit({[] {}, nullptr}).ok());

  serve::Scheduler::Job doomed;
  std::atomic<bool> ran{false};
  doomed.run = [&ran] { ran = true; };
  doomed.deadline =
      serve::Scheduler::Clock::now() + std::chrono::milliseconds(1);
  Status shed = scheduler.Submit(std::move(doomed));
  EXPECT_EQ(shed.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(shed.message().find("shed"), std::string::npos);
  EXPECT_EQ(metrics.counter("jobs_shed_deadline_total")->value(), 1u);

  // A generous deadline with the identical queue state is admitted.
  serve::Scheduler::Job fine;
  fine.run = [] {};
  fine.deadline =
      serve::Scheduler::Clock::now() + std::chrono::seconds(10);
  EXPECT_TRUE(scheduler.Submit(std::move(fine)).ok());

  gate.Open();
  scheduler.Drain();
  EXPECT_FALSE(ran.load()) << "shed job must never run";
}

// Satellite: concurrent Submit/Shutdown/Drain under injected dequeue
// latency (widens the race windows; meant for the TSan job). The invariant
// is exactly-once disposition: every accepted job either ran or expired.
TEST(SchedulerRaceTest, ConcurrentSubmitShutdownDrainUnderLatencyFaults) {
  FaultGuard guard("sched.dequeue=latency(1):p=0.3", /*seed=*/0xACE);
  for (int round = 0; round < 4; ++round) {
    serve::SchedulerConfig config;
    config.num_workers = 4;
    config.queue_capacity = 16;
    serve::Scheduler scheduler(config);

    std::atomic<int> accepted{0};
    std::atomic<int> ran{0};
    std::atomic<int> expired{0};
    std::vector<std::thread> submitters;
    for (int t = 0; t < 4; ++t) {
      submitters.emplace_back([&scheduler, &accepted, &ran, &expired, t] {
        for (int i = 0; i < 40; ++i) {
          serve::Scheduler::Job job;
          job.run = [&ran] { ran.fetch_add(1); };
          job.on_expired = [&expired] { expired.fetch_add(1); };
          if ((t + i) % 5 == 0) {
            // Some jobs carry deadlines tight enough that the injected
            // dequeue latency can expire them in the queue.
            job.deadline = serve::Scheduler::Clock::now() +
                           std::chrono::microseconds(500);
          }
          if (scheduler.Submit(std::move(job)).ok()) {
            accepted.fetch_add(1);
          }
        }
      });
    }
    std::thread drainer([&scheduler] { scheduler.Drain(); });
    std::thread shutter([&scheduler] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      scheduler.Shutdown();
    });
    for (std::thread& t : submitters) t.join();
    drainer.join();
    shutter.join();
    EXPECT_EQ(ran.load() + expired.load(), accepted.load())
        << "round " << round
        << ": every accepted job must run or expire exactly once";
  }
}

// ------------------------------------------------- Serving under faults

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

std::string PutTableRequest(uint64_t id, const std::string& csv) {
  return "{\"id\":" + std::to_string(id) +
         ",\"op\":\"put_table\",\"table\":\"" + JsonEscapeNewlines(csv) +
         "\"}";
}

/// A table_ref request; a non-empty `fallback_csv` rides along as the
/// inline table the server answers from when the ref misses.
std::string RefRequest(uint64_t id, const std::string& op,
                       const std::string& ref, const std::string& fallback_csv,
                       const std::string& query) {
  std::string out = "{\"id\":" + std::to_string(id) + ",\"op\":\"" + op +
                    "\",\"table_ref\":\"" + ref + "\"";
  if (!fallback_csv.empty()) {
    out += ",\"table\":\"" + JsonEscapeNewlines(fallback_csv) + "\"";
  }
  return out + ",\"query\":\"" + query + "\"}";
}

const serve::InferenceEngine& SharedEngine() {
  static const serve::InferenceEngine engine = [] {
    serve::EngineConfig config;
    return serve::InferenceEngine::Create(config, "", "").ValueOrDie();
  }();
  return engine;
}

/// A store-fallback response must be the healthy response plus the marker
/// and nothing else — strip it and compare bytes.
std::string StripDegradedMarker(std::string response) {
  const std::string marker = ",\"degraded\":true";
  size_t pos = response.find(marker);
  if (pos != std::string::npos) response.erase(pos, marker.size());
  return response;
}

TEST(ServerDegradedTest, AdmissionFaultRejectsLikeBackpressure) {
  FaultGuard guard("serve.submit=error");
  serve::ServerConfig config;
  config.scheduler.num_workers = 1;
  serve::Server server(&SharedEngine(), config);
  std::string response = server.HandleLine(VerifyRequest(
      5, kMedalsCsv, "The gold of the row whose nation is china is 8."));
  EXPECT_NE(response.find("\"status\":\"rejected\""), std::string::npos)
      << response;
}

/// Fresh per-test scratch directory under the system temp dir.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    path_ = (std::filesystem::temp_directory_path() /
             ("uctr_fault_test_" + tag + "_" +
              std::to_string(static_cast<unsigned long>(::getpid()))))
                .string();
    std::filesystem::remove_all(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ------------------------------------------------------------ Chaos suite

/// The injection sites the chaos schedules draw from: admission, the
/// durable table store, the scheduler, CSV parsing and generation
/// (net.*, router.* and selftrain.* have their own suites). The suite
/// asserts the count so new sites get chaos coverage.
const std::vector<std::string>& ChaosSites() {
  static const std::vector<std::string> sites = {
      "serve.submit",     "serve.store_get", "serve.store_put",
      "store.wal_append", "store.wal_fsync", "store.recover",
      "sched.dequeue",    "table.from_csv",  "gen.attempt",
      "gen.checkpoint_write",
  };
  return sites;
}

TEST(ChaosTest, CoversAtLeastTenInjectionSites) {
  EXPECT_GE(ChaosSites().size(), 10u);
}

/// Builds a randomized (but seeded) fault spec arming a subset of sites
/// with mixed error codes, probabilities, trigger caps, and small latency
/// spikes.
std::string RandomFaultSpec(Rng* rng) {
  static const char* kCodes[] = {"unavailable", "deadline_exceeded",
                                 "internal", "parse_error"};
  std::string spec;
  for (const std::string& site : ChaosSites()) {
    if (!rng->Bernoulli(0.6)) continue;
    if (!spec.empty()) spec += ";";
    if (rng->Bernoulli(0.25)) {
      spec += site + "=latency(" +
              std::to_string(rng->UniformInt(1, 3)) + ")";
    } else {
      spec += site + "=error(" +
              std::string(kCodes[rng->UniformInt(0, 3)]) + ")";
    }
    spec += ":p=0." + std::to_string(rng->UniformInt(2, 6));
    if (rng->Bernoulli(0.5)) {
      spec += ":n=" + std::to_string(rng->UniformInt(1, 8));
    }
  }
  return spec;
}

/// Chaos servers persist their registry so put_table and table_ref
/// traffic reaches the store sites (WAL append and fsync on every put,
/// replay at construction).
serve::ServerConfig ChaosServerConfig(const std::string& store_dir,
                                      size_t workers) {
  serve::ServerConfig config;
  config.scheduler.num_workers = workers;
  config.store_dir = store_dir;
  config.store_fsync = store::FsyncMode::kAlways;
  return config;
}

// Randomized fault schedules through the full serve pipeline: every
// request gets exactly one well-formed response, nothing hangs, and every
// OK response — store fallback or not — is answer-identical to the
// healthy run.
TEST(ChaosTest, RandomSchedulesNeverHangAndStayAnswerIdentical) {
  // Registered tables: the two fixtures, each with one extra row per
  // variant. Every distinct table costs a WAL append and fsync (an
  // identical re-put skips the log), so sixteen of them evaluate each
  // armed store site many times per schedule.
  std::vector<std::string> tables;
  for (int k = 0; k < 16; ++k) {
    std::string n = std::to_string(k);
    tables.push_back(k % 2 == 0 ? kMedalsCsv + ("team " + n + ",1,2,3,6\n")
                                : kFinanceCsv + ("item " + n +
                                                 ",\"$1.5\",\"$2.5\"\n"));
  }
  auto query_for = [](size_t table, size_t i) {
    bool medals = table % 2 == 0;
    if (medals) {
      return i % 2 == 0 ? "The gold of the row whose nation is japan is 5."
                        : "The total of the row whose nation is china is 24.";
    }
    return i % 2 == 0 ? "Which item has the highest 2019?"
                      : "What is the 2018 of net income?";
  };

  std::vector<std::string> requests;
  for (size_t t = 0; t < tables.size(); ++t) {
    requests.push_back(PutTableRequest(300 + t, tables[t]));
  }
  for (uint64_t i = 0; i < 6; ++i) {
    requests.push_back(VerifyRequest(100 + i, kMedalsCsv, query_for(0, i)));
    requests.push_back(AnswerRequest(200 + i, kFinanceCsv, query_for(1, i)));
  }

  // Healthy baseline, keyed by the request id embedded in the response.
  // The put responses carry the content fingerprints the ref requests
  // name.
  std::map<std::string, std::string> healthy;
  auto record = [&healthy](const std::string& response) {
    ASSERT_NE(response.find("\"status\":\"ok\""), std::string::npos)
        << response;
    healthy[response.substr(0, response.find(','))] = response;  // {"id":N
  };
  {
    FaultGuard clean;
    ScratchDir dir("chaos_healthy");
    serve::Server server(&SharedEngine(), ChaosServerConfig(dir.path(), 2));
    ASSERT_TRUE(server.recovery_status().ok());
    for (size_t t = 0; t < tables.size(); ++t) {
      std::string response = server.HandleLine(requests[t]);
      record(response);
      auto parsed = json::Parse(response);
      ASSERT_TRUE(parsed.ok()) << response;
      std::string ref =
          json::GetStringOr(parsed->as_object(), "fingerprint", "");
      // Ref requests with an inline fallback table, then bare ones.
      bool verify = t % 2 == 0;
      requests.push_back(RefRequest(400 + t, verify ? "verify" : "answer",
                                    ref, tables[t], query_for(t, t)));
      requests.push_back(RefRequest(500 + t, verify ? "verify" : "answer",
                                    ref, "", query_for(t, t + 1)));
    }
    for (size_t r = tables.size(); r < requests.size(); ++r) {
      record(server.HandleLine(requests[r]));
    }
  }

  MetricsRegistry injections;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng schedule_rng(seed * 7919);
    std::string spec = RandomFaultSpec(&schedule_rng);
    FaultGuard guard(spec, /*seed=*/seed);
    FaultInjector::Global().set_metrics(&injections);

    ScratchDir dir("chaos_" + std::to_string(seed));
    serve::Server server(&SharedEngine(), ChaosServerConfig(dir.path(), 3));

    std::mutex mu;
    std::vector<std::string> responses;
    for (const std::string& request : requests) {
      server.SubmitLine(request, [&mu, &responses](std::string response) {
        std::lock_guard<std::mutex> lock(mu);
        responses.push_back(std::move(response));
      });
    }
    server.Drain();

    ASSERT_EQ(responses.size(), requests.size())
        << "seed " << seed << " spec '" << spec
        << "': exactly one response per request";
    for (const std::string& response : responses) {
      bool ok = response.find("\"status\":\"ok\"") != std::string::npos;
      bool error =
          response.find("\"status\":\"error\"") != std::string::npos;
      bool rejected =
          response.find("\"status\":\"rejected\"") != std::string::npos;
      ASSERT_TRUE(ok || error || rejected)
          << "seed " << seed << ": malformed response " << response;
      if (ok) {
        std::string id = response.substr(0, response.find(','));
        ASSERT_TRUE(healthy.count(id)) << response;
        EXPECT_EQ(StripDegradedMarker(response), healthy[id])
            << "seed " << seed << " spec '" << spec
            << "': faulted response diverged from the healthy answer";
      }
    }
  }

  // The store sites are reached only through the durable put_table and
  // table_ref traffic above; each must have fired under some seed.
  for (const char* site : {"serve.store_get", "serve.store_put",
                           "store.wal_append", "store.wal_fsync",
                           "store.recover"}) {
    EXPECT_GE(injections
                  .counter("faults_injected_total{site=\"" +
                           std::string(site) + "\"}")
                  ->value(),
              1u)
        << site << " never fired across the chaos seeds";
  }
}

// -------------------------------------------------- Checkpointed generation

std::vector<TableWithText> MakeCorpus(uint64_t seed, size_t n) {
  Rng rng(seed);
  datasets::CorpusConfig config;
  config.num_tables = n;
  datasets::CorpusGenerator gen(config, &rng);
  return gen.Generate();
}

GenerationConfig FvConfig() {
  GenerationConfig config;
  config.task = TaskType::kFactVerification;
  config.program_types = {ProgramType::kLogicalForm};
  config.samples_per_table = 6;
  config.unknown_fraction = 0.1;
  return config;
}

std::string Fingerprint(const Dataset& data) {
  std::string out;
  for (const Sample& s : data.samples) {
    out += s.sentence + "|" + LabelToString(s.label) + "|" +
           s.program.text + "\n";
  }
  return out;
}

TEST(CheckpointTest, UninterruptedRunMatchesParallelByteForByte) {
  FaultGuard clean;
  ScratchDir dir("full");
  auto corpus = MakeCorpus(11, 6);
  static const TemplateLibrary& library = TemplateLibrary::Builtin();
  GenerationConfig config = FvConfig();

  Dataset baseline = GenerateDatasetParallel(config, &library, corpus, 5, 4);
  CheckpointOptions checkpoint;
  checkpoint.directory = dir.path();
  CheckpointReport report;
  auto data = GenerateDatasetCheckpointed(config, &library, corpus, 5, 4,
                                          checkpoint, &report);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.generated, corpus.size());
  EXPECT_EQ(report.resumed, 0u);
  EXPECT_EQ(Fingerprint(*data), Fingerprint(baseline));
}

TEST(CheckpointTest, SlicedRunsResumeToByteIdenticalDataset) {
  FaultGuard clean;
  ScratchDir dir("sliced");
  auto corpus = MakeCorpus(13, 7);
  static const TemplateLibrary& library = TemplateLibrary::Builtin();
  GenerationConfig config = FvConfig();
  Dataset baseline = GenerateDatasetParallel(config, &library, corpus, 9, 2);

  CheckpointOptions checkpoint;
  checkpoint.directory = dir.path();
  checkpoint.max_shards_this_run = 2;  // each "run" dies after two shards
  CheckpointReport report;
  Result<Dataset> data = Status::Internal("never ran");
  size_t runs = 0;
  do {
    data = GenerateDatasetCheckpointed(config, &library, corpus, 9,
                                       /*num_threads=*/2, checkpoint,
                                       &report);
    ASSERT_TRUE(data.ok()) << data.status().ToString();
    ASSERT_LT(++runs, 10u) << "checkpointed runs failed to converge";
  } while (!report.complete);
  EXPECT_EQ(runs, 4u);  // ceil(7 / 2)
  EXPECT_GT(report.resumed, 0u) << "the final run must load prior shards";
  EXPECT_EQ(Fingerprint(*data), Fingerprint(baseline));
}

TEST(CheckpointTest, WriteFaultsFailShardsThatResumeRegenerates) {
  ScratchDir dir("faulted");
  auto corpus = MakeCorpus(17, 5);
  static const TemplateLibrary& library = TemplateLibrary::Builtin();
  GenerationConfig config = FvConfig();
  Dataset baseline = GenerateDatasetParallel(config, &library, corpus, 3, 1);

  CheckpointOptions checkpoint;
  checkpoint.directory = dir.path();
  CheckpointReport report;
  {
    // Run 1: every checkpoint write faults — the "kill" leaves nothing
    // but the manifest and attempts log behind.
    FaultGuard guard("gen.checkpoint_write=error(internal)");
    auto crashed = GenerateDatasetCheckpointed(config, &library, corpus, 3,
                                               1, checkpoint, &report);
    ASSERT_TRUE(crashed.ok()) << crashed.status().ToString();
    EXPECT_EQ(report.failed, corpus.size());
    EXPECT_FALSE(report.complete);
    EXPECT_TRUE(crashed->empty());
  }
  {
    // Run 2, faults cleared: resumes and completes byte-identically.
    FaultGuard clean;
    auto resumed = GenerateDatasetCheckpointed(config, &library, corpus, 3,
                                               1, checkpoint, &report);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_TRUE(report.complete);
    EXPECT_EQ(report.generated, corpus.size());
    EXPECT_EQ(Fingerprint(*resumed), Fingerprint(baseline));
  }
}

TEST(CheckpointTest, RejectsCheckpointFromDifferentRun) {
  FaultGuard clean;
  ScratchDir dir("mismatch");
  auto corpus = MakeCorpus(23, 3);
  static const TemplateLibrary& library = TemplateLibrary::Builtin();
  GenerationConfig config = FvConfig();
  CheckpointOptions checkpoint;
  checkpoint.directory = dir.path();
  ASSERT_TRUE(GenerateDatasetCheckpointed(config, &library, corpus, 1, 1,
                                          checkpoint)
                  .ok());
  // Same directory, different seed: refused, not silently mixed.
  auto mixed =
      GenerateDatasetCheckpointed(config, &library, corpus, 2, 1, checkpoint);
  EXPECT_EQ(mixed.status().code(), StatusCode::kInvalidArgument);
  // Different corpus under the original seed: also refused.
  auto other_corpus = MakeCorpus(29, 3);
  auto swapped = GenerateDatasetCheckpointed(config, &library, other_corpus,
                                             1, 1, checkpoint);
  EXPECT_EQ(swapped.status().code(), StatusCode::kInvalidArgument);
}

TEST(CheckpointTest, QuarantinesShardThatKeepsCrashing) {
  FaultGuard clean;
  ScratchDir dir("poison");
  auto corpus = MakeCorpus(31, 4);
  static const TemplateLibrary& library = TemplateLibrary::Builtin();
  GenerationConfig config = FvConfig();

  // Simulate three prior runs that each died inside shard 2: three `begin`
  // markers with no completion.
  std::filesystem::create_directories(dir.path());
  {
    std::ofstream attempts(dir.path() + "/attempts.log");
    attempts << "begin 2\nbegin 2\nbegin 2\n";
  }
  CheckpointOptions checkpoint;
  checkpoint.directory = dir.path();
  checkpoint.quarantine_after = 3;
  CheckpointReport report;
  auto data = GenerateDatasetCheckpointed(config, &library, corpus, 37, 2,
                                          checkpoint, &report);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(report.poisoned, 1u);
  EXPECT_FALSE(report.complete) << "a poisoned shard is not 'done'";
  EXPECT_EQ(report.generated, corpus.size() - 1);
  EXPECT_FALSE(std::filesystem::exists(dir.path() + "/shard-2.jsonl"))
      << "the poisoned shard must not be attempted again";

  // The quarantine is persistent: a fresh resume still skips shard 2 and
  // generates nothing new.
  auto again = GenerateDatasetCheckpointed(config, &library, corpus, 37, 2,
                                           checkpoint, &report);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(report.poisoned, 1u);
  EXPECT_EQ(report.generated, 0u);
  EXPECT_EQ(report.resumed, corpus.size() - 1);
}

TEST(CheckpointTest, CorruptShardFileIsReportedNotSilentlyDropped) {
  FaultGuard clean;
  ScratchDir dir("corrupt");
  auto corpus = MakeCorpus(41, 3);
  static const TemplateLibrary& library = TemplateLibrary::Builtin();
  GenerationConfig config = FvConfig();
  CheckpointOptions checkpoint;
  checkpoint.directory = dir.path();
  ASSERT_TRUE(GenerateDatasetCheckpointed(config, &library, corpus, 1, 1,
                                          checkpoint)
                  .ok());
  {
    std::ofstream shard(dir.path() + "/shard-1.jsonl",
                        std::ios::binary | std::ios::trunc);
    shard << "{ this is not a sample";
  }
  auto resumed =
      GenerateDatasetCheckpointed(config, &library, corpus, 1, 1, checkpoint);
  EXPECT_EQ(resumed.status().code(), StatusCode::kInternal);
  EXPECT_NE(resumed.status().message().find("shard"), std::string::npos);
}

// ------------------------------------------------ Generator quarantine

TEST(GeneratorQuarantineTest, PoisonTemplatesStopEatingTheAttemptBudget) {
  FaultGuard guard("gen.attempt=error(execution_error)");
  auto corpus = MakeCorpus(43, 1);
  static const TemplateLibrary& library = TemplateLibrary::Builtin();
  GenerationConfig config = FvConfig();
  config.quarantine_after = 2;

  obs::Counter* quarantined =
      obs::DefaultRegistry().counter("gen_templates_quarantined_total");
  uint64_t before = quarantined->value();
  Rng rng(1);
  Generator generator(config, &library, &rng);
  std::vector<Sample> samples = generator.GenerateFromTable(corpus[0]);
  EXPECT_TRUE(samples.empty()) << "every attempt faults";
  EXPECT_GT(quarantined->value(), before)
      << "templates that fail repeatedly must be quarantined";
}

TEST(GeneratorQuarantineTest, QuarantineKnobDoesNotPerturbHealthyRuns) {
  FaultGuard clean;
  auto corpus = MakeCorpus(47, 2);
  static const TemplateLibrary& library = TemplateLibrary::Builtin();

  GenerationConfig without = FvConfig();  // quarantine_after = 0
  GenerationConfig with = FvConfig();
  // Above the per-table attempt ceiling (samples_per_table * max_attempts),
  // so quarantine can never fire organically and any fingerprint
  // divergence is the knob itself perturbing the rng sequence.
  with.quarantine_after = 1000;

  Rng rng_a(9);
  Generator gen_a(without, &library, &rng_a);
  Rng rng_b(9);
  Generator gen_b(with, &library, &rng_b);
  Dataset a;
  Dataset b;
  for (const TableWithText& entry : corpus) {
    for (Sample& s : gen_a.GenerateFromTable(entry)) {
      a.samples.push_back(std::move(s));
    }
    for (Sample& s : gen_b.GenerateFromTable(entry)) {
      b.samples.push_back(std::move(s));
    }
  }
  EXPECT_EQ(Fingerprint(a), Fingerprint(b))
      << "with no failures the quarantine path must not consume rng";
}

}  // namespace
}  // namespace uctr
