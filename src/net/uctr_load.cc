// uctr_load — multi-connection load generator for `uctr_serve --listen`
// and `uctr_router`.
//
//   uctr_load --connect HOST:PORT [--connections N] [--requests N]
//             [--qps Q] [--pipeline D] [--tables T] [--put-table]
//             [--put-retries N] [--op verify|answer|mixed]
//             [--timeout-ms N]
//   uctr_load --router HOST:PORT[,HOST:PORT...] [same flags]
//
// --router is the horizontal-scaling mode: connections are spread
// round-robin across the listed endpoints (typically one uctr_router, or
// several for router redundancy). The protocol and every check below are
// identical — a router is indistinguishable from a single backend on the
// wire, so the ordering check doubles as the router's correctness gate.
//
// Drives the TCP serving front end with N concurrent connections:
//
//   closed loop (default)  — each connection keeps up to --pipeline D
//                            requests outstanding and sends the next as
//                            soon as a response frees a slot; measures
//                            the server's capacity.
//   open loop (--qps Q)    — requests are sent on a fixed schedule
//                            (Q/N per connection) regardless of response
//                            arrival; measures latency at a target rate,
//                            the way real user traffic does.
//
// Every connection checks the per-connection ordering guarantee: request
// ids are sequential, so response ids must come back in exactly the sent
// order — any hole or swap counts as lost/reordered and fails the run.
// Latency percentiles come from a shared lock-free obs::Histogram.
//
// --put-table switches to table_ref traffic: each connection first
// registers its --tables fixture variants via `put_table` (synchronously —
// a fingerprint is only knowable from the put response, so refs are never
// sent before the registration round-trips) and then drives the same
// request stream with `table_ref` instead of inline CSV. Registration
// round-trips are reported as a separate "registry" latency histogram so
// the steady-state transport percentiles are not polluted by the one-time
// warm-up cost. Transient registration failures (dropped connection,
// "rejected"/"timeout" backpressure) retry up to --put-retries attempts
// with jittered backoff before the run counts a put failure — chaos
// drills should measure serving, not one unlucky registration.
//
// Exit status: 0 iff every request got an in-order response and no
// connection failed; 2 on a usage error (an unknown flag, a stray
// argument, a missing value, a malformed number), before any connection.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/json.h"
#include "fault/policy.h"
#include "net/client.h"
#include "net/socket_util.h"
#include "obs/metrics.h"

namespace {

using namespace uctr;
using Clock = std::chrono::steady_clock;

struct Options {
  /// Connections are dealt round-robin across these (one entry for
  /// --connect; one or more for --router).
  std::vector<net::HostPort> endpoints;
  size_t connections = 8;
  size_t requests = 1000;  // total, split round-robin across connections
  double qps = 0.0;        // 0 = closed loop
  size_t pipeline = 1;
  size_t tables = 16;
  bool put_table = false;  // register fixtures once, then table_ref traffic
  std::string op = "mixed";
  int timeout_ms = 30000;
  int connect_retries = 50;  // the soak starts server + load concurrently
  /// Attempts per put_table registration (1 = no retries). Transient
  /// failures — a dropped connection, a "rejected"/"timeout" response —
  /// are retried with jittered backoff (fault::RetryPolicy) instead of
  /// aborting the whole run, so chaos drills measure serving rather than
  /// registration flakes. Permanent errors still abort immediately.
  int put_retries = 5;
};

/// Shared tallies; workers add with relaxed atomics, main prints once.
struct Tally {
  std::atomic<uint64_t> sent{0};
  std::atomic<uint64_t> received{0};
  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> error{0};
  std::atomic<uint64_t> rejected{0};
  std::atomic<uint64_t> timeout{0};
  std::atomic<uint64_t> other_status{0};
  std::atomic<uint64_t> lost{0};
  std::atomic<uint64_t> reordered{0};
  std::atomic<uint64_t> connect_failures{0};
  std::atomic<uint64_t> put_failures{0};
  obs::Histogram latency_us;
  obs::Histogram registry_us;  ///< put_table round-trips (--put-table only)
};

std::string EscapeForJson(const std::string& text) {
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

/// Medal-style tables (the demo schema the serving examples use): same
/// shape, different numbers per variant, so the stream exercises distinct
/// cache keys with comparable per-request work.
std::string MakeCsv(size_t variant) {
  auto cell = [&](int base) { return std::to_string(base + (int)variant); };
  return "nation,gold,silver,bronze,total\n"
         "united states," + cell(10) + "," + cell(12) + "," + cell(8) + "," +
         cell(30) + "\nchina," + cell(8) + "," + cell(6) + "," + cell(10) +
         "," + cell(24) + "\njapan," + cell(5) + "," + cell(9) + "," +
         cell(4) + "," + cell(18) + "\ngermany," + cell(5) + "," + cell(3) +
         "," + cell(6) + "," + cell(14) + "\n";
}

std::string BuildRequest(uint64_t id, size_t variant, bool verify) {
  std::string csv = EscapeForJson(MakeCsv(variant));
  if (verify) {
    return "{\"id\":" + std::to_string(id) +
           ",\"op\":\"verify\",\"table\":\"" + csv +
           "\",\"query\":\"The gold of the row whose nation is china is " +
           std::to_string(8 + variant) + ".\"}";
  }
  return "{\"id\":" + std::to_string(id) +
         ",\"op\":\"answer\",\"table\":\"" + csv +
         "\",\"query\":\"What was the gold of the row whose nation is "
         "united states?\"}";
}

/// The --put-table request stream: same ids, ops, and queries as
/// BuildRequest, but the evidence travels as a registry fingerprint.
std::string BuildRefRequest(uint64_t id, size_t variant,
                            const std::string& fingerprint, bool verify) {
  if (verify) {
    return "{\"id\":" + std::to_string(id) +
           ",\"op\":\"verify\",\"table_ref\":\"" + fingerprint +
           "\",\"query\":\"The gold of the row whose nation is china is " +
           std::to_string(8 + variant) + ".\"}";
  }
  return "{\"id\":" + std::to_string(id) +
         ",\"op\":\"answer\",\"table_ref\":\"" + fingerprint +
         "\",\"query\":\"What was the gold of the row whose nation is "
         "united states?\"}";
}

Result<net::Client> ConnectWithRetry(const Options& options,
                                     const net::HostPort& endpoint) {
  Status last = Status::Unavailable("no attempt");
  for (int attempt = 0; attempt <= options.connect_retries; ++attempt) {
    auto client = net::Client::Connect(endpoint.host, endpoint.port);
    if (client.ok()) return client;
    last = client.status();
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  return last;
}

/// Registers every table variant over `client`, one synchronous
/// `put_table` round-trip each (ids 1..tables), recording each round-trip
/// in the registry histogram. Returns the fingerprints by variant, or an
/// empty vector on any failure — after reporting WHAT failed on stderr:
/// a put that silently dies here used to surface only as "put failures 1"
/// with the server's actual error response discarded.
///
/// Transient failures retry up to --put-retries attempts with jittered
/// backoff (fault::RetryPolicy): a dead connection is re-dialed in place
/// (put_table is content-addressed, so re-sending after an ambiguous
/// failure is idempotent), and "rejected"/"timeout" responses — pure
/// backpressure — are re-sent. Responses that prove a real bug
/// (unparseable, wrong id, "error") abort immediately.
std::vector<std::string> RegisterTables(net::Client* client,
                                        const Options& options,
                                        const net::HostPort& endpoint,
                                        Tally* tally) {
  fault::RetryOptions retry_options;
  retry_options.max_attempts = options.put_retries < 1 ? 1
                                                       : options.put_retries;
  retry_options.initial_backoff_ms = 50.0;
  retry_options.max_backoff_ms = 1000.0;
  retry_options.backoff_budget_ms = 5000.0;
  // Seed folds in the endpoint port so concurrent connections decorrelate.
  fault::RetryPolicy retry(retry_options,
                           0x10ADull ^ (uint64_t{endpoint.port} << 16),
                           nullptr);

  // Transport failure mid-put leaves the connection in an unknown state;
  // replace it before the retry (the old ids may still drain server-side,
  // which is fine: responses are matched by id, not by count).
  auto redial = [&]() {
    auto fresh = ConnectWithRetry(options, endpoint);
    if (fresh.ok()) *client = std::move(fresh).ValueOrDie();
  };

  std::vector<std::string> fingerprints;
  fingerprints.reserve(options.tables);
  for (size_t variant = 0; variant < options.tables; ++variant) {
    const uint64_t id = static_cast<uint64_t>(variant) + 1;
    std::string request = "{\"id\":" + std::to_string(id) +
                          ",\"op\":\"put_table\",\"table\":\"" +
                          EscapeForJson(MakeCsv(variant)) + "\"}";
    std::string fingerprint;
    Status put = retry.Run("load.put_table", [&]() -> Status {
      Clock::time_point sent_at = Clock::now();
      if (Status sent = client->Send(request); !sent.ok()) {
        redial();
        return Status::Unavailable("send failed: " + sent.ToString());
      }
      auto line = client->RecvTimeout(options.timeout_ms);
      if (!line.ok()) {
        redial();
        return Status::Unavailable("recv failed: " +
                                   line.status().ToString());
      }
      tally->registry_us.Observe(
          std::chrono::duration<double, std::micro>(Clock::now() - sent_at)
              .count());
      auto parsed = json::Parse(*line);
      if (!parsed.ok() || !parsed->is_object()) {
        return Status::Internal("unparseable response: " + *line);
      }
      const json::Value::Object& obj = parsed->as_object();
      uint64_t got_id = json::GetId(obj);
      std::string status = json::GetStringOr(obj, "status", "");
      if (status == "rejected" || status == "timeout") {
        // Backpressure / queue shedding: transient by contract.
        return Status::Unavailable("response: " + *line);
      }
      if (got_id != id || status != "ok") {
        // The response carries the server's own error ("error", a parse
        // failure, ...) — the actionable part; not retryable.
        return Status::Internal("response: " + *line);
      }
      fingerprint = json::GetStringOr(obj, "fingerprint", "");
      if (fingerprint.empty()) {
        return Status::Internal("ok response without fingerprint: " + *line);
      }
      return Status::OK();
    });
    if (!put.ok()) {
      std::cerr << "uctr_load: put_table id " << id << " failed after "
                << retry_options.max_attempts
                << " attempt(s): " << put.ToString() << "\n";
      return {};
    }
    fingerprints.push_back(std::move(fingerprint));
  }
  return fingerprints;
}

/// Parses a response line and scores it against the expected id. The id
/// check IS the ordering check: ids are sent sequentially per connection
/// and the server promises per-connection FIFO responses.
void ScoreResponse(const std::string& line, uint64_t expected_id,
                   Tally* tally) {
  tally->received.fetch_add(1, std::memory_order_relaxed);
  auto parsed = json::Parse(line);
  if (!parsed.ok() || !parsed->is_object()) {
    tally->other_status.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const json::Value::Object& obj = parsed->as_object();
  uint64_t id = json::GetId(obj);
  if (id != expected_id) {
    tally->reordered.fetch_add(1, std::memory_order_relaxed);
  }
  std::string status = json::GetStringOr(obj, "status", "");
  if (status == "ok") {
    tally->ok.fetch_add(1, std::memory_order_relaxed);
  } else if (status == "error") {
    tally->error.fetch_add(1, std::memory_order_relaxed);
  } else if (status == "rejected") {
    tally->rejected.fetch_add(1, std::memory_order_relaxed);
  } else if (status == "timeout") {
    tally->timeout.fetch_add(1, std::memory_order_relaxed);
  } else {
    tally->other_status.fetch_add(1, std::memory_order_relaxed);
  }
}

bool WantVerify(const Options& options, uint64_t id) {
  if (options.op == "verify") return true;
  if (options.op == "answer") return false;
  return id % 2 == 1;  // mixed
}

void RunConnection(const Options& options, size_t conn_index,
                   size_t my_requests, Tally* tally) {
  const net::HostPort& endpoint =
      options.endpoints[conn_index % options.endpoints.size()];
  auto client = ConnectWithRetry(options, endpoint);
  if (!client.ok()) {
    tally->connect_failures.fetch_add(1, std::memory_order_relaxed);
    tally->lost.fetch_add(my_requests, std::memory_order_relaxed);
    return;
  }

  std::vector<std::string> fingerprints;
  if (options.put_table) {
    fingerprints =
        RegisterTables(&client.ValueOrDie(), options, endpoint, tally);
    if (fingerprints.size() != options.tables) {
      tally->put_failures.fetch_add(1, std::memory_order_relaxed);
      tally->lost.fetch_add(my_requests, std::memory_order_relaxed);
      return;
    }
  }
  // Ids stay sequential across the put phase and the traffic phase so the
  // per-connection ordering check keeps working.
  const uint64_t id0 = options.put_table ? options.tables : 0;

  std::deque<Clock::time_point> send_times;
  uint64_t next_recv_id = id0 + 1;
  auto build = [&](uint64_t id) {
    size_t variant = (conn_index + id) % options.tables;
    bool verify = WantVerify(options, id);
    return options.put_table
               ? BuildRefRequest(id, variant, fingerprints[variant], verify)
               : BuildRequest(id, variant, verify);
  };
  auto reap_one = [&](int timeout_ms) -> bool {
    auto line = client->RecvTimeout(timeout_ms);
    if (!line.ok()) return false;
    tally->latency_us.Observe(
        std::chrono::duration<double, std::micro>(Clock::now() -
                                                  send_times.front())
            .count());
    send_times.pop_front();
    ScoreResponse(*line, next_recv_id++, tally);
    return true;
  };

  if (options.qps <= 0.0) {
    // Closed loop: a bounded window of outstanding requests.
    for (uint64_t id = id0 + 1; id <= id0 + my_requests; ++id) {
      while (send_times.size() >= options.pipeline) {
        if (!reap_one(options.timeout_ms)) goto drain;
      }
      std::string request = build(id);
      send_times.push_back(Clock::now());
      if (!client->Send(request).ok()) break;
      tally->sent.fetch_add(1, std::memory_order_relaxed);
    }
  } else {
    // Open loop: fixed send schedule, responses reaped opportunistically.
    double per_conn_qps =
        options.qps / static_cast<double>(options.connections);
    auto interval = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / per_conn_qps));
    Clock::time_point next_send = Clock::now();
    for (uint64_t id = id0 + 1; id <= id0 + my_requests; ++id) {
      while (Clock::now() < next_send) {
        if (!send_times.empty()) {
          reap_one(0);  // poll; never delays the schedule
        } else {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      }
      std::string request = build(id);
      send_times.push_back(Clock::now());
      if (!client->Send(request).ok()) break;
      tally->sent.fetch_add(1, std::memory_order_relaxed);
      next_send += interval;
    }
  }

drain:
  while (!send_times.empty()) {
    if (!reap_one(options.timeout_ms)) break;
  }
  tally->lost.fetch_add(send_times.size(), std::memory_order_relaxed);
}

int Fail(const std::string& message) {
  std::cerr << "uctr_load: " << message << "\n";
  return 2;
}

std::string Fixed(double v, int decimals = 1) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string connect, router;
  FlagSet flags;
  flags.String("connect", &connect);
  flags.String("router", &router);
  flags.Uint("connections", &options.connections);
  flags.Uint("requests", &options.requests);
  flags.Double("qps", &options.qps);
  flags.Uint("pipeline", &options.pipeline);
  flags.Uint("tables", &options.tables);
  flags.Bool("put-table", &options.put_table);
  flags.Uint("put-retries", &options.put_retries);
  flags.String("op", &options.op);
  flags.Uint("timeout-ms", &options.timeout_ms);
  if (Status s = flags.Parse(argc, argv, 1); !s.ok()) {
    return Fail(s.ToString());
  }
  if (connect.empty() == router.empty()) {
    return Fail(
        "usage: uctr_load --connect HOST:PORT | "
        "--router HOST:PORT[,HOST:PORT...] [--connections N] "
        "[--requests N] [--qps Q] [--pipeline D] [--tables T] "
        "[--put-table] [--put-retries N] [--op verify|answer|mixed] "
        "[--timeout-ms N]");
  }
  auto endpoints =
      net::ParseHostPortList(connect.empty() ? router : connect);
  if (!endpoints.ok()) {
    return Fail((connect.empty() ? "--router: " : "--connect: ") +
                endpoints.status().ToString());
  }
  options.endpoints = std::move(*endpoints);
  if (options.put_retries < 1) return Fail("--put-retries must be >= 1");
  if (options.connections == 0 || options.pipeline == 0 ||
      options.tables == 0) {
    return Fail("--connections, --pipeline, and --tables must be positive");
  }
  if (options.op != "verify" && options.op != "answer" &&
      options.op != "mixed") {
    return Fail("--op must be verify, answer, or mixed");
  }

  Tally tally;
  std::vector<std::thread> workers;
  workers.reserve(options.connections);
  Clock::time_point start = Clock::now();
  for (size_t c = 0; c < options.connections; ++c) {
    size_t base = options.requests / options.connections;
    size_t extra = c < options.requests % options.connections ? 1 : 0;
    workers.emplace_back(RunConnection, options, c, base + extra, &tally);
  }
  for (auto& worker : workers) worker.join();
  double wall_s = std::chrono::duration<double>(Clock::now() - start).count();

  uint64_t sent = tally.sent.load();
  uint64_t received = tally.received.load();
  uint64_t lost = tally.lost.load() + (sent - received);
  std::cout << "uctr_load: " << options.connections << " connections over "
            << options.endpoints.size() << " endpoint"
            << (options.endpoints.size() == 1 ? "" : "s") << ", "
            << options.requests << " requests, "
            << (options.qps > 0.0
                    ? "open loop @ " + Fixed(options.qps, 0) + " qps"
                    : "closed loop (pipeline " +
                          std::to_string(options.pipeline) + ")")
            << ", op " << options.op
            << (options.put_table ? ", table_ref (put-table)" : "") << "\n";
  std::cout << "  sent " << sent << ", responses " << received << " (ok "
            << tally.ok.load() << ", error " << tally.error.load()
            << ", rejected " << tally.rejected.load() << ", timeout "
            << tally.timeout.load() << ", other "
            << tally.other_status.load() << ")\n";
  std::cout << "  lost " << lost << ", reordered " << tally.reordered.load()
            << ", connect failures " << tally.connect_failures.load();
  if (options.put_table) {
    std::cout << ", put failures " << tally.put_failures.load();
  }
  std::cout << "\n";
  std::cout << "  wall " << Fixed(wall_s, 2) << " s, achieved "
            << Fixed(received / (wall_s > 0 ? wall_s : 1.0), 0)
            << " resp/s\n";
  const obs::Histogram& h = tally.latency_us;
  std::cout << "  transport latency us: mean " << Fixed(h.mean_micros(), 0)
            << "  p50 " << Fixed(h.QuantileMicros(0.50), 0) << "  p90 "
            << Fixed(h.QuantileMicros(0.90), 0) << "  p99 "
            << Fixed(h.QuantileMicros(0.99), 0) << "  p99.9 "
            << Fixed(h.QuantileMicros(0.999), 0) << "\n";
  if (options.put_table) {
    const obs::Histogram& r = tally.registry_us;
    std::cout << "  registry latency us (" << r.count()
              << " put_table round-trips): mean " << Fixed(r.mean_micros(), 0)
              << "  p50 " << Fixed(r.QuantileMicros(0.50), 0) << "  p90 "
              << Fixed(r.QuantileMicros(0.90), 0) << "  p99 "
              << Fixed(r.QuantileMicros(0.99), 0) << "\n";
  }

  bool clean = lost == 0 && tally.reordered.load() == 0 &&
               tally.connect_failures.load() == 0 &&
               tally.put_failures.load() == 0 &&
               received == options.requests;
  std::cout << (clean ? "RESULT: clean" : "RESULT: FAILED") << "\n";
  return clean ? 0 : 1;
}
