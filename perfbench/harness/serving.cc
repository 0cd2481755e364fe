#include "serving.h"

#include <poll.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdlib>
#include <atomic>
#include <deque>
#include <fstream>
#include <mutex>
#include <thread>

#include "common/json.h"
#include "model/qa_model.h"
#include "serve/engine.h"

namespace perfbench {

using namespace uctr;

namespace {

constexpr int kSetupReps = 5;
/// Responses of the first kCheckedPrefix stream positions are compared
/// byte for byte with the in-process engine and digested.
constexpr size_t kCheckedPrefix = 64;
/// hot-churn is scored only when the generator kept its schedule: p99
/// lateness above this marks the run invalid.
constexpr double kMaxLatenessP99Ms = 10.0;

std::string WeightsPath(const Args& args, const char* which) {
  return args.work_dir + "/" + which + ".weights.txt";
}

Status WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  out.flush();
  return out ? Status::OK() : Status::Internal("cannot write " + path);
}

/// Outcome of one load phase. Latencies are per completed request, paired
/// with the completion time in seconds since the phase started.
struct LoadResult {
  std::vector<std::pair<double, double>> latency_ms;  ///< verify and answer
  std::vector<std::pair<double, double>> put_ms;      ///< put_table
  std::vector<std::pair<double, double>> ok_at;       ///< ok responses
  std::vector<double> lateness_ms; ///< send time minus scheduled time
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;   ///< status other than ok
  uint64_t queries = 0;  ///< verify + answer
  uint64_t right = 0;    ///< verify + answer equal to gold
  std::vector<std::string> prefix;  ///< bodies of the first stream positions
  std::string error;     ///< lost, reordered or unparseable response
  double elapsed_s = 0.0;
  bool exhausted = false;
};

class ResultSink {
 public:
  explicit ResultSink(LoadResult* out) : out_(out) {
    out_->prefix.assign(kCheckedPrefix, "");
  }
  /// Accounts one response of stream position `index`.
  void Add(const Request& request, size_t index, const std::string& payload,
           double latency_ms, double done_s) {
    Result<Response> response = ParseResponse(payload);
    std::lock_guard<std::mutex> lock(mu_);
    ++out_->attempted;
    if (!response.ok()) {
      Fail("unparseable response: " + payload.substr(0, 200));
      return;
    }
    if (response->id != index + 1) {
      Fail("response id " + std::to_string(response->id) + " for request " +
           std::to_string(index + 1));
      return;
    }
    (request.op == Op::kPut ? out_->put_ms : out_->latency_ms)
        .emplace_back(done_s, latency_ms);
    if (request.op != Op::kPut) ++out_->queries;
    if (response->status != "ok") {
      ++out_->failed;
      return;
    }
    ++out_->ok;
    out_->ok_at.emplace_back(done_s, 1.0);
    if (request.op == Op::kPut && response->body != request.gold) {
      Fail("put_table fingerprint " + response->body + ", expected " +
           request.gold);
    }
    if (request.op != Op::kPut && MatchesGold(request, response->body)) {
      ++out_->right;
    }
    if (index < kCheckedPrefix) out_->prefix[index] = response->body;
  }
  void Fail(const std::string& error) {
    if (out_->error.empty()) out_->error = error;
  }
  void FailLocked(const std::string& error) {
    std::lock_guard<std::mutex> lock(mu_);
    Fail(error);
  }

 private:
  std::mutex mu_;
  LoadResult* out_;
};

/// Closed loop: each of LoadThreads() connections sends its next request
/// only after the previous response arrived. Stops after `seconds` (or at
/// the end of `requests` when seconds <= 0).
LoadResult ClosedLoop(uint16_t port, const std::vector<Request>& requests,
                      double seconds) {
  LoadResult out;
  ResultSink sink(&out);
  std::atomic<size_t> next{0};
  std::atomic<bool> exhausted{false};
  auto start = Clock::now();
  std::vector<std::thread> threads;
  for (size_t t = 0; t < LoadThreads(); ++t) {
    threads.emplace_back([&] {
      Result<net::Client> client = net::Client::Connect("127.0.0.1", port);
      if (!client.ok()) {
        sink.FailLocked("connect: " + client.status().ToString());
        return;
      }
      while (seconds <= 0 || SecondsSince(start) < seconds) {
        size_t i = next.fetch_add(1);
        if (i >= requests.size()) {
          if (seconds > 0) exhausted = true;
          return;
        }
        auto sent = Clock::now();
        Result<std::string> reply = client->Call(requests[i].line);
        auto received = Clock::now();
        if (!reply.ok()) {
          sink.FailLocked("lost response to request " + std::to_string(i + 1) +
                          ": " + reply.status().ToString());
          return;
        }
        sink.Add(requests[i], i, *reply, MicrosBetween(sent, received) / 1e3,
                 std::chrono::duration<double>(received - start).count());
      }
    });
  }
  for (std::thread& th : threads) th.join();
  out.elapsed_s = SecondsSince(start);
  out.exhausted = exhausted;
  return out;
}

/// Open loop: request i is due at start + i / rate regardless of earlier
/// responses; latency counts from the due time. Puts go on their own
/// connection and reads round-robin over the others, so a read never
/// queues behind a put in a connection's ordered response stream. One
/// thread sends, one receives.
LoadResult OpenLoop(uint16_t port, const std::vector<Request>& requests,
                    double rate) {
  LoadResult out;
  ResultSink sink(&out);
  size_t conns = std::max<size_t>(2, LoadThreads() - 1);
  std::vector<net::Client> clients;
  for (size_t c = 0; c < conns; ++c) {
    Result<net::Client> client = net::Client::Connect("127.0.0.1", port);
    if (!client.ok()) {
      out.error = "connect: " + client.status().ToString();
      return out;
    }
    clients.push_back(std::move(*client));
  }
  std::vector<std::deque<size_t>> in_flight(conns);
  std::mutex in_flight_mu;
  std::vector<Clock::time_point> due(requests.size());
  auto start = Clock::now() + std::chrono::milliseconds(5);
  for (size_t i = 0; i < requests.size(); ++i) {
    due[i] = start + std::chrono::nanoseconds(static_cast<int64_t>(
                         1e9 * static_cast<double>(i) / rate));
  }
  std::atomic<bool> send_failed{false};
  std::thread sender([&] {
    size_t reads = 0;
    for (size_t i = 0; i < requests.size(); ++i) {
      std::this_thread::sleep_until(due[i]);
      size_t c = requests[i].op == Op::kPut ? 0 : 1 + reads++ % (conns - 1);
      out.lateness_ms.push_back(MicrosBetween(due[i], Clock::now()) / 1e3);
      {
        std::lock_guard<std::mutex> lock(in_flight_mu);
        in_flight[c].push_back(i);
      }
      Status sent = clients[c].Send(requests[i].line);
      if (!sent.ok()) {
        sink.FailLocked("send: " + sent.ToString());
        send_failed = true;
        return;
      }
    }
  });
  std::vector<struct pollfd> fds(conns);
  size_t received = 0;
  auto give_up = due.back() + std::chrono::seconds(20);
  while (received < requests.size() && !send_failed && Clock::now() < give_up) {
    for (size_t c = 0; c < conns; ++c) fds[c] = {clients[c].fd(), POLLIN, 0};
    if (poll(fds.data(), conns, 50) <= 0) continue;
    for (size_t c = 0; c < conns; ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      while (true) {
        Result<std::string> reply = clients[c].RecvTimeout(0);
        if (!reply.ok()) {
          if (reply.status().code() != StatusCode::kDeadlineExceeded) {
            sink.FailLocked("recv: " + reply.status().ToString());
            received = requests.size();
          }
          break;
        }
        auto now = Clock::now();
        size_t i = 0;
        {
          std::lock_guard<std::mutex> lock(in_flight_mu);
          if (in_flight[c].empty()) {
            sink.FailLocked("response without a request");
            received = requests.size();
            break;
          }
          i = in_flight[c].front();
          in_flight[c].pop_front();
        }
        sink.Add(requests[i], i, *reply, MicrosBetween(due[i], now) / 1e3,
                 std::chrono::duration<double>(now - start).count());
        ++received;
      }
    }
  }
  sender.join();
  if (out.attempted < requests.size() && out.error.empty()) {
    out.error = std::to_string(requests.size() - out.attempted) +
                " responses lost";
  }
  out.attempted = requests.size();
  out.elapsed_s = SecondsSince(start);
  return out;
}

/// Recomputes the first stream positions with the in-process engine and
/// compares them byte for byte with what the stack served.
std::string CheckPrefix(const ServingInputs& in, const LoadResult& load) {
  Result<serve::InferenceEngine> engine = serve::InferenceEngine::Create(
      serve::EngineConfig(), in.verifier_weights, in.qa_weights);
  if (!engine.ok()) return "engine: " + engine.status().ToString();
  size_t n = std::min<size_t>(kCheckedPrefix, in.stream.size());
  for (size_t i = 0; i < n && i < load.ok; ++i) {
    const Request& r = in.stream[i];
    std::string expected = r.gold;
    if (r.op != Op::kPut) {
      std::string csv = r.csv;
      for (size_t t = 0; t < in.table_refs.size(); ++t) {
        if (in.table_refs[t] == r.table_ref) csv = in.tables[t];
      }
      Table table = Table::FromCsv(csv).ValueOrDie();
      table.WarmIndex();
      expected = r.op == Op::kVerify
                     ? engine->Verify(table, r.query, r.paragraph)
                     : engine->Answer(table, r.query, r.paragraph);
    }
    if (load.prefix[i] != expected) {
      return "request " + std::to_string(i + 1) + " served '" +
             load.prefix[i] + "', in-process engine says '" + expected + "'";
    }
  }
  return "";
}

}  // namespace

size_t LoadThreads() {
  return std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);
}

double Stack::Stop() {
  double rss = router.Stop();
  for (Child& backend : backends) rss += backend.Stop();
  return rss;
}

Result<Response> ParseResponse(const std::string& payload) {
  UCTR_ASSIGN_OR_RETURN(json::Value value, json::Parse(payload));
  if (!value.is_object()) {
    return Status::ParseError("response is not an object");
  }
  const json::Value::Object& obj = value.as_object();
  Response r;
  double id = json::GetNumberOr(obj, "id", -1);
  if (id < 0) return Status::ParseError("response has no id");
  r.id = static_cast<uint64_t>(id);
  r.status = json::GetStringOr(obj, "status", "");
  if (r.status.empty()) return Status::ParseError("response has no status");
  for (const char* field : {"label", "answer", "fingerprint"}) {
    if (obj.count(field) != 0) r.body = json::GetStringOr(obj, field, "");
  }
  return r;
}

bool MatchesGold(const Request& request, const std::string& body) {
  return request.op == Op::kVerify ? body == request.gold
                                   : model::AnswersMatch(body, request.gold);
}

Result<std::string> FetchStats(uint16_t port) {
  UCTR_ASSIGN_OR_RETURN(net::Client client,
                        net::Client::Connect("127.0.0.1", port));
  return client.Call("{\"id\":1,\"op\":\"stats\"}");
}

double StatValue(const std::string& stats, const std::string& key) {
  std::string needle = "\"" + key + "\":";
  size_t at = stats.find(needle);
  if (at == std::string::npos) return 0.0;
  return std::strtod(stats.c_str() + at + needle.size(), nullptr);
}

Result<Stack> SetUp(const Args& args, const ServingInputs& in, int instance) {
  Stack stack;
  bool churn = args.workload == "hot-churn";
  std::string tag = std::to_string(instance);
  for (int b = 0; b < (churn ? 2 : 1); ++b) {
    std::vector<std::string> argv = {
        args.bin_dir + "/uctr/serve/uctr_serve", "serve", "--listen",
        "127.0.0.1:0", "--workers", std::to_string(LoadThreads()),
        "--verifier_weights", WeightsPath(args, "verifier"), "--qa_weights",
        WeightsPath(args, "qa")};
    if (churn) {
      // fsync never: the benchmark measures the WAL path, not the disk.
      std::string dir =
          args.work_dir + "/store-" + tag + "-" + std::to_string(b);
      mkdir(dir.c_str(), 0755);
      argv.insert(argv.end(), {"--store-dir", dir, "--store-fsync", "never"});
    }
    UCTR_ASSIGN_OR_RETURN(
        Child child,
        Child::Spawn(argv, args.work_dir + "/serve-" + tag + "-" +
                               std::to_string(b) + ".log"));
    UCTR_ASSIGN_OR_RETURN(uint16_t port, child.WaitListening(30000));
    stack.backends.push_back(std::move(child));
    stack.backend_ports.push_back(port);
  }
  stack.port = stack.backend_ports[0];
  if (churn) {
    std::string backends;
    for (uint16_t port : stack.backend_ports) {
      backends += (backends.empty() ? "" : ",") + std::string("127.0.0.1:") +
                  std::to_string(port);
    }
    UCTR_ASSIGN_OR_RETURN(
        stack.router,
        Child::Spawn({args.bin_dir + "/uctr/net/uctr_router", "--listen",
                      "127.0.0.1:0", "--backends", backends, "--put-replicas",
                      "2", "--workers", std::to_string(LoadThreads())},
                     args.work_dir + "/router-" + tag + ".log"));
    UCTR_ASSIGN_OR_RETURN(stack.port, stack.router.WaitListening(30000));
  }

  UCTR_ASSIGN_OR_RETURN(net::Client client,
                        net::Client::Connect("127.0.0.1", stack.port));
  for (size_t t = 0; t < in.tables.size(); ++t) {
    Request put;
    put.op = Op::kPut;
    put.csv = in.tables[t];
    UCTR_ASSIGN_OR_RETURN(std::string reply,
                          client.Call(RequestLine(put, t + 1)));
    UCTR_ASSIGN_OR_RETURN(Response response, ParseResponse(reply));
    if (response.status != "ok" || response.body != in.table_refs[t]) {
      return Status::Internal("put_table answered " + reply);
    }
  }
  LoadResult warm = ClosedLoop(stack.port, in.warmup, 0);
  if (!warm.error.empty() || warm.failed != 0) {
    return Status::Internal("warm-up failed: " + warm.error);
  }
  return stack;
}

int RunServing(const Args& args) {
  bool churn = args.workload == "hot-churn";
  // Closed-loop streams hold more distinct requests than a run can send.
  double expected_rps = args.workload == "ref-1k" ? 1500 : 6000;
  size_t stream_size =
      churn ? static_cast<size_t>(kChurnRate * args.seconds)
            : static_cast<size_t>(expected_rps * args.seconds);
  ServingInputs in = BuildServingInputs(args.workload, args.seed, stream_size);
  for (const char* which : {"verifier", "qa"}) {
    Status s = WriteText(WeightsPath(args, which),
                         which[0] == 'v' ? in.verifier_weights : in.qa_weights);
    if (!s.ok()) {
      std::cerr << "perfbench: " << s.ToString() << "\n";
      return 1;
    }
  }
  if (args.trace) return RunServingTraced(args, in);

  std::vector<double> setup_s;
  Stack stack;
  for (int k = 0; k < kSetupReps; ++k) {
    auto start = Clock::now();
    Result<Stack> up = SetUp(args, in, k);
    if (!up.ok()) {
      std::cerr << "perfbench: set-up failed: " << up.status().ToString()
                << "\n";
      return 1;
    }
    setup_s.push_back(SecondsSince(start));
    if (k + 1 < kSetupReps) {
      up->Stop();
    } else {
      stack = std::move(*up);
    }
  }

  LoadResult load = churn ? OpenLoop(stack.port, in.stream, kChurnRate)
                          : ClosedLoop(stack.port, in.stream, args.seconds);
  double rss_mb = stack.Stop();

  std::string error = load.error;
  if (error.empty()) error = CheckPrefix(in, load);
  Digest digest;
  for (const std::string& body : load.prefix) digest.Add(body);

  Report report;
  auto values = [](const std::vector<std::pair<double, double>>& samples) {
    std::vector<double> out;
    for (const auto& [at, value] : samples) out.push_back(value);
    return out;
  };
  Summary latency = Summarize(values(load.latency_ms));
  Summary lateness = Summarize(load.lateness_ms);
  Windowed windowed = ByWindow(load.latency_ms, 1.0, load.elapsed_s);
  Windowed throughput = ByWindow(load.ok_at, 1.0, load.elapsed_s);
  bool late = churn && lateness.p99 > kMaxLatenessP99Ms;
  double accuracy = load.queries == 0 ? 0.0
                                      : static_cast<double>(load.right) /
                                            static_cast<double>(load.queries);
  report.Note("workload " + args.workload + " seed " +
              std::to_string(args.seed) + (churn ? " open loop at " +
              std::to_string(static_cast<int>(kChurnRate)) + " req/s"
              : " closed loop, " + std::to_string(LoadThreads()) +
              " connections") + ", stream of " +
              std::to_string(in.stream.size()) + " requests; rates and latency "
              "quantiles are medians over " +
              std::to_string(windowed.windows) + " 1-s windows");
  report.Add("setup_s", Median(setup_s), "s");
  report.DetailSummary("setup_s (each set-up)", Summarize(setup_s), "s");
  report.Add("rss_mb", rss_mb, "MB");
  report.Add("ops_per_s", throughput.rate, "1/s");
  report.Add("latency_p50_ms", windowed.p50, "ms");
  report.Detail("latency_p99_ms", windowed.p99, "ms");
  report.Add("accuracy", accuracy, "ratio");
  report.DetailSummary("latency_ms (whole run)", latency, "ms");
  if (!churn) {
    report.Detail("throughput_rps", throughput.rate, "1/s");
  } else {
    // Puts are too few per window for a windowed p99.
    Summary put = Summarize(values(load.put_ms));
    report.Detail("put_p50_ms", put.p50, "ms");
    report.Detail("put_p99_ms", put.p99, "ms");
    report.DetailSummary("put_ms (whole run)", put, "ms");
    report.DetailSummary("lateness_ms", lateness, "ms");
    report.Detail("lateness_p50_ms", lateness.p50, "ms");
    report.Detail("lateness_p99_ms", lateness.p99, "ms");
  }
  report.Detail("answer_accuracy", accuracy, "ratio");
  report.Note("response_digest " + digest.Hex() + " over the first " +
              std::to_string(kCheckedPrefix) + " requests");
  if (load.exhausted) report.Note("warning: request stream exhausted early");
  if (late) {
    error = "invalid run: generator p99 lateness " +
            std::to_string(lateness.p99) + " ms exceeds " +
            std::to_string(kMaxLatenessP99Ms) + " ms";
  }
  if (!error.empty()) report.Note("check failed: " + error);
  report.Print(error.empty(), load.attempted, load.failed);
  return error.empty() ? 0 : 1;
}

}  // namespace perfbench
