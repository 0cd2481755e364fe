// bench_serving — throughput and latency of the serving subsystem.
//
// Measures the full request path (JSON parse -> cache probe -> scheduler
// queue -> engine inference -> response) at 1/2/4/8 workers, and checks
// that the ordered response stream is byte-identical at every worker
// count. Three passes per worker count:
//
// --store runs the table-store comparison instead: the same request
// stream against one server carrying a 1k-row fixture inline in every
// request vs another serving it by `table_ref` after one `put_table`,
// measuring per-request table-parse + index-warm cost from the serving
// histograms and writing the numbers to BENCH_store.json. Exit 0 requires
// byte-identical responses and a >= 10x parse+warm reduction.
//
//   serve  — cold cache, with a simulated per-request evidence fetch
//            (a 1.5 ms worker-thread stall via ServerConfig::
//            pre_execute_hook, standing in for the storage/network I/O a
//            deployed service overlaps with compute). This isolates the
//            scheduler's ability to overlap waiting requests, so the
//            worker-count scaling is visible on any core count.
//   cold   — cold cache, pure CPU (no stall): raw inference cost.
//   warm   — same stream repeated: every request is a cache hit.
//
// Build & run:  ./build/bench/bench_serving

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "common/rng.h"
#include "fault/fault.h"
#include "gen/generator.h"
#include "net/client.h"
#include "net/server.h"
#include "program/library.h"
#include "program/program.h"
#include "serve/engine.h"
#include "serve/server.h"
#include "table/table.h"

namespace {

using namespace uctr;
using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

std::string EscapeForJson(const std::string& csv) {
  std::string out;
  for (char c : csv) {
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

/// Distinct medal-style tables: same schema, different numbers, so every
/// (table, query) pair is a distinct cache key with comparable work.
std::string MakeCsv(int variant) {
  auto cell = [&](int base) { return std::to_string(base + variant); };
  return "nation,gold,silver,bronze,total\n"
         "united states," + cell(10) + "," + cell(12) + "," + cell(8) + "," +
         cell(30) + "\n"
         "china," + cell(8) + "," + cell(6) + "," + cell(10) + "," +
         cell(24) + "\n"
         "japan," + cell(5) + "," + cell(9) + "," + cell(4) + "," +
         cell(18) + "\n"
         "germany," + cell(5) + "," + cell(3) + "," + cell(6) + "," +
         cell(14) + "\n";
}

std::vector<std::string> BuildRequests(int num_tables) {
  std::vector<std::string> requests;
  uint64_t id = 0;
  for (int t = 0; t < num_tables; ++t) {
    std::string csv = EscapeForJson(MakeCsv(t));
    for (const char* nation : {"united states", "china", "japan"}) {
      requests.push_back(
          "{\"id\":" + std::to_string(++id) +
          ",\"op\":\"verify\",\"table\":\"" + csv +
          "\",\"query\":\"The gold of the row whose nation is " + nation +
          " is " + std::to_string(7 + t) + ".\"}");
    }
    for (const char* nation : {"united states", "germany", "japan"}) {
      requests.push_back(
          "{\"id\":" + std::to_string(++id) +
          ",\"op\":\"answer\",\"table\":\"" + csv +
          "\",\"query\":\"What was the gold of the row whose nation is " +
          std::string(nation) + "?\"}");
    }
  }
  return requests;
}

struct PassResult {
  double millis = 0.0;
  std::vector<std::string> responses;
};

PassResult RunPass(serve::Server* server,
                   const std::vector<std::string>& requests) {
  PassResult result;
  std::mutex mu;
  serve::OrderedResponseWriter writer(
      [&result, &mu](const std::string& line) {
        std::lock_guard<std::mutex> lock(mu);
        result.responses.push_back(line);
      });
  Clock::time_point start = Clock::now();
  for (const std::string& request : requests) {
    uint64_t seq = writer.NextSequence();
    server->SubmitLine(request, [seq, &writer](std::string response) {
      writer.Write(seq, std::move(response));
    });
  }
  server->Drain();
  result.millis = MillisSince(start);
  return result;
}

std::string Fixed(double v, int decimals = 1) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

/// The same request stream through the loopback TCP front end: one
/// pipelined connection with a bounded in-flight window, so the
/// difference against RunPass is exactly the transport (framing, epoll,
/// socket hops) and not a different concurrency pattern.
PassResult RunNetPass(serve::Server* backend,
                      const std::vector<std::string>& requests) {
  net::NetServerConfig net_config;
  net::Server net_server(backend, net_config);
  Status started = net_server.Start();
  if (!started.ok()) {
    std::cerr << "bench_serving: " << started.ToString() << "\n";
    std::exit(1);
  }
  std::thread loop([&net_server] { net_server.Run(); });
  auto client = net::Client::Connect("127.0.0.1", net_server.port());
  if (!client.ok()) {
    std::cerr << "bench_serving: " << client.status().ToString() << "\n";
    std::exit(1);
  }
  constexpr size_t kWindow = 128;  // below the server pipeline limit
  PassResult result;
  Clock::time_point start = Clock::now();
  size_t sent = 0;
  while (result.responses.size() < requests.size()) {
    while (sent < requests.size() && sent - result.responses.size() < kWindow) {
      Status s = client->Send(requests[sent]);
      if (!s.ok()) {
        std::cerr << "bench_serving: " << s.ToString() << "\n";
        std::exit(1);
      }
      ++sent;
    }
    auto response = client->Recv();
    if (!response.ok()) {
      std::cerr << "bench_serving: " << response.status().ToString() << "\n";
      std::exit(1);
    }
    result.responses.push_back(std::move(response).ValueOrDie());
  }
  result.millis = MillisSince(start);
  client->Close();
  net_server.Shutdown();
  loop.join();
  return result;
}

/// A 1k-row medal-style fixture: large enough that CSV parse + index warm
/// dominate per-request cost when the table travels inline.
std::string MakeBigCsv(int rows) {
  std::string csv = "nation,gold,silver,bronze,total\n";
  for (int i = 0; i < rows; ++i) {
    int gold = (i * 7) % 97, silver = (i * 5) % 89, bronze = (i * 3) % 83;
    csv += "nation" + std::to_string(i) + "," + std::to_string(gold) + "," +
           std::to_string(silver) + "," + std::to_string(bronze) + "," +
           std::to_string(gold + silver + bronze) + "\n";
  }
  return csv;
}

/// The --store comparison: inline 1k-row tables vs table_ref against a
/// registered copy. Returns true iff responses are byte-identical and the
/// per-request table-parse + index-warm cost shrinks by >= 10x.
bool RunStoreComparison(const serve::InferenceEngine& engine) {
  constexpr int kRows = 1000;
  constexpr int kRequests = 200;
  const std::string csv = MakeBigCsv(kRows);
  const std::string escaped = EscapeForJson(csv);

  // Distinct claims per request, so neither pass ever hits the result
  // cache and every request pays (or skips) the full evidence cost.
  auto claim = [](int i) {
    int row = i % kRows;
    return "The gold of the row whose nation is nation" +
           std::to_string(row) + " is " + std::to_string((row * 7) % 97) +
           ".";
  };
  std::vector<std::string> inline_requests, ref_requests;
  for (int i = 0; i < kRequests; ++i) {
    inline_requests.push_back("{\"id\":" + std::to_string(i + 1) +
                              ",\"op\":\"verify\",\"table\":\"" + escaped +
                              "\",\"query\":\"" + claim(i) + "\"}");
  }

  serve::ServerConfig config;
  config.scheduler.num_workers = 4;
  config.scheduler.queue_capacity = kRequests + 1;

  // Pass 1: the table travels inline in every request.
  obs::MetricsRegistry inline_metrics;
  config.metrics = &inline_metrics;
  serve::Server inline_server(&engine, config);
  PassResult inline_pass = RunPass(&inline_server, inline_requests);
  double inline_parse =
      inline_metrics.histogram("latency_table_parse_us")->sum_micros();
  double inline_warm =
      inline_metrics.histogram("latency_index_warm_us")->sum_micros();

  // Pass 2: one put_table, then the same stream by fingerprint.
  obs::MetricsRegistry ref_metrics;
  config.metrics = &ref_metrics;
  serve::Server ref_server(&engine, config);
  std::string put_response = ref_server.HandleLine(
      "{\"id\":0,\"op\":\"put_table\",\"table\":\"" + escaped + "\"}");
  size_t fp_pos = put_response.find("\"fingerprint\":\"");
  if (fp_pos == std::string::npos) {
    std::cerr << "bench_serving: put_table failed: " << put_response << "\n";
    return false;
  }
  std::string fingerprint = put_response.substr(fp_pos + 15, 16);
  // Snapshot after registration so the one-time put cost (which the
  // histograms also record) stays out of the per-request delta.
  double put_parse =
      ref_metrics.histogram("latency_table_parse_us")->sum_micros();
  double put_warm =
      ref_metrics.histogram("latency_index_warm_us")->sum_micros();
  for (int i = 0; i < kRequests; ++i) {
    ref_requests.push_back("{\"id\":" + std::to_string(i + 1) +
                           ",\"op\":\"verify\",\"table_ref\":\"" +
                           fingerprint + "\",\"query\":\"" + claim(i) +
                           "\"}");
  }
  PassResult ref_pass = RunPass(&ref_server, ref_requests);
  double ref_resolve =
      ref_metrics.histogram("latency_table_parse_us")->sum_micros() -
      put_parse;
  double ref_warm =
      ref_metrics.histogram("latency_index_warm_us")->sum_micros() - put_warm;

  double n = static_cast<double>(kRequests);
  double inline_us = (inline_parse + inline_warm) / n;
  double ref_us = (ref_resolve + ref_warm) / n;
  double reduction = ref_us > 0.0 ? inline_us / ref_us : 1e9;
  bool identical = inline_pass.responses == ref_pass.responses;
  bool fast_enough = reduction >= 10.0;

  std::cout << "table store comparison (" << kRows << "-row fixture, "
            << kRequests << " cache-missing verify requests, 4 workers):\n"
            << "  inline JSON   parse+warm " << Fixed(inline_us) << " us/req"
            << " (parse " << Fixed(inline_parse / n) << ", warm "
            << Fixed(inline_warm / n) << "), wall "
            << Fixed(inline_pass.millis) << " ms\n"
            << "  table_ref     resolve    " << Fixed(ref_us) << " us/req"
            << ", wall " << Fixed(ref_pass.millis) << " ms\n"
            << "  evidence-cost reduction " << Fixed(reduction) << "x ("
            << (fast_enough ? "PASS" : "FAIL — need >= 10x") << ")\n"
            << "  responses " << (identical ? "byte-identical" : "DIVERGE")
            << " across the two transports (" << inline_pass.responses.size()
            << " responses)\n"
            << "  end-to-end wall speedup "
            << Fixed(inline_pass.millis / ref_pass.millis, 2) << "x\n";

  std::ofstream out("BENCH_store.json");
  out << "{\n"
      << "  \"fixture_rows\": " << kRows << ",\n"
      << "  \"requests\": " << kRequests << ",\n"
      << "  \"inline\": {\"table_parse_us_per_req\": "
      << Fixed(inline_parse / n, 2) << ", \"index_warm_us_per_req\": "
      << Fixed(inline_warm / n, 2) << ", \"wall_ms\": "
      << Fixed(inline_pass.millis, 2) << "},\n"
      << "  \"table_ref\": {\"resolve_us_per_req\": " << Fixed(ref_us, 2)
      << ", \"wall_ms\": " << Fixed(ref_pass.millis, 2) << "},\n"
      << "  \"evidence_cost_reduction_x\": " << Fixed(reduction, 2) << ",\n"
      << "  \"wall_speedup_x\": "
      << Fixed(inline_pass.millis / ref_pass.millis, 2) << ",\n"
      << "  \"byte_identical\": " << (identical ? "true" : "false") << ",\n"
      << "  \"pass\": " << (identical && fast_enough ? "true" : "false")
      << "\n}\n";
  std::cout << "  wrote BENCH_store.json\n";
  return identical && fast_enough;
}

}  // namespace

int main(int argc, char** argv) {
  // --fault-spec SPEC [--fault-seed N]: run the whole bench with the
  // deterministic fault injector armed, to measure the latency/throughput
  // cost of faults (parse errors, admission rejects, latency spikes).
  bool with_net = false;
  bool store_only = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char* what) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "bench_serving: " << what << " needs a value\n";
        std::exit(1);
      }
      return argv[++i];
    };
    if (arg == "--fault-spec") {
      Status s = fault::FaultInjector::Global().ArmSpec(value("--fault-spec"));
      if (!s.ok()) {
        std::cerr << "bench_serving: " << s.ToString() << "\n";
        return 1;
      }
    } else if (arg == "--fault-seed") {
      fault::FaultInjector::Global().Seed(std::stoull(value("--fault-seed")));
    } else if (arg == "--net") {
      with_net = true;
    } else if (arg == "--store") {
      store_only = true;
    } else {
      std::cerr << "bench_serving: unknown flag " << arg
                << " (--fault-spec SPEC, --fault-seed N, --net, --store)\n";
      return 1;
    }
  }
  // Train once through the same path `uctr_serve train` uses, so the
  // bench serves real weights rather than zero-initialized models.
  Rng rng(42);
  static const TemplateLibrary& library = TemplateLibrary::Builtin();
  TableWithText demo;
  demo.table = Table::FromCsv(MakeCsv(0), "medal table").ValueOrDie();

  serve::EngineConfig engine_config;
  GenerationConfig claim_config;
  claim_config.task = TaskType::kFactVerification;
  claim_config.program_types = {ProgramType::kLogicalForm};
  claim_config.samples_per_table = 30;
  Generator claim_gen(claim_config, &library, &rng);
  model::VerifierModel verifier(engine_config.verifier,
                                serve::InferenceEngine::VerifierTemplates());
  Dataset claims;
  claims.samples = claim_gen.GenerateFromTable(demo);
  verifier.Train(claims, &rng);

  GenerationConfig qa_config;
  qa_config.task = TaskType::kQuestionAnswering;
  qa_config.program_types = {ProgramType::kSql, ProgramType::kArithmetic};
  qa_config.samples_per_table = 30;
  Generator qa_gen(qa_config, &library, &rng);
  model::QaModel qa(engine_config.qa, serve::InferenceEngine::QaTemplates());
  Dataset questions;
  questions.samples = qa_gen.GenerateFromTable(demo);
  qa.Train(questions, &rng);

  serve::InferenceEngine engine =
      serve::InferenceEngine::Create(engine_config, verifier.SaveWeights(),
                                     qa.SaveWeights())
          .ValueOrDie();

  if (store_only) return RunStoreComparison(engine) ? 0 : 1;

  const std::vector<std::string> requests = BuildRequests(/*num_tables=*/24);
  std::cout << "serving benchmark: " << requests.size()
            << " requests (verify + answer), hardware threads: "
            << std::thread::hardware_concurrency() << "\n\n";

  static constexpr int kSimulatedFetchMicros = 1500;
  bench::TablePrinter table({"workers", "serve req/s", "cold req/s",
                             "warm req/s", "warm speedup"});
  std::vector<std::string> responses_at_1, responses_at_8;
  std::vector<double> serve_throughput;
  double cold_mean_us = 0.0, warm_mean_us = 0.0;
  double n = static_cast<double>(requests.size());
  for (size_t workers : {1u, 2u, 4u, 8u}) {
    serve::ServerConfig config;
    config.scheduler.num_workers = workers;
    config.scheduler.queue_capacity = requests.size() + 1;
    config.cache_capacity = 4 * requests.size();

    // Pass 1: cold cache with the simulated evidence fetch — the
    // serving scenario whose waiting the worker pool overlaps.
    serve::ServerConfig stalled = config;
    stalled.pre_execute_hook = [] {
      std::this_thread::sleep_for(
          std::chrono::microseconds(kSimulatedFetchMicros));
    };
    serve::Server serve_server(&engine, stalled);
    PassResult stalled_cold = RunPass(&serve_server, requests);
    serve_throughput.push_back(n / stalled_cold.millis * 1000.0);

    // Passes 2+3: pure CPU, cold then warm (all cache hits).
    serve::Server server(&engine, config);
    PassResult cold = RunPass(&server, requests);
    PassResult warm = RunPass(&server, requests);
    table.AddRow({std::to_string(workers), Fixed(serve_throughput.back(), 0),
                  Fixed(n / cold.millis * 1000.0, 0),
                  Fixed(n / warm.millis * 1000.0, 0),
                  Fixed(cold.millis / warm.millis) + "x"});
    if (workers == 1) {
      responses_at_1 = stalled_cold.responses;
      cold_mean_us = cold.millis * 1000.0 / n;
      warm_mean_us = warm.millis * 1000.0 / n;
    }
    if (workers == 8) responses_at_8 = stalled_cold.responses;
  }
  table.Print();
  std::cout << "\nserve = cold cache + simulated " << kSimulatedFetchMicros
            << " us evidence fetch per request; cold/warm = pure CPU\n";

  bool monotonic = true;
  for (size_t i = 1; i < serve_throughput.size(); ++i) {
    if (serve_throughput[i] <= serve_throughput[i - 1]) monotonic = false;
  }
  std::cout << "serve-throughput scaling 1->8 workers: "
            << (monotonic ? "monotonically increasing" : "NOT monotonic")
            << "\n";
  std::cout << "mean latency per request (1 worker): cold "
            << Fixed(cold_mean_us) << " us, warm " << Fixed(warm_mean_us)
            << " us (" << Fixed(cold_mean_us / warm_mean_us)
            << "x faster warm)\n";
  bool identical = responses_at_1 == responses_at_8;
  std::cout << "determinism: responses at 8 workers "
            << (identical ? "byte-identical to" : "DIVERGE from")
            << " 1 worker (" << responses_at_1.size() << " responses)\n";

  // --net: the same warm stream in-process vs over loopback TCP — the
  // gap is the wire cost (framing + epoll + two socket hops per request).
  bool net_identical = true;
  if (with_net) {
    serve::ServerConfig config;
    config.scheduler.num_workers = 4;
    config.scheduler.queue_capacity = requests.size() + 1;
    config.cache_capacity = 4 * requests.size();
    serve::Server inproc_server(&engine, config);
    RunPass(&inproc_server, requests);  // warm the cache
    PassResult inproc = RunPass(&inproc_server, requests);

    serve::Server net_backend(&engine, config);
    RunNetPass(&net_backend, requests);  // warm the cache
    PassResult net = RunNetPass(&net_backend, requests);

    double inproc_rps = n / inproc.millis * 1000.0;
    double net_rps = n / net.millis * 1000.0;
    std::cout << "\nloopback TCP vs in-process (4 workers, warm cache):\n"
              << "  in-process  " << Fixed(inproc_rps, 0) << " req/s ("
              << Fixed(inproc.millis * 1000.0 / n) << " us/req)\n"
              << "  loopback    " << Fixed(net_rps, 0) << " req/s ("
              << Fixed(net.millis * 1000.0 / n) << " us/req)\n"
              << "  transport overhead "
              << Fixed((net.millis - inproc.millis) * 1000.0 / n)
              << " us/req (" << Fixed(inproc_rps / net_rps, 2)
              << "x slowdown)\n";
    net_identical = net.responses == inproc.responses;
    std::cout << "  responses over TCP "
              << (net_identical ? "byte-identical to" : "DIVERGE from")
              << " in-process\n";
  }
  return identical && monotonic && net_identical ? 0 : 1;
}
