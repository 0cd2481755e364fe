// uctr_serve — line-delimited-JSON serving front end for the trained
// UCTR models.
//
//   uctr_serve train --out_dir /tmp/uctr_weights [--seed 42]
//                    [--metrics] [--trace-out FILE]
//       Generates synthetic training data with the existing unsupervised
//       pipeline (Generator over built-in demo tables), trains the
//       verifier and QA models with the existing training path, and
//       writes <out_dir>/verifier.weights.txt + <out_dir>/qa.weights.txt.
//
//   uctr_serve serve [--verifier_weights F] [--qa_weights F]
//                    [--workers N] [--queue N] [--cache N]
//                    [--timeout_ms N] [--listen HOST:PORT]
//                    [--store-dir DIR] [--store-fsync always|interval|never]
//                    [--store-fsync-interval-ms N]
//                    [--metrics] [--trace-out FILE]
//       Reads one JSON request per stdin line, writes one JSON response
//       per stdout line in input order. With --metrics, dumps the metrics
//       exposition to stderr at EOF. SIGINT/SIGTERM shut down gracefully:
//       stop reading input, drain in-flight requests, then flush
//       metrics/trace exactly like EOF.
//
//       With --listen HOST:PORT the same engine serves length-prefixed
//       frames over TCP instead of stdio (see README.md "Networking");
//       port 0 binds an ephemeral port, and the resolved address is
//       announced on stderr as "listening on HOST:PORT". SIGINT/SIGTERM
//       drain exactly like stdio mode.
//
//       With --store-dir DIR the table registry is durable (see README.md
//       "Durability"): startup replays DIR's snapshot + WAL (exit nonzero
//       if the directory cannot be recovered), every put_table is
//       acknowledged only after its record is appended to the WAL, and
//       registry-evicted tables reload from disk on the next table_ref.
//       --store-fsync picks the flush policy (default interval).
//
// Exit status: nonzero on bind/listen failure and whenever a flush write
// (responses to stdout, metrics exposition, trace dump) fails — exit 0
// guarantees every requested byte made it out.
//
// Either mode with --trace-out FILE enables the process-wide tracer and
// dumps the recorded spans as ldjson to FILE on exit (most recent
// obs::Tracer::kDefaultCapacity spans).
//
// Either mode also accepts --fault-spec SPEC [--fault-seed N] to arm the
// deterministic fault injector (see README.md "Robustness" for the spec
// grammar) — chaos drills against the real binary.
//
// See README.md "Serving" and "Observability" for schemas.

#include <atomic>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fault/fault.h"
#include "gen/generator.h"
#include "net/server.h"
#include "net/socket_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "program/library.h"
#include "serve/engine.h"
#include "serve/server.h"
#include "table/table.h"

namespace {

using namespace uctr;

int Fail(const std::string& message) {
  std::cerr << "uctr_serve: " << message << "\n";
  return 1;
}

std::map<std::string, std::string> ParseFlags(int argc, char** argv,
                                              int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    std::string key = arg.substr(2);
    std::string value = "1";
    if (auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      value = argv[++i];
    }
    flags[key] = value;
  }
  return flags;
}

size_t FlagSize(const std::map<std::string, std::string>& flags,
                const std::string& key, size_t fallback) {
  auto it = flags.find(key);
  if (it == flags.end()) return fallback;
  return static_cast<size_t>(std::stoul(it->second));
}

/// The unlabeled demo corpus `train` mode generates from: one medal-style
/// table and one financial-report table with paragraph text, mirroring
/// the examples.
std::vector<TableWithText> DemoCorpus() {
  std::vector<TableWithText> corpus;
  TableWithText medals;
  medals.table = Table::FromCsv(
                     "nation,gold,silver,bronze,total\n"
                     "united states,10,12,8,30\n"
                     "china,8,6,10,24\n"
                     "japan,5,9,4,18\n"
                     "germany,5,3,6,14\n"
                     "france,2,4,7,13\n",
                     "medal table")
                     .ValueOrDie();
  corpus.push_back(std::move(medals));

  TableWithText finance;
  finance.table = Table::FromCsv(
                      "item,2019,2018\n"
                      "revenue,\"$2,350.4\",\"$2,014.9\"\n"
                      "cost of sales,\"$1,466.1\",\"$1,300.0\"\n"
                      "gross profit,\"$884.3\",\"$714.9\"\n"
                      "net income,\"$310.5\",\"$225.1\"\n",
                      "income statement")
                      .ValueOrDie();
  finance.paragraph = {
      "For the item income tax expense, the 2019 was $95.4 and the 2018 "
      "was $82.3.",
  };
  corpus.push_back(std::move(finance));
  return corpus;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

Status WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::ExecutionError("cannot write " + path);
  out << content;
  out.close();
  if (!out) return Status::ExecutionError("short write to " + path);
  return Status::OK();
}

/// --fault-spec SPEC [--fault-seed N]: arm the process-wide fault
/// injector before any work starts. Returns non-OK on a malformed spec.
Status MaybeArmFaults(const std::map<std::string, std::string>& flags) {
  auto it = flags.find("fault-spec");
  if (it == flags.end()) return Status::OK();
  if (auto seed = flags.find("fault-seed"); seed != flags.end()) {
    fault::FaultInjector::Global().Seed(std::stoull(seed->second));
  }
  return fault::FaultInjector::Global().ArmSpec(it->second);
}

/// --trace-out FILE: switch on the process-wide tracer up front. Returns
/// the dump path ("" = tracing off).
std::string MaybeEnableTracing(
    const std::map<std::string, std::string>& flags) {
  auto it = flags.find("trace-out");
  if (it == flags.end()) return "";
  obs::Tracer::Default().set_enabled(true);
  return it->second;
}

int DumpTrace(const std::string& path) {
  Status s = WriteFile(path, obs::Tracer::Default().ToLdjson());
  if (!s.ok()) return Fail(s.ToString());
  std::cerr << "wrote " << obs::Tracer::Default().size() << " spans to "
            << path << "\n";
  return 0;
}

int RunTrain(const std::map<std::string, std::string>& flags) {
  auto out_it = flags.find("out_dir");
  if (out_it == flags.end()) {
    return Fail("train requires --out_dir <directory>");
  }
  const std::string out_dir = out_it->second;
  std::string trace_path = MaybeEnableTracing(flags);
  Rng rng(FlagSize(flags, "seed", 42));
  size_t samples_per_table = FlagSize(flags, "samples_per_table", 60);
  static const TemplateLibrary& library = TemplateLibrary::Builtin();
  std::vector<TableWithText> corpus = DemoCorpus();

  // Verifier: unsupervised logical-form claims -> existing Train path.
  GenerationConfig claim_config;
  claim_config.task = TaskType::kFactVerification;
  claim_config.program_types = {ProgramType::kLogicalForm};
  claim_config.samples_per_table = samples_per_table;
  Generator claim_gen(claim_config, &library, &rng);
  Dataset claims = claim_gen.GenerateDataset(corpus);
  serve::EngineConfig engine_config;
  model::VerifierModel verifier(engine_config.verifier,
                                serve::InferenceEngine::VerifierTemplates());
  verifier.Train(claims, &rng);
  std::cerr << "trained verifier on " << claims.size()
            << " synthetic claims\n";

  // QA: unsupervised SQL + arithmetic questions -> existing Train path.
  GenerationConfig qa_config;
  qa_config.task = TaskType::kQuestionAnswering;
  qa_config.program_types = {ProgramType::kSql, ProgramType::kArithmetic};
  qa_config.samples_per_table = samples_per_table;
  Generator qa_gen(qa_config, &library, &rng);
  Dataset questions = qa_gen.GenerateDataset(corpus);
  model::QaModel qa(engine_config.qa,
                    serve::InferenceEngine::QaTemplates());
  qa.Train(questions, &rng);
  std::cerr << "trained qa model on " << questions.size()
            << " synthetic questions\n";

  Status s = WriteFile(out_dir + "/verifier.weights.txt",
                       verifier.SaveWeights());
  if (!s.ok()) return Fail(s.ToString());
  s = WriteFile(out_dir + "/qa.weights.txt", qa.SaveWeights());
  if (!s.ok()) return Fail(s.ToString());
  std::cerr << "wrote " << out_dir << "/verifier.weights.txt and "
            << out_dir << "/qa.weights.txt\n";
  if (flags.count("metrics") != 0) {
    std::cerr << obs::DefaultRegistry().ExpositionText();
  }
  if (!trace_path.empty()) return DumpTrace(trace_path);
  return 0;
}

/// Shared serve-mode epilogue: flush responses, then metrics, then trace.
/// Any failed flush write is a nonzero exit — exit 0 must mean every byte
/// the caller asked for actually made it out.
int FinishServe(serve::Server& server,
                const std::map<std::string, std::string>& flags,
                const std::string& trace_path) {
  std::cout.flush();
  if (!std::cout) {
    return Fail("stdout flush failed; responses may have been lost");
  }
  if (flags.count("metrics") != 0) {
    std::cerr << server.metrics()->ExpositionText();
    std::cerr.flush();
    if (!std::cerr) return 1;  // cerr is gone; Fail() could not report it
  }
  if (!trace_path.empty()) return DumpTrace(trace_path);
  return 0;
}

int RunServe(const std::map<std::string, std::string>& flags) {
  std::string verifier_weights, qa_weights;
  if (auto it = flags.find("verifier_weights"); it != flags.end()) {
    auto text = ReadFile(it->second);
    if (!text.ok()) return Fail(text.status().ToString());
    verifier_weights = std::move(text).ValueOrDie();
  }
  if (auto it = flags.find("qa_weights"); it != flags.end()) {
    auto text = ReadFile(it->second);
    if (!text.ok()) return Fail(text.status().ToString());
    qa_weights = std::move(text).ValueOrDie();
  }

  serve::EngineConfig engine_config;
  auto engine = serve::InferenceEngine::Create(engine_config,
                                               verifier_weights, qa_weights);
  if (!engine.ok()) return Fail(engine.status().ToString());

  std::string trace_path = MaybeEnableTracing(flags);
  serve::ServerConfig server_config;
  server_config.scheduler.num_workers = FlagSize(flags, "workers", 4);
  server_config.scheduler.queue_capacity = FlagSize(flags, "queue", 256);
  server_config.cache_capacity = FlagSize(flags, "cache", 4096);
  server_config.default_timeout_ms =
      static_cast<int64_t>(FlagSize(flags, "timeout_ms", 0));
  if (auto it = flags.find("store-dir"); it != flags.end()) {
    if (it->second.empty()) {
      return Fail("--store-dir requires a directory path");
    }
    server_config.store_dir = it->second;
  }
  if (auto it = flags.find("store-fsync"); it != flags.end()) {
    auto mode = store::ParseFsyncMode(it->second);
    if (!mode.ok()) return Fail(mode.status().ToString());
    server_config.store_fsync = *mode;
  }
  server_config.store_fsync_interval_ms = static_cast<int>(
      FlagSize(flags, "store-fsync-interval-ms",
               static_cast<size_t>(server_config.store_fsync_interval_ms)));
  serve::Server server(&*engine, server_config);
  if (!server.recovery_status().ok()) {
    // Refuse to serve rather than run with durability silently broken.
    return Fail("store recovery failed: " +
                server.recovery_status().ToString());
  }
  if (server.durable_store() != nullptr) {
    std::cerr << "uctr_serve: recovered "
              << server.durable_store()->recovered_tables()
              << " table(s) from " << server.durable_store()->dir()
              << " (fsync=" << server.durable_store()->fsync_mode() << ")\n";
  }

  const std::atomic<bool>& shutdown_requested = net::InstallShutdownHandlers();

  if (auto it = flags.find("listen"); it != flags.end()) {
    auto host_port = net::ParseHostPort(it->second);
    if (!host_port.ok()) return Fail(host_port.status().ToString());
    net::NetServerConfig net_config;
    net_config.host = host_port->host;
    net_config.port = host_port->port;
    net::Server net_server(&server, net_config);
    if (Status s = net_server.Start(); !s.ok()) {
      return Fail(s.ToString());  // bind/listen failure: nonzero exit
    }
    net_server.set_shutdown_flag(&shutdown_requested);
    // Announced on stderr so scripts can recover an ephemeral port.
    std::cerr << "uctr_serve: listening on " << host_port->host << ":"
              << net_server.port() << "\n";
    net_server.Run();
    std::cerr << "uctr_serve: drained, shutting down\n";
    return FinishServe(server, flags, trace_path);
  }

  serve::OrderedResponseWriter writer(
      [](const std::string& line) { std::cout << line << "\n"; });
  std::string line;
  // A signal interrupts the blocking read (handlers are installed without
  // SA_RESTART) and getline fails; either way — signal or EOF — we fall
  // through to the same graceful epilogue: stop accepting input, drain
  // every in-flight request, flush responses, then metrics and trace.
  while (!shutdown_requested.load() && std::getline(std::cin, line)) {
    if (line.empty()) continue;
    uint64_t seq = writer.NextSequence();
    server.SubmitLine(line, [seq, &writer](std::string response) {
      writer.Write(seq, std::move(response));
    });
  }
  if (shutdown_requested.load()) {
    std::cerr << "uctr_serve: shutdown signal received, draining\n";
  }
  server.Drain();
  return FinishServe(server, flags, trace_path);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Fail("usage: uctr_serve <train|serve> [flags]");
  }
  std::string mode = argv[1];
  auto flags = ParseFlags(argc, argv, 2);
  if (Status s = MaybeArmFaults(flags); !s.ok()) return Fail(s.ToString());
  if (mode == "train") return RunTrain(flags);
  if (mode == "serve") return RunServe(flags);
  return Fail("unknown mode '" + mode + "' (expected train or serve)");
}
