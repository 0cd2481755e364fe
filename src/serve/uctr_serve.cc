// uctr_serve — line-delimited-JSON serving front end for the trained
// UCTR models.
//
//   uctr_serve train --out_dir /tmp/uctr_weights [--seed 42]
//                    [--samples_per_table 60]
//                    [--metrics] [--trace-out FILE]
//       Generates synthetic training data with the existing unsupervised
//       pipeline (Generator over built-in demo tables), trains the
//       verifier and QA models with the existing training path, and
//       writes <out_dir>/verifier.weights.txt + <out_dir>/qa.weights.txt,
//       creating <out_dir> first if it is missing.
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
// guarantees every requested byte made it out. A usage error (a flag the
// mode does not take, a stray argument, a missing value, a malformed
// number) exits 1 before any model, worker or listener exists.
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
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "common/file_util.h"
#include "common/flags.h"
#include "common/rng.h"
#include "fault/tool_flags.h"
#include "gen/generator.h"
#include "net/server.h"
#include "net/socket_util.h"
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

int RunTrain(int argc, char** argv) {
  std::string out_dir;
  uint64_t seed = 42;
  size_t samples_per_table = 60;
  fault::ToolFlags tool;
  FlagSet flags;
  flags.String("out_dir", &out_dir);
  flags.Uint("seed", &seed);
  flags.Uint("samples_per_table", &samples_per_table);
  tool.Declare(&flags);
  if (Status s = flags.Parse(argc, argv, 2); !s.ok()) {
    return Fail(s.ToString());
  }
  if (out_dir.empty()) return Fail("train requires --out_dir <directory>");
  if (Status s = tool.Start(); !s.ok()) return Fail(s.ToString());
  // Create the directory before training, so a path that cannot hold the
  // weights fails in milliseconds instead of after both models trained.
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    return Fail("cannot create --out_dir " + out_dir + ": " + ec.message());
  }
  Rng rng(seed);
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

  Status s = WriteFileAtomic(out_dir + "/verifier.weights.txt",
                             verifier.SaveWeights());
  if (!s.ok()) return Fail(s.ToString());
  s = WriteFileAtomic(out_dir + "/qa.weights.txt", qa.SaveWeights());
  if (!s.ok()) return Fail(s.ToString());
  std::cerr << "wrote " << out_dir << "/verifier.weights.txt and "
            << out_dir << "/qa.weights.txt\n";
  s = tool.Finish();
  return s.ok() ? 0 : Fail(s.ToString());
}

/// Shared serve-mode epilogue: flush responses, then metrics, then trace.
/// Any failed flush write is a nonzero exit — exit 0 must mean every byte
/// the caller asked for actually made it out.
int FinishServe(const fault::ToolFlags& tool) {
  std::cout.flush();
  if (!std::cout) {
    return Fail("stdout flush failed; responses may have been lost");
  }
  Status s = tool.Finish();
  return s.ok() ? 0 : Fail(s.ToString());
}

int RunServe(int argc, char** argv) {
  std::string verifier_path, qa_path, listen, store_fsync;
  serve::ServerConfig server_config;
  fault::ToolFlags tool;
  FlagSet flags;
  flags.String("verifier_weights", &verifier_path);
  flags.String("qa_weights", &qa_path);
  flags.Uint("workers", &server_config.scheduler.num_workers);
  flags.Uint("queue", &server_config.scheduler.queue_capacity);
  flags.Uint("cache", &server_config.cache_capacity);
  flags.Uint("timeout_ms", &server_config.default_timeout_ms);
  flags.String("listen", &listen);
  flags.String("store-dir", &server_config.store_dir);
  flags.String("store-fsync", &store_fsync);
  flags.Uint("store-fsync-interval-ms",
             &server_config.store_fsync_interval_ms);
  tool.Declare(&flags);
  if (Status s = flags.Parse(argc, argv, 2); !s.ok()) {
    return Fail(s.ToString());
  }
  net::HostPort host_port;
  if (!listen.empty()) {
    auto parsed = net::ParseHostPort(listen);
    if (!parsed.ok()) return Fail("--listen: " + parsed.status().ToString());
    host_port = *parsed;
  }
  if (!store_fsync.empty()) {
    auto mode = store::ParseFsyncMode(store_fsync);
    if (!mode.ok()) return Fail(mode.status().ToString());
    server_config.store_fsync = *mode;
  }
  if (Status s = tool.Start(); !s.ok()) return Fail(s.ToString());

  std::string verifier_weights, qa_weights;
  if (!verifier_path.empty()) {
    auto text = ReadFileText(verifier_path);
    if (!text.ok()) return Fail(text.status().ToString());
    verifier_weights = std::move(text).ValueOrDie();
  }
  if (!qa_path.empty()) {
    auto text = ReadFileText(qa_path);
    if (!text.ok()) return Fail(text.status().ToString());
    qa_weights = std::move(text).ValueOrDie();
  }

  serve::EngineConfig engine_config;
  auto engine = serve::InferenceEngine::Create(engine_config,
                                               verifier_weights, qa_weights);
  if (!engine.ok()) return Fail(engine.status().ToString());

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

  if (!listen.empty()) {
    net::NetServerConfig net_config;
    net_config.host = host_port.host;
    net_config.port = host_port.port;
    net::Server net_server(&server, net_config);
    if (Status s = net_server.Start(); !s.ok()) {
      return Fail(s.ToString());  // bind/listen failure: nonzero exit
    }
    net_server.set_shutdown_flag(&shutdown_requested);
    // Announced on stderr so scripts can recover an ephemeral port.
    std::cerr << "uctr_serve: listening on " << host_port.host << ":"
              << net_server.port() << "\n";
    net_server.Run();
    std::cerr << "uctr_serve: drained, shutting down\n";
    return FinishServe(tool);
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
  return FinishServe(tool);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Fail("usage: uctr_serve <train|serve> [flags]");
  }
  std::string mode = argv[1];
  if (mode == "train") return RunTrain(argc, argv);
  if (mode == "serve") return RunServe(argc, argv);
  return Fail("unknown mode '" + mode + "' (expected train or serve)");
}
