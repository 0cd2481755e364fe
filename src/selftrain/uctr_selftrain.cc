// uctr_selftrain: round-based self-training driver.
//
//   uctr_selftrain --rounds 3 --state-dir /tmp/st
//   uctr_selftrain --rounds 3 --state-dir /tmp/st --task qa
//       --threshold 0.4 --temperature 0.5 --experiments EXPERIMENTS.md
//
// Runs (or resumes) rounds 0..N of generate -> pseudo-label -> filter ->
// retrain -> eval. All round state lives under --state-dir; the process
// can be killed at any moment and re-invoked with the same flags to
// resume to a byte-identical result. --fault-spec/--fault-seed arm the
// fault injector (sites selftrain.generate/label/train/eval plus
// everything deeper); --trace-out dumps spans; --metrics prints the
// metrics registry, per-phase latency histograms included, to stderr.

#include <cstring>
#include <iostream>
#include <map>
#include <string>

#include "common/file_util.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "selftrain/selftrain.h"

namespace {

using namespace uctr;

int Fail(const std::string& message) {
  std::cerr << "uctr_selftrain: " << message << "\n";
  return 1;
}

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
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

double FlagDouble(const std::map<std::string, std::string>& flags,
                  const std::string& key, double fallback) {
  auto it = flags.find(key);
  if (it == flags.end()) return fallback;
  return std::stod(it->second);
}

Status MaybeArmFaults(const std::map<std::string, std::string>& flags) {
  auto it = flags.find("fault-spec");
  if (it == flags.end()) return Status::OK();
  if (auto seed = flags.find("fault-seed"); seed != flags.end()) {
    fault::FaultInjector::Global().Seed(std::stoull(seed->second));
  }
  return fault::FaultInjector::Global().ArmSpec(it->second);
}

/// Appends the run's delta table to an experiments log, once: the table
/// is deterministic, so a resumed run that already appended it (or a
/// re-run over a finished state dir) finds its bytes present and skips.
Status AppendExperiments(const std::string& path, const std::string& header,
                         const std::string& table) {
  std::string existing;
  if (auto text = ReadFileText(path); text.ok()) {
    existing = std::move(text).ValueOrDie();
  }
  if (existing.find(table) != std::string::npos) return Status::OK();
  std::string updated = existing;
  if (!updated.empty() && updated.back() != '\n') updated += "\n";
  updated += "\n" + header + "\n\n" + table;
  return WriteFileAtomic(path, updated);
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = ParseFlags(argc, argv);
  if (flags.count("help")) {
    std::cout
        << "usage: uctr_selftrain --state-dir DIR [--rounds N] [--task "
           "fv|qa]\n"
           "  [--seed N] [--tables N] [--samples-per-table N]\n"
           "  [--eval-tables N] [--threshold X] [--temperature X]\n"
           "  [--no-agreement] [--threads N] [--max-phase-steps N]\n"
           "  [--experiments FILE] [--metrics]\n"
           "  [--fault-spec SPEC] [--fault-seed N] [--trace-out FILE]\n";
    return 0;
  }

  selftrain::SelfTrainConfig config;
  auto dir = flags.find("state-dir");
  if (dir == flags.end()) return Fail("--state-dir is required");
  config.state_dir = dir->second;
  config.rounds = FlagSize(flags, "rounds", 3);
  config.seed = FlagSize(flags, "seed", 42);
  if (auto it = flags.find("task"); it != flags.end()) {
    if (it->second == "fv") {
      config.task = TaskType::kFactVerification;
    } else if (it->second == "qa") {
      config.task = TaskType::kQuestionAnswering;
    } else {
      return Fail("--task must be fv or qa");
    }
  }
  config.tables_per_round = FlagSize(flags, "tables", 10);
  config.samples_per_table = FlagSize(flags, "samples-per-table", 8);
  config.eval_tables = FlagSize(flags, "eval-tables", 10);
  config.filter.threshold = FlagDouble(flags, "threshold", 0.3);
  config.filter.temperature = FlagDouble(flags, "temperature", 1.0);
  if (flags.count("no-agreement")) config.filter.require_agreement = false;
  config.num_threads = FlagSize(flags, "threads", 2);
  config.max_phase_steps = FlagSize(flags, "max-phase-steps", 0);

  if (Status s = MaybeArmFaults(flags); !s.ok()) return Fail(s.ToString());
  std::string trace_path;
  if (auto it = flags.find("trace-out"); it != flags.end()) {
    obs::Tracer::Default().set_enabled(true);
    trace_path = it->second;
  }

  selftrain::SelfTrainer trainer(config);
  auto report_or = trainer.Run();
  if (!report_or.ok()) return Fail(report_or.status().ToString());
  selftrain::SelfTrainReport report = std::move(report_or).ValueOrDie();

  std::string table = report.DeltaTable();
  std::cout << "== self-training: " << report.rounds.size() << "/"
            << config.rounds + 1 << " rounds complete (" << report.phases_run
            << " phases this run) ==\n\n"
            << table;
  if (Status s = WriteFileAtomic(config.state_dir + "/report.md", table);
      !s.ok()) {
    return Fail(s.ToString());
  }
  if (auto it = flags.find("experiments");
      it != flags.end() && report.complete) {
    char header[160];
    std::snprintf(header, sizeof(header),
                  "## Self-training rounds (task=%s, seed=%llu, rounds=%zu)",
                  config.task == TaskType::kFactVerification ? "fv" : "qa",
                  static_cast<unsigned long long>(config.seed),
                  config.rounds);
    if (Status s = AppendExperiments(it->second, header, table); !s.ok()) {
      return Fail(s.ToString());
    }
  }
  if (flags.count("metrics")) {
    std::cerr << obs::DefaultRegistry().ExpositionText();
  }
  if (!trace_path.empty()) {
    if (Status s =
            WriteFileAtomic(trace_path, obs::Tracer::Default().ToLdjson());
        !s.ok()) {
      return Fail(s.ToString());
    }
  }
  return report.complete ? 0 : 2;  // 2 = stopped at the phase-step budget
}
