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
// A usage error (unknown flag, stray argument, missing value, malformed
// number) exits 1 before any round starts; exit 2 means the run stopped
// at --max-phase-steps.

#include <cstdio>
#include <iostream>
#include <string>

#include "common/file_util.h"
#include "common/flags.h"
#include "fault/tool_flags.h"
#include "selftrain/selftrain.h"

namespace {

using namespace uctr;

int Fail(const std::string& message) {
  std::cerr << "uctr_selftrain: " << message << "\n";
  return 1;
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
  selftrain::SelfTrainConfig config;
  std::string task = "fv", experiments;
  bool help = false, no_agreement = false;
  fault::ToolFlags tool;
  FlagSet flags;
  flags.Bool("help", &help);
  flags.String("state-dir", &config.state_dir);
  flags.Uint("rounds", &config.rounds);
  flags.Uint("seed", &config.seed);
  flags.String("task", &task);
  flags.Uint("tables", &config.tables_per_round);
  flags.Uint("samples-per-table", &config.samples_per_table);
  flags.Uint("eval-tables", &config.eval_tables);
  flags.Double("threshold", &config.filter.threshold);
  flags.Double("temperature", &config.filter.temperature);
  flags.Bool("no-agreement", &no_agreement);
  flags.Uint("threads", &config.num_threads);
  flags.Uint("max-phase-steps", &config.max_phase_steps);
  flags.String("experiments", &experiments);
  tool.Declare(&flags);
  if (Status s = flags.Parse(argc, argv, 1); !s.ok()) {
    return Fail(s.ToString());
  }
  if (help) {
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
  if (config.state_dir.empty()) return Fail("--state-dir is required");
  if (task == "qa") {
    config.task = TaskType::kQuestionAnswering;
  } else if (task != "fv") {
    return Fail("--task must be fv or qa");
  }
  config.filter.require_agreement = !no_agreement;
  if (Status s = tool.Start(); !s.ok()) return Fail(s.ToString());

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
  if (!experiments.empty() && report.complete) {
    char header[160];
    std::snprintf(header, sizeof(header),
                  "## Self-training rounds (task=%s, seed=%llu, rounds=%zu)",
                  config.task == TaskType::kFactVerification ? "fv" : "qa",
                  static_cast<unsigned long long>(config.seed),
                  config.rounds);
    if (Status s = AppendExperiments(experiments, header, table); !s.ok()) {
      return Fail(s.ToString());
    }
  }
  if (Status s = tool.Finish(); !s.ok()) return Fail(s.ToString());
  return report.complete ? 0 : 2;  // 2 = stopped at the phase-step budget
}
