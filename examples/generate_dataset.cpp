// Command-line dataset generator: turn your own CSV tables into synthetic
// tabular-reasoning training data (JSON Lines on stdout).
//
// Usage:
//   generate_dataset --task qa|fv [--n SAMPLES] [--seed SEED]
//                    [--paragraph "sentence"] [--checkpoint-dir DIR]
//                    [--threads T] table.csv [more.csv ...]
//
// Example:
//   ./build/examples/generate_dataset --task fv --n 20 my_table.csv >out.jsonl
//
// With --checkpoint-dir, generation is crash-safe: each finished table is
// persisted to DIR (atomic write-rename) and a killed run resumes from the
// manifest to a byte-identical dataset (README "Robustness"). Re-run the
// same command to resume.
//
// With no arguments it runs on a built-in demo table.

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "gen/generator.h"
#include "gen/parallel.h"
#include "gen/serialize.h"
#include "program/library.h"

namespace {

constexpr char kDemoCsv[] =
    "nation,gold,silver,bronze,total\n"
    "united states,10,12,8,30\n"
    "china,8,6,10,24\n"
    "japan,5,9,4,18\n"
    "germany,5,3,6,14\n"
    "france,2,4,7,13\n";

int Usage() {
  std::cerr
      << "usage: generate_dataset [--task qa|fv] [--n SAMPLES] [--seed S]\n"
      << "                        [--paragraph \"sentence\"]\n"
      << "                        [--checkpoint-dir DIR] [--threads T]\n"
      << "                        [table.csv...]\n"
      << "Generates synthetic tabular-reasoning samples as JSON Lines.\n"
      << "--checkpoint-dir makes the run crash-safe: killed runs resume\n"
      << "from DIR to a byte-identical dataset.\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace uctr;

  TaskType task = TaskType::kQuestionAnswering;
  size_t samples_per_table = 10;
  uint64_t seed = 42;
  std::string checkpoint_dir;
  size_t threads = 4;
  std::vector<std::string> paragraph;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (arg == "--task") {
      const char* v = next();
      if (v == nullptr) return Usage();
      std::string value = v;
      if (value == "qa") task = TaskType::kQuestionAnswering;
      else if (value == "fv") task = TaskType::kFactVerification;
      else return Usage();
    } else if (arg == "--n") {
      const char* v = next();
      if (v == nullptr) return Usage();
      samples_per_table = static_cast<size_t>(std::stoul(v));
    } else if (arg == "--seed") {
      const char* v = next();
      if (v == nullptr) return Usage();
      seed = std::stoull(v);
    } else if (arg == "--paragraph") {
      const char* v = next();
      if (v == nullptr) return Usage();
      paragraph.push_back(v);
    } else if (arg == "--checkpoint-dir") {
      const char* v = next();
      if (v == nullptr) return Usage();
      checkpoint_dir = v;
    } else if (arg == "--threads") {
      const char* v = next();
      if (v == nullptr) return Usage();
      threads = static_cast<size_t>(std::stoul(v));
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else {
      files.push_back(arg);
    }
  }

  // Load tables.
  std::vector<TableWithText> corpus;
  if (files.empty()) {
    std::cerr << "(no tables given; using the built-in demo table)\n";
    TableWithText demo;
    demo.table = Table::FromCsv(kDemoCsv, "demo").ValueOrDie();
    demo.paragraph = paragraph;
    corpus.push_back(std::move(demo));
  }
  for (const std::string& path : files) {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "cannot open " << path << "\n";
      return 1;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    auto table = Table::FromCsv(buffer.str(), path);
    if (!table.ok()) {
      std::cerr << path << ": " << table.status() << "\n";
      return 1;
    }
    TableWithText entry;
    entry.table = std::move(table).ValueOrDie();
    entry.paragraph = paragraph;
    corpus.push_back(std::move(entry));
  }

  // Generate.
  Rng rng(seed);
  GenerationConfig config;
  config.task = task;
  config.program_types =
      task == TaskType::kFactVerification
          ? std::vector<ProgramType>{ProgramType::kLogicalForm}
          : std::vector<ProgramType>{ProgramType::kSql,
                                     ProgramType::kArithmetic};
  config.samples_per_table = samples_per_table;
  config.max_attempts = 24;
  static const TemplateLibrary& library = TemplateLibrary::Builtin();

  if (!checkpoint_dir.empty()) {
    // Crash-safe path: per-table shards persisted to --checkpoint-dir;
    // rerunning the same command resumes from the manifest.
    CheckpointOptions checkpoint;
    checkpoint.directory = checkpoint_dir;
    CheckpointReport report;
    auto dataset = GenerateDatasetCheckpointed(config, &library, corpus,
                                               seed, threads, checkpoint,
                                               &report);
    if (!dataset.ok()) {
      std::cerr << "generation failed: " << dataset.status() << "\n";
      return 1;
    }
    std::cout << DatasetToJsonl(*dataset);
    std::cerr << "generated " << report.generated << " table(s), resumed "
              << report.resumed << ", failed " << report.failed
              << ", poisoned " << report.poisoned << " ("
              << dataset->size() << " samples"
              << (report.complete ? "" : "; INCOMPLETE — rerun to resume")
              << ")\n";
    return dataset->empty() ? 1 : 0;
  }

  Generator generator(config, &library, &rng);
  Dataset dataset = generator.GenerateDataset(corpus);

  std::cout << DatasetToJsonl(dataset);
  std::cerr << "generated " << dataset.size() << " samples from "
            << corpus.size() << " table(s)\n";
  return dataset.empty() ? 1 : 0;
}
