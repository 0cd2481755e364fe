// perfbench — the repository's benchmark harness. Runs one workload and
// prints its metrics; perfbench/run.py builds it and passes the directories.
//
//   perfbench --workload hybrid-small|ref-1k|hot-churn|synth-pipeline
//             --seed N --seconds S --trace 0|1 --bin-dir DIR --work-dir DIR
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced run that gives the per-layer metrics. The last line of standard
// output is the result object; the exit status is nonzero when an output
// check fails.
#include <sys/stat.h>

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "pipeline.h"
#include "serving.h"

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--bin-dir") {
      args.bin_dir = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      std::cerr << "perfbench: unknown flag " << flag << "\n";
      return 2;
    }
  }
  bool serving = args.workload == "hybrid-small" || args.workload == "ref-1k" ||
                 args.workload == "hot-churn";
  if ((!serving && args.workload != "synth-pipeline") || args.seconds <= 0 ||
      args.bin_dir.empty() || args.work_dir.empty()) {
    std::cerr << "perfbench: need --workload hybrid-small|ref-1k|hot-churn|"
                 "synth-pipeline, --seconds > 0, --bin-dir and --work-dir\n";
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) {
    std::cerr << "perfbench: cannot create " << args.work_dir << "\n";
    return 2;
  }
  return serving ? perfbench::RunServing(args) : perfbench::RunPipeline(args);
}
