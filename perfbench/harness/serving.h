// The serving workloads: hybrid-small, ref-1k and hot-churn. They drive the
// real uctr_serve --listen (and, for hot-churn, uctr_router) binaries over
// TCP with the benchmark's own net::Client load generator.
#ifndef PERFBENCH_SERVING_H_
#define PERFBENCH_SERVING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "inputs.h"
#include "net/client.h"
#include "proc.h"
#include "report.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 10;
  bool trace = false;
  std::string bin_dir;
  std::string work_dir;
};

/// Load-generator threads and connections: at most the core count.
size_t LoadThreads();

/// The processes under test and the port clients connect to.
struct Stack {
  std::vector<Child> backends;
  std::vector<uint16_t> backend_ports;
  Child router;
  uint16_t port = 0;
  /// Stops every process; returns the sum of their peak resident sets (MB).
  double Stop();
};

/// Starts the workload's stack, registers its tables and plays the warm-up
/// traffic: everything before timing starts.
uctr::Result<Stack> SetUp(const Args& args, const ServingInputs& in,
                          int instance);

/// Parsed response of one request.
struct Response {
  uint64_t id = 0;
  std::string status;
  std::string body;  ///< label, answer or fingerprint
};
uctr::Result<Response> ParseResponse(const std::string& payload);

/// One `stats` response of a server, as its raw JSON text. (It carries
/// booleans, which common/json does not parse, so values are read with
/// StatValue.)
uctr::Result<std::string> FetchStats(uint16_t port);
/// The number after "key": in a stats response; 0 when absent.
double StatValue(const std::string& stats, const std::string& key);

/// Whether a served body matches the generator's gold.
bool MatchesGold(const Request& request, const std::string& body);

/// The traced run of a serving workload (serving_trace.cc).
int RunServingTraced(const Args& args, const ServingInputs& in);

int RunServing(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_SERVING_H_
