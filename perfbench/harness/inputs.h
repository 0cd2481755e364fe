// Seeded inputs of the serving workloads: model weights, tables registered
// during set-up, and the request streams with their gold answers. The same
// seed always gives the same inputs.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace uctr {
class TemplateLibrary;
}

namespace perfbench {

/// The built-in program templates, built once.
const uctr::TemplateLibrary& Library();

enum class Op { kVerify, kAnswer, kPut };

struct Request {
  Op op = Op::kVerify;
  std::string line;       ///< wire JSON; its id is the stream position + 1
  std::string gold;       ///< label, answer, or the put table's fingerprint
  std::string csv;        ///< inline table, or the table a put registers
  std::string table_ref;  ///< registered table the request names
  std::vector<std::string> paragraph;
  std::string query;
};

struct ServingInputs {
  std::string verifier_weights;
  std::string qa_weights;
  std::vector<std::string> tables;  ///< CSV registered during set-up
  std::vector<std::string> table_refs;  ///< their content fingerprints
  std::vector<Request> warmup;      ///< set-up traffic
  std::vector<Request> stream;      ///< measured traffic
};

/// Open-loop rate of hot-churn, requests per second.
constexpr double kChurnRate = 4000.0;

/// Builds the inputs of a serving workload: hybrid-small and ref-1k get a
/// stream of about `stream_size` or more distinct requests, hot-churn one
/// of exactly `stream_size` scheduled requests.
ServingInputs BuildServingInputs(const std::string& workload, uint64_t seed,
                                 size_t stream_size);

/// Wire line of `request` with the given id.
std::string RequestLine(const Request& request, uint64_t id);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
