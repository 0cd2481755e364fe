#ifndef UCTR_FAULT_TOOL_FLAGS_H_
#define UCTR_FAULT_TOOL_FLAGS_H_

#include <cstdint>
#include <string>

#include "common/flags.h"
#include "common/status.h"
#include "fault/fault.h"

namespace uctr::fault {

/// \brief The diagnostic flags uctr_serve, uctr_router and uctr_selftrain
/// share: --metrics, --trace-out FILE, --fault-spec SPEC and
/// --fault-seed N. It lives in uctr_fault, the lowest library that sees
/// both the fault injector and the tracer.
struct ToolFlags {
  bool metrics = false;
  std::string trace_out;
  std::string fault_spec;
  uint64_t fault_seed = FaultInjector::kDefaultSeed;

  /// \brief Declares the four flags in `flags`.
  void Declare(FlagSet* flags);

  /// \brief Before any work: arms the process-wide fault injector with
  /// --fault-spec (seeded by --fault-seed) and switches on the default
  /// tracer for --trace-out. Fails on a malformed spec.
  Status Start() const;

  /// \brief At exit: prints the default metrics registry to stderr
  /// (--metrics), then writes the default tracer's spans as ldjson to
  /// --trace-out. Fails when either write does, so a tool's exit 0 means
  /// every requested byte made it out.
  Status Finish() const;
};

}  // namespace uctr::fault

#endif  // UCTR_FAULT_TOOL_FLAGS_H_
