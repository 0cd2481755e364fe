#include "fault/tool_flags.h"

#include <iostream>

#include "common/file_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace uctr::fault {

void ToolFlags::Declare(FlagSet* flags) {
  flags->Bool("metrics", &metrics);
  flags->String("trace-out", &trace_out);
  flags->String("fault-spec", &fault_spec);
  flags->Uint("fault-seed", &fault_seed);
}

Status ToolFlags::Start() const {
  if (!fault_spec.empty()) {
    FaultInjector::Global().Seed(fault_seed);
    if (Status s = FaultInjector::Global().ArmSpec(fault_spec); !s.ok()) {
      return s;
    }
  }
  if (!trace_out.empty()) obs::Tracer::Default().set_enabled(true);
  return Status::OK();
}

Status ToolFlags::Finish() const {
  if (metrics) {
    std::cerr << obs::DefaultRegistry().ExpositionText();
    std::cerr.flush();
    if (!std::cerr) return Status::Internal("cannot write metrics to stderr");
  }
  if (!trace_out.empty()) {
    const obs::Tracer& tracer = obs::Tracer::Default();
    if (Status s = WriteFileAtomic(trace_out, tracer.ToLdjson()); !s.ok()) {
      return s;
    }
    std::cerr << "wrote " << tracer.size() << " spans to " << trace_out
              << "\n";
  }
  return Status::OK();
}

}  // namespace uctr::fault
