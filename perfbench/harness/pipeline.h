// The synth-pipeline workload: Algorithm 1 synthesis, training, held-out
// evaluation and one confidence-filtered self-training round, through the
// same library functions uctr_selftrain calls.
#ifndef PERFBENCH_PIPELINE_H_
#define PERFBENCH_PIPELINE_H_

#include "serving.h"

namespace perfbench {

int RunPipeline(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_PIPELINE_H_
