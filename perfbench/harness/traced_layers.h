// The per-layer metrics of the traced run. Every traced run prints all of
// them; a layer the workload's requests never cross reads 0.
#ifndef PERFBENCH_TRACED_LAYERS_H_
#define PERFBENCH_TRACED_LAYERS_H_

#include <map>
#include <string>

#include "report.h"

namespace perfbench {

struct LayerMetric {
  const char* name;
  const char* unit;
};

inline constexpr LayerMetric kLayerMetrics[] = {
    {"net.ping_rtt_us", "us"},
    {"router.hop_us", "us"},
    {"router.put_key_us", "us"},
    {"json.parse_us", "us"},
    {"serve.cache_probe_us", "us"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.queue_wait_p50_us", "us"},
    {"serve.queue_wait_p99_us", "us"},
    {"table.parse_us", "us"},
    {"table.warm_us", "us"},
    {"store.encode_us", "us"},
    {"store.put_us", "us"},
    {"store.get_us", "us"},
    {"store.bytes_per_table", "bytes"},
    {"model.predict_us", "us"},
    {"model.bind_us", "us"},
    {"model.features_us", "us"},
    {"model.candidates_per_req", "count"},
    {"hybrid.expand_us", "us"},
    {"program.fill_us", "us"},
    {"ir.plan_compiles_per_req", "count"},
    {"ir.plan_hit_ratio", "ratio"},
    {"ir.execute_us", "us"},
    {"nlgen.canonical_us", "us"},
    {"gen.sample_us", "us"},
    {"gen.parallel_efficiency", "ratio"},
    {"gen.accept_ratio", "ratio"},
    {"nlgen.generate_us", "us"},
    {"hybrid.split_us", "us"},
    {"model.extract_us", "us"},
    {"model.sgd_us", "us"},
    {"model.score_us", "us"},
    {"trace.overhead_us", "us"},
    {"trace.service_us", "us"},
    {"trace.self_sum_us", "us"},
    {"trace.coverage_gap", "ratio"},
};

/// Adds every per-layer metric to the result line, 0 where `values` has
/// none.
inline void AddLayerMetrics(const std::map<std::string, double>& values,
                            Report* report) {
  for (const LayerMetric& m : kLayerMetrics) {
    auto it = values.find(m.name);
    report->Add(m.name, it == values.end() ? 0.0 : it->second, m.unit);
  }
}

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_LAYERS_H_
