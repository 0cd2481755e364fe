#include "ir/plan_cache.h"

#include <optional>
#include <utility>

#include "common/hash.h"

namespace uctr::ir {

PlanCache::PlanCache(size_t capacity, size_t num_shards,
                     obs::MetricsRegistry* metrics)
    : lru_(capacity, num_shards) {
  if (metrics != nullptr) {
    hits_ = metrics->counter("plan_cache_hits_total");
    misses_ = metrics->counter("plan_cache_misses_total");
    evictions_ = metrics->counter("plan_cache_evictions_total");
    compiles_ = metrics->counter("plan_compiles_total");
  }
}

size_t PlanCache::KeyHash::operator()(const Key& k) const {
  // Both fingerprints are already FNV hashes; the finalizer over their
  // combination just decorrelates shard selection.
  return static_cast<size_t>(
      hash::Mix64(k.program_fp ^ (k.shape_fp * hash::kGoldenGamma)));
}

std::shared_ptr<const Plan> PlanCache::Get(uint64_t program_fp,
                                           uint64_t shape_fp) {
  std::optional<std::shared_ptr<const Plan>> hit =
      lru_.Get(Key{program_fp, shape_fp});
  obs::Counter* counter = hit ? hits_ : misses_;
  if (counter != nullptr) counter->Increment();
  return hit ? std::move(*hit) : nullptr;
}

void PlanCache::Put(uint64_t program_fp, uint64_t shape_fp,
                    std::shared_ptr<const Plan> plan) {
  size_t evicted = lru_.Put(Key{program_fp, shape_fp}, std::move(plan));
  if (evictions_ != nullptr && evicted > 0) evictions_->Increment(evicted);
}

void PlanCache::NoteCompile() {
  if (compiles_ != nullptr) compiles_->Increment();
}

PlanCache& PlanCache::Default() {
  static PlanCache* cache =
      new PlanCache(1024, 8, &obs::DefaultRegistry());
  return *cache;
}

}  // namespace uctr::ir
