#ifndef UCTR_IR_PLAN_CACHE_H_
#define UCTR_IR_PLAN_CACHE_H_

#include <cstdint>
#include <memory>

#include "common/sharded_lru.h"
#include "ir/ir.h"
#include "obs/metrics.h"

namespace uctr::ir {

/// \brief Sharded LRU cache of compiled plans over a count-bounded
/// ShardedLru. A hit hands back an immutable shared plan: execution
/// touches neither parser nor AST. Every parseable program compiles (a
/// program whose walker would fail holds a kFail plan), so there are no
/// negative entries; a parse error is never cached.
///
/// A key is two 64-bit fingerprints:
///   - program text: (ProgramFingerprint, Schema::Fingerprint). Its names
///     resolve against the schema, so a renamed column or a type drift
///     misses and recompiles; cell contents do not take part.
///   - a template: (TemplateFingerprint, ColumnsFingerprint). Its plan
///     depends only on the pattern and the column positions its slots
///     resolve to, so one plan serves every schema and every binding that
///     puts its columns at those positions.
/// A first-compile race is benign: both threads compile the same
/// deterministic plan and the second Put simply refreshes the entry.
class PlanCache {
 public:
  /// \param capacity total entry budget (>= 1), split across shards.
  /// \param num_shards clamped to >= 1.
  /// \param metrics optional; records `plan_cache_hits_total`,
  ///        `plan_cache_misses_total`, `plan_cache_evictions_total`, and
  ///        `plan_compiles_total` (via NoteCompile).
  explicit PlanCache(size_t capacity, size_t num_shards = 8,
                     obs::MetricsRegistry* metrics = nullptr);

  /// \brief The cached plan, or nullptr on a miss (caller should compile
  /// and Put).
  std::shared_ptr<const Plan> Get(uint64_t program_fp, uint64_t shape_fp);

  /// \brief Inserts or refreshes an entry, evicting the shard's LRU entry
  /// when the shard is at capacity.
  void Put(uint64_t program_fp, uint64_t shape_fp,
           std::shared_ptr<const Plan> plan);

  /// \brief Counts one compilation attempt toward `plan_compiles_total`.
  void NoteCompile();

  /// \brief Total entries across all shards (approximate under concurrency).
  size_t size() const { return lru_.size(); }

  size_t num_shards() const { return lru_.num_shards(); }

  /// \brief Process-wide cache used when ExecOptions does not name one;
  /// registered against the default metrics registry.
  static PlanCache& Default();

 private:
  struct Key {
    uint64_t program_fp;
    uint64_t shape_fp;  ///< schema (text) or column positions (template)
    bool operator==(const Key& o) const {
      return program_fp == o.program_fp && shape_fp == o.shape_fp;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const;
  };

  ShardedLru<Key, std::shared_ptr<const Plan>, KeyHash> lru_;
  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
  obs::Counter* evictions_ = nullptr;
  obs::Counter* compiles_ = nullptr;
};

}  // namespace uctr::ir

#endif  // UCTR_IR_PLAN_CACHE_H_
