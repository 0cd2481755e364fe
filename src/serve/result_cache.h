#ifndef UCTR_SERVE_RESULT_CACHE_H_
#define UCTR_SERVE_RESULT_CACHE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/sharded_lru.h"
#include "obs/metrics.h"

namespace uctr::serve {

using obs::Counter;
using obs::MetricsRegistry;

/// \brief Sharded LRU cache of serialized responses, keyed by
/// (evidence key, normalized query). Repeated claims/questions over the
/// same evidence skip program interpretation entirely.
///
/// Storage and eviction are a ShardedLru with one unit of cost per entry:
/// capacity is split evenly across shards and eviction is LRU per shard.
class ResultCache {
 public:
  /// \param capacity total entry budget (>=1), split across shards.
  /// \param num_shards power-of-two recommended; clamped to >= 1.
  /// \param metrics optional; when set, `cache_hits_total`,
  ///        `cache_misses_total`, and `cache_evictions_total` are recorded.
  explicit ResultCache(size_t capacity, size_t num_shards = 8,
                       MetricsRegistry* metrics = nullptr);

  /// \brief Looks up a response and marks the entry most-recently used.
  std::optional<std::string> Get(uint64_t table_fp, const std::string& query);

  /// \brief Inserts or refreshes a response, evicting the shard's LRU
  /// entry when the shard is at capacity.
  void Put(uint64_t table_fp, const std::string& query, std::string value);

  /// \brief Total entries across all shards (approximate under concurrency).
  size_t size() const { return lru_.size(); }

  size_t num_shards() const { return lru_.num_shards(); }
  size_t shard_capacity() const { return lru_.shard_budget(); }

  /// \brief Which shard a key maps to (exposed for tests).
  size_t ShardIndex(uint64_t table_fp, const std::string& query) const {
    return lru_.ShardIndex(Key{table_fp, query});
  }

  /// \brief Fingerprint of raw CSV text, for callers that have not parsed
  /// the table yet: 64-bit FNV-1a (truncated basis) of "table" + `csv`.
  static uint64_t FingerprintCsv(std::string_view csv);

  /// \brief Where a request's table came from.
  enum class Evidence : uint8_t {
    kTableRef = 1,   ///< a registered table, named by its content address
    kInlineCsv = 2,  ///< CSV text carried in the request
  };

  /// \brief The evidence half of a cache key: the table (a ref or inline
  /// CSV text, per `kind`) plus the paragraph sentences. Each part is
  /// hashed on its own (FingerprintCsv) and folded in through hash::Mix64
  /// after the kind, so a ref never keys like inline CSV with the same
  /// text, and no regrouping of the parts' bytes keys like another one.
  static uint64_t EvidenceKey(Evidence kind, std::string_view table,
                              const std::vector<std::string>& paragraph);

  /// \brief Canonical query form: lowercased, whitespace collapsed,
  /// trailing sentence punctuation dropped. "  The Total  IS 30. " and
  /// "the total is 30" hit the same entry.
  static std::string NormalizeQuery(std::string_view query);

 private:
  struct Key {
    uint64_t table_fp;
    std::string query;
    bool operator==(const Key& o) const {
      return table_fp == o.table_fp && query == o.query;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const;
  };

  ShardedLru<Key, std::string, KeyHash> lru_;
  Counter* hits_ = nullptr;
  Counter* misses_ = nullptr;
  Counter* evictions_ = nullptr;
};

}  // namespace uctr::serve

#endif  // UCTR_SERVE_RESULT_CACHE_H_
