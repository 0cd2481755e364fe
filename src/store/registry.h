#ifndef UCTR_STORE_REGISTRY_H_
#define UCTR_STORE_REGISTRY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/sharded_lru.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "store/codec.h"
#include "table/table.h"

namespace uctr::store {

struct RegistryConfig {
  /// Total byte budget across all shards. A table whose own footprint
  /// exceeds the per-shard budget is still admitted (alone in its shard)
  /// so oversized evidence tables are cacheable rather than thrashing.
  size_t capacity_bytes = 64ull << 20;
  size_t num_shards = 8;
};

struct PutResult {
  std::string fingerprint;  ///< 16-hex content address of the table bytes
  size_t bytes = 0;         ///< accounted footprint of the stored table
  bool inserted = false;    ///< false: identical table was already present
};

/// \brief A table's canonical codec bytes plus their fingerprint,
/// produced once by EncodeTable so the durable path (encode → WAL
/// append → registry insert) never encodes the same table twice.
struct EncodedTable {
  std::string bytes;        ///< canonical store::Codec bytes
  std::string fingerprint;  ///< Codec::Fingerprint(bytes)
};

/// \brief Content-addressed cache of served evidence tables.
///
/// Put() canonically encodes the table (store::Codec), fingerprints the
/// bytes, warms the TableIndex once, and stores the table under its
/// fingerprint. Get() hands out shared_ptr<const Table> borrows: the
/// request path reads the stored table (and its warm index) in place with
/// no parse, no index build, and no copy. Identical content always maps
/// to the same fingerprint, so re-registering a table is a dedup hit.
///
/// A ShardedLru costed in bytes: each shard orders its entries by last
/// touch and evicts from the cold end once the shard exceeds its share of
/// capacity_bytes. Eviction never races with use — borrowers
/// hold the shared_ptr, so an evicted table dies only after the last
/// in-flight request drops it. The registry itself must outlive every
/// thread that can call it (see DESIGN.md on ownership vs the serve and
/// net event-loop threads); the tables it hands out may outlive *it*
/// safely.
///
/// Thread-safe: all public methods may be called concurrently. Borrowed
/// tables are safe for concurrent const readers (TableIndex builds are
/// internally synchronized and pre-warmed here anyway).
class TableRegistry {
 public:
  explicit TableRegistry(RegistryConfig config = {},
                         obs::MetricsRegistry* metrics = nullptr);

  /// \brief Canonically encodes `table`'s own columns (Codec::Encode)
  /// and derives their fingerprint. Pure; no registry state.
  static EncodedTable EncodeTable(const Table& table);

  /// \brief Registers `table` under its content fingerprint, warming its
  /// index first so readers never pay the build. Dedups on fingerprint.
  Result<PutResult> Put(Table table);

  /// \brief Put for a caller that already holds the canonical encoding
  /// (DurableStore encodes once, logs the bytes, then inserts here).
  /// `encoded` must be EncodeTable(table) — same warm/dedup/evict
  /// behavior as Put without re-encoding.
  Result<PutResult> PutPreEncoded(Table table, const EncodedTable& encoded);

  /// \brief Registers a table from its canonical codec bytes (WAL replay,
  /// snapshot load, router read-repair's table_hex). Decodes, validates,
  /// and inserts; the fingerprint is recomputed from `bytes` so a caller
  /// cannot register content under a wrong address.
  Result<PutResult> PutEncodedBytes(std::string_view bytes);

  /// \brief Looks up a registered table; nullptr on miss (counted).
  std::shared_ptr<const Table> Get(std::string_view fingerprint);

  size_t table_count() const { return lru_.size(); }
  size_t bytes() const { return lru_.cost(); }
  size_t capacity_bytes() const { return capacity_bytes_; }

  uint64_t puts() const { return puts_->value(); }
  uint64_t hits() const { return hits_->value(); }
  uint64_t misses() const { return misses_->value(); }
  uint64_t evictions() const { return evictions_->value(); }

 private:
  /// Shard and bucket selection from the low hex digits of the
  /// fingerprint, which is already a 64-bit hash, so any slice of it is
  /// uniform. Transparent: Get looks up a string_view without a copy.
  struct FingerprintHash {
    using is_transparent = void;
    size_t operator()(std::string_view fingerprint) const;
  };

  size_t capacity_bytes_;
  ShardedLru<std::string, std::shared_ptr<const Table>, FingerprintHash> lru_;
  obs::Counter* puts_;
  obs::Counter* hits_;
  obs::Counter* misses_;
  obs::Counter* evictions_;
};

}  // namespace uctr::store

#endif  // UCTR_STORE_REGISTRY_H_
