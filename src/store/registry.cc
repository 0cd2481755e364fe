#include "store/registry.h"

#include <optional>
#include <utility>

namespace uctr::store {

size_t TableRegistry::FingerprintHash::operator()(
    std::string_view fingerprint) const {
  size_t h = 0;
  size_t start = fingerprint.size() >= 8 ? fingerprint.size() - 8 : 0;
  for (size_t i = start; i < fingerprint.size(); ++i) {
    char c = fingerprint[i];
    h = h * 16 + static_cast<size_t>(c <= '9' ? c - '0' : c - 'a' + 10);
  }
  return h;
}

TableRegistry::TableRegistry(RegistryConfig config,
                             obs::MetricsRegistry* metrics)
    : capacity_bytes_(config.capacity_bytes),
      lru_(config.capacity_bytes, config.num_shards) {
  obs::MetricsRegistry& reg = metrics ? *metrics : obs::DefaultRegistry();
  puts_ = reg.counter("store_puts_total");
  hits_ = reg.counter("store_hits_total");
  misses_ = reg.counter("store_misses_total");
  evictions_ = reg.counter("store_evictions_total");
}

EncodedTable TableRegistry::EncodeTable(const Table& table) {
  EncodedTable out;
  out.bytes = Codec::Encode(table.columns());
  out.fingerprint = Codec::Fingerprint(out.bytes);
  return out;
}

Result<PutResult> TableRegistry::Put(Table table) {
  EncodedTable encoded = EncodeTable(table);
  return PutPreEncoded(std::move(table), encoded);
}

Result<PutResult> TableRegistry::PutEncodedBytes(std::string_view bytes) {
  Result<ColumnarTable> columnar = Codec::Decode(bytes);
  if (!columnar.ok()) return columnar.status();
  EncodedTable encoded;
  encoded.bytes.assign(bytes.data(), bytes.size());
  encoded.fingerprint = Codec::Fingerprint(bytes);
  return PutPreEncoded(Table(std::move(*columnar)), encoded);
}

Result<PutResult> TableRegistry::PutPreEncoded(Table table,
                                               const EncodedTable& encoded) {
  puts_->Increment();

  PutResult result;
  result.fingerprint = encoded.fingerprint;

  // Dedup before warming: an identical table is already resident.
  if (lru_.Get(result.fingerprint, &result.bytes)) return result;

  // Warm outside the shard lock: index builds on a large table are the
  // expensive part of Put and must not block readers of other entries.
  // The entry is charged what it holds: its typed columns and warmed
  // column caches. The token inventory is built later, by the first
  // request that links a sentence to the table, and is not charged.
  table.WarmIndex();
  const size_t bytes =
      table.columns().ApproxBytes() + table.index().ApproxBytes();
  // A concurrent Put of the same content may have won the race meanwhile;
  // then theirs stays. Evicted tables live on in borrowers' shared_ptrs.
  auto inserted = lru_.InsertIfAbsent(
      result.fingerprint, std::make_shared<const Table>(std::move(table)),
      bytes);
  result.bytes = inserted.cost;
  result.inserted = inserted.inserted;
  if (inserted.evicted > 0) evictions_->Increment(inserted.evicted);
  return result;
}

std::shared_ptr<const Table> TableRegistry::Get(std::string_view fingerprint) {
  std::optional<std::shared_ptr<const Table>> hit = lru_.Get(fingerprint);
  (hit ? hits_ : misses_)->Increment();
  return hit ? std::move(*hit) : nullptr;
}

}  // namespace uctr::store
