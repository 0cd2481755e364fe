#include "serve/result_cache.h"

#include <cctype>

#include "common/hash.h"

namespace uctr::serve {

size_t ResultCache::KeyHash::operator()(const Key& k) const {
  return static_cast<size_t>(
      hash::Fnv1a64(k.query, hash::kFnv64TruncatedBasis ^ k.table_fp));
}

ResultCache::ResultCache(size_t capacity, size_t num_shards,
                         MetricsRegistry* metrics)
    : lru_(capacity, num_shards) {
  if (metrics != nullptr) {
    hits_ = metrics->counter("cache_hits_total");
    misses_ = metrics->counter("cache_misses_total");
    evictions_ = metrics->counter("cache_evictions_total");
  }
}

std::optional<std::string> ResultCache::Get(uint64_t table_fp,
                                            const std::string& query) {
  std::optional<std::string> hit = lru_.Get(Key{table_fp, query});
  Counter* counter = hit ? hits_ : misses_;
  if (counter != nullptr) counter->Increment();
  return hit;
}

void ResultCache::Put(uint64_t table_fp, const std::string& query,
                      std::string value) {
  size_t evicted = lru_.Put(Key{table_fp, query}, std::move(value));
  if (evictions_ != nullptr && evicted > 0) evictions_->Increment(evicted);
}

uint64_t ResultCache::FingerprintCsv(std::string_view csv) {
  return hash::Fnv1a64(csv,
                       hash::Fnv1a64("table", hash::kFnv64TruncatedBasis));
}

uint64_t ResultCache::EvidenceKey(Evidence kind, std::string_view table,
                                  const std::vector<std::string>& paragraph) {
  uint64_t key = hash::Mix64(static_cast<uint64_t>(kind));
  key = hash::Mix64(key ^ FingerprintCsv(table));
  for (const std::string& sentence : paragraph) {
    key = hash::Mix64(key ^ FingerprintCsv(sentence));
  }
  return key;
}

std::string ResultCache::NormalizeQuery(std::string_view query) {
  std::string out;
  out.reserve(query.size());
  bool pending_space = false;
  for (char c : query) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      pending_space = !out.empty();
      continue;
    }
    if (pending_space) {
      out += ' ';
      pending_space = false;
    }
    out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  while (!out.empty() && (out.back() == '.' || out.back() == '?' ||
                          out.back() == '!' || out.back() == ' ')) {
    out.pop_back();
  }
  return out;
}

}  // namespace uctr::serve
