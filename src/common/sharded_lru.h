#ifndef UCTR_COMMON_SHARDED_LRU_H_
#define UCTR_COMMON_SHARDED_LRU_H_

#include <algorithm>
#include <functional>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

namespace uctr {

/// \brief The repo's one LRU: `num_shards` shards, each a mutex, a
/// recency list and a hash map, so concurrent callers rarely contend. A
/// key lives in shard `Hash(key) % num_shards`; a Hash that declares
/// `is_transparent` lets Get take any type it hashes (e.g. a string_view
/// for string keys) without building a Key.
///
/// Every entry has a cost (1 in a count-bounded cache, bytes in a
/// byte-bounded one), and the budget is split evenly across shards. After
/// a write, a shard over its share evicts from its cold end, never the
/// entry just written: one entry costlier than a shard is admitted alone.
///
/// The cache counts nothing itself; writes return how many entries they
/// evicted so callers keep their own metrics. Thread-safe. Values are
/// handed out by copy (use shared_ptr for anything large).
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class ShardedLru {
 public:
  /// \param budget total cost, clamped to >= 1.
  /// \param num_shards clamped to [1, budget].
  ShardedLru(size_t budget, size_t num_shards)
      : shards_(std::clamp<size_t>(num_shards, 1, std::max<size_t>(budget, 1))),
        shard_budget_((std::max<size_t>(budget, 1) + shards_.size() - 1) /
                      shards_.size()) {}

  /// \brief Looks up `key` and marks it most recently used; on a hit,
  /// `cost` (if given) receives the entry's cost.
  template <typename K>
  std::optional<Value> Get(const K& key, size_t* cost = nullptr) {
    Shard& shard = shards_[ShardIndex(key)];
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) return std::nullopt;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    if (cost != nullptr) *cost = it->second->cost;
    return it->second->value;
  }

  /// \brief Inserts or replaces `key`'s entry as most recently used.
  /// Returns the number of entries evicted.
  size_t Put(Key key, Value value, size_t cost = 1) {
    return Write(std::move(key), std::move(value), cost, true).evicted;
  }

  struct InsertResult {
    bool inserted = false;  ///< false: an existing entry was kept
    size_t cost = 0;        ///< the resident entry's cost
    size_t evicted = 0;     ///< entries evicted to make room
  };

  /// \brief Inserts `value` only if `key` is absent; an existing entry is
  /// kept and marked most recently used.
  InsertResult InsertIfAbsent(Key key, Value value, size_t cost) {
    return Write(std::move(key), std::move(value), cost, false);
  }

  template <typename K>
  size_t ShardIndex(const K& key) const {
    return Hash{}(key) % shards_.size();
  }

  /// \brief Entries / summed cost across shards (approximate).
  size_t size() const {
    return Sum([](const Shard& s) { return s.lru.size(); });
  }
  size_t cost() const {
    return Sum([](const Shard& s) { return s.cost; });
  }

  size_t num_shards() const { return shards_.size(); }
  size_t shard_budget() const { return shard_budget_; }

 private:
  struct Node {
    Key key;
    Value value;
    size_t cost;
  };
  using List = std::list<Node>;
  struct alignas(64) Shard {  // one cache line apart: no false sharing
    mutable std::mutex mu;
    List lru;  // front = most recently used
    std::unordered_map<Key, typename List::iterator, Hash, std::equal_to<>>
        index;
    size_t cost = 0;
  };

  /// Writes `key` to the hot end (the value only if new or `replace`),
  /// then evicts from the cold end while the shard is over budget.
  InsertResult Write(Key key, Value value, size_t cost, bool replace) {
    Shard& shard = shards_[ShardIndex(key)];
    std::lock_guard<std::mutex> lock(shard.mu);
    auto [it, inserted] = shard.index.try_emplace(std::move(key));
    if (inserted) {
      shard.lru.push_front(Node{it->first, Value(), 0});
      it->second = shard.lru.begin();
    } else {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    }
    Node& node = *it->second;
    if (inserted || replace) {
      shard.cost = shard.cost - node.cost + cost;
      node.value = std::move(value);
      node.cost = cost;
    }
    return {inserted, node.cost, Evict(shard)};
  }

  size_t Evict(Shard& shard) {
    size_t evicted = 0;
    for (; shard.cost > shard_budget_ && shard.lru.size() > 1; ++evicted) {
      shard.cost -= shard.lru.back().cost;
      shard.index.erase(shard.lru.back().key);
      shard.lru.pop_back();
    }
    return evicted;
  }

  template <typename F>
  size_t Sum(F f) const {
    size_t total = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      total += f(shard);
    }
    return total;
  }

  std::vector<Shard> shards_;  // never resized: a Shard cannot move
  size_t shard_budget_;
};

}  // namespace uctr

#endif  // UCTR_COMMON_SHARDED_LRU_H_
