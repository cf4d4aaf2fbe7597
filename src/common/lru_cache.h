#pragma once

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <utility>

namespace mood {

/// Bounded least-recently-used map from string keys to values, the one LRU
/// behind the plan cache, the result cache and the feedback store. Every entry
/// carries a cost; the capacity bounds the total cost (entry counts use cost
/// 1, byte budgets use the entry's byte size). A capacity of 0 admits nothing.
///
/// Not thread-safe: each owner serializes access with its own mutex.
template <typename V>
class LruCache {
 public:
  size_t capacity() const { return capacity_; }
  size_t size() const { return lru_.size(); }
  /// Entries Find erased because they failed their validity check.
  uint64_t invalidations() const { return invalidations_; }

  /// Sets the capacity, evicting least-recently-used entries until the
  /// resident cost fits.
  void SetCapacity(size_t capacity) {
    capacity_ = capacity;
    EvictToFit(0);
  }

  /// Returns the value under `key` and makes it most recently used, or
  /// nullptr. An entry for which `still_valid(value)` is false is erased,
  /// counted in invalidations(), and reported as nullptr too.
  template <typename Valid>
  V* Find(const std::string& key, const Valid& still_valid) {
    auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    if (!still_valid(std::as_const(it->second->value))) {
      Erase(it);
      invalidations_++;
      return nullptr;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    return &it->second->value;
  }

  /// Inserts or replaces `key` as the most recently used entry, then evicts
  /// least-recently-used entries until the total cost fits. An entry costlier
  /// than the whole capacity is not admitted and leaves the cache untouched.
  /// Returns the number of entries evicted to make room.
  size_t Put(const std::string& key, V value, size_t cost = 1) {
    if (cost > capacity_) return 0;
    auto it = index_.find(key);
    if (it != index_.end()) Erase(it);
    const size_t evicted = EvictToFit(cost);
    lru_.push_front(Node{key, std::move(value), cost});
    index_.emplace(key, lru_.begin());
    cost_ += cost;
    return evicted;
  }

  /// True when any key starts with `prefix`. Read-only: no recency change.
  bool ContainsPrefix(const std::string& prefix) const {
    for (const Node& n : lru_) {
      if (n.key.compare(0, prefix.size(), prefix) == 0) return true;
    }
    return false;
  }

 private:
  struct Node {
    std::string key;
    V value;
    size_t cost = 1;
  };
  using Index = std::unordered_map<std::string, typename std::list<Node>::iterator>;

  void Erase(typename Index::iterator it) {
    cost_ -= it->second->cost;
    lru_.erase(it->second);
    index_.erase(it);
  }

  size_t EvictToFit(size_t incoming) {
    size_t evicted = 0;
    while (!lru_.empty() && cost_ + incoming > capacity_) {
      Erase(index_.find(lru_.back().key));
      evicted++;
    }
    return evicted;
  }

  std::list<Node> lru_;  ///< front = most recently used
  Index index_;
  size_t capacity_ = 0;
  size_t cost_ = 0;
  uint64_t invalidations_ = 0;
};

}  // namespace mood
