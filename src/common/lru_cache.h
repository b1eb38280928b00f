#ifndef LIPSTICK_COMMON_LRU_CACHE_H_
#define LIPSTICK_COMMON_LRU_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>

namespace lipstick {

/// Thread-safe LRU map from string keys to copyable values, with hit and
/// miss counters. The one cache mechanism behind the server's response
/// cache and the plan engine's composed-view cache.
template <typename V>
class LruCache {
 public:
  /// `capacity` = max entries; 0 disables the cache entirely.
  explicit LruCache(size_t capacity) : capacity_(capacity) {}

  /// Probes `keys` in order and copies out the value of the first one
  /// present, refreshing its LRU position and storing its position in
  /// `keys` into `*index` (when non-null). Counts exactly one hit or one
  /// miss per call, however many keys it probes.
  bool Get(std::span<const std::string> keys, V* value, size_t* index) {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < keys.size(); ++i) {
      auto it = index_.find(keys[i]);
      if (it == index_.end()) continue;
      lru_.splice(lru_.begin(), lru_, it->second);
      *value = it->second->value;
      if (index != nullptr) *index = i;
      ++hits_;
      return true;
    }
    ++misses_;
    return false;
  }

  /// Looks up one key; see above.
  bool Get(const std::string& key, V* value) {
    return Get(std::span<const std::string>(&key, 1), value, nullptr);
  }

  /// Inserts (or refreshes) `key`, evicting the least recently used entry
  /// when over capacity. No-op at capacity 0.
  void Put(const std::string& key, V value) {
    if (capacity_ == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->value = std::move(value);
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    lru_.push_front(Slot{key, std::move(value)});
    index_[key] = lru_.begin();
    while (lru_.size() > capacity_) {
      index_.erase(lru_.back().key);
      lru_.pop_back();
    }
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return lru_.size();
  }
  uint64_t hits() const {
    std::lock_guard<std::mutex> lock(mu_);
    return hits_;
  }
  uint64_t misses() const {
    std::lock_guard<std::mutex> lock(mu_);
    return misses_;
  }

 private:
  struct Slot {
    std::string key;
    V value;
  };

  const size_t capacity_;
  mutable std::mutex mu_;  // guards everything below
  std::list<Slot> lru_;    // front = most recently used
  std::unordered_map<std::string, typename std::list<Slot>::iterator> index_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace lipstick

#endif  // LIPSTICK_COMMON_LRU_CACHE_H_
