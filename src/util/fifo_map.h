// Bounded map that evicts its oldest insertion first.
//
// Shared by the two fixed-size caches of the simulator: the process-wide
// kernel cost cache (sim/kernelexec) and the job server's in-memory result
// memo (svc/server). Both only ever insert absent keys and look keys up,
// so insertion order is the whole eviction policy: once `capacity` entries
// are held, each new key pushes out the one inserted longest ago. Not
// thread-safe; callers hold their own lock.
#pragma once

#include <cstddef>
#include <deque>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace smd::util {

template <class K, class V>
class FifoMap {
 public:
  explicit FifoMap(std::size_t capacity) : capacity_(capacity) {
    if (capacity_ == 0) throw std::invalid_argument("FifoMap: capacity 0");
  }

  /// The value stored under `key`, or null.
  const V* find(const K& key) const {
    const auto it = map_.find(key);
    return it == map_.end() ? nullptr : &it->second;
  }

  /// Store `value` under `key` unless the key is already present (the
  /// stored value then wins), evicting the oldest entry when full.
  /// Returns the value now stored under `key`.
  const V& insert(K key, V value) {
    if (const V* have = find(key)) return *have;
    if (map_.size() == capacity_) {
      map_.erase(map_.find(*order_.front()));
      order_.pop_front();
    }
    // Element addresses survive rehashing, so the order queue can point
    // at the map's own copy of the key instead of storing a second one.
    const auto it = map_.emplace(std::move(key), std::move(value)).first;
    order_.push_back(&it->first);
    return it->second;
  }

  std::size_t size() const { return map_.size(); }

 private:
  std::size_t capacity_;
  std::unordered_map<K, V> map_;
  std::deque<const K*> order_;  ///< oldest insertion first
};

}  // namespace smd::util
