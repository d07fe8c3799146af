// A small intrusive-order LRU cache (the serving layer's caches and a
// snapshot's LSH indexes).
//
// The result cache used to be FIFO: a deque of keys in insertion order,
// evicting the oldest INSERT. Under a steady query mix that evicts the
// hottest entries as readily as the coldest — a spec queried every second
// ages out as fast as one queried once. This LRU keeps a recency list
// (front = most recent) and moves an entry to the front on every hit, so
// eviction always removes the least-recently USED key.
//
// Entries carry a weight (1 unless Put says otherwise) and the capacity
// bounds their sum, so one template serves count-bounded caches (the
// server's) and byte-bounded ones (a snapshot's LSH indexes, weighted by
// their bytes).
//
// Externally locked by design: the cache has no lock of its own — the
// server's bookkeeping mutex already serializes access, and the guarded
// sections are pointer splices. The locking contract is enforced at the
// DECLARATION site, not here: SkyServer declares each cache instance
// SKYDIVER_GUARDED_BY(mutex_), which makes any method call on it outside
// the server's critical section a clang -Wthread-safety error. (The
// container's methods cannot carry REQUIRES(...) themselves: the analysis
// has no alias tracking, so a capability expression written inside this
// template could never be matched up with the caller's member mutex.)

#pragma once

#include <cstddef>
#include <list>
#include <map>
#include <utility>

#include "common/check.h"

namespace skydiver {

/// Least-recently-used map whose entries' summed weight stays within a
/// fixed capacity. Capacity 0 disables the cache entirely (Put is a no-op,
/// Get always misses). K must be strictly-weakly ordered (std::map key); V
/// is copied out on Get.
template <typename K, typename V>
class LruCache {
 public:
  explicit LruCache(size_t capacity) : capacity_(capacity) {}

  size_t capacity() const { return capacity_; }
  size_t size() const { return index_.size(); }
  /// Summed weight of the entries held.
  size_t weight() const { return weight_; }
  bool empty() const { return index_.empty(); }

  /// Looks up `key`; a hit refreshes its recency (moves it to the front of
  /// the eviction order) and returns a pointer to the stored value, valid
  /// until the next mutation. Returns nullptr on miss.
  const V* Get(const K& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    order_.splice(order_.begin(), order_, it->second);  // touch: now MRU
    return &it->second->value;
  }

  /// Inserts or overwrites `key` with `weight`, making it the most recent
  /// entry, then evicts least recent entries until the summed weight fits
  /// the capacity (an entry heavier than the capacity evicts itself).
  void Put(const K& key, V value, size_t weight = 1) {
    if (capacity_ == 0) return;
    if (const auto it = index_.find(key); it != index_.end()) {
      weight_ -= it->second->weight;
      it->second->value = std::move(value);
      it->second->weight = weight;
      order_.splice(order_.begin(), order_, it->second);
    } else {
      order_.push_front(Entry{key, std::move(value), weight});
      index_.emplace(key, order_.begin());
    }
    weight_ += weight;
    while (weight_ > capacity_) {
      SKYDIVER_DCHECK(!order_.empty());
      weight_ -= order_.back().weight;
      index_.erase(order_.back().key);
      order_.pop_back();
    }
  }

  void Clear() {
    order_.clear();
    index_.clear();
    weight_ = 0;
  }

 private:
  struct Entry {
    K key;
    V value;
    size_t weight;
  };

  size_t capacity_;
  size_t weight_ = 0;
  std::list<Entry> order_;  // front = most recently used
  std::map<K, typename std::list<Entry>::iterator> index_;
};

}  // namespace skydiver
