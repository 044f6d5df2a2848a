// Bounded, thread-safe LRU cache.
//
// The SODA engine fronts the whole pipeline with one of these, keyed on
// the whitespace-normalized query string: business-user workloads repeat
// a small set of queries (dashboards, saved searches), so a tiny cache
// absorbs most of the traffic. Values are stored as shared_ptr so the
// cache itself never copies the payload on a hit and eviction never
// invalidates a reader.

#ifndef SODA_COMMON_LRU_CACHE_H_
#define SODA_COMMON_LRU_CACHE_H_

#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace soda {

/// Monotonic hit/miss counters, readable while the cache is in use.
struct CacheStats {
  size_t hits = 0;
  size_t misses = 0;
  size_t evictions = 0;      // capacity-driven LRU evictions
  size_t invalidations = 0;  // keyed evictions via EraseIf
  size_t size = 0;
  size_t capacity = 0;

  double hit_rate() const {
    size_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }

  /// Elementwise sum — how a sharded deployment aggregates its replicas'
  /// books into one view (capacity sums too: it is the fleet's total).
  CacheStats& operator+=(const CacheStats& other) {
    hits += other.hits;
    misses += other.misses;
    evictions += other.evictions;
    invalidations += other.invalidations;
    size += other.size;
    capacity += other.capacity;
    return *this;
  }
};

template <typename K, typename V>
class LruCache {
 public:
  /// A capacity of 0 disables the cache: every Get misses, Put is a no-op.
  explicit LruCache(size_t capacity) : capacity_(capacity) {}

  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;

  /// Returns the cached value and refreshes its recency, or nullptr.
  std::shared_ptr<const V> Get(const K& key) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end()) {
      ++misses_;
      return nullptr;
    }
    ++hits_;
    order_.splice(order_.begin(), order_, it->second);
    return it->second->second;
  }

  /// Returns the cached value, or nullptr, without booking a hit or a
  /// miss and without refreshing its recency: a read that consults an
  /// entry without being served by it.
  std::shared_ptr<const V> Peek(const K& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    return it == map_.end() ? nullptr : it->second->second;
  }

  /// Inserts (or replaces) a value, evicting the least recently used
  /// entry when over capacity.
  void Put(const K& key, std::shared_ptr<const V> value) {
    if (capacity_ == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      it->second->second = std::move(value);
      order_.splice(order_.begin(), order_, it->second);
      return;
    }
    order_.emplace_front(key, std::move(value));
    map_[key] = order_.begin();
    if (map_.size() > capacity_) {
      map_.erase(order_.back().first);
      order_.pop_back();
      ++evictions_;
    }
  }

  /// Counts `n` extra hits without probing the map. The engine's batch
  /// path dedups identical normalized queries before touching the cache,
  /// so repeats of one key inside a batch are served from the in-flight
  /// computed entry; this keeps the books right — one miss (the unique
  /// probe) plus N-1 hits per batch. No-op when the cache is disabled.
  void RecordDedupHits(size_t n) {
    if (capacity_ == 0 || n == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    hits_ += n;
  }

  /// Keyed eviction: drops every entry for which `pred(key, value)`
  /// holds and returns how many were dropped. This is the
  /// cache-invalidation hook — when base data changes, the engine evicts
  /// exactly the answers the change can affect (judged from the stored
  /// answers themselves) instead of nuking the whole cache. The predicate
  /// runs under the cache lock, so it must be cheap and must not touch
  /// the cache; in-flight readers keep their shared_ptr payloads alive.
  template <typename Pred>
  size_t EraseIf(Pred pred) {
    std::lock_guard<std::mutex> lock(mu_);
    size_t erased = 0;
    for (auto it = order_.begin(); it != order_.end();) {
      if (pred(it->first, *it->second)) {
        map_.erase(it->first);
        it = order_.erase(it);
        ++erased;
      } else {
        ++it;
      }
    }
    invalidations_ += erased;
    return erased;
  }

  CacheStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    CacheStats s;
    s.hits = hits_;
    s.misses = misses_;
    s.evictions = evictions_;
    s.invalidations = invalidations_;
    s.size = map_.size();
    s.capacity = capacity_;
    return s;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
  }
  size_t capacity() const { return capacity_; }

 private:
  using Entry = std::pair<K, std::shared_ptr<const V>>;

  const size_t capacity_;
  mutable std::mutex mu_;
  std::list<Entry> order_;  // front = most recently used
  std::unordered_map<K, typename std::list<Entry>::iterator> map_;
  size_t hits_ = 0;
  size_t misses_ = 0;
  size_t evictions_ = 0;
  size_t invalidations_ = 0;
};

}  // namespace soda

#endif  // SODA_COMMON_LRU_CACHE_H_
