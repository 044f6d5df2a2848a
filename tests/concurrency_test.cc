// Unit tests for the concurrency substrate of the SodaEngine: the
// fixed-size ThreadPool and the bounded thread-safe LruCache.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/lru_cache.h"
#include "common/thread_pool.h"

namespace soda {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, ZeroAndOneThreadRunInline) {
  for (size_t n : {size_t{0}, size_t{1}}) {
    ThreadPool pool(n);
    EXPECT_EQ(pool.size(), 0u);
    std::thread::id caller = std::this_thread::get_id();
    std::thread::id ran_on;
    pool.Submit([&] { ran_on = std::this_thread::get_id(); });
    EXPECT_EQ(ran_on, caller);
  }
}

TEST(ThreadPoolTest, SubmitRunsAllTasks) {
  std::atomic<int> count{0};
  std::mutex mu;
  std::condition_variable done;
  // Declared after everything its tasks touch: the pool joins its workers
  // first, so no worker can still be inside notify_all when `done` and
  // `mu` are destroyed.
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  const int kTasks = 100;
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&] {
      if (count.fetch_add(1) + 1 == kTasks) {
        std::lock_guard<std::mutex> lock(mu);
        done.notify_all();
      }
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  done.wait_for(lock, std::chrono::seconds(30),
                [&] { return count.load() == kTasks; });
  EXPECT_EQ(count.load(), kTasks);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, ParallelForSerialOrderWithoutWorkers) {
  ThreadPool pool(1);
  std::vector<size_t> order;
  pool.ParallelFor(5, [&](size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, ParallelForEmptyAndNested) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [&](size_t) { FAIL() << "body must not run"; });
  // The calling thread participates, so ParallelFor makes progress even
  // when issued from within a pool task.
  std::atomic<int> inner{0};
  std::atomic<bool> finished{false};
  pool.Submit([&] {
    pool.ParallelFor(8, [&](size_t) { inner.fetch_add(1); });
    finished.store(true);
  });
  for (int spin = 0; spin < 3000 && !finished.load(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(finished.load());
  EXPECT_EQ(inner.load(), 8);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        count.fetch_add(1);
      });
    }
  }  // join
  EXPECT_EQ(count.load(), 50);
}

// ---------------------------------------------------------------------------
// LruCache
// ---------------------------------------------------------------------------

TEST(LruCacheTest, MissThenHit) {
  LruCache<std::string, int> cache(4);
  EXPECT_EQ(cache.Get("a"), nullptr);
  cache.Put("a", std::make_shared<const int>(1));
  auto hit = cache.Get("a");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 1);
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.size, 1u);
  EXPECT_EQ(stats.capacity, 4u);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache<std::string, int> cache(2);
  cache.Put("a", std::make_shared<const int>(1));
  cache.Put("b", std::make_shared<const int>(2));
  ASSERT_NE(cache.Get("a"), nullptr);  // refresh a; b is now LRU
  cache.Put("c", std::make_shared<const int>(3));
  EXPECT_EQ(cache.Get("b"), nullptr);
  EXPECT_NE(cache.Get("a"), nullptr);
  EXPECT_NE(cache.Get("c"), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(LruCacheTest, PutReplacesValue) {
  LruCache<std::string, int> cache(2);
  cache.Put("a", std::make_shared<const int>(1));
  cache.Put("a", std::make_shared<const int>(9));
  auto hit = cache.Get("a");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 9);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(LruCacheTest, ZeroCapacityDisables) {
  LruCache<std::string, int> cache(0);
  cache.Put("a", std::make_shared<const int>(1));
  EXPECT_EQ(cache.Get("a"), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(LruCacheTest, EvictionDoesNotInvalidateReaders) {
  LruCache<std::string, int> cache(1);
  cache.Put("a", std::make_shared<const int>(42));
  auto held = cache.Get("a");
  cache.Put("b", std::make_shared<const int>(7));  // evicts a
  EXPECT_EQ(cache.Get("a"), nullptr);
  EXPECT_EQ(*held, 42);  // reader's shared_ptr keeps the value alive
}

TEST(LruCacheTest, EraseIfDropsExactlyMatchingKeys) {
  LruCache<std::string, int> cache(8);
  cache.Put("orders today", std::make_shared<const int>(1));
  cache.Put("orders open", std::make_shared<const int>(2));
  cache.Put("customers Zürich", std::make_shared<const int>(3));
  size_t erased = cache.EraseIf([](const std::string& key, int) {
    return key.rfind("orders", 0) == 0;
  });
  EXPECT_EQ(erased, 2u);
  EXPECT_EQ(cache.Get("orders today"), nullptr);
  EXPECT_EQ(cache.Get("orders open"), nullptr);
  EXPECT_NE(cache.Get("customers Zürich"), nullptr);
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.invalidations, 2u);
  EXPECT_EQ(stats.evictions, 0u);  // keyed eviction is booked separately
  EXPECT_EQ(stats.size, 1u);
}

// The predicate sees each stored value, so an invalidation can judge an
// entry by what it holds (the freshness layer reads the cached answer's
// dependencies this way).
TEST(LruCacheTest, EraseIfJudgesStoredValues) {
  LruCache<std::string, int> cache(8);
  cache.Put("a", std::make_shared<const int>(1));
  cache.Put("b", std::make_shared<const int>(20));
  cache.Put("c", std::make_shared<const int>(30));
  EXPECT_EQ(
      cache.EraseIf([](const std::string&, int value) { return value > 10; }),
      2u);
  EXPECT_NE(cache.Get("a"), nullptr);
  EXPECT_EQ(cache.Get("b"), nullptr);
  EXPECT_EQ(cache.Get("c"), nullptr);
}

TEST(LruCacheTest, EraseIfPreservesRecencyOrderOfSurvivors) {
  LruCache<std::string, int> cache(2);
  cache.Put("a", std::make_shared<const int>(1));
  cache.Put("b", std::make_shared<const int>(2));
  cache.Put("c", std::make_shared<const int>(3));  // evicts a; order c,b
  EXPECT_EQ(
      cache.EraseIf([](const std::string& key, int) { return key == "x"; }),
      0u);
  cache.Put("d", std::make_shared<const int>(4));  // must evict b, not c
  EXPECT_EQ(cache.Get("b"), nullptr);
  EXPECT_NE(cache.Get("c"), nullptr);
}

TEST(LruCacheTest, EraseIfDoesNotInvalidateReaders) {
  LruCache<std::string, int> cache(4);
  cache.Put("a", std::make_shared<const int>(42));
  auto held = cache.Get("a");
  EXPECT_EQ(cache.EraseIf([](const std::string&, int) { return true; }), 1u);
  EXPECT_EQ(cache.Get("a"), nullptr);
  EXPECT_EQ(*held, 42);
}

TEST(LruCacheTest, ConcurrentEraseIfAgainstMixedTraffic) {
  LruCache<std::string, int> cache(16);
  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 2000; ++i) {
        std::string key = "k" + std::to_string((i * 7 + t) % 32);
        if (i % 3 == 0) {
          cache.Put(key, std::make_shared<const int>(i));
        } else {
          auto hit = cache.Get(key);
          if (hit && (*hit < 0 || *hit >= 2000)) failed.store(true);
        }
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < 200; ++i) {
      cache.EraseIf([i](const std::string& key, int) {
        return key == "k" + std::to_string(i % 32);
      });
    }
  });
  for (auto& thread : threads) thread.join();
  EXPECT_FALSE(failed.load());
  CacheStats stats = cache.stats();
  EXPECT_LE(stats.size, 16u);
}

TEST(LruCacheTest, ConcurrentMixedTraffic) {
  LruCache<std::string, int> cache(16);
  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 2000; ++i) {
        std::string key = "k" + std::to_string((i * 7 + t) % 32);
        if (i % 3 == 0) {
          cache.Put(key, std::make_shared<const int>(i));
        } else {
          auto hit = cache.Get(key);
          if (hit && (*hit < 0 || *hit >= 2000)) failed.store(true);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_FALSE(failed.load());
  CacheStats stats = cache.stats();
  EXPECT_LE(stats.size, 16u);
  EXPECT_GT(stats.hits + stats.misses, 0u);
}

}  // namespace
}  // namespace soda
