// Tests for SodaEngine's striped result cache (config.num_shards stripes)
// and its one worker pool:
//
//   - folded-hash stripe choice: stable, whitespace-insensitive, in
//     range, and sanely distributed across 1/2/4/8 stripes;
//   - determinism: SearchAll / Search / SearchAllAsync output bytes match
//     a serial engine at every stripe count x thread count, and the async
//     delivery order does not depend on the stripe count;
//   - accounting: cache_stats() sums every stripe's books, which equal a
//     one-stripe engine's for the same traffic; each stripe is an LRU of
//     cache_capacity entries; the pool is num_threads x stripes wide;
//   - invalidation: InvalidateWhere evicts exactly the matching keys
//     across stripes, and keyed eviction is safe under concurrent Search;
//   - session affinity: a constrained session serve resumes the plan
//     cached beside its question's answer at any stripe count.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/soda.h"
#include "datasets/minibank.h"
#include "pattern/library.h"
#include "minibank_queries.h"

namespace soda {
namespace {

// Serializes everything rank-relevant about an output, snippets included,
// so "byte-identical" is literal (engine-lifetime cache counters are
// deliberately excluded: they describe the serving history, not the
// answer).
std::string Fingerprint(const SearchOutput& output) {
  std::string fp = "complexity=" + std::to_string(output.complexity) + "\n";
  for (const std::string& word : output.ignored_words) {
    fp += "ignored=" + word + "\n";
  }
  for (const SodaResult& result : output.results) {
    fp += result.sql + "\n";
    fp += "score=" + std::to_string(result.score) + "\n";
    fp += "explanation=" + result.explanation + "\n";
    fp += "connected=" + std::to_string(result.fully_connected) + "\n";
    fp += "executed=" + std::to_string(result.executed) + "\n";
    if (result.executed) fp += result.snippet.ToAsciiTable() + "\n";
  }
  return fp;
}

class EngineStripesTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto built = BuildMiniBank();
    ASSERT_TRUE(built.ok()) << built.status();
    bank_ = built.value().release();
  }
  static void TearDownTestSuite() {
    delete bank_;
    bank_ = nullptr;
  }

  static std::unique_ptr<SodaEngine> MakeStriped(size_t stripes,
                                                 size_t threads,
                                                 size_t cache_capacity) {
    SodaConfig config;
    config.num_shards = stripes;
    config.num_threads = threads;
    config.cache_capacity = cache_capacity;
    auto engine = SodaEngine::Create(&bank_->db, &bank_->graph,
                                     CreditSuissePatternLibrary(), config);
    EXPECT_TRUE(engine.ok()) << engine.status();
    return std::move(engine).value();
  }

  static std::unique_ptr<SodaEngine> MakeEngine(size_t threads,
                                                size_t cache_capacity) {
    return MakeStriped(/*stripes=*/1, threads, cache_capacity);
  }

  static MiniBank* bank_;
};

MiniBank* EngineStripesTest::bank_ = nullptr;

// ---------------------------------------------------------------------------
// Stripe choice
// ---------------------------------------------------------------------------

TEST(ShardOfKeyTest, InRangeAndStable) {
  for (size_t stripes : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    for (int i = 0; i < 100; ++i) {
      std::string key = "query number " + std::to_string(i);
      size_t stripe = ShardOfKey(key, stripes);
      EXPECT_LT(stripe, stripes);
      EXPECT_EQ(stripe, ShardOfKey(key, stripes)) << "unstable for " << key;
    }
  }
}

TEST(ShardOfKeyTest, SingleStripeAlwaysZero) {
  EXPECT_EQ(ShardOfKey("anything", 1), 0u);
  EXPECT_EQ(ShardOfKey("anything", 0), 0u);
  EXPECT_EQ(ShardOfKey("", 1), 0u);
}

TEST(ShardOfKeyTest, DistributionIsSaneAcrossStripeCounts) {
  // 400 distinct dashboard-ish keys; with a healthy folded hash every
  // stripe should carry a real share. The bound is loose (half the fair
  // share) — this guards against degenerate folding (e.g. everything on
  // stripe 0), not statistical perfection.
  constexpr size_t kKeys = 400;
  for (size_t stripes : {size_t{2}, size_t{4}, size_t{8}}) {
    std::vector<size_t> per_stripe(stripes, 0);
    for (size_t i = 0; i < kKeys; ++i) {
      std::string key =
          "revenue by region " + std::to_string(i) + " quarter view";
      ++per_stripe[ShardOfKey(key, stripes)];
    }
    size_t fair = kKeys / stripes;
    for (size_t s = 0; s < stripes; ++s) {
      EXPECT_GT(per_stripe[s], fair / 2)
          << "stripe " << s << "/" << stripes << " is starved";
      EXPECT_LT(per_stripe[s], 2 * fair)
          << "stripe " << s << "/" << stripes << " is overloaded";
    }
  }
}

TEST(ShardOfKeyTest, NormalizedKeyMakesStripeWhitespaceInsensitive) {
  for (size_t stripes : {size_t{2}, size_t{4}, size_t{8}}) {
    EXPECT_EQ(
        ShardOfKey(NormalizedQueryKey("addresses Sara Guttinger"), stripes),
        ShardOfKey(NormalizedQueryKey("  addresses   Sara Guttinger "),
                   stripes));
  }
}

// ---------------------------------------------------------------------------
// Determinism vs a serial engine
// ---------------------------------------------------------------------------

TEST_F(EngineStripesTest, SearchAllMatchesSerialEngineAtAnyStripeAndThreads) {
  const std::vector<std::string> queries = MiniBankQueries();
  auto reference = MakeEngine(/*threads=*/1, /*cache_capacity=*/0);
  std::vector<std::string> expected;
  for (const std::string& query : queries) {
    auto output = reference->Search(query);
    ASSERT_TRUE(output.ok()) << output.status();
    expected.push_back(Fingerprint(*output));
  }

  for (size_t stripes : {size_t{1}, size_t{2}, size_t{4}}) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      auto engine = MakeStriped(stripes, threads, /*cache_capacity=*/0);
      auto outputs = engine->SearchAll(queries);
      ASSERT_EQ(outputs.size(), queries.size());
      for (size_t i = 0; i < queries.size(); ++i) {
        ASSERT_TRUE(outputs[i].ok())
            << "stripes=" << stripes << " threads=" << threads << " query="
            << queries[i] << ": " << outputs[i].status();
        EXPECT_EQ(Fingerprint(*outputs[i]), expected[i])
            << "stripes=" << stripes << " threads=" << threads
            << " query=" << queries[i];
      }
    }
  }
}

TEST_F(EngineStripesTest, StripedSingleSearchMatchesSerialEngine) {
  auto reference = MakeEngine(/*threads=*/1, /*cache_capacity=*/0);
  auto striped =
      MakeStriped(/*stripes=*/4, /*threads=*/2, /*cache_capacity=*/8);
  for (const std::string& query : MiniBankQueries()) {
    auto expected = reference->Search(query);
    ASSERT_TRUE(expected.ok());
    for (int round = 0; round < 2; ++round) {  // a miss, then a hit
      auto output = striped->Search(query);
      ASSERT_TRUE(output.ok()) << output.status();
      EXPECT_EQ(output->from_cache, round == 1) << query;
      EXPECT_EQ(Fingerprint(*output), Fingerprint(*expected)) << query;
    }
  }
}

TEST_F(EngineStripesTest, PreservesInputOrderWithDuplicatesAndErrors) {
  auto engine = MakeStriped(/*stripes=*/4, /*threads=*/2, /*cache_capacity=*/8);
  const std::vector<std::string> queries = {
      "addresses Sara Guttinger",
      "sum(investments",  // unbalanced '(' — parse error
      "customers Zürich financial instruments",
      "  addresses   Sara Guttinger ",  // whitespace-variant repeat
  };
  auto outputs = engine->SearchAll(queries);
  ASSERT_EQ(outputs.size(), 4u);
  ASSERT_TRUE(outputs[0].ok());
  ASSERT_FALSE(outputs[1].ok());
  EXPECT_EQ(outputs[1].status().code(), StatusCode::kParseError);
  ASSERT_TRUE(outputs[2].ok());
  ASSERT_TRUE(outputs[3].ok());
  // The repeat met its twin in the batch dedup: identical bytes, booked
  // as an in-batch dedup hit on their stripe.
  EXPECT_EQ(Fingerprint(*outputs[0]), Fingerprint(*outputs[3]));
  EXPECT_NE(Fingerprint(*outputs[0]), Fingerprint(*outputs[2]));
  CacheStats stats = engine->cache_stats();
  EXPECT_EQ(stats.hits, 1u);
}

TEST_F(EngineStripesTest, EmptyBatch) {
  auto engine = MakeStriped(/*stripes=*/2, /*threads=*/1, /*cache_capacity=*/0);
  const std::vector<std::string> empty;
  EXPECT_TRUE(engine->SearchAll(empty).empty());
}

// ---------------------------------------------------------------------------
// Stripe and pool accounting
// ---------------------------------------------------------------------------

TEST_F(EngineStripesTest, CacheStatsSumOverStripesToOneStripeTotals) {
  const std::vector<std::string> base = MiniBankQueries();
  std::vector<std::string> traffic;
  for (int round = 0; round < 3; ++round) {
    traffic.insert(traffic.end(), base.begin(), base.end());
  }

  auto engine = MakeEngine(/*threads=*/2, /*cache_capacity=*/32);
  auto outputs = engine->SearchAll(traffic);
  for (const auto& output : outputs) ASSERT_TRUE(output.ok());
  CacheStats single = engine->cache_stats();

  for (size_t stripes : {size_t{2}, size_t{4}, size_t{8}}) {
    auto striped = MakeStriped(stripes, /*threads=*/2, /*cache_capacity=*/32);
    auto served = striped->SearchAll(traffic);
    for (const auto& output : served) ASSERT_TRUE(output.ok());
    CacheStats total = striped->cache_stats();
    // Every key lives in exactly one stripe, so the stripes' books must
    // sum to exactly the one-stripe books for identical traffic.
    EXPECT_EQ(total.hits, single.hits) << "stripes=" << stripes;
    EXPECT_EQ(total.misses, single.misses) << "stripes=" << stripes;
    EXPECT_EQ(total.size, single.size) << "stripes=" << stripes;
    EXPECT_EQ(total.capacity, stripes * 32) << "stripes=" << stripes;
  }
}

// Each stripe is an LRU of cache_capacity entries of its own: with one
// entry per stripe, keys on distinct stripes all stay cached, and every
// further key on an occupied stripe evicts that stripe's entry.
TEST_F(EngineStripesTest, EachStripeIsAnLruOfCacheCapacity) {
  const std::vector<std::string> queries = MiniBankQueries();
  for (size_t stripes : {size_t{1}, size_t{2}, size_t{4}}) {
    SCOPED_TRACE("stripes=" + std::to_string(stripes));
    std::set<size_t> occupied;
    for (const std::string& query : queries) {
      occupied.insert(ShardOfKey(NormalizedQueryKey(query), stripes));
    }
    auto engine = MakeStriped(stripes, /*threads=*/1, /*cache_capacity=*/1);
    for (const std::string& query : queries) {
      ASSERT_TRUE(engine->Search(query).ok());
    }
    CacheStats stats = engine->cache_stats();
    EXPECT_EQ(stats.size, occupied.size());
    EXPECT_EQ(stats.evictions, queries.size() - occupied.size());
    EXPECT_EQ(stats.capacity, stripes);
  }
}

// One pool serves every stripe: num_threads workers per stripe, or the
// machine's hardware concurrency when num_threads is 0.
TEST_F(EngineStripesTest, PoolIsThreadsTimesStripesWide) {
  EXPECT_EQ(MakeStriped(/*stripes=*/1, /*threads=*/1, 0)->num_threads(), 1u);
  EXPECT_EQ(MakeStriped(/*stripes=*/2, /*threads=*/2, 0)->num_threads(), 4u);
  EXPECT_EQ(MakeStriped(/*stripes=*/4, /*threads=*/1, 0)->num_threads(), 4u);
  size_t hw = std::thread::hardware_concurrency();
  EXPECT_EQ(MakeStriped(/*stripes=*/4, /*threads=*/0, 0)->num_threads(),
            std::max<size_t>(1, hw));
}

TEST_F(EngineStripesTest, RepeatTrafficHitsItsOwningStripe) {
  const std::vector<std::string> queries = MiniBankQueries();
  for (size_t stripes : {size_t{1}, size_t{2}, size_t{4}}) {
    SCOPED_TRACE("stripes=" + std::to_string(stripes));
    auto engine = MakeStriped(stripes, /*threads=*/1, /*cache_capacity=*/16);
    for (const auto& output : engine->SearchAll(queries)) {
      ASSERT_TRUE(output.ok());
    }
    auto again = engine->SearchAll(queries);
    for (const auto& output : again) {
      ASSERT_TRUE(output.ok());
      EXPECT_TRUE((*output).from_cache);
    }
    CacheStats stats = engine->cache_stats();
    EXPECT_EQ(stats.misses, queries.size());
    EXPECT_EQ(stats.hits, queries.size());
  }
}

// ---------------------------------------------------------------------------
// Plans cached beside answers
// ---------------------------------------------------------------------------

// A constrained session serve with an empty plan slot finds its
// question's cached plan in the stripe that holds the question's answer —
// the constraints do not move the stripe — and resumes Step 5 alone. The
// peek books no hit or miss, fills nothing, and the answer equals a
// cold constrained translation; a slot-less constrained Search stays
// cold.
TEST_F(EngineStripesTest, ConstrainedSessionServeResumesTheCachedPlan) {
  auto reference = MakeEngine(/*threads=*/1, /*cache_capacity=*/0);
  const std::vector<std::string> queries = MiniBankQueries();
  for (size_t stripes : {1u, 2u, 4u}) {
    SCOPED_TRACE("stripes=" + std::to_string(stripes));
    auto engine = MakeStriped(stripes, /*threads=*/2, /*cache_capacity=*/16);
    // Session serves fill the cache, each entry beside its plan.
    for (const std::string& query : queries) {
      std::shared_ptr<const TranslationPlan> plan;
      auto output = engine->SearchSession(query, SessionConstraints{}, &plan);
      ASSERT_TRUE(output.ok()) << output.status();
    }
    const CacheStats before = engine->cache_stats();
    for (const std::string& query : queries) {
      SCOPED_TRACE(query);
      auto unconstrained = reference->Search(query);
      ASSERT_TRUE(unconstrained.ok());
      if (unconstrained->results.empty()) continue;
      SessionConstraints pinned;
      pinned.PinTable(unconstrained->results[0].statement.from[0].table);
      auto cold = reference->Search(query, pinned);
      ASSERT_TRUE(cold.ok()) << cold.status();

      std::shared_ptr<const TranslationPlan> plan;
      auto resumed = engine->SearchSession(query, pinned, &plan);
      ASSERT_TRUE(resumed.ok()) << resumed.status();
      EXPECT_EQ(resumed->stages_skipped, 4u);
      EXPECT_FALSE(resumed->from_cache);
      EXPECT_NE(plan, nullptr);
      EXPECT_EQ(Fingerprint(*resumed), Fingerprint(*cold));

      auto searched = engine->Search(query, pinned);
      ASSERT_TRUE(searched.ok()) << searched.status();
      EXPECT_EQ(searched->stages_skipped, 0u);
      EXPECT_EQ(Fingerprint(*searched), Fingerprint(*cold));
    }
    const CacheStats after = engine->cache_stats();
    EXPECT_EQ(after.hits, before.hits);
    EXPECT_EQ(after.misses, before.misses);
    EXPECT_EQ(after.size, before.size);
  }
}

// ---------------------------------------------------------------------------
// Async streaming
// ---------------------------------------------------------------------------

TEST_F(EngineStripesTest, AsyncStreamsExactlyOncePerIndex) {
  const std::vector<std::string> queries = MiniBankQueries();
  auto engine = MakeStriped(/*stripes=*/4, /*threads=*/2, /*cache_capacity=*/0);

  std::map<std::pair<size_t, size_t>, int> deliveries;
  AsyncSearch search = engine->SearchAllAsync(
      queries, [&](size_t query_index, size_t result_index, const SodaResult&) {
        ++deliveries[{query_index, result_index}];
      });
  ASSERT_EQ(search.outputs.size(), queries.size());
  SnippetStream::Summary summary = search.snippets.Run();

  size_t expected_total = 0;
  for (size_t q = 0; q < queries.size(); ++q) {
    ASSERT_TRUE(search.outputs[q].ok()) << queries[q];
    for (size_t r = 0; r < search.outputs[q]->results.size(); ++r) {
      auto it = deliveries.find({q, r});
      ASSERT_NE(it, deliveries.end())
          << "missing callback for query " << q << " result " << r;
      EXPECT_EQ(it->second, 1)
          << "duplicate callback for query " << q << " result " << r;
      ++expected_total;
    }
  }
  EXPECT_EQ(deliveries.size(), expected_total);
  EXPECT_EQ(summary.delivered, expected_total);
}

// The delivery contract: first-occurrence query order, then result
// order, then occurrence order — in-batch repeats included, at every
// stripe count, whichever pool thread finished first.
TEST_F(EngineStripesTest, AsyncDeliveryOrderIsIndependentOfStripeCount) {
  std::vector<std::string> queries = MiniBankQueries();
  queries.push_back(queries[2]);
  queries.push_back("  " + queries[0] + " ");
  queries.push_back(queries[2]);
  using Delivery = std::pair<size_t, size_t>;

  auto reference = MakeEngine(/*threads=*/1, /*cache_capacity=*/0);
  std::vector<std::vector<size_t>> occurrences;  // per unique query
  std::map<std::string, size_t> unique_of_key;
  for (size_t i = 0; i < queries.size(); ++i) {
    auto [it, inserted] = unique_of_key.emplace(NormalizedQueryKey(queries[i]),
                                                occurrences.size());
    if (inserted) occurrences.emplace_back();
    occurrences[it->second].push_back(i);
  }
  std::vector<Delivery> expected;
  for (const std::vector<size_t>& occ : occurrences) {
    auto output = reference->Search(queries[occ.front()]);
    ASSERT_TRUE(output.ok()) << output.status();
    for (size_t r = 0; r < output->results.size(); ++r) {
      for (size_t i : occ) expected.emplace_back(i, r);
    }
  }
  ASSERT_FALSE(expected.empty());

  for (size_t stripes : {size_t{1}, size_t{2}, size_t{4}}) {
    auto engine = MakeStriped(stripes, /*threads=*/2, /*cache_capacity=*/0);
    for (int round = 0; round < 3; ++round) {
      std::vector<Delivery> order;
      AsyncSearch search = engine->SearchAllAsync(
          queries, [&](size_t query_index, size_t result_index,
                       const SodaResult&) {
            order.emplace_back(query_index, result_index);
          });
      search.snippets.Run();
      EXPECT_EQ(order, expected)
          << "stripes=" << stripes << " round=" << round;
    }
  }
}

TEST_F(EngineStripesTest, AsyncBytesMatchSyncAcrossStripeCounts) {
  const std::vector<std::string> queries = MiniBankQueries();
  auto reference = MakeEngine(/*threads=*/1, /*cache_capacity=*/0);
  for (size_t stripes : {size_t{1}, size_t{2}, size_t{4}}) {
    auto engine = MakeStriped(stripes, /*threads=*/2, /*cache_capacity=*/8);
    AsyncSearch search = engine->SearchAllAsync(queries, nullptr);
    search.snippets.Run();
    // After Run() every materialized answer sits in its stripe; warm
    // Searches must serve the same bytes as a serial engine.
    for (size_t q = 0; q < queries.size(); ++q) {
      ASSERT_TRUE(search.outputs[q].ok());
      auto expected = reference->Search(queries[q]);
      ASSERT_TRUE(expected.ok());
      auto warm = engine->Search(queries[q]);
      ASSERT_TRUE(warm.ok());
      EXPECT_TRUE(warm->from_cache) << queries[q];
      EXPECT_EQ(Fingerprint(*warm), Fingerprint(*expected))
          << "stripes=" << stripes << " query=" << queries[q];
    }
  }
}

// ---------------------------------------------------------------------------
// Keyed invalidation
// ---------------------------------------------------------------------------

TEST_F(EngineStripesTest, InvalidateWhereEvictsMatchingKeysInEveryStripe) {
  auto engine =
      MakeStriped(/*stripes=*/4, /*threads=*/2, /*cache_capacity=*/16);
  const std::vector<std::string> queries = MiniBankQueries();
  for (const auto& output : engine->SearchAll(queries)) {
    ASSERT_TRUE(output.ok());
  }
  ASSERT_EQ(engine->cache_stats().size, queries.size());

  // A base-data update touching "addresses": evict the cached answers
  // that mention it, whichever stripe holds them.
  size_t erased =
      engine->InvalidateWhere([](const std::string& key, const CachedAnswer&) {
        return key.find("addresses") != std::string::npos;
      });
  EXPECT_EQ(erased, 1u);
  CacheStats stats = engine->cache_stats();
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_EQ(stats.size, queries.size() - 1);

  // The evicted query recomputes (a fresh miss); the others still hit.
  auto cold = engine->Search("addresses Sara Guttinger");
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold->from_cache);
  auto warm = engine->Search("private customers family name");
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->from_cache);
  EXPECT_EQ(engine->metrics_snapshot().counter("cache.invalidated"), 1u);
}

TEST_F(EngineStripesTest, ClearCacheEmptiesEveryStripe) {
  auto engine =
      MakeStriped(/*stripes=*/4, /*threads=*/1, /*cache_capacity=*/16);
  for (const auto& output : engine->SearchAll(MiniBankQueries())) {
    ASSERT_TRUE(output.ok());
  }
  ASSERT_GT(engine->cache_stats().size, 0u);
  engine->ClearCache();
  EXPECT_EQ(engine->cache_stats().size, 0u);
}

TEST_F(EngineStripesTest, InvalidateWhereIsSafeUnderConcurrentSearch) {
  const std::vector<std::string> queries = MiniBankQueries();
  // Searchers hammer the warm cache while an invalidator repeatedly
  // evicts and lets entries recompute. Nothing should crash, deadlock,
  // or serve wrong bytes.
  auto reference = MakeEngine(/*threads=*/1, /*cache_capacity=*/0);
  std::vector<std::string> expected;
  for (const std::string& query : queries) {
    auto output = reference->Search(query);
    ASSERT_TRUE(output.ok());
    expected.push_back(Fingerprint(*output));
  }

  for (size_t stripes : {size_t{1}, size_t{2}, size_t{4}}) {
    SCOPED_TRACE("stripes=" + std::to_string(stripes));
    auto engine = MakeStriped(stripes, /*threads=*/2, /*cache_capacity=*/32);
    for (const auto& output : engine->SearchAll(queries)) {
      ASSERT_TRUE(output.ok());
    }
    std::atomic<bool> mismatch{false};
    std::vector<std::thread> searchers;
    for (int t = 0; t < 3; ++t) {
      searchers.emplace_back([&, t] {
        for (int round = 0; round < 20; ++round) {
          size_t q = static_cast<size_t>(t + round) % queries.size();
          auto output = engine->Search(queries[q]);
          if (!output.ok() || Fingerprint(*output) != expected[q]) {
            mismatch.store(true);
          }
        }
      });
    }
    std::thread invalidator([&] {
      for (int round = 0; round < 10; ++round) {
        engine->InvalidateWhere(
            [](const std::string& key, const CachedAnswer&) {
              return key.find("customers") != std::string::npos;
            });
      }
    });
    for (std::thread& searcher : searchers) searcher.join();
    invalidator.join();
    EXPECT_FALSE(mismatch.load());
  }
}

}  // namespace
}  // namespace soda
