// Tests for the ShardedSodaEngine router:
//
//   - folded-hash routing: stable, whitespace-insensitive, in range, and
//     sanely distributed across 1/2/4/8 shards;
//   - determinism: SearchAll / Search / SearchAllAsync output bytes match
//     a single serial engine at every shard count × thread count, and
//     the async delivery order does not depend on the shard count;
//   - aggregation: summed cache stats and merged metrics equal a single
//     engine's totals for the same traffic, plus the router's own
//     counters and batch-size samples;
//   - invalidation: InvalidateWhere evicts exactly the matching keys
//     across shards, and keyed eviction is safe under concurrent Search;
//   - session affinity: a constrained session serve resumes the plan
//     cached beside its question's answer at any shard count.

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
#include "core/sharded_engine.h"
#include "core/soda.h"
#include "datasets/minibank.h"
#include "pattern/library.h"

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

std::vector<std::string> MiniBankQueries() {
  return {
      "customers Zürich financial instruments",
      "trading volume transaction date between date(2010-01-01) "
      "date(2011-12-31)",
      "addresses Sara Guttinger",
      "sum(investments) group by (currency)",
      "private customers family name",
  };
}

class ShardedEngineTest : public ::testing::Test {
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

  static std::unique_ptr<ShardedSodaEngine> MakeRouter(size_t shards,
                                                       size_t threads,
                                                       size_t cache_capacity) {
    SodaConfig config;
    config.num_shards = shards;
    config.num_threads = threads;
    config.cache_capacity = cache_capacity;
    auto router = ShardedSodaEngine::Create(&bank_->db, &bank_->graph,
                                            CreditSuissePatternLibrary(),
                                            config);
    EXPECT_TRUE(router.ok()) << router.status();
    return std::move(router).value();
  }

  static std::unique_ptr<SodaEngine> MakeEngine(size_t threads,
                                                size_t cache_capacity) {
    SodaConfig config;
    config.num_threads = threads;
    config.cache_capacity = cache_capacity;
    auto engine = SodaEngine::Create(&bank_->db, &bank_->graph,
                                     CreditSuissePatternLibrary(), config);
    EXPECT_TRUE(engine.ok()) << engine.status();
    return std::move(engine).value();
  }

  static MiniBank* bank_;
};

MiniBank* ShardedEngineTest::bank_ = nullptr;

// ---------------------------------------------------------------------------
// Routing hash
// ---------------------------------------------------------------------------

TEST(ShardOfKeyTest, InRangeAndStable) {
  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    for (int i = 0; i < 100; ++i) {
      std::string key = "query number " + std::to_string(i);
      size_t shard = ShardOfKey(key, shards);
      EXPECT_LT(shard, shards);
      EXPECT_EQ(shard, ShardOfKey(key, shards)) << "unstable for " << key;
    }
  }
}

TEST(ShardOfKeyTest, SingleShardAlwaysZero) {
  EXPECT_EQ(ShardOfKey("anything", 1), 0u);
  EXPECT_EQ(ShardOfKey("anything", 0), 0u);
  EXPECT_EQ(ShardOfKey("", 1), 0u);
}

TEST(ShardOfKeyTest, DistributionIsSaneAcrossShardCounts) {
  // 400 distinct dashboard-ish keys; with a healthy folded hash every
  // shard should carry a real share. The bound is loose (half the fair
  // share) — this guards against degenerate folding (e.g. everything on
  // shard 0), not statistical perfection.
  constexpr size_t kKeys = 400;
  for (size_t shards : {size_t{2}, size_t{4}, size_t{8}}) {
    std::vector<size_t> per_shard(shards, 0);
    for (size_t i = 0; i < kKeys; ++i) {
      std::string key =
          "revenue by region " + std::to_string(i) + " quarter view";
      ++per_shard[ShardOfKey(key, shards)];
    }
    size_t fair = kKeys / shards;
    for (size_t s = 0; s < shards; ++s) {
      EXPECT_GT(per_shard[s], fair / 2)
          << "shard " << s << "/" << shards << " is starved";
      EXPECT_LT(per_shard[s], 2 * fair)
          << "shard " << s << "/" << shards << " is overloaded";
    }
  }
}

TEST(ShardOfKeyTest, NormalizedKeyMakesRoutingWhitespaceInsensitive) {
  for (size_t shards : {size_t{2}, size_t{4}, size_t{8}}) {
    EXPECT_EQ(
        ShardOfKey(NormalizedQueryKey("addresses Sara Guttinger"), shards),
        ShardOfKey(NormalizedQueryKey("  addresses   Sara Guttinger "),
                   shards));
  }
}

// ---------------------------------------------------------------------------
// Determinism vs a single engine
// ---------------------------------------------------------------------------

TEST_F(ShardedEngineTest, SearchAllMatchesSingleEngineAtAnyShardAndThreadCount) {
  const std::vector<std::string> queries = MiniBankQueries();
  auto reference = MakeEngine(/*threads=*/1, /*cache_capacity=*/0);
  std::vector<std::string> expected;
  for (const std::string& query : queries) {
    auto output = reference->Search(query);
    ASSERT_TRUE(output.ok()) << output.status();
    expected.push_back(Fingerprint(*output));
  }

  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      auto router = MakeRouter(shards, threads, /*cache_capacity=*/0);
      auto outputs = router->SearchAll(queries);
      ASSERT_EQ(outputs.size(), queries.size());
      for (size_t i = 0; i < queries.size(); ++i) {
        ASSERT_TRUE(outputs[i].ok())
            << "shards=" << shards << " threads=" << threads << " query="
            << queries[i] << ": " << outputs[i].status();
        EXPECT_EQ(Fingerprint(*outputs[i]), expected[i])
            << "shards=" << shards << " threads=" << threads
            << " query=" << queries[i];
      }
    }
  }
}

TEST_F(ShardedEngineTest, RoutedSingleSearchMatchesSingleEngine) {
  auto reference = MakeEngine(/*threads=*/1, /*cache_capacity=*/0);
  auto router = MakeRouter(/*shards=*/4, /*threads=*/2, /*cache_capacity=*/0);
  for (const std::string& query : MiniBankQueries()) {
    auto expected = reference->Search(query);
    ASSERT_TRUE(expected.ok());
    auto routed = router->Search(query);
    ASSERT_TRUE(routed.ok()) << routed.status();
    EXPECT_EQ(Fingerprint(*routed), Fingerprint(*expected)) << query;
  }
}

TEST_F(ShardedEngineTest, PreservesInputOrderWithDuplicatesAndErrors) {
  auto router = MakeRouter(/*shards=*/4, /*threads=*/2, /*cache_capacity=*/8);
  const std::vector<std::string> queries = {
      "addresses Sara Guttinger",
      "sum(investments",  // unbalanced '(' — parse error
      "customers Zürich financial instruments",
      "  addresses   Sara Guttinger ",  // whitespace-variant repeat
  };
  auto outputs = router->SearchAll(queries);
  ASSERT_EQ(outputs.size(), 4u);
  ASSERT_TRUE(outputs[0].ok());
  ASSERT_FALSE(outputs[1].ok());
  EXPECT_EQ(outputs[1].status().code(), StatusCode::kParseError);
  ASSERT_TRUE(outputs[2].ok());
  ASSERT_TRUE(outputs[3].ok());
  // The repeat met its twin on one shard: identical bytes, booked as an
  // in-batch dedup hit there.
  EXPECT_EQ(Fingerprint(*outputs[0]), Fingerprint(*outputs[3]));
  EXPECT_NE(Fingerprint(*outputs[0]), Fingerprint(*outputs[2]));
  CacheStats stats = router->cache_stats();
  EXPECT_EQ(stats.hits, 1u);
}

TEST_F(ShardedEngineTest, EmptyBatch) {
  auto router = MakeRouter(/*shards=*/2, /*threads=*/1, /*cache_capacity=*/0);
  const std::vector<std::string> empty;
  EXPECT_TRUE(router->SearchAll(empty).empty());
}

// ---------------------------------------------------------------------------
// Aggregated cache and metrics accounting
// ---------------------------------------------------------------------------

TEST_F(ShardedEngineTest, AggregatedCacheStatsEqualSingleEngineTotals) {
  const std::vector<std::string> base = MiniBankQueries();
  std::vector<std::string> traffic;
  for (int round = 0; round < 3; ++round) {
    traffic.insert(traffic.end(), base.begin(), base.end());
  }

  auto engine = MakeEngine(/*threads=*/2, /*cache_capacity=*/32);
  auto outputs = engine->SearchAll(traffic);
  for (const auto& output : outputs) ASSERT_TRUE(output.ok());
  CacheStats single = engine->cache_stats();

  for (size_t shards : {size_t{2}, size_t{4}, size_t{8}}) {
    auto router = MakeRouter(shards, /*threads=*/2, /*cache_capacity=*/32);
    auto routed = router->SearchAll(traffic);
    for (const auto& output : routed) ASSERT_TRUE(output.ok());
    CacheStats total = router->cache_stats();
    // Every key lives on exactly one shard, so the fleet's books must sum
    // to exactly the single-engine books for identical traffic.
    EXPECT_EQ(total.hits, single.hits) << "shards=" << shards;
    EXPECT_EQ(total.misses, single.misses) << "shards=" << shards;
    EXPECT_EQ(total.size, single.size) << "shards=" << shards;
    EXPECT_EQ(total.capacity, shards * 32) << "shards=" << shards;
  }
}

TEST_F(ShardedEngineTest, MergedMetricsMatchSingleEngineAndAddRouterCounters) {
  const std::vector<std::string> queries = MiniBankQueries();

  auto engine = MakeEngine(/*threads=*/2, /*cache_capacity=*/32);
  for (const auto& output : engine->SearchAll(queries)) {
    ASSERT_TRUE(output.ok());
  }
  MetricsSnapshot single = engine->metrics_snapshot();

  auto router = MakeRouter(/*shards=*/4, /*threads=*/2, /*cache_capacity=*/32);
  for (const auto& output : router->SearchAll(queries)) {
    ASSERT_TRUE(output.ok());
  }
  MetricsSnapshot merged = router->metrics_snapshot();

  // Work-proportional counters agree with the single engine; per-call
  // counters (engine.search_all) count one per occupied shard instead.
  for (const char* name : {"cache.hit", "cache.miss", "batch.queries",
                           "batch.unique", "batch.interpretations"}) {
    EXPECT_EQ(merged.counter(name), single.counter(name)) << name;
  }
  // Stage histograms merged across shards carry exactly the samples the
  // single engine observed.
  const HistogramSnapshot* merged_lookup = merged.histogram("stage.lookup.ms");
  const HistogramSnapshot* single_lookup = single.histogram("stage.lookup.ms");
  ASSERT_NE(merged_lookup, nullptr);
  ASSERT_NE(single_lookup, nullptr);
  EXPECT_EQ(merged_lookup->count, single_lookup->count);

  // Router's own surface: every query was routed, the batch was one
  // admission, and the per-shard sub-batch sizes sum back to the batch.
  EXPECT_EQ(merged.counter("router.shard_queries"), queries.size());
  EXPECT_EQ(merged.counter("router.batches"), 1u);
  const HistogramSnapshot* sizes = merged.histogram("router.shard_batch_size");
  ASSERT_NE(sizes, nullptr);
  EXPECT_GT(sizes->count, 0u);
  EXPECT_EQ(static_cast<size_t>(sizes->sum), queries.size());
}

TEST_F(ShardedEngineTest, DefaultThreadsDivideHardwareAcrossShards) {
  // num_threads=0 means "use the hardware"; a fleet must divide it, not
  // multiply it (8 shards on a 64-core box → ~64 workers, not 512).
  auto router = MakeRouter(/*shards=*/4, /*threads=*/0, /*cache_capacity=*/0);
  size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  size_t expected = std::max<size_t>(1, hw / 4);
  for (size_t s = 0; s < router->num_shards(); ++s) {
    EXPECT_EQ(router->shard(s).num_threads(), expected) << "shard " << s;
  }
}

TEST_F(ShardedEngineTest, SetMetricsSinkFansOutToEveryShard) {
  auto router = MakeRouter(/*shards=*/4, /*threads=*/1, /*cache_capacity=*/8);
  auto exporter = std::make_shared<InMemoryMetricsSink>();
  router->set_metrics_sink(exporter);
  const std::vector<std::string> queries = MiniBankQueries();
  for (const auto& output : router->SearchAll(queries)) {
    ASSERT_TRUE(output.ok());
  }
  // Every shard reported into the shared exporter: the fleet's misses
  // all land in one sink, none in the (now-bypassed) built-in ones.
  MetricsSnapshot exported = exporter->Snapshot();
  EXPECT_EQ(exported.counter("cache.miss"), queries.size());
  EXPECT_EQ(router->metrics_snapshot().counter("cache.miss"), 0u);
  // The router's own samples still flow into the merged view.
  EXPECT_EQ(router->metrics_snapshot().counter("router.shard_queries"),
            queries.size());
}

TEST_F(ShardedEngineTest, RepeatTrafficHitsTheOwningShardCache) {
  auto router = MakeRouter(/*shards=*/4, /*threads=*/1, /*cache_capacity=*/16);
  const std::vector<std::string> queries = MiniBankQueries();
  for (const auto& output : router->SearchAll(queries)) {
    ASSERT_TRUE(output.ok());
  }
  auto again = router->SearchAll(queries);
  for (const auto& output : again) {
    ASSERT_TRUE(output.ok());
    EXPECT_TRUE((*output).from_cache);
  }
  CacheStats stats = router->cache_stats();
  EXPECT_EQ(stats.misses, queries.size());
  EXPECT_EQ(stats.hits, queries.size());
}

// ---------------------------------------------------------------------------
// Plans cached beside answers
// ---------------------------------------------------------------------------

// A constrained session serve with an empty plan slot finds its
// question's cached plan on the shard that answered the question — the
// constraints do not move the route — and resumes Step 5 alone. The
// peek books no hit or miss, fills nothing, and the answer equals a
// cold constrained translation; a slot-less constrained Search stays
// cold.
TEST_F(ShardedEngineTest, ConstrainedSessionServeResumesTheCachedPlan) {
  auto reference = MakeEngine(/*threads=*/1, /*cache_capacity=*/0);
  const std::vector<std::string> queries = MiniBankQueries();
  for (size_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    auto router = MakeRouter(shards, /*threads=*/2, /*cache_capacity=*/16);
    // Session serves fill the cache, each entry beside its plan.
    for (const std::string& query : queries) {
      std::shared_ptr<const TranslationPlan> plan;
      auto output = router->SearchSession(query, SessionConstraints{}, &plan);
      ASSERT_TRUE(output.ok()) << output.status();
    }
    const CacheStats before = router->cache_stats();
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
      auto resumed = router->SearchSession(query, pinned, &plan);
      ASSERT_TRUE(resumed.ok()) << resumed.status();
      EXPECT_EQ(resumed->stages_skipped, 4u);
      EXPECT_FALSE(resumed->from_cache);
      EXPECT_NE(plan, nullptr);
      EXPECT_EQ(Fingerprint(*resumed), Fingerprint(*cold));

      auto searched = router->Search(query, pinned);
      ASSERT_TRUE(searched.ok()) << searched.status();
      EXPECT_EQ(searched->stages_skipped, 0u);
      EXPECT_EQ(Fingerprint(*searched), Fingerprint(*cold));
    }
    const CacheStats after = router->cache_stats();
    EXPECT_EQ(after.hits, before.hits);
    EXPECT_EQ(after.misses, before.misses);
    EXPECT_EQ(after.size, before.size);
  }
}

// ---------------------------------------------------------------------------
// Async streaming through the router
// ---------------------------------------------------------------------------

TEST_F(ShardedEngineTest, AsyncStreamsExactlyOncePerGlobalIndex) {
  const std::vector<std::string> queries = MiniBankQueries();
  auto router = MakeRouter(/*shards=*/4, /*threads=*/2, /*cache_capacity=*/0);

  std::map<std::pair<size_t, size_t>, int> deliveries;
  AsyncSearch search = router->SearchAllAsync(
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
// order, then occurrence order. The router orders its shards' runs by
// global first-occurrence index after the dispatch join, so the sequence
// — in-batch repeats included — is the same at every shard count,
// whichever dispatch thread finished first.
TEST_F(ShardedEngineTest, AsyncDeliveryOrderIsIndependentOfShardCount) {
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

  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    auto router = MakeRouter(shards, /*threads=*/2, /*cache_capacity=*/0);
    for (int round = 0; round < 3; ++round) {
      std::vector<Delivery> order;
      AsyncSearch search = router->SearchAllAsync(
          queries, [&](size_t query_index, size_t result_index,
                       const SodaResult&) {
            order.emplace_back(query_index, result_index);
          });
      search.snippets.Run();
      EXPECT_EQ(order, expected) << "shards=" << shards << " round=" << round;
    }
  }
}

TEST_F(ShardedEngineTest, AsyncBytesMatchSyncAcrossShardCounts) {
  const std::vector<std::string> queries = MiniBankQueries();
  auto reference = MakeEngine(/*threads=*/1, /*cache_capacity=*/0);
  for (size_t shards : {size_t{2}, size_t{4}}) {
    auto router = MakeRouter(shards, /*threads=*/2, /*cache_capacity=*/8);
    AsyncSearch search = router->SearchAllAsync(queries, nullptr);
    search.snippets.Run();
    // After Run() every shard has inserted its materialized answers;
    // warm Searches must serve the same bytes as a single serial engine.
    for (size_t q = 0; q < queries.size(); ++q) {
      ASSERT_TRUE(search.outputs[q].ok());
      auto expected = reference->Search(queries[q]);
      ASSERT_TRUE(expected.ok());
      auto warm = router->Search(queries[q]);
      ASSERT_TRUE(warm.ok());
      EXPECT_TRUE(warm->from_cache) << queries[q];
      EXPECT_EQ(Fingerprint(*warm), Fingerprint(*expected))
          << "shards=" << shards << " query=" << queries[q];
    }
  }
}

// ---------------------------------------------------------------------------
// Keyed invalidation
// ---------------------------------------------------------------------------

TEST_F(ShardedEngineTest, InvalidateWhereEvictsExactlyMatchingKeysFleetWide) {
  auto router = MakeRouter(/*shards=*/4, /*threads=*/2, /*cache_capacity=*/16);
  const std::vector<std::string> queries = MiniBankQueries();
  for (const auto& output : router->SearchAll(queries)) {
    ASSERT_TRUE(output.ok());
  }
  ASSERT_EQ(router->cache_stats().size, queries.size());

  // A base-data update touching "addresses": evict the cached answers
  // that mention it, wherever their shard put them.
  size_t erased =
      router->InvalidateWhere([](const std::string& key, const CachedAnswer&) {
        return key.find("addresses") != std::string::npos;
      });
  EXPECT_EQ(erased, 1u);
  CacheStats stats = router->cache_stats();
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_EQ(stats.size, queries.size() - 1);

  // The evicted query recomputes (a fresh miss); the others still hit.
  auto cold = router->Search("addresses Sara Guttinger");
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold->from_cache);
  auto warm = router->Search("private customers family name");
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->from_cache);
  EXPECT_EQ(router->metrics_snapshot().counter("cache.invalidated"), 1u);
}

TEST_F(ShardedEngineTest, ClearCacheFansOut) {
  auto router = MakeRouter(/*shards=*/4, /*threads=*/1, /*cache_capacity=*/16);
  for (const auto& output : router->SearchAll(MiniBankQueries())) {
    ASSERT_TRUE(output.ok());
  }
  ASSERT_GT(router->cache_stats().size, 0u);
  router->ClearCache();
  EXPECT_EQ(router->cache_stats().size, 0u);
}

TEST_F(ShardedEngineTest, InvalidateWhereIsSafeUnderConcurrentSearch) {
  auto router = MakeRouter(/*shards=*/2, /*threads=*/2, /*cache_capacity=*/32);
  const std::vector<std::string> queries = MiniBankQueries();
  for (const auto& output : router->SearchAll(queries)) {
    ASSERT_TRUE(output.ok());
  }

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

  std::atomic<bool> mismatch{false};
  std::vector<std::thread> searchers;
  for (int t = 0; t < 3; ++t) {
    searchers.emplace_back([&, t] {
      for (int round = 0; round < 20; ++round) {
        size_t q = static_cast<size_t>(t + round) % queries.size();
        auto output = router->Search(queries[q]);
        if (!output.ok() || Fingerprint(*output) != expected[q]) {
          mismatch.store(true);
        }
      }
    });
  }
  std::thread invalidator([&] {
    for (int round = 0; round < 10; ++round) {
      router->InvalidateWhere([](const std::string& key, const CachedAnswer&) {
        return key.find("customers") != std::string::npos;
      });
    }
  });
  for (std::thread& searcher : searchers) searcher.join();
  invalidator.join();
  EXPECT_FALSE(mismatch.load());
}

}  // namespace
}  // namespace soda
