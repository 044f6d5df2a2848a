// Tests for the batched and asynchronous SodaEngine entry points:
//
//   - SearchAll determinism: output order and bytes match N independent
//     Search calls at num_threads 1 and 4;
//   - batch cache accounting: a repeated normalized query inside one
//     batch books one miss + N-1 hits (dedup before the cache);
//   - per-query error isolation inside a batch;
//   - async streaming: snippet callbacks arrive exactly once per
//     (query, result) pair, on the thread that runs the returned stream,
//     in first-occurrence query order; the stream runs on when callbacks
//     throw, and a stream dropped unrun executes and caches nothing.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/soda.h"
#include "datasets/minibank.h"
#include "pattern/library.h"

namespace soda {
namespace {

// Serializes everything rank-relevant about an output, snippets included,
// so "byte-identical" is literal.
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

class BatchAsyncTest : public ::testing::Test {
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

MiniBank* BatchAsyncTest::bank_ = nullptr;

// ---------------------------------------------------------------------------
// SearchAll determinism and ordering
// ---------------------------------------------------------------------------

TEST_F(BatchAsyncTest, SearchAllMatchesIndependentSearchesAtAnyThreadCount) {
  const std::vector<std::string> queries = MiniBankQueries();
  // Reference bytes from a cache-free engine's serial-equivalent answers.
  auto reference = MakeEngine(/*threads=*/1, /*cache_capacity=*/0);
  std::vector<std::string> expected;
  for (const std::string& query : queries) {
    auto output = reference->Search(query);
    ASSERT_TRUE(output.ok()) << output.status();
    expected.push_back(Fingerprint(*output));
  }

  for (size_t threads : {size_t{1}, size_t{4}}) {
    auto engine = MakeEngine(threads, /*cache_capacity=*/0);
    auto outputs = engine->SearchAll(queries);
    ASSERT_EQ(outputs.size(), queries.size()) << "threads=" << threads;
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_TRUE(outputs[i].ok())
          << "threads=" << threads << " query=" << queries[i] << ": "
          << outputs[i].status();
      EXPECT_EQ(Fingerprint(*outputs[i]), expected[i])
          << "threads=" << threads << " query=" << queries[i];
    }
  }
}

TEST_F(BatchAsyncTest, SearchAllPreservesInputOrderWithDuplicates) {
  auto engine = MakeEngine(/*threads=*/4, /*cache_capacity=*/8);
  const std::vector<std::string> queries = {
      "addresses Sara Guttinger",
      "customers Zürich financial instruments",
      "addresses Sara Guttinger",       // exact repeat
      "  addresses   Sara Guttinger ",  // whitespace-variant repeat
  };
  auto outputs = engine->SearchAll(queries);
  ASSERT_EQ(outputs.size(), 4u);
  for (const auto& output : outputs) ASSERT_TRUE(output.ok());
  EXPECT_EQ(Fingerprint(*outputs[0]), Fingerprint(*outputs[2]));
  EXPECT_EQ(Fingerprint(*outputs[0]), Fingerprint(*outputs[3]));
  EXPECT_NE(Fingerprint(*outputs[0]), Fingerprint(*outputs[1]));
}

TEST_F(BatchAsyncTest, SearchAllEmptyBatch) {
  auto engine = MakeEngine(/*threads=*/2, /*cache_capacity=*/0);
  const std::vector<std::string> empty;
  EXPECT_TRUE(engine->SearchAll(empty).empty());
}

TEST_F(BatchAsyncTest, SearchAllIsolatesPerQueryErrors) {
  auto engine = MakeEngine(/*threads=*/2, /*cache_capacity=*/0);
  const std::vector<std::string> queries = {
      "addresses Sara Guttinger",
      "sum(investments",  // unbalanced '(' — parse error
      "private customers family name",
  };
  auto outputs = engine->SearchAll(queries);
  ASSERT_EQ(outputs.size(), 3u);
  EXPECT_TRUE(outputs[0].ok()) << outputs[0].status();
  ASSERT_FALSE(outputs[1].ok());
  EXPECT_EQ(outputs[1].status().code(), StatusCode::kParseError);
  EXPECT_TRUE(outputs[2].ok()) << outputs[2].status();
}

// ---------------------------------------------------------------------------
// Batch cache accounting (dedup before the cache)
// ---------------------------------------------------------------------------

TEST_F(BatchAsyncTest, RepeatedQueryInBatchCountsOneMissAndRestHits) {
  auto engine = MakeEngine(/*threads=*/2, /*cache_capacity=*/8);
  const std::string query = "addresses Sara Guttinger";
  const std::vector<std::string> queries = {query, query, query, query};

  auto outputs = engine->SearchAll(queries);
  ASSERT_EQ(outputs.size(), 4u);
  for (const auto& output : outputs) ASSERT_TRUE(output.ok());

  CacheStats stats = engine->cache_stats();
  EXPECT_EQ(stats.misses, 1u);  // one probe for the unique key
  EXPECT_EQ(stats.hits, 3u);    // the three in-batch repeats
  EXPECT_EQ(stats.size, 1u);    // one entry, keyed on the normalized query

  // First occurrence ran the pipeline; repeats were served.
  EXPECT_FALSE(outputs[0]->from_cache);
  EXPECT_TRUE(outputs[1]->from_cache);
  EXPECT_TRUE(outputs[2]->from_cache);
  EXPECT_TRUE(outputs[3]->from_cache);

  // A whole-batch repeat is now all hits: 1 probe hit + 3 dedup hits.
  auto again = engine->SearchAll(queries);
  for (const auto& output : again) {
    ASSERT_TRUE(output.ok());
    EXPECT_TRUE(output->from_cache);
  }
  stats = engine->cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 7u);
}

TEST_F(BatchAsyncTest, WhitespaceVariantsShareOneCacheEntry) {
  auto engine = MakeEngine(/*threads=*/1, /*cache_capacity=*/8);
  const std::vector<std::string> queries = {
      "addresses Sara Guttinger",
      "addresses   Sara   Guttinger",
      "  addresses Sara Guttinger  ",
  };
  auto outputs = engine->SearchAll(queries);
  for (const auto& output : outputs) ASSERT_TRUE(output.ok());
  CacheStats stats = engine->cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.size, 1u);
}

TEST_F(BatchAsyncTest, DisabledCacheStillDedupsButBooksNothing) {
  auto engine = MakeEngine(/*threads=*/2, /*cache_capacity=*/0);
  const std::string query = "addresses Sara Guttinger";
  auto outputs = engine->SearchAll({query, query, query});
  ASSERT_EQ(outputs.size(), 3u);
  for (const auto& output : outputs) ASSERT_TRUE(output.ok());
  // Identical bytes either way; with the cache off nothing is booked as
  // a hit and nothing claims to come from the cache.
  EXPECT_EQ(Fingerprint(*outputs[0]), Fingerprint(*outputs[1]));
  EXPECT_FALSE(outputs[1]->from_cache);
  EXPECT_EQ(engine->cache_stats().hits, 0u);
  // The dedup still amortized the pipeline: one batch.unique for three
  // batch.queries.
  MetricsSnapshot snapshot = engine->metrics_snapshot();
  EXPECT_EQ(snapshot.counter("batch.queries"), 3u);
  EXPECT_EQ(snapshot.counter("batch.unique"), 1u);
}

TEST_F(BatchAsyncTest, BatchSeedsCacheForLaterSingleSearches) {
  auto engine = MakeEngine(/*threads=*/2, /*cache_capacity=*/8);
  const std::string query = "private customers family name";
  auto outputs = engine->SearchAll({query});
  ASSERT_TRUE(outputs[0].ok());
  auto single = engine->Search(query);
  ASSERT_TRUE(single.ok());
  EXPECT_TRUE(single->from_cache);
  EXPECT_EQ(Fingerprint(*outputs[0]), Fingerprint(*single));
}

// ---------------------------------------------------------------------------
// Async snippet streaming
// ---------------------------------------------------------------------------

// Thread-safe recorder asserting the exactly-once delivery contract.
class CallbackRecorder {
 public:
  SnippetCallback Callback() {
    return [this](size_t query_index, size_t result_index,
                  const SodaResult& result) {
      std::lock_guard<std::mutex> lock(mu_);
      ++deliveries_[{query_index, result_index}];
      executed_and_nonempty_sql_ &= !result.sql.empty();
    };
  }

  std::map<std::pair<size_t, size_t>, int> deliveries() const {
    std::lock_guard<std::mutex> lock(mu_);
    return deliveries_;
  }
  bool sql_always_present() const {
    std::lock_guard<std::mutex> lock(mu_);
    return executed_and_nonempty_sql_;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::pair<size_t, size_t>, int> deliveries_;
  bool executed_and_nonempty_sql_ = true;
};

TEST_F(BatchAsyncTest, AsyncDeliversExactlyOncePerResult) {
  for (size_t threads : {size_t{1}, size_t{4}}) {
    auto engine = MakeEngine(threads, /*cache_capacity=*/0);
    const std::vector<std::string> queries = MiniBankQueries();
    CallbackRecorder recorder;
    AsyncSearch search = engine->SearchAllAsync(queries, recorder.Callback());
    ASSERT_EQ(search.outputs.size(), queries.size());
    SnippetStream::Summary summary = search.snippets.Run();
    EXPECT_EQ(summary.callback_exceptions, 0u);

    size_t expected_total = 0;
    auto deliveries = recorder.deliveries();
    for (size_t q = 0; q < queries.size(); ++q) {
      ASSERT_TRUE(search.outputs[q].ok()) << queries[q];
      for (size_t r = 0; r < search.outputs[q]->results.size(); ++r) {
        auto it = deliveries.find({q, r});
        ASSERT_NE(it, deliveries.end())
            << "threads=" << threads << " missing callback for query " << q
            << " result " << r;
        EXPECT_EQ(it->second, 1)
            << "threads=" << threads << " duplicate callback for query " << q
            << " result " << r;
        ++expected_total;
      }
    }
    EXPECT_EQ(deliveries.size(), expected_total) << "threads=" << threads;
    EXPECT_EQ(summary.delivered, expected_total) << "threads=" << threads;
    EXPECT_TRUE(recorder.sql_always_present());
    // A stream runs once.
    EXPECT_EQ(search.snippets.Run().delivered, 0u);
  }
}

TEST_F(BatchAsyncTest, AsyncReturnsTranslationImmediatelyAndExecutesLater) {
  auto engine = MakeEngine(/*threads=*/2, /*cache_capacity=*/0);
  const std::vector<std::string> queries = {"addresses Sara Guttinger"};
  std::atomic<size_t> executed_callbacks{0};
  AsyncSearch search = engine->SearchAllAsync(
      queries, [&](size_t query_index, size_t, const SodaResult& result) {
        EXPECT_EQ(query_index, 0u);
        if (result.executed) executed_callbacks.fetch_add(1);
      });
  ASSERT_TRUE(search.outputs[0].ok()) << search.outputs[0].status();
  const SearchOutput& output = *search.outputs[0];
  ASSERT_FALSE(output.results.empty());
  // The immediate return carries translated, ranked SQL with execution
  // still pending.
  for (const SodaResult& result : output.results) {
    EXPECT_FALSE(result.sql.empty());
    EXPECT_FALSE(result.executed);
  }
  EXPECT_EQ(executed_callbacks.load(), 0u);
  search.snippets.Run();
  EXPECT_EQ(executed_callbacks.load(), output.results.size());
}

// Snippets run inside Run(): until then every returned result is
// unexecuted, and every callback fires on the thread that runs the
// stream — at any pool width, and on an engine whose batch spans two
// cache stripes.
TEST_F(BatchAsyncTest, CallbacksRunOnTheRunningThread) {
  const std::vector<std::string> queries = MiniBankQueries();
  std::set<size_t> stripes_hit;
  for (const std::string& query : queries) {
    stripes_hit.insert(ShardOfKey(NormalizedQueryKey(query), 2));
  }
  ASSERT_EQ(stripes_hit.size(), 2u) << "the batch must span both stripes";

  std::vector<std::pair<std::string, std::unique_ptr<SodaService>>> services;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    services.emplace_back("engine threads=" + std::to_string(threads),
                          MakeEngine(threads, /*cache_capacity=*/0));
  }
  SodaConfig config;
  config.num_shards = 2;
  config.num_threads = 2;
  config.cache_capacity = 0;
  auto striped = SodaEngine::Create(&bank_->db, &bank_->graph,
                                    CreditSuissePatternLibrary(), config);
  ASSERT_TRUE(striped.ok()) << striped.status();
  services.emplace_back("2 stripes x 2 threads", std::move(striped).value());

  for (const auto& [label, service] : services) {
    SCOPED_TRACE(label);
    std::mutex mu;
    std::vector<std::thread::id> callback_threads;
    AsyncSearch search = service->SearchAllAsync(
        queries, [&](size_t, size_t, const SodaResult&) {
          std::lock_guard<std::mutex> lock(mu);
          callback_threads.push_back(std::this_thread::get_id());
        });
    size_t results = 0;
    for (const auto& output : search.outputs) {
      ASSERT_TRUE(output.ok()) << output.status();
      for (const SodaResult& result : output->results) {
        EXPECT_FALSE(result.executed);
        ++results;
      }
    }
    ASSERT_GT(results, 0u);
    {
      std::lock_guard<std::mutex> lock(mu);
      EXPECT_TRUE(callback_threads.empty());
    }

    std::thread::id runner;
    std::thread running([&] {
      runner = std::this_thread::get_id();
      search.snippets.Run();
    });
    running.join();
    EXPECT_EQ(callback_threads.size(), results);
    for (std::thread::id id : callback_threads) EXPECT_EQ(id, runner);
  }
}

TEST_F(BatchAsyncTest, AsyncStreamedBytesMatchSyncSearch) {
  auto sync_engine = MakeEngine(/*threads=*/1, /*cache_capacity=*/0);
  auto async_engine = MakeEngine(/*threads=*/4, /*cache_capacity=*/0);
  for (const std::string& query : MiniBankQueries()) {
    auto expected = sync_engine->Search(query);
    ASSERT_TRUE(expected.ok());

    std::vector<SodaResult> streamed(expected->results.size());
    AsyncSearch search = async_engine->SearchAllAsync(
        std::span<const std::string>(&query, 1),
        [&](size_t, size_t result_index, const SodaResult& result) {
          ASSERT_LT(result_index, streamed.size());
          streamed[result_index] = result;
        });
    ASSERT_TRUE(search.outputs[0].ok());
    search.snippets.Run();

    ASSERT_EQ(streamed.size(), expected->results.size()) << query;
    for (size_t r = 0; r < streamed.size(); ++r) {
      EXPECT_EQ(streamed[r].sql, expected->results[r].sql) << query;
      EXPECT_EQ(streamed[r].executed, expected->results[r].executed) << query;
      if (streamed[r].executed) {
        EXPECT_EQ(streamed[r].snippet.ToAsciiTable(),
                  expected->results[r].snippet.ToAsciiTable())
            << query;
      }
    }
  }
}

TEST_F(BatchAsyncTest, StreamRunsOnWhenCallbacksThrow) {
  for (size_t threads : {size_t{1}, size_t{4}}) {
    auto engine = MakeEngine(threads, /*cache_capacity=*/0);
    const std::vector<std::string> queries = MiniBankQueries();
    size_t calls = 0;
    AsyncSearch search = engine->SearchAllAsync(
        queries, [&](size_t, size_t, const SodaResult&) {
          ++calls;
          throw std::runtime_error("sink is on fire");
        });
    size_t results = 0;
    for (const auto& output : search.outputs) {
      ASSERT_TRUE(output.ok()) << output.status();
      results += output->results.size();
    }
    // Every callback throws, and every one is still made and counted.
    SnippetStream::Summary summary = search.snippets.Run();
    ASSERT_GT(results, 0u);
    EXPECT_EQ(calls, results) << "threads=" << threads;
    EXPECT_EQ(summary.delivered, results) << "threads=" << threads;
    EXPECT_EQ(summary.callback_exceptions, results) << "threads=" << threads;
    EXPECT_EQ(engine->metrics_snapshot().counter("snippet.callback_exception"),
              results);
  }
}

TEST_F(BatchAsyncTest, AsyncDuplicateQueriesShareExecutionButGetOwnCallbacks) {
  auto engine = MakeEngine(/*threads=*/4, /*cache_capacity=*/8);
  const std::string query = "addresses Sara Guttinger";
  const std::vector<std::string> queries = {query, query};
  CallbackRecorder recorder;
  AsyncSearch search = engine->SearchAllAsync(queries, recorder.Callback());
  ASSERT_EQ(search.outputs.size(), 2u);
  ASSERT_TRUE(search.outputs[0].ok());
  ASSERT_TRUE(search.outputs[1].ok());
  SnippetStream::Summary summary = search.snippets.Run();

  auto deliveries = recorder.deliveries();
  size_t results = search.outputs[0]->results.size();
  ASSERT_GT(results, 0u);
  EXPECT_EQ(deliveries.size(), 2 * results);  // both indices, every result
  EXPECT_EQ(summary.delivered, 2 * results);
  for (size_t r = 0; r < results; ++r) {
    EXPECT_EQ((deliveries[{0, r}]), 1);
    EXPECT_EQ((deliveries[{1, r}]), 1);
  }
  // One translation + one execution, two bookings: 1 miss + 1 dedup hit.
  CacheStats stats = engine->cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  MetricsSnapshot snapshot = engine->metrics_snapshot();
  EXPECT_EQ(snapshot.counter("snippet.executed") +
                snapshot.counter("snippet.failed"),
            results);
}

TEST_F(BatchAsyncTest, AsyncPopulatesCacheAfterStreaming) {
  auto engine = MakeEngine(/*threads=*/2, /*cache_capacity=*/8);
  const std::vector<std::string> queries = {"private customers family name"};
  AsyncSearch search = engine->SearchAllAsync(queries, nullptr);
  ASSERT_TRUE(search.outputs[0].ok());
  // Nothing cached until the stream ran.
  EXPECT_EQ(engine->cache_stats().size, 0u);
  SnippetStream::Summary summary = search.snippets.Run();
  EXPECT_EQ(summary.delivered, search.outputs[0]->results.size());

  // After Run() the materialized (snippet-bearing) answer is in the
  // cache; a sync Search must hit and carry executed snippets.
  auto cached = engine->Search(queries[0]);
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(cached->from_cache);
  for (const SodaResult& result : cached->results) {
    EXPECT_TRUE(result.executed);
  }
}

// Run's between-runs callback fires once between two unique queries'
// runs and never after the last: each stretch of events it separates is
// every occurrence of one query, and a query without results adds none.
TEST_F(BatchAsyncTest, BetweenRunsSeparatesUniqueQueries) {
  auto engine = MakeEngine(/*threads=*/2, /*cache_capacity=*/0);
  const std::vector<std::string> minibank = MiniBankQueries();
  const std::vector<std::string> queries = {
      minibank[4], minibank[0], minibank[4], minibank[2], "qqqzzzx"};
  std::vector<std::vector<size_t>> runs(1);  // query index per event
  AsyncSearch search = engine->SearchAllAsync(
      queries, [&](size_t query_index, size_t, const SodaResult&) {
        runs.back().push_back(query_index);
      });
  search.snippets.Run([&] { runs.emplace_back(); });

  ASSERT_EQ(runs.size(), 3u);
  std::set<std::string> seen;
  for (const std::vector<size_t>& run : runs) {
    ASSERT_FALSE(run.empty());
    const std::string& text = queries[run.front()];
    for (size_t query_index : run) EXPECT_EQ(queries[query_index], text);
    EXPECT_TRUE(seen.insert(text).second) << text;
  }
  EXPECT_EQ(runs[0].size(), 2 * search.outputs[0]->results.size());
}

// A stream destroyed unrun executes nothing, calls back nothing and
// caches nothing: the next request for a query with results is a cold
// miss. (An answer with no results has no snippets and was cached at
// translation.)
TEST_F(BatchAsyncTest, DroppedStreamRunsNothing) {
  auto engine = MakeEngine(/*threads=*/2, /*cache_capacity=*/8);
  const std::vector<std::string> queries = MiniBankQueries();
  CallbackRecorder recorder;
  size_t without_results = 0;
  {
    AsyncSearch search = engine->SearchAllAsync(queries, recorder.Callback());
    for (const auto& output : search.outputs) {
      ASSERT_TRUE(output.ok()) << output.status();
      if (output->results.empty()) ++without_results;
    }
    ASSERT_LT(without_results, queries.size());
  }
  EXPECT_TRUE(recorder.deliveries().empty());
  MetricsSnapshot snapshot = engine->metrics_snapshot();
  EXPECT_EQ(snapshot.counter("snippet.executed"), 0u);
  EXPECT_EQ(snapshot.counter("snippet.failed"), 0u);
  EXPECT_EQ(snapshot.counter("snippet.streamed"), 0u);
  EXPECT_EQ(engine->cache_stats().size, without_results);
  for (const std::string& query : queries) {
    auto again = engine->Search(query);
    ASSERT_TRUE(again.ok()) << again.status();
    EXPECT_EQ(again->from_cache, again->results.empty()) << query;
  }
}

TEST_F(BatchAsyncTest, AsyncErrorQueriesProduceNoCallbacks) {
  auto engine = MakeEngine(/*threads=*/2, /*cache_capacity=*/0);
  const std::vector<std::string> queries = {"sum(investments"};
  CallbackRecorder recorder;
  AsyncSearch search = engine->SearchAllAsync(queries, recorder.Callback());
  ASSERT_EQ(search.outputs.size(), 1u);
  EXPECT_FALSE(search.outputs[0].ok());
  EXPECT_EQ(search.snippets.Run().delivered, 0u);
  EXPECT_TRUE(recorder.deliveries().empty());
}

}  // namespace
}  // namespace soda
