// Tests for the SodaEngine service layer: deterministic results under the
// concurrent fan-out (same query -> byte-identical ranked SQL list at 1 vs
// N threads), one query staying on its caller's thread, LRU cache
// behavior, construction-error propagation, and a snippet stream that
// holds the data lock only around its own scans and cache insert.

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/soda.h"
#include "datasets/enterprise.h"
#include "datasets/minibank.h"
#include "eval/workload.h"
#include "pattern/library.h"
#include "minibank_queries.h"

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

class EngineMiniBankTest : public ::testing::Test {
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

MiniBank* EngineMiniBankTest::bank_ = nullptr;

TEST_F(EngineMiniBankTest, ConcurrentEngineMatchesSerialPipeline) {
  auto serial = Soda::Create(&bank_->db, &bank_->graph,
                             CreditSuissePatternLibrary(), SodaConfig{});
  ASSERT_TRUE(serial.ok()) << serial.status();
  auto engine = MakeEngine(/*threads=*/4, /*cache_capacity=*/0);
  EXPECT_EQ(engine->num_threads(), 4u);
  for (const std::string& query : MiniBankQueries()) {
    auto expected = (*serial)->Search(query);
    auto actual = engine->Search(query);
    ASSERT_TRUE(expected.ok()) << expected.status();
    ASSERT_TRUE(actual.ok()) << actual.status();
    EXPECT_EQ(Fingerprint(*expected), Fingerprint(*actual)) << query;
  }
}

TEST_F(EngineMiniBankTest, OneVsManyThreadsByteIdentical) {
  auto one = MakeEngine(/*threads=*/1, /*cache_capacity=*/0);
  auto many = MakeEngine(/*threads=*/8, /*cache_capacity=*/0);
  for (const std::string& query : MiniBankQueries()) {
    auto lhs = one->Search(query);
    auto rhs = many->Search(query);
    ASSERT_TRUE(lhs.ok()) << lhs.status();
    ASSERT_TRUE(rhs.ok()) << rhs.status();
    EXPECT_EQ(Fingerprint(*lhs), Fingerprint(*rhs)) << query;
  }
}

TEST_F(EngineMiniBankTest, RepeatedSearchesAreStable) {
  // The fan-out schedule is nondeterministic; the answer must not be.
  auto engine = MakeEngine(/*threads=*/4, /*cache_capacity=*/0);
  const std::string query = MiniBankQueries()[0];
  auto first = engine->Search(query);
  ASSERT_TRUE(first.ok()) << first.status();
  for (int round = 0; round < 5; ++round) {
    auto again = engine->Search(query);
    ASSERT_TRUE(again.ok()) << again.status();
    EXPECT_EQ(Fingerprint(*first), Fingerprint(*again)) << "round " << round;
  }
}

TEST_F(EngineMiniBankTest, CacheHitShortCircuitsAndCounts) {
  auto engine = MakeEngine(/*threads=*/2, /*cache_capacity=*/8);
  const std::string query = MiniBankQueries()[0];

  auto miss = engine->Search(query);
  ASSERT_TRUE(miss.ok()) << miss.status();
  EXPECT_FALSE(miss->from_cache);
  EXPECT_EQ(engine->cache_stats().hits, 0u);
  EXPECT_EQ(engine->cache_stats().misses, 1u);

  auto hit = engine->Search(query);
  ASSERT_TRUE(hit.ok()) << hit.status();
  EXPECT_TRUE(hit->from_cache);
  EXPECT_EQ(engine->cache_stats().hits, 1u);
  EXPECT_EQ(engine->cache_stats().misses, 1u);
  EXPECT_EQ(Fingerprint(*miss), Fingerprint(*hit));

  // The key collapses whitespace (the tokenizer splits on it anyway)...
  auto respaced = engine->Search("  customers   Zürich financial instruments ");
  ASSERT_TRUE(respaced.ok()) << respaced.status();
  EXPECT_TRUE(respaced->from_cache);

  // ...but keeps case: comparison literals compare case-sensitively, so
  // a differently-cased query may have a different answer and must miss.
  auto recased = engine->Search("CUSTOMERS Zürich financial instruments");
  ASSERT_TRUE(recased.ok()) << recased.status();
  EXPECT_FALSE(recased->from_cache);

  engine->ClearCache();
  auto after_clear = engine->Search(query);
  ASSERT_TRUE(after_clear.ok()) << after_clear.status();
  EXPECT_FALSE(after_clear->from_cache);
}

TEST_F(EngineMiniBankTest, ZeroCapacityDisablesCache) {
  auto engine = MakeEngine(/*threads=*/2, /*cache_capacity=*/0);
  const std::string query = MiniBankQueries()[0];
  ASSERT_TRUE(engine->Search(query).ok());
  auto second = engine->Search(query);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->from_cache);
  EXPECT_EQ(engine->cache_stats().size, 0u);
}

TEST_F(EngineMiniBankTest, CreateFailsOnBrokenPatternLibrary) {
  // An empty library cannot harvest the join graph: Create must surface
  // the failure instead of silently swallowing it.
  auto broken = Soda::Create(&bank_->db, &bank_->graph, PatternLibrary{},
                             SodaConfig{});
  ASSERT_FALSE(broken.ok());

  auto engine = SodaEngine::Create(&bank_->db, &bank_->graph,
                                   PatternLibrary{}, SodaConfig{});
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), broken.status().code());
}

// Records the thread of every stage latency observation.
class StageThreadSink : public MetricsSink {
 public:
  void IncrementCounter(std::string_view, uint64_t) override {}
  void Observe(std::string_view name, double) override {
    if (name.substr(0, 6) != "stage.") return;
    std::lock_guard<std::mutex> lock(mu_);
    threads_.push_back(std::this_thread::get_id());
  }
  std::vector<std::thread::id> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(threads_, {});
  }

 private:
  std::mutex mu_;
  std::vector<std::thread::id> threads_;
};

using EngineTest = EngineMiniBankTest;

// The pool fans out across the queries of a batch only: every stage of
// one query — its interpretations and snippets included — runs on the
// thread that asked (or, for async snippets, the thread that runs the
// returned stream).
TEST_F(EngineTest, OneQueryStaysOnTheCallerThread) {
  auto engine = MakeEngine(/*threads=*/4, /*cache_capacity=*/0);
  auto sink = std::make_shared<StageThreadSink>();
  engine->set_metrics_sink(sink);
  const std::string query = MiniBankQueries()[1];  // 3 interpretations
  const std::thread::id caller = std::this_thread::get_id();
  auto expect_on_caller = [&](const std::string& label) {
    std::vector<std::thread::id> threads = sink->Take();
    EXPECT_FALSE(threads.empty()) << label;
    for (std::thread::id id : threads) EXPECT_EQ(id, caller) << label;
  };

  auto searched = engine->Search(query);
  ASSERT_TRUE(searched.ok()) << searched.status();
  ASSERT_GT(searched->complexity, 1u);
  ASSERT_GT(searched->results.size(), 1u);
  expect_on_caller("Search");

  std::shared_ptr<const TranslationPlan> plan;
  ASSERT_TRUE(engine->SearchSession(query, SessionConstraints{}, &plan).ok());
  expect_on_caller("SearchSession");

  AsyncSearch search =
      engine->SearchAllAsync(std::span<const std::string>(&query, 1), nullptr);
  ASSERT_TRUE(search.outputs[0].ok()) << search.outputs[0].status();
  search.snippets.Run();
  expect_on_caller("SearchAllAsync");
}

// SearchAll batch determinism (vs independent Search calls, dedup
// accounting, async streaming) lives in tests/batch_async_test.cc.

// ---------------------------------------------------------------------------
// Snippet streams and the data lock
// ---------------------------------------------------------------------------

// Each test here appends to its own MiniBank, leaving the shared one
// untouched.
class EngineStreamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto built = BuildMiniBank();
    ASSERT_TRUE(built.ok()) << built.status();
    bank_ = std::move(built).value();
    SodaConfig config;
    config.num_threads = 1;
    config.cache_capacity = 8;
    auto engine = SodaEngine::Create(&bank_->db, &bank_->graph,
                                     CreditSuissePatternLibrary(), config);
    ASSERT_TRUE(engine.ok()) << engine.status();
    engine_ = std::move(engine).value();
  }

  // One new Zürich address: a base-data change under the change log's
  // exclusive lock.
  Status AppendAddress() {
    Table* addresses = bank_->db.FindTable("addresses");
    if (addresses == nullptr) return Status::NotFound("addresses");
    int64_t id = static_cast<int64_t>(addresses->num_rows()) + 1000;
    return addresses->Append({Value::Int(id), Value::Int(id),
                              Value::Str("Teststrasse 1"),
                              Value::Str("Zürich"), Value::Str("CH")});
  }

  std::unique_ptr<MiniBank> bank_;
  std::unique_ptr<SodaEngine> engine_;
};

// A stream callback may block for as long as its client stops reading
// (the HTTP server's is a blocking socket write). It runs without the
// data lock, so an append issued meanwhile completes while the callback
// is still parked.
TEST_F(EngineStreamTest, AppendCompletesWhileACallbackIsParked) {
  const std::vector<std::string> queries = {"addresses Sara Guttinger"};
  std::promise<void> parked;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  size_t calls = 0;
  AsyncSearch search = engine_->SearchAllAsync(
      queries, [&](size_t, size_t, const SodaResult&) {
        if (calls++ == 0) {
          parked.set_value();
          released.wait();
        }
      });
  ASSERT_TRUE(search.outputs[0].ok()) << search.outputs[0].status();
  ASSERT_FALSE(search.outputs[0]->results.empty());

  SnippetStream::Summary summary;
  std::thread runner([&] { summary = search.snippets.Run(); });
  parked.get_future().wait();
  std::future<Status> append =
      std::async(std::launch::async, [this] { return AppendAddress(); });
  const bool appended = append.wait_for(std::chrono::seconds(2)) ==
                        std::future_status::ready;
  release.set_value();  // unpark before asserting, so nothing hangs
  runner.join();
  EXPECT_TRUE(appended) << "the append waited behind a parked callback";
  EXPECT_TRUE(append.get().ok());
  EXPECT_EQ(summary.delivered, search.outputs[0]->results.size());
  // The data moved under the stream: its answer is not cached.
  EXPECT_EQ(
      engine_->metrics_snapshot().counter("cache.stale_insert_skipped"), 1u);
  EXPECT_EQ(engine_->cache_stats().size, 0u);
}

// The stream caches each answer after its last snippet — unless base
// data changed since translation: the append already invalidated what
// depended on it, and caching the older answer afterwards would undo
// that. A stream with no intervening change caches as usual.
TEST_F(EngineStreamTest, StaleInsertIsSkipped) {
  const std::vector<std::string> queries = {"addresses Sara Guttinger",
                                            "private customers family name"};
  AsyncSearch stale = engine_->SearchAllAsync(queries, nullptr);
  ASSERT_TRUE(AppendAddress().ok());
  SnippetStream::Summary summary = stale.snippets.Run();
  EXPECT_GT(summary.delivered, 0u);
  EXPECT_EQ(
      engine_->metrics_snapshot().counter("cache.stale_insert_skipped"), 2u);
  EXPECT_EQ(engine_->cache_stats().size, 0u);

  AsyncSearch fresh = engine_->SearchAllAsync(queries, nullptr);
  fresh.snippets.Run();
  EXPECT_EQ(
      engine_->metrics_snapshot().counter("cache.stale_insert_skipped"), 2u);
  EXPECT_EQ(engine_->cache_stats().size, 2u);
  auto warm = engine_->Search(queries[0]);
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_TRUE(warm->from_cache);
}

// The enterprise workload (paper Table 2) is the multi-interpretation
// stress: every query must come back byte-identical at 1 vs N threads.
TEST(EngineEnterpriseTest, WorkloadByteIdenticalAcrossThreadCounts) {
  auto built = BuildEnterpriseWarehouse();
  ASSERT_TRUE(built.ok()) << built.status();
  auto warehouse = std::move(built).value();

  SodaConfig config;
  config.execute_snippets = false;  // translation determinism is the point
  config.cache_capacity = 0;

  config.num_threads = 1;
  auto one = SodaEngine::Create(&warehouse->db, &warehouse->graph,
                                CreditSuissePatternLibrary(), config);
  ASSERT_TRUE(one.ok()) << one.status();
  config.num_threads = 4;
  auto four = SodaEngine::Create(&warehouse->db, &warehouse->graph,
                                 CreditSuissePatternLibrary(), config);
  ASSERT_TRUE(four.ok()) << four.status();

  for (const BenchmarkQuery& bench : EnterpriseWorkload()) {
    auto lhs = (*one)->Search(bench.keywords);
    auto rhs = (*four)->Search(bench.keywords);
    ASSERT_TRUE(lhs.ok()) << bench.id << ": " << lhs.status();
    ASSERT_TRUE(rhs.ok()) << bench.id << ": " << rhs.status();
    EXPECT_EQ(Fingerprint(*lhs), Fingerprint(*rhs)) << "query " << bench.id;
  }
}

}  // namespace
}  // namespace soda
