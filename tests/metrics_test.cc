// Tests for the MetricsSink observability surface: the in-memory sink's
// counter/histogram aggregation, snapshot consistency under concurrency,
// the pipeline drivers' per-stage latency export, and the SodaEngine's
// service-level counters (cache, batch dedup, snippets, queue depth).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "core/engine.h"
#include "core/soda.h"
#include "datasets/minibank.h"
#include "pattern/library.h"
#include "sql/executor.h"

namespace soda {
namespace {

// ---------------------------------------------------------------------------
// InMemoryMetricsSink
// ---------------------------------------------------------------------------

TEST(InMemoryMetricsSinkTest, CountersAccumulate) {
  InMemoryMetricsSink sink;
  sink.IncrementCounter("a", 1);
  sink.IncrementCounter("a", 2);
  sink.IncrementCounter("b", 5);
  MetricsSnapshot snapshot = sink.Snapshot();
  EXPECT_EQ(snapshot.counter("a"), 3u);
  EXPECT_EQ(snapshot.counter("b"), 5u);
  EXPECT_EQ(snapshot.counter("missing"), 0u);
}

TEST(InMemoryMetricsSinkTest, HistogramStatistics) {
  InMemoryMetricsSink sink;
  for (double v : {0.5, 1.5, 2.0, 8.0, 40.0}) sink.Observe("lat", v);
  MetricsSnapshot snapshot = sink.Snapshot();
  const HistogramSnapshot* h = snapshot.histogram("lat");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 5u);
  EXPECT_DOUBLE_EQ(h->sum, 52.0);
  EXPECT_DOUBLE_EQ(h->min, 0.5);
  EXPECT_DOUBLE_EQ(h->max, 40.0);
  EXPECT_DOUBLE_EQ(h->mean(), 52.0 / 5);
  // Percentiles are bucket upper bounds: p0 lands in the 0.5 bucket, the
  // median sample (2.0) lands in the 2.5 bucket, p100 in the 50 bucket.
  EXPECT_DOUBLE_EQ(h->Percentile(0), 0.5);
  EXPECT_DOUBLE_EQ(h->Percentile(50), 2.5);
  EXPECT_DOUBLE_EQ(h->Percentile(100), 50.0);
}

TEST(InMemoryMetricsSinkTest, HistogramOverflowBucketUsesObservedMax) {
  InMemoryMetricsSink sink;
  sink.Observe("lat", 10000.0);  // beyond the last finite bound
  MetricsSnapshot snapshot = sink.Snapshot();
  const HistogramSnapshot* h = snapshot.histogram("lat");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->buckets.back(), 1u);
  EXPECT_DOUBLE_EQ(h->Percentile(99), 10000.0);
}

TEST(InMemoryMetricsSinkTest, EmptyHistogramPercentileIsZero) {
  HistogramSnapshot h;
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(InMemoryMetricsSinkTest, ResetClearsEverything) {
  InMemoryMetricsSink sink;
  sink.IncrementCounter("a", 1);
  sink.Observe("lat", 1.0);
  sink.Reset();
  MetricsSnapshot snapshot = sink.Snapshot();
  EXPECT_TRUE(snapshot.counters.empty());
  EXPECT_TRUE(snapshot.histograms.empty());
}

TEST(InMemoryMetricsSinkTest, ToStringListsEveryMetric) {
  InMemoryMetricsSink sink;
  sink.IncrementCounter("cache.hit", 7);
  sink.Observe("stage.lookup.ms", 1.25);
  std::string text = sink.Snapshot().ToString();
  EXPECT_NE(text.find("cache.hit"), std::string::npos);
  EXPECT_NE(text.find("7"), std::string::npos);
  EXPECT_NE(text.find("stage.lookup.ms"), std::string::npos);
  EXPECT_NE(text.find("count=1"), std::string::npos);
}

TEST(InMemoryMetricsSinkTest, ConcurrentObservationsAreLossless) {
  InMemoryMetricsSink sink;
  const int kThreads = 4;
  const int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        sink.IncrementCounter("events", 1);
        sink.Observe("value", 1.0);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  MetricsSnapshot snapshot = sink.Snapshot();
  EXPECT_EQ(snapshot.counter("events"),
            static_cast<uint64_t>(kThreads * kPerThread));
  const HistogramSnapshot* h = snapshot.histogram("value");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_DOUBLE_EQ(h->sum, static_cast<double>(kThreads * kPerThread));
}

// ---------------------------------------------------------------------------
// Pipeline + engine integration
// ---------------------------------------------------------------------------

class MetricsIntegrationTest : public ::testing::Test {
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

  static MiniBank* bank_;
};

MiniBank* MetricsIntegrationTest::bank_ = nullptr;

TEST_F(MetricsIntegrationTest, SerialSearchExportsPerStageLatencies) {
  auto soda =
      Soda::Create(&bank_->db, &bank_->graph, CreditSuissePatternLibrary(),
                   SodaConfig{});
  ASSERT_TRUE(soda.ok()) << soda.status();
  InMemoryMetricsSink sink;
  auto output = (*soda)->Search("private customers family name", &sink);
  ASSERT_TRUE(output.ok()) << output.status();

  MetricsSnapshot snapshot = sink.Snapshot();
  // Query-level stages observe once; per-interpretation stages observe
  // once per surviving interpretation.
  for (const char* stage :
       {"stage.lookup.ms", "stage.rank.ms", "stage.tables.ms",
        "stage.filters.ms", "stage.sql.ms"}) {
    const HistogramSnapshot* h = snapshot.histogram(stage);
    ASSERT_NE(h, nullptr) << stage;
    EXPECT_GE(h->count, 1u) << stage;
  }
  EXPECT_EQ(snapshot.counter("soda.search"), 1u);
  EXPECT_GE(snapshot.counter("snippet.executed") +
                snapshot.counter("snippet.failed"),
            output->results.size());
  ASSERT_NE(snapshot.histogram("search.wall.ms"), nullptr);
  ASSERT_NE(snapshot.histogram("executor.rows"), nullptr);
  const HistogramSnapshot* tuples = snapshot.histogram("executor.tuples");
  ASSERT_NE(tuples, nullptr);
  EXPECT_EQ(tuples->count, snapshot.histogram("executor.rows")->count);
}

TEST_F(MetricsIntegrationTest, SnippetIndexBuildsLevelOff) {
  // A bank of its own: the suite's shared one may already carry indexes.
  auto bank = BuildMiniBank();
  ASSERT_TRUE(bank.ok()) << bank.status();
  auto soda = Soda::Create(&(*bank)->db, &(*bank)->graph,
                           CreditSuissePatternLibrary(), SodaConfig{});
  ASSERT_TRUE(soda.ok()) << soda.status();
  const std::string query = "addresses Sara Guttinger";
  InMemoryMetricsSink first, second;
  ASSERT_TRUE((*soda)->Search(query, &first).ok());
  ASSERT_TRUE((*soda)->Search(query, &second).ok());
  // The tables keep the indexes the first run built, so the same query
  // builds none the second time.
  EXPECT_GT(first.Snapshot().counter("executor.index_builds"), 0u);
  EXPECT_EQ(second.Snapshot().counter("executor.index_builds"), 0u);
}

TEST_F(MetricsIntegrationTest, SnippetSeedReductionsAreCounted) {
  auto soda = Soda::Create(&bank_->db, &bank_->graph,
                           CreditSuissePatternLibrary(), SodaConfig{});
  ASSERT_TRUE(soda.ok()) << soda.status();
  InMemoryMetricsSink sink;
  auto output = (*soda)->Search("addresses Sara Guttinger", &sink);
  ASSERT_TRUE(output.ok()) << output.status();
  // One increment per snippet statement whose seed the reduction narrowed.
  size_t reduced = 0;
  for (const SodaResult& result : output->results) {
    SelectStatement limited = result.statement;
    limited.limit = static_cast<int64_t>((*soda)->config().snippet_rows);
    ExecStats stats;
    ASSERT_TRUE((*soda)->executor().Execute(limited, &stats).ok());
    if (stats.seed_reduced) ++reduced;
  }
  EXPECT_GT(reduced, 0u);
  EXPECT_EQ(sink.Snapshot().counter("executor.seed_reductions"), reduced);
}

TEST_F(MetricsIntegrationTest, EngineRecordsCacheAndBatchCounters) {
  SodaConfig config;
  config.num_threads = 2;
  config.cache_capacity = 8;
  auto engine = SodaEngine::Create(&bank_->db, &bank_->graph,
                                   CreditSuissePatternLibrary(), config);
  ASSERT_TRUE(engine.ok()) << engine.status();

  const std::string query = "addresses Sara Guttinger";
  ASSERT_TRUE((*engine)->Search(query).ok());  // miss
  ASSERT_TRUE((*engine)->Search(query).ok());  // hit
  auto batch = (*engine)->SearchAll({query, query});  // hit + dedup hit

  MetricsSnapshot snapshot = (*engine)->metrics_snapshot();
  EXPECT_EQ(snapshot.counter("engine.search"), 2u);
  EXPECT_EQ(snapshot.counter("engine.search_all"), 1u);
  EXPECT_EQ(snapshot.counter("cache.miss"), 1u);
  EXPECT_EQ(snapshot.counter("cache.hit"), 2u);
  EXPECT_EQ(snapshot.counter("batch.queries"), 2u);
  EXPECT_EQ(snapshot.counter("batch.unique"), 1u);
  EXPECT_EQ(snapshot.counter("batch.dedup_hits"), 1u);
  // The sink's view agrees with the cache's own books.
  CacheStats stats = (*engine)->cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 3u);
  // Stage latencies flowed through the concurrent drivers too.
  ASSERT_NE(snapshot.histogram("stage.lookup.ms"), nullptr);
  ASSERT_NE(snapshot.histogram("stage.tables.ms"), nullptr);
  ASSERT_NE(snapshot.histogram("pool.queue_depth"), nullptr);
}

TEST_F(MetricsIntegrationTest, CustomSinkReceivesEngineTraffic) {
  SodaConfig config;
  config.num_threads = 1;
  config.cache_capacity = 4;
  auto engine = SodaEngine::Create(&bank_->db, &bank_->graph,
                                   CreditSuissePatternLibrary(), config);
  ASSERT_TRUE(engine.ok()) << engine.status();

  auto custom = std::make_shared<InMemoryMetricsSink>();
  (*engine)->set_metrics_sink(custom);
  ASSERT_TRUE((*engine)->Search("addresses Sara Guttinger").ok());

  // Traffic lands in the custom sink, not the (now frozen) default one.
  EXPECT_EQ(custom->Snapshot().counter("engine.search"), 1u);
  EXPECT_EQ((*engine)->metrics_snapshot().counter("engine.search"), 0u);

  // nullptr restores the built-in sink.
  (*engine)->set_metrics_sink(nullptr);
  ASSERT_TRUE((*engine)->Search("addresses Sara Guttinger").ok());
  EXPECT_EQ((*engine)->metrics_snapshot().counter("engine.search"), 1u);
  EXPECT_EQ(custom->Snapshot().counter("engine.search"), 1u);
}

}  // namespace
}  // namespace soda
