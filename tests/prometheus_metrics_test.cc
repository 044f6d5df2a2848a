// Tests for the Prometheus text-exposition rendering and snapshot
// diffing: golden-checks the exact rendered format (TYPE headers,
// cumulative buckets over the shared grid, name sanitization), and
// DeltaSince's per-interval semantics for counters and histograms, and
// the zero-traffic series inventory of the engine and the HTTP server.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/metrics.h"
#include "common/prometheus_sink.h"
#include "core/engine.h"
#include "datasets/minibank.h"
#include "net/http_server.h"
#include "pattern/library.h"

namespace soda {
namespace {

TEST(PrometheusRenderTest, GoldenCounterAndHistogram) {
  InMemoryMetricsSink sink;
  sink.IncrementCounter("cache.hit", 41);
  sink.IncrementCounter("cache.hit", 1);
  sink.IncrementCounter("engine.search", 7);
  // Binary-exact sample values so the `_sum` line is reproducible.
  sink.Observe("stage.lookup.ms", 0.015625);  // second bucket (le=0.025)
  sink.Observe("stage.lookup.ms", 0.015625);
  sink.Observe("stage.lookup.ms", 256.0);     // +Inf overflow bucket

  const std::string expected =
      "# TYPE soda_cache_hit_total counter\n"
      "soda_cache_hit_total 42\n"
      "# TYPE soda_engine_search_total counter\n"
      "soda_engine_search_total 7\n"
      "# TYPE soda_stage_lookup_ms histogram\n"
      "soda_stage_lookup_ms_bucket{le=\"0.01\"} 0\n"
      "soda_stage_lookup_ms_bucket{le=\"0.025\"} 2\n"
      "soda_stage_lookup_ms_bucket{le=\"0.05\"} 2\n"
      "soda_stage_lookup_ms_bucket{le=\"0.1\"} 2\n"
      "soda_stage_lookup_ms_bucket{le=\"0.25\"} 2\n"
      "soda_stage_lookup_ms_bucket{le=\"0.5\"} 2\n"
      "soda_stage_lookup_ms_bucket{le=\"1\"} 2\n"
      "soda_stage_lookup_ms_bucket{le=\"2.5\"} 2\n"
      "soda_stage_lookup_ms_bucket{le=\"5\"} 2\n"
      "soda_stage_lookup_ms_bucket{le=\"10\"} 2\n"
      "soda_stage_lookup_ms_bucket{le=\"25\"} 2\n"
      "soda_stage_lookup_ms_bucket{le=\"50\"} 2\n"
      "soda_stage_lookup_ms_bucket{le=\"100\"} 2\n"
      "soda_stage_lookup_ms_bucket{le=\"250\"} 2\n"
      "soda_stage_lookup_ms_bucket{le=\"+Inf\"} 3\n"
      "soda_stage_lookup_ms_sum 256.03125\n"
      "soda_stage_lookup_ms_count 3\n";
  EXPECT_EQ(RenderPrometheusText(sink.Snapshot()), expected);
}

TEST(PrometheusRenderTest, SanitizesNamesAndHonorsPrefix) {
  MetricsSnapshot snapshot;
  snapshot.counters["router.shard-queries/total"] = 5;
  std::string text = RenderPrometheusText(snapshot, "fleet");
  EXPECT_NE(text.find("fleet_router_shard_queries_total_total 5"),
            std::string::npos);
}

TEST(PrometheusRenderTest, SinkAggregatesAndRenders) {
  InMemoryMetricsSink sink;
  sink.IncrementCounter("freshness.events", 3);
  sink.Observe("pool.queue_depth", 2.0);
  std::string text = RenderPrometheusText(sink.Snapshot(), "soda");
  EXPECT_NE(text.find("soda_freshness_events_total 3"), std::string::npos);
  EXPECT_NE(text.find("soda_pool_queue_depth_count 1"), std::string::npos);
}

TEST(PrometheusRenderTest, WorksAsEngineSink) {
  auto bank = BuildMiniBank().value();
  SodaConfig config;
  config.num_threads = 1;
  auto engine = SodaEngine::Create(&bank->db, &bank->graph,
                                   CreditSuissePatternLibrary(), config)
                    .value();
  auto sink = std::make_shared<InMemoryMetricsSink>();
  engine->set_metrics_sink(sink);
  ASSERT_TRUE(engine->Search("addresses Sara Guttinger").ok());
  std::string text = RenderPrometheusText(sink->Snapshot());
  EXPECT_NE(text.find("soda_cache_miss_total 1"), std::string::npos);
  EXPECT_NE(text.find("# TYPE soda_search_wall_ms histogram"),
            std::string::npos);
}

// Every series the engine ever writes must already be present — at
// zero — on a freshly built engine, so the very first /metrics scrape
// exports the complete inventory (dashboards and alerts key on series
// existence; a series that appears only under traffic reads as a broken
// exporter during quiet hours).
TEST(PrometheusRenderTest, EngineExportsEverySeriesBeforeAnyTraffic) {
  auto bank = BuildMiniBank().value();
  SodaConfig config;
  config.num_threads = 1;
  auto engine = SodaEngine::Create(&bank->db, &bank->graph,
                                   CreditSuissePatternLibrary(), config)
                    .value();
  const char* expected_counters[] = {
      "engine.search", "engine.search_all", "engine.search_all_async",
      "engine.task_exceptions",
      "cache.hit", "cache.miss", "cache.invalidated",
      "cache.stale_insert_skipped",
      "batch.queries", "batch.unique", "batch.interpretations",
      "batch.dedup_hits",
      "session.refines", "session.stages_skipped",
      "snippet.executed", "snippet.failed", "snippet.exception",
      "snippet.streamed", "snippet.callback_exception",
      "executor.index_builds", "executor.seed_reductions",
      "lookup.interpretations_capped",
      "closure.traverse_hits", "closure.traverse_misses",
      "closure.path_lookups",
      "trace.spans", "trace.sampled", "trace.dropped", "trace.slow_queries",
  };
  const char* expected_histograms[] = {
      "search.wall.ms", "batch.wall.ms", "stage.execute.ms",
      "pool.queue_depth", "executor.rows", "executor.tables",
      "executor.tuples",
      "stage.lookup.ms", "stage.rank.ms", "stage.tables.ms",
      "stage.filters.ms", "stage.sql.ms",
  };
  MetricsSnapshot snapshot = engine->metrics_snapshot();
  for (const char* name : expected_counters) {
    EXPECT_EQ(snapshot.counters.count(name), 1u) << "missing " << name;
    EXPECT_EQ(snapshot.counter(name), 0u) << name << " not zero";
  }
  for (const char* name : expected_histograms) {
    EXPECT_NE(snapshot.histogram(name), nullptr) << "missing " << name;
  }

  // A replacement sink inherits the same zero-traffic counter inventory
  // (histograms register through the concrete sink type only).
  auto fresh = std::make_shared<InMemoryMetricsSink>();
  engine->set_metrics_sink(fresh);
  MetricsSnapshot replaced = fresh->Snapshot();
  for (const char* name : expected_counters) {
    EXPECT_EQ(replaced.counters.count(name), 1u)
        << "missing " << name << " after set_metrics_sink";
  }
}

// The HTTP server's own books follow the same rule: a started server
// exports every server.* counter at zero before its first request.
TEST(PrometheusRenderTest, ServerExportsEverySeriesBeforeAnyTraffic) {
  auto bank = BuildMiniBank().value();
  SodaConfig config;
  config.num_threads = 1;
  auto engine = SodaEngine::Create(&bank->db, &bank->graph,
                                   CreditSuissePatternLibrary(), config)
                    .value();
  SodaHttpServer server(engine.get(), HttpServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  MetricsSnapshot snapshot = server.server_metrics();
  for (const char* name :
       {"server.requests", "server.accepted", "server.shed",
        "server.timeouts", "server.stream_writes"}) {
    EXPECT_EQ(snapshot.counters.count(name), 1u) << "missing " << name;
    EXPECT_EQ(snapshot.counter(name), 0u) << name << " not zero";
  }
  EXPECT_NE(snapshot.histogram("server.inflight"), nullptr);
  server.Stop();
}

TEST(MetricsDeltaTest, CountersSubtractAndDropWhenUnchanged) {
  InMemoryMetricsSink sink;
  sink.IncrementCounter("a", 10);
  sink.IncrementCounter("b", 2);
  MetricsSnapshot before = sink.Snapshot();
  sink.IncrementCounter("a", 5);
  sink.IncrementCounter("c", 1);  // new metric passes through whole
  MetricsSnapshot delta = sink.Snapshot().DeltaSince(before);

  EXPECT_EQ(delta.counter("a"), 5u);
  EXPECT_EQ(delta.counters.count("b"), 0u);  // unchanged → absent
  EXPECT_EQ(delta.counter("c"), 1u);
}

TEST(MetricsDeltaTest, HistogramsSubtractExactlyOnTheSharedGrid) {
  InMemoryMetricsSink sink;
  sink.Observe("lat", 0.02);
  sink.Observe("lat", 4.0);
  MetricsSnapshot before = sink.Snapshot();
  sink.Observe("lat", 4.0);
  sink.Observe("lat", 40.0);
  MetricsSnapshot now = sink.Snapshot();

  MetricsSnapshot delta = now.DeltaSince(before);
  const HistogramSnapshot* h = delta.histogram("lat");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2u);
  EXPECT_DOUBLE_EQ(h->sum, 44.0);
  // Exactly the two interval samples, in their grid buckets (4.0 →
  // le=5, 40.0 → le=50).
  uint64_t total = 0;
  for (uint64_t b : h->buckets) total += b;
  EXPECT_EQ(total, 2u);
  // Interval min/max are bucket-edge bounds clamped to lifetime extremes.
  EXPECT_GE(h->min, 2.5);
  EXPECT_LE(h->max, 50.0);

  // No new samples → the histogram drops out of the delta.
  MetricsSnapshot empty_delta = now.DeltaSince(now);
  EXPECT_EQ(empty_delta.histogram("lat"), nullptr);
  EXPECT_TRUE(empty_delta.counters.empty());
}

TEST(MetricsDeltaTest, RenderedDeltaShowsOnlyTheInterval) {
  InMemoryMetricsSink sink;
  sink.IncrementCounter("freshness.events", 2);
  MetricsSnapshot before = sink.Snapshot();
  sink.IncrementCounter("freshness.events", 3);
  sink.IncrementCounter("freshness.keys_invalidated", 7);
  std::string text = RenderPrometheusText(sink.Snapshot().DeltaSince(before));
  EXPECT_NE(text.find("soda_freshness_events_total 3"), std::string::npos);
  EXPECT_NE(text.find("soda_freshness_keys_invalidated_total 7"),
            std::string::npos);
  EXPECT_EQ(text.find("soda_freshness_events_total 5"), std::string::npos);
}

}  // namespace
}  // namespace soda
