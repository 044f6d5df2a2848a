// Tests for the end-to-end tracing layer (common/trace.h) and its
// threading through the engine stack:
//
//   - trace-id formatting/parsing round trips; malformed ids rejected;
//   - span recording: attributes, events, status, parentage through
//     explicit contexts;
//   - head sampling is deterministic (1-in-N by admission order), and
//     slow or errored traces are always kept regardless of the sample
//     decision;
//   - the recorder ring wraps oldest-first at its capacity, and
//     concurrent StartTrace/FinishTrace from many threads is safe
//     (the TSan leg runs this suite);
//   - deferred parentage: snippet.stream spans recorded inside Run(),
//     after SearchAllAsync returned, parent under the batch span;
//   - ranked output is byte-identical with tracing off vs sample-all,
//     at cache stripes {1,4} x threads {1,4};
//   - a deliberately stalled query (snippet.execute failpoint) surfaces
//     through the slow filter with its stage and cache outcome;
//   - the three latency views of every stage — span durations, the
//     stage.<name>.ms histogram and the response's StepTimings — agree
//     on the single-query, batch and session-resume paths;
//   - a sampled cache miss carries a cache.insert span (sync and
//     streamed paths); a hit does not.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/trace.h"
#include "core/engine.h"
#include "datasets/minibank.h"
#include "net/search_json.h"
#include "pattern/library.h"
#include "minibank_queries.h"

namespace soda {
namespace {

/// Configures the process-wide recorder for one test and restores the
/// sampled-off default on exit.
class ScopedRecorder {
 public:
  ScopedRecorder(size_t sample_every, double slow_threshold_ms,
                 size_t capacity = 64) {
    TraceRecorder::Instance().SetCapacity(capacity);
    TraceRecorder::Instance().Clear();
    TraceRecorder::Instance().Configure(sample_every, slow_threshold_ms);
  }
  ~ScopedRecorder() {
    TraceRecorder::Instance().Configure(0, 0.0);
    TraceRecorder::Instance().SetCapacity(64);
    TraceRecorder::Instance().Clear();
  }
};

class TraceEngineTest : public ::testing::Test {
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

  static std::unique_ptr<SodaEngine> MakeEngine(size_t threads) {
    SodaConfig config;
    config.num_threads = threads;
    config.cache_capacity = 32;
    auto engine = SodaEngine::Create(&bank_->db, &bank_->graph,
                                     CreditSuissePatternLibrary(), config);
    EXPECT_TRUE(engine.ok()) << engine.status();
    return std::move(engine).value();
  }

  static std::unique_ptr<SodaEngine> MakeStriped(size_t stripes,
                                                 size_t threads) {
    SodaConfig config;
    config.num_shards = stripes;
    config.num_threads = threads;
    config.cache_capacity = 32;
    auto engine = SodaEngine::Create(&bank_->db, &bank_->graph,
                                     CreditSuissePatternLibrary(), config);
    EXPECT_TRUE(engine.ok()) << engine.status();
    return std::move(engine).value();
  }

  static MiniBank* bank_;
};

MiniBank* TraceEngineTest::bank_ = nullptr;

// ---------------------------------------------------------------------------
// Trace ids
// ---------------------------------------------------------------------------

TEST(TraceIdTest, FormatAndParseRoundTrip) {
  uint64_t id = 0;
  ASSERT_TRUE(ParseTraceId("deadbeef", &id));
  EXPECT_EQ(id, 0xdeadbeefu);
  EXPECT_EQ(FormatTraceId(id), "00000000deadbeef");
  ASSERT_TRUE(ParseTraceId(FormatTraceId(0x1234abcd5678ef09ull), &id));
  EXPECT_EQ(id, 0x1234abcd5678ef09ull);
  ASSERT_TRUE(ParseTraceId("A", &id));  // case-insensitive hex
  EXPECT_EQ(id, 0xAu);
}

TEST(TraceIdTest, RejectsMalformedIds) {
  uint64_t id = 0;
  EXPECT_FALSE(ParseTraceId("", &id));
  EXPECT_FALSE(ParseTraceId("0", &id));  // zero is "no trace", not an id
  EXPECT_FALSE(ParseTraceId("0000000000000000", &id));
  EXPECT_FALSE(ParseTraceId("xyz", &id));
  EXPECT_FALSE(ParseTraceId("12345678901234567", &id));  // 17 digits
  EXPECT_FALSE(ParseTraceId("dead beef", &id));
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

TEST(TraceSpanTest, RecordsAttrsEventsStatusAndParentage) {
  ScopedRecorder recorder(/*sample_every=*/1, /*slow_threshold_ms=*/0.0);
  TraceContext ctx = TraceRecorder::Instance().StartTrace("test", 0xab);
  ASSERT_TRUE(ctx.active());
  EXPECT_EQ(ctx.data->trace_id(), 0xabu);  // client-chosen id adopted
  {
    Span root(ctx, "root");
    root.SetAttr("query", "addresses");
    root.SetAttr("count", static_cast<int64_t>(3));
    root.SetAttr("ratio", 0.5);
    root.SetAttr("hit", true);
    {
      Span child(root.context(), "child");
      child.AddEvent("retry", "attempt 1");
      child.SetStatus("stage failed");  // span-local: trace NOT errored
    }
  }
  EXPECT_FALSE(ctx.data->error());
  std::vector<SpanRecord> spans = ctx.data->spans();
  ASSERT_EQ(spans.size(), 2u);
  // Children finish (and append) before their parents.
  EXPECT_EQ(spans[0].name, "child");
  EXPECT_EQ(spans[1].name, "root");
  EXPECT_EQ(spans[0].parent_id, spans[1].span_id);
  EXPECT_EQ(spans[1].parent_id, 0u);
  EXPECT_EQ(spans[1].attrs.size(), 4u);
  ASSERT_EQ(spans[0].events.size(), 1u);
  EXPECT_EQ(spans[0].events[0].name, "retry");
  EXPECT_EQ(spans[0].status, "stage failed");
  TraceVerdict verdict =
      TraceRecorder::Instance().FinishTrace(ctx, ctx.data->ElapsedMs());
  EXPECT_TRUE(verdict.kept);
  EXPECT_FALSE(verdict.error);
  EXPECT_EQ(verdict.spans, 2u);
}

TEST(TraceSpanTest, DisabledRecorderYieldsInactiveFreeSpans) {
  // Sampled-off default: StartTrace hands back an inactive context and
  // every span operation is a guarded no-op.
  ASSERT_FALSE(TraceRecorder::Instance().enabled());
  TraceContext ctx = TraceRecorder::Instance().StartTrace("off");
  EXPECT_FALSE(ctx.active());
  Span span(ctx, "noop");
  EXPECT_FALSE(span.active());
  span.SetAttr("k", "v");
  span.AddEvent("e");
  span.SetError("ignored");
  span.End();
  EXPECT_FALSE(CurrentTraceContext().active());
}

// ---------------------------------------------------------------------------
// Sampling, slow/error capture, ring
// ---------------------------------------------------------------------------

TEST(TraceRecorderTest, HeadSamplingIsDeterministic) {
  ScopedRecorder recorder(/*sample_every=*/3, /*slow_threshold_ms=*/0.0);
  std::vector<bool> kept;
  for (int i = 0; i < 6; ++i) {
    TraceContext ctx = TraceRecorder::Instance().StartTrace("t");
    ASSERT_TRUE(ctx.active());
    Span root(ctx, "t");
    root.End();
    kept.push_back(
        TraceRecorder::Instance().FinishTrace(ctx, 0.1).kept);
  }
  // Admission order decides: 1-in-3 starting at the first admission.
  EXPECT_EQ(kept, (std::vector<bool>{true, false, false, true, false, false}));
  EXPECT_EQ(TraceRecorder::Instance().traces_started(), 6u);
  EXPECT_EQ(TraceRecorder::Instance().traces_kept(), 2u);
  EXPECT_EQ(TraceRecorder::Instance().traces_dropped(), 4u);
  EXPECT_EQ(TraceRecorder::Instance().Snapshot().size(), 2u);
}

TEST(TraceRecorderTest, SlowAndErroredTracesAreAlwaysKept) {
  // Sample 1-in-a-million: head sampling would drop everything after the
  // first admission, so anything else kept got there via slow/error.
  ScopedRecorder recorder(/*sample_every=*/1000000,
                          /*slow_threshold_ms=*/5.0);
  // Burn the head-sampled first admission.
  TraceContext first = TraceRecorder::Instance().StartTrace("first");
  (void)TraceRecorder::Instance().FinishTrace(first, 0.1);

  TraceContext fast = TraceRecorder::Instance().StartTrace("fast");
  EXPECT_FALSE(TraceRecorder::Instance().FinishTrace(fast, 0.1).kept);

  TraceContext slow = TraceRecorder::Instance().StartTrace("slow");
  TraceVerdict slow_verdict =
      TraceRecorder::Instance().FinishTrace(slow, 25.0);
  EXPECT_TRUE(slow_verdict.kept);
  EXPECT_TRUE(slow_verdict.slow);

  TraceContext errored = TraceRecorder::Instance().StartTrace("errored");
  {
    Span root(errored, "root");
    root.SetError("boom");
  }
  TraceVerdict error_verdict =
      TraceRecorder::Instance().FinishTrace(errored, 0.1);
  EXPECT_TRUE(error_verdict.kept);
  EXPECT_TRUE(error_verdict.error);

  // The slow-query log captured exactly the slow one.
  std::vector<std::string> log = TraceRecorder::Instance().SlowLog();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_NE(log[0].find("root=slow"), std::string::npos) << log[0];
}

TEST(TraceRecorderTest, RingWrapsOldestFirst) {
  ScopedRecorder recorder(/*sample_every=*/1, /*slow_threshold_ms=*/0.0,
                          /*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    TraceContext ctx = TraceRecorder::Instance().StartTrace("t");
    Span root(ctx, "t");
    root.SetAttr("index", static_cast<int64_t>(i));
    root.End();
    (void)TraceRecorder::Instance().FinishTrace(ctx, 0.1);
  }
  auto traces = TraceRecorder::Instance().Snapshot();
  ASSERT_EQ(traces.size(), 4u);
  // Oldest-first of the survivors: 6, 7, 8, 9.
  for (size_t i = 0; i < traces.size(); ++i) {
    std::vector<SpanRecord> spans = traces[i]->spans();
    ASSERT_EQ(spans.size(), 1u);
    ASSERT_EQ(spans[0].attrs.size(), 1u);
    EXPECT_EQ(spans[0].attrs[0].int_value, static_cast<int64_t>(6 + i));
  }
  EXPECT_EQ(TraceRecorder::Instance().traces_kept(), 10u);
}

TEST(TraceRecorderTest, ConcurrentRecordingIsSafe) {
  ScopedRecorder recorder(/*sample_every=*/2, /*slow_threshold_ms=*/0.0,
                          /*capacity=*/16);
  constexpr int kThreads = 8;
  constexpr int kTracesPerThread = 50;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      for (int i = 0; i < kTracesPerThread; ++i) {
        TraceContext ctx = TraceRecorder::Instance().StartTrace("c");
        ScopedTraceContext scoped(ctx);
        {
          Span root(CurrentTraceContext(), "root");
          Span child(root.context(), "child");
          child.AddEvent("tick");
        }
        (void)TraceRecorder::Instance().FinishTrace(ctx,
                                                    ctx.data->ElapsedMs());
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(TraceRecorder::Instance().traces_started(),
            static_cast<uint64_t>(kThreads * kTracesPerThread));
  EXPECT_EQ(TraceRecorder::Instance().traces_kept() +
                TraceRecorder::Instance().traces_dropped(),
            static_cast<uint64_t>(kThreads * kTracesPerThread));
  EXPECT_EQ(TraceRecorder::Instance().Snapshot().size(), 16u);
}

// ---------------------------------------------------------------------------
// Engine threading
// ---------------------------------------------------------------------------

TEST_F(TraceEngineTest, AsyncSnippetSpansParentUnderTheBatchSpan) {
  ScopedRecorder recorder(/*sample_every=*/1, /*slow_threshold_ms=*/0.0);
  auto engine = MakeEngine(/*threads=*/4);
  TraceContext ctx = TraceRecorder::Instance().StartTrace("test");
  ASSERT_TRUE(ctx.active());
  {
    Span root(ctx, "test.root");
    ScopedTraceContext scoped(root.context());
    std::vector<std::string> queries = {"addresses Sara Guttinger",
                                        "customers Zürich financial "
                                        "instruments"};
    AsyncSearch search = engine->SearchAllAsync(queries, nullptr);
    ASSERT_EQ(search.outputs.size(), queries.size());
    // The batch span has ended; the stream's spans still parent under it.
    EXPECT_GT(search.snippets.Run().delivered, 0u);
  }
  // snippet.stream spans end inside Run(), before it returns; the retry
  // loop only tolerates a slow append.
  uint64_t batch_span_id = 0;
  size_t child_streams = 0;
  for (int attempt = 0; attempt < 100; ++attempt) {
    std::vector<SpanRecord> spans = ctx.data->spans();
    batch_span_id = 0;
    child_streams = 0;
    for (const SpanRecord& span : spans) {
      if (span.name == "engine.search_all_async") batch_span_id = span.span_id;
    }
    for (const SpanRecord& span : spans) {
      if (span.name == "snippet.stream" && span.parent_id == batch_span_id) {
        ++child_streams;
      }
    }
    if (batch_span_id != 0 && child_streams > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_NE(batch_span_id, 0u) << "batch span missing from the trace";
  EXPECT_GT(child_streams, 0u)
      << "no snippet span parented under the batch span";
  (void)TraceRecorder::Instance().FinishTrace(ctx, ctx.data->ElapsedMs());
}

TEST_F(TraceEngineTest, RankedOutputIsByteIdenticalWithTracingOnOrOff) {
  const std::vector<std::string>& queries = MiniBankQueries();
  for (size_t stripes : {1u, 4u}) {
    for (size_t threads : {1u, 4u}) {
      std::string untraced;
      {
        ASSERT_FALSE(TraceRecorder::Instance().enabled());
        auto engine = MakeStriped(stripes, threads);
        auto outputs = engine->SearchAll(queries);
        untraced = RenderSearchResponseJson(queries, outputs);
      }
      std::string traced;
      {
        ScopedRecorder recorder(/*sample_every=*/1,
                                /*slow_threshold_ms=*/0.0);
        auto engine = MakeStriped(stripes, threads);
        auto outputs = engine->SearchAll(queries);
        traced = RenderSearchResponseJson(queries, outputs);
      }
      EXPECT_EQ(untraced, traced)
          << "tracing changed ranked output at stripes=" << stripes
          << " threads=" << threads;
    }
  }
}

// The acceptance scenario: a query stalled by an armed failpoint
// surfaces through the slow filter, and its span tree names the stalled
// stage and the cache outcome.
TEST_F(TraceEngineTest, StalledQuerySurfacesThroughTheSlowFilter) {
  if (!Failpoints::compiled_in()) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  ScopedRecorder recorder(/*sample_every=*/1, /*slow_threshold_ms=*/10.0);
  FailpointSpec spec;
  spec.action = FailpointSpec::Action::kSleep;
  spec.sleep_ms = 50.0;
  spec.max_fires = 1;
  Failpoints::Instance().Arm("snippet.execute", spec);

  auto engine = MakeStriped(/*stripes=*/2, /*threads=*/2);
  TraceContext ctx = TraceRecorder::Instance().StartTrace("test");
  double wall_ms = 0.0;
  {
    Span root(ctx, "test.root");
    ScopedTraceContext scoped(root.context());
    auto output = engine->Search("addresses Sara Guttinger");
    ASSERT_TRUE(output.ok()) << output.status();
    wall_ms = ctx.data->ElapsedMs();
  }
  TraceVerdict verdict = TraceRecorder::Instance().FinishTrace(ctx, wall_ms);
  Failpoints::Instance().DisarmAll();
  ASSERT_GE(wall_ms, 50.0) << "failpoint stall did not take effect";
  EXPECT_TRUE(verdict.kept);
  EXPECT_TRUE(verdict.slow);

  // The slow filter keeps the stalled query and drops nothing-burgers.
  std::string json =
      RenderTraceJson(TraceRecorder::Instance().Snapshot(), /*min_ms=*/25.0);
  EXPECT_NE(json.find("\"engine.search\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"stage.execute\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"cache\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"miss\""), std::string::npos) << json;
  // And the plain-text slow log recorded it.
  std::vector<std::string> log = TraceRecorder::Instance().SlowLog();
  ASSERT_FALSE(log.empty());
  EXPECT_NE(log.back().find("SLOW"), std::string::npos) << log.back();
}

// One clock reading per stage boundary feeds the stage span, the
// stage.<name>.ms histogram and the StepTimings slot, so for every stage
// the three views of one serve agree to rounding: the summed span
// durations, the histogram's sum delta, and the responses' slots. Each
// query of a batch executes its own snippets, so execute sums like the
// translation stages.
TEST_F(TraceEngineTest, StageLatencyViewsAgree) {
  ScopedRecorder recorder(/*sample_every=*/1, /*slow_threshold_ms=*/0.0);
  const std::vector<std::pair<std::string, double StepTimings::*>> stages = {
      {"lookup", &StepTimings::lookup_ms},
      {"rank", &StepTimings::rank_ms},
      {"tables", &StepTimings::tables_ms},
      {"filters", &StepTimings::filters_ms},
      {"sql", &StepTimings::sql_ms},
      {"execute", &StepTimings::execute_ms}};
  auto agree = [](double a, double b) {
    return std::abs(a - b) <= 1e-9 * std::max(std::abs(a), std::abs(b));
  };

  for (size_t threads : {size_t{1}, size_t{4}}) {
    SodaConfig config;
    config.num_threads = threads;
    config.cache_capacity = 0;
    auto created = SodaEngine::Create(&bank_->db, &bank_->graph,
                                      CreditSuissePatternLibrary(), config);
    ASSERT_TRUE(created.ok()) << created.status();
    const SodaEngine& engine = **created;

    // Runs one serve (which owns its trace) and compares the views.
    auto check = [&](const std::string& label,
                     const std::function<std::vector<SearchOutput>()>& serve) {
      SCOPED_TRACE(label + " threads=" + std::to_string(threads));
      MetricsSnapshot before = engine.metrics_snapshot();
      const size_t kept_before = TraceRecorder::Instance().Snapshot().size();
      std::vector<SearchOutput> outputs = serve();
      MetricsSnapshot after = engine.metrics_snapshot();
      auto traces = TraceRecorder::Instance().Snapshot();
      ASSERT_EQ(traces.size(), kept_before + 1);
      std::vector<SpanRecord> spans = traces.back()->spans();
      ASSERT_FALSE(outputs.empty());
      for (const auto& [stage, slot] : stages) {
        double span_ms = 0.0;
        size_t span_count = 0;
        for (const SpanRecord& span : spans) {
          if (span.name != "stage." + stage) continue;
          span_ms += span.duration_ms;
          ++span_count;
        }
        const std::string histogram = "stage." + stage + ".ms";
        ASSERT_NE(after.histogram(histogram), nullptr) << histogram;
        const HistogramSnapshot* earlier = before.histogram(histogram);
        double histogram_ms = after.histogram(histogram)->sum -
                              (earlier != nullptr ? earlier->sum : 0.0);
        uint64_t samples = after.histogram(histogram)->count -
                           (earlier != nullptr ? earlier->count : 0);
        EXPECT_EQ(samples, span_count) << stage;
        EXPECT_TRUE(agree(span_ms, histogram_ms))
            << stage << ": spans " << span_ms << " ms, histogram "
            << histogram_ms << " ms";
        if (stage == "execute") EXPECT_EQ(span_count, outputs.size());
        double slot_ms = 0.0;
        for (const SearchOutput& output : outputs) {
          slot_ms += output.timings.*slot;
        }
        EXPECT_TRUE(agree(span_ms, slot_ms))
            << stage << ": spans " << span_ms << " ms, StepTimings "
            << slot_ms << " ms";
      }
    };

    const std::string query = "customers Zürich financial instruments";
    check("Search", [&] {
      auto output = engine.Search(query);
      EXPECT_TRUE(output.ok()) << output.status();
      return output.ok() ? std::vector<SearchOutput>{*output}
                         : std::vector<SearchOutput>{};
    });
    check("SearchAll", [&] {
      std::vector<std::string> queries = {query, "addresses Sara Guttinger",
                                          "private customers family name"};
      std::vector<SearchOutput> outputs;
      for (auto& output : engine.SearchAll(queries)) {
        EXPECT_TRUE(output.ok()) << output.status();
        if (output.ok()) outputs.push_back(std::move(*output));
      }
      return outputs;
    });
    std::shared_ptr<const TranslationPlan> plan;
    check("SearchSession capture", [&] {
      auto output = engine.SearchSession(query, SessionConstraints{}, &plan);
      EXPECT_TRUE(output.ok()) << output.status();
      EXPECT_NE(plan, nullptr);
      return output.ok() ? std::vector<SearchOutput>{*output}
                         : std::vector<SearchOutput>{};
    });
    check("SearchSession resume", [&] {
      SessionConstraints constraints;
      constraints.BanTable("fi_contains_sec");
      auto output = engine.SearchSession(query, constraints, &plan);
      EXPECT_TRUE(output.ok()) << output.status();
      if (!output.ok()) return std::vector<SearchOutput>{};
      EXPECT_EQ(output->stages_skipped, 4u);
      return std::vector<SearchOutput>{*output};
    });
  }
}

// A sampled miss names its cache copy and freshness book-keeping in a
// "cache.insert" span under the serve's root span, on the sync path and
// on the streamed last-snippet path alike; a hit inserts nothing.
TEST_F(TraceEngineTest, CacheInsertSpanMarksMissesOnly) {
  ScopedRecorder recorder(/*sample_every=*/1, /*slow_threshold_ms=*/0.0);
  auto engine = MakeEngine(/*threads=*/2);
  // The parent span names of the last kept trace's "cache.insert" spans.
  auto insert_parents = [] {
    std::vector<SpanRecord> spans =
        TraceRecorder::Instance().Snapshot().back()->spans();
    std::vector<std::string> parents;
    for (const SpanRecord& insert : spans) {
      if (insert.name != "cache.insert") continue;
      for (const SpanRecord& span : spans) {
        if (span.span_id == insert.parent_id) parents.push_back(span.name);
      }
    }
    return parents;
  };

  const std::string query = "addresses Sara Guttinger";
  auto miss = engine->Search(query);
  ASSERT_TRUE(miss.ok()) << miss.status();
  ASSERT_FALSE(miss->from_cache);
  EXPECT_EQ(insert_parents(), std::vector<std::string>{"engine.search"});

  auto hit = engine->Search(query);
  ASSERT_TRUE(hit.ok()) << hit.status();
  ASSERT_TRUE(hit->from_cache);
  EXPECT_TRUE(insert_parents().empty());

  // The streamed path caches after its last snippet, inside Run().
  const std::vector<std::string> streamed_query = {
      "private customers family name"};
  AsyncSearch streamed = engine->SearchAllAsync(streamed_query, nullptr);
  ASSERT_TRUE(streamed.outputs[0].ok()) << streamed.outputs[0].status();
  ASSERT_FALSE(streamed.outputs[0]->results.empty());
  streamed.snippets.Run();
  EXPECT_EQ(insert_parents(),
            std::vector<std::string>{"engine.search_all_async"});
}

}  // namespace
}  // namespace soda
