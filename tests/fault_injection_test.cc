// Fault-injection sweep over the serving stack's failure domains:
//
//   - engine.pool_task / snippet.execute armed inside the engine: a
//     poisoned pool task degrades to a per-query (or per-result) error
//     instead of unwinding the serving layer, and an async snippet
//     stream always runs to its end;
//   - freshness.apply_delta armed: a failed index delta falls back to
//     full cache invalidation, never a stale answer, and an armed match
//     on another table's name leaves the delta alone;
//   - http.handle armed: a throwing handler is answered 500 and the
//     connection loop survives.
//
// Every case runs with failpoints disarmed in teardown so cases stay
// independent; the whole file skips when the build compiled failpoints
// out (-DSODA_FAILPOINTS=OFF).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "core/engine.h"
#include "core/freshness.h"
#include "core/session.h"
#include "core/soda.h"
#include "datasets/minibank.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "pattern/library.h"
#include "storage/change_log.h"
#include "sql/value.h"

namespace soda {
namespace {

// Same literal-byte fingerprint as engine_stripes_test: everything
// rank-relevant including snippets, excluding serving-history counters.
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

class FaultInjectionTest : public ::testing::Test {
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

  void SetUp() override {
    if (!Failpoints::compiled_in()) {
      GTEST_SKIP() << "failpoints compiled out (-DSODA_FAILPOINTS=OFF)";
    }
  }
  void TearDown() override { Failpoints::Instance().DisarmAll(); }

  static std::unique_ptr<SodaEngine> MakeEngine(size_t threads,
                                                size_t cache_capacity,
                                                size_t stripes = 1) {
    SodaConfig config;
    config.num_shards = stripes;
    config.num_threads = threads;
    config.cache_capacity = cache_capacity;
    auto engine = SodaEngine::Create(&bank_->db, &bank_->graph,
                                     CreditSuissePatternLibrary(), config);
    EXPECT_TRUE(engine.ok()) << engine.status();
    return std::move(engine).value();
  }

  /// Reference fingerprints from a cold (cache-off, serial) engine.
  static std::vector<std::string> ColdFingerprints(
      const std::vector<std::string>& queries) {
    auto reference = MakeEngine(/*threads=*/1, /*cache_capacity=*/0);
    std::vector<std::string> fingerprints;
    for (const std::string& query : queries) {
      auto output = reference->Search(query);
      EXPECT_TRUE(output.ok()) << output.status();
      fingerprints.push_back(output.ok() ? Fingerprint(*output) : "");
    }
    return fingerprints;
  }

  static MiniBank* bank_;
};

MiniBank* FaultInjectionTest::bank_ = nullptr;

// ---------------------------------------------------------------------------
// Engine containment: pool tasks and snippet execution
// ---------------------------------------------------------------------------

// A throwing pool task inside the engine degrades to a per-query error
// Status instead of unwinding the serving layer.
TEST_F(FaultInjectionTest, PoolTaskExceptionBecomesPerQueryError) {
  auto engine = MakeEngine(/*threads=*/4, /*cache_capacity=*/0);
  FailpointSpec spec;
  spec.action = FailpointSpec::Action::kThrow;
  Failpoints::Instance().Arm("engine.pool_task", spec);

  auto single = engine->Search("customers Zürich financial instruments");
  ASSERT_FALSE(single.ok());
  EXPECT_EQ(single.status().code(), StatusCode::kUnavailable);

  std::vector<std::string> queries = MiniBankQueries();
  auto outputs = engine->SearchAll(std::span<const std::string>(queries));
  ASSERT_EQ(outputs.size(), queries.size());
  for (const auto& output : outputs) {
    ASSERT_FALSE(output.ok());
    EXPECT_EQ(output.status().code(), StatusCode::kUnavailable);
  }
  EXPECT_GE(engine->metrics_snapshot().counter("engine.task_exceptions"), 1u);

  Failpoints::Instance().DisarmAll();
  auto healthy = engine->Search("customers Zürich financial instruments");
  ASSERT_TRUE(healthy.ok()) << healthy.status();
}

// The session path under a poisoned pool task. A failed Refine is a
// per-query kUnavailable that leaves the session's plan in place — a
// serve hands its new plan over only when it succeeded, so even a failed
// binding change (which would have recaptured) keeps the old plan. Once
// disarmed, the next Refine resumes that plan (Steps 1-4 skipped) and
// matches a cold constrained Search, at one cache stripe and at two.
TEST_F(FaultInjectionTest, FailedRefineKeepsTheSessionPlan) {
  const std::string query = "customers Zürich financial instruments";
  const std::string term = "financial instruments";
  auto reference = MakeEngine(/*threads=*/1, /*cache_capacity=*/0);
  auto engine = MakeEngine(/*threads=*/4, /*cache_capacity=*/0);
  auto striped = MakeEngine(/*threads=*/2, /*cache_capacity=*/0,
                            /*stripes=*/2);

  for (SodaService* service : {engine.get(), striped.get()}) {
    SCOPED_TRACE(service == engine.get() ? "one stripe" : "two stripes");
    SodaSession session(service);
    auto asked = session.Ask(query);
    ASSERT_TRUE(asked.ok()) << asked.status();
    ASSERT_FALSE(asked->results.empty());
    const std::string pinned = asked->results[0].statement.from[0].table;
    ASSERT_TRUE(session.PinTable(pinned).Refine().ok());
    EXPECT_EQ(session.last_stages_skipped(), 4u);
    const auto candidates = session.TermCandidates(term);
    ASSERT_EQ(candidates.size(), 2u);
    const uint64_t exceptions_before =
        service->metrics_snapshot().counter("engine.task_exceptions");

    FailpointSpec spec;
    spec.action = FailpointSpec::Action::kThrow;
    Failpoints::Instance().Arm("engine.pool_task", spec);
    auto failed = session.Refine();
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
    // A binding change would capture a fresh plan on success.
    auto failed_bind = session.BindTerm(term, candidates[1].first).Refine();
    ASSERT_FALSE(failed_bind.ok());
    EXPECT_EQ(failed_bind.status().code(), StatusCode::kUnavailable);
    session.UnbindTerm(term);
    EXPECT_GE(service->metrics_snapshot().counter("engine.task_exceptions"),
              exceptions_before + 1);
    EXPECT_EQ(session.TermCandidates(term), candidates);

    Failpoints::Instance().DisarmAll();
    auto refined = session.Refine();
    ASSERT_TRUE(refined.ok()) << refined.status();
    // Only the plan captured by Ask (no bindings) resumes this far.
    EXPECT_EQ(session.last_stages_skipped(), 4u);
    auto cold = reference->Search(query, session.constraints());
    ASSERT_TRUE(cold.ok()) << cold.status();
    EXPECT_EQ(Fingerprint(*refined), Fingerprint(*cold));
  }
}

// snippet.execute containment: the translation still answers; every
// poisoned result is marked unexecuted with its error instead of
// failing the query.
TEST_F(FaultInjectionTest, SnippetExceptionMarksResultFailed) {
  auto engine = MakeEngine(/*threads=*/2, /*cache_capacity=*/0);
  FailpointSpec spec;
  spec.action = FailpointSpec::Action::kThrow;
  Failpoints::Instance().Arm("snippet.execute", spec);

  auto output = engine->Search("customers Zürich financial instruments");
  ASSERT_TRUE(output.ok()) << output.status();
  ASSERT_FALSE(output->results.empty());
  for (const SodaResult& result : output->results) {
    EXPECT_FALSE(result.executed);
    EXPECT_FALSE(result.execution_status.ok());
  }
  MetricsSnapshot snapshot = engine->metrics_snapshot();
  EXPECT_GE(snapshot.counter("snippet.exception"), 1u);

  Failpoints::Instance().DisarmAll();
  auto healthy = engine->Search("customers Zürich financial instruments");
  ASSERT_TRUE(healthy.ok()) << healthy.status();
  EXPECT_TRUE(healthy->results.front().executed);
}

// ---------------------------------------------------------------------------
// Async streaming: the barrier drains through faults (satellite)
// ---------------------------------------------------------------------------

// Snippet tasks that throw mid-stream still make every expected
// callback: the stream runs past the poisoned snippets, and the poisoned
// results are marked unexecuted.
TEST_F(FaultInjectionTest, SnippetStreamRunsPastPoisonedSnippets) {
  std::vector<std::string> queries = MiniBankQueries();
  auto engine = MakeEngine(/*threads=*/2, /*cache_capacity=*/64,
                           /*stripes=*/4);

  FailpointSpec snippet_spec;
  snippet_spec.action = FailpointSpec::Action::kThrow;
  Failpoints::Instance().Arm("snippet.execute", snippet_spec);

  size_t delivered = 0;
  size_t executed = 0;
  AsyncSearch search = engine->SearchAllAsync(
      std::span<const std::string>(queries),
      [&delivered, &executed](size_t, size_t, const SodaResult& result) {
        if (result.executed) ++executed;
        ++delivered;
      });
  SnippetStream::Summary summary = search.snippets.Run();

  const std::vector<Result<SearchOutput>>& outputs = search.outputs;
  ASSERT_EQ(outputs.size(), queries.size());
  size_t expected = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(outputs[i].ok()) << outputs[i].status();
    expected += outputs[i]->results.size();
  }
  EXPECT_GT(expected, 0u);
  EXPECT_EQ(delivered, expected);
  EXPECT_EQ(summary.delivered, expected);
  EXPECT_EQ(executed, 0u);  // every snippet execution was poisoned
  EXPECT_EQ(summary.callback_exceptions, 0u);
}

// ---------------------------------------------------------------------------
// Freshness: failed delta falls back to full invalidation
// ---------------------------------------------------------------------------

TEST_F(FaultInjectionTest, FreshnessDeltaFailureInvalidatesWholeCache) {
  auto built = BuildMiniBank();  // private bank: this test mutates it
  ASSERT_TRUE(built.ok()) << built.status();
  std::unique_ptr<MiniBank> bank = std::move(built).value();
  SodaConfig config;
  config.num_threads = 2;
  config.cache_capacity = 64;
  auto engine_result = SodaEngine::Create(&bank->db, &bank->graph,
                                          CreditSuissePatternLibrary(), config);
  ASSERT_TRUE(engine_result.ok()) << engine_result.status();
  std::unique_ptr<SodaEngine> engine = std::move(engine_result).value();
  FreshnessManager freshness(&bank->db.change_log());
  freshness.Track(engine.get());

  // Warm the cache with an answer that does NOT depend on individuals.
  ASSERT_TRUE(engine->Search("sum(investments) group by (currency)").ok());
  ASSERT_GT(engine->cache_stats().size, 0u);

  FailpointSpec spec;
  spec.action = FailpointSpec::Action::kError;
  Failpoints::Instance().Arm("freshness.apply_delta", spec);

  Table* individuals = bank->db.FindTable("individuals");
  ASSERT_NE(individuals, nullptr);
  int64_t id = static_cast<int64_t>(individuals->num_rows()) + 2000;
  ASSERT_TRUE(individuals
                  ->Append({Value::Int(id), Value::Str("Fault"),
                            Value::Str("Fallbackville"), Value::Int(1),
                            Value::DateV(Date::FromYmd(1990, 1, 1))})
                  .ok());

  // The delta failed, so the engine cannot trust ANY cached answer: the
  // fallback evicts everything, including keys the event would not have
  // touched.
  EXPECT_EQ(engine->cache_stats().size, 0u);
  EXPECT_GE(freshness.metrics_snapshot().counter("freshness.delta_failures"),
            1u);
}

// ---------------------------------------------------------------------------
// HTTP front end: handler faults
// ---------------------------------------------------------------------------

TEST_F(FaultInjectionTest, HttpHandlerFaultAnswers500AndServesOn) {
  auto engine = MakeEngine(/*threads=*/2, /*cache_capacity=*/16);
  HttpServerOptions options;
  options.num_threads = 2;
  SodaHttpServer server(engine.get(), options);
  ASSERT_TRUE(server.Start().ok());
  HttpClient client("127.0.0.1", server.port());

  FailpointSpec spec;
  spec.action = FailpointSpec::Action::kThrow;
  spec.max_fires = 1;  // exactly one poisoned request, then auto-disarm
  Failpoints::Instance().Arm("http.handle", spec);

  auto poisoned = client.Get("/healthz");
  ASSERT_TRUE(poisoned.ok()) << poisoned.status();
  EXPECT_EQ(poisoned->status, 500);

  auto healthy = client.Get("/healthz");
  ASSERT_TRUE(healthy.ok()) << healthy.status();
  EXPECT_EQ(healthy->status, 200);
  EXPECT_EQ(healthy->body, "ok\n");
  server.Stop();
}

// ---------------------------------------------------------------------------
// Failpoint registry mechanics
// ---------------------------------------------------------------------------

TEST_F(FaultInjectionTest, RegistryCountsMatchesAndMaxFires) {
  auto engine = MakeEngine(/*threads=*/1, /*cache_capacity=*/0);
  // fires() is a lifetime total that survives DisarmAll (and earlier
  // cases in this binary), so assert the delta this case produced.
  uint64_t fires_before = Failpoints::Instance().fires("engine.pool_task");
  FailpointSpec spec;
  spec.action = FailpointSpec::Action::kThrow;
  spec.max_fires = 2;
  Failpoints::Instance().Arm("engine.pool_task", spec);

  size_t failed = 0;
  for (int i = 0; i < 4; ++i) {
    auto output = engine->Search("addresses Sara Guttinger");
    if (!output.ok()) ++failed;
  }
  // max_fires auto-disarmed after exactly two fires; a search is one
  // engine task, so the first two searches failed and the last ones are
  // healthy.
  EXPECT_EQ(Failpoints::Instance().fires("engine.pool_task") - fires_before,
            2u);
  EXPECT_EQ(failed, 2u);
  EXPECT_FALSE(FailpointsArmed());
}

// The freshness.apply_delta seam passes the appended table's name as its
// detail: armed to match another table, it is evaluated but never fires,
// so the delta applies and only the answers that read the table go.
TEST_F(FaultInjectionTest, MatchFiltersByDetail) {
  auto built = BuildMiniBank();  // private bank: this test mutates it
  ASSERT_TRUE(built.ok()) << built.status();
  std::unique_ptr<MiniBank> bank = std::move(built).value();
  SodaConfig config;
  config.num_threads = 1;
  config.cache_capacity = 64;
  auto engine = SodaEngine::Create(&bank->db, &bank->graph,
                                   CreditSuissePatternLibrary(), config)
                    .value();
  FreshnessManager freshness(&bank->db.change_log());
  freshness.Track(engine.get());
  ASSERT_TRUE(engine->Search("sum(investments) group by (currency)").ok());

  FailpointSpec spec;
  spec.action = FailpointSpec::Action::kError;
  spec.match = "addresses";
  Failpoints::Instance().Arm("freshness.apply_delta", spec);

  const uint64_t fires_before =
      Failpoints::Instance().fires("freshness.apply_delta");
  Table* individuals = bank->db.FindTable("individuals");
  ASSERT_NE(individuals, nullptr);
  int64_t id = static_cast<int64_t>(individuals->num_rows()) + 3000;
  ASSERT_TRUE(individuals
                  ->Append({Value::Int(id), Value::Str("Detail"),
                            Value::Str("Matchville"), Value::Int(1),
                            Value::DateV(Date::FromYmd(1990, 1, 1))})
                  .ok());
  EXPECT_GE(Failpoints::Instance().evaluations("freshness.apply_delta"), 1u);
  EXPECT_EQ(Failpoints::Instance().fires("freshness.apply_delta"),
            fires_before);
  EXPECT_EQ(freshness.metrics_snapshot().counter("freshness.delta_failures"),
            0u);
  EXPECT_EQ(engine->cache_stats().size, 1u);  // reads no individuals
}

}  // namespace
}  // namespace soda
