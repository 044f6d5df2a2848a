// Fault-injection sweep over the serving stack's failure domains:
//
//   - shard.dispatch armed to throw / error / stall on one shard of a
//     router: non-failed queries stay byte-identical to a fault-free
//     run, failed sub-batches and single queries re-route to healthy
//     shards (identical answers — every shard serves the one shared
//     core), and the per-shard circuit breaker quarantines, probes, and
//     re-admits;
//   - engine.pool_task / snippet.execute armed inside the engine: a
//     poisoned pool task degrades to a per-query (or per-result) error
//     instead of unwinding the serving layer, and an async snippet
//     stream always drains its barrier;
//   - freshness.apply_delta armed: a failed index delta falls back to
//     full cache invalidation, never a stale answer;
//   - http.handle armed: a throwing handler is answered 500 and the
//     connection loop survives.
//
// Every case runs with failpoints disarmed in teardown so cases stay
// independent; the whole file skips when the build compiled failpoints
// out (-DSODA_FAILPOINTS=OFF).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "core/engine.h"
#include "core/freshness.h"
#include "core/session.h"
#include "core/sharded_engine.h"
#include "core/soda.h"
#include "datasets/minibank.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "pattern/library.h"
#include "storage/change_log.h"
#include "sql/value.h"

namespace soda {
namespace {

// Same literal-byte fingerprint as sharded_engine_test: everything
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

  /// Fault-tuned knobs: quarantine after 2 consecutive failures, short
  /// backoffs so probe/re-admission fits in a test, enough retries to
  /// walk past one bad shard of four.
  static SodaConfig FaultConfig(size_t shards, size_t threads,
                                double deadline_ms = 0.0) {
    SodaConfig config;
    config.num_shards = shards;
    config.num_threads = threads;
    config.cache_capacity = 64;
    config.shard_failure_threshold = 2;
    config.shard_backoff_initial_ms = 40.0;
    config.shard_backoff_max_ms = 400.0;
    config.shard_retry_limit = 3;
    config.shard_retry_backoff_ms = 1.0;
    config.shard_dispatch_deadline_ms = deadline_ms;
    return config;
  }

  static std::unique_ptr<ShardedSodaEngine> MakeRouter(
      const SodaConfig& config) {
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

  /// Fault-free reference fingerprints for the standard query set.
  static std::vector<std::string> Baseline(size_t shards, size_t threads) {
    auto router = MakeRouter(FaultConfig(shards, threads));
    std::vector<std::string> queries = MiniBankQueries();
    auto outputs = router->SearchAll(std::span<const std::string>(queries));
    std::vector<std::string> fingerprints;
    for (const auto& output : outputs) {
      EXPECT_TRUE(output.ok()) << output.status();
      fingerprints.push_back(output.ok() ? Fingerprint(*output) : "");
    }
    return fingerprints;
  }

  static MiniBank* bank_;
};

MiniBank* FaultInjectionTest::bank_ = nullptr;

// ---------------------------------------------------------------------------
// Router failover: throw / error / stall sweeps
// ---------------------------------------------------------------------------

// One of four shards armed (throw and error variants): every query still
// answers, rerouted ones byte-identical to the fault-free run, and the
// breaker books the failures.
TEST_F(FaultInjectionTest, MultiShardFailoverByteIdentity) {
  for (size_t threads : {size_t{1}, size_t{4}}) {
    std::vector<std::string> baseline = Baseline(4, threads);
    std::vector<std::string> queries = MiniBankQueries();
    size_t bad = ShardOfKey(NormalizedQueryKey(queries[0]), 4);
    for (FailpointSpec::Action action :
         {FailpointSpec::Action::kThrow, FailpointSpec::Action::kError}) {
      auto router = MakeRouter(FaultConfig(4, threads));
      FailpointSpec spec;
      spec.action = action;
      spec.match = std::to_string(bad);
      Failpoints::Instance().Arm("shard.dispatch", spec);

      auto outputs = router->SearchAll(std::span<const std::string>(queries));
      ASSERT_EQ(outputs.size(), queries.size());
      for (size_t i = 0; i < outputs.size(); ++i) {
        ASSERT_TRUE(outputs[i].ok())
            << "threads=" << threads << " query " << i << ": "
            << outputs[i].status();
        EXPECT_EQ(Fingerprint(*outputs[i]), baseline[i])
            << "threads=" << threads << " query " << i;
      }
      EXPECT_GT(Failpoints::Instance().fires("shard.dispatch"), 0u);
      MetricsSnapshot snapshot = router->metrics_snapshot();
      EXPECT_GE(snapshot.counter("router.shard_failures"), 1u);
      EXPECT_GE(snapshot.counter("router.retries"), 1u);
      EXPECT_GE(snapshot.counter("router.rerouted_queries"), 1u);
      Failpoints::Instance().DisarmAll();
    }
  }
}

// Stall variant: the armed shard sleeps past the sub-batch deadline; the
// batch abandons it and re-routes, byte-identical again.
TEST_F(FaultInjectionTest, MultiShardStallAbandonsAndReroutes) {
  for (size_t threads : {size_t{1}, size_t{4}}) {
    std::vector<std::string> baseline = Baseline(4, threads);
    std::vector<std::string> queries = MiniBankQueries();
    size_t bad = ShardOfKey(NormalizedQueryKey(queries[0]), 4);
    auto router = MakeRouter(FaultConfig(4, threads, /*deadline_ms=*/80.0));
    FailpointSpec spec;
    spec.action = FailpointSpec::Action::kSleep;
    spec.sleep_ms = 400.0;
    spec.match = std::to_string(bad);
    Failpoints::Instance().Arm("shard.dispatch", spec);

    auto outputs = router->SearchAll(std::span<const std::string>(queries));
    ASSERT_EQ(outputs.size(), queries.size());
    for (size_t i = 0; i < outputs.size(); ++i) {
      ASSERT_TRUE(outputs[i].ok())
          << "threads=" << threads << " query " << i << ": "
          << outputs[i].status();
      EXPECT_EQ(Fingerprint(*outputs[i]), baseline[i])
          << "threads=" << threads << " query " << i;
    }
    MetricsSnapshot snapshot = router->metrics_snapshot();
    EXPECT_GE(snapshot.counter("router.shard_failures"), 1u);
    EXPECT_GE(snapshot.counter("router.rerouted_queries"), 1u);
    Failpoints::Instance().DisarmAll();
    // Let the abandoned worker finish its sleep inside the router's
    // dispatch pool before the router (and the armed registry state)
    // goes away.
  }
}

// A single-shard router has nowhere to re-route: every query fails with
// a per-query Unavailable (fail-fast once quarantined, no hang), and the
// shard recovers after disarm + backoff.
TEST_F(FaultInjectionTest, SingleShardFailsFastAndRecovers) {
  for (size_t threads : {size_t{1}, size_t{4}}) {
    std::vector<std::string> baseline = Baseline(1, threads);
    std::vector<std::string> queries = MiniBankQueries();
    auto router = MakeRouter(FaultConfig(1, threads));
    FailpointSpec spec;
    spec.action = FailpointSpec::Action::kThrow;
    Failpoints::Instance().Arm("shard.dispatch", spec);

    auto outputs = router->SearchAll(std::span<const std::string>(queries));
    ASSERT_EQ(outputs.size(), queries.size());
    for (const auto& output : outputs) {
      ASSERT_FALSE(output.ok());
      EXPECT_EQ(output.status().code(), StatusCode::kUnavailable);
    }
    ServiceHealth degraded = router->health();
    EXPECT_TRUE(degraded.degraded);
    ASSERT_EQ(degraded.shards.size(), 1u);
    EXPECT_EQ(degraded.shards[0].state, "quarantined");

    // Re-admission: disarm, let the quarantine backoff elapse, and the
    // next batch is the successful probe that closes the breaker.
    Failpoints::Instance().DisarmAll();
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    auto recovered = router->SearchAll(std::span<const std::string>(queries));
    ASSERT_EQ(recovered.size(), queries.size());
    for (size_t i = 0; i < recovered.size(); ++i) {
      ASSERT_TRUE(recovered[i].ok()) << recovered[i].status();
      EXPECT_EQ(Fingerprint(*recovered[i]), baseline[i]);
    }
    ServiceHealth healthy = router->health();
    EXPECT_FALSE(healthy.degraded);
    EXPECT_EQ(healthy.shards[0].state, "closed");
    EXPECT_GE(router->metrics_snapshot().counter("router.readmissions"), 1u);
  }
}

// Single-query routing walks the same breaker: repeated failures on the
// home shard quarantine it, traffic re-routes, and a successful probe
// after the backoff re-admits.
TEST_F(FaultInjectionTest, QuarantineProbeAndReadmission) {
  std::vector<std::string> queries = MiniBankQueries();
  size_t bad = ShardOfKey(NormalizedQueryKey(queries[0]), 4);
  auto router = MakeRouter(FaultConfig(4, /*threads=*/2));
  FailpointSpec spec;
  spec.action = FailpointSpec::Action::kError;
  spec.match = std::to_string(bad);
  Failpoints::Instance().Arm("shard.dispatch", spec);

  // failure_threshold=2: two Searches homed on the bad shard charge one
  // failure each (then succeed rerouted), crossing into quarantine.
  for (int round = 0; round < 2; ++round) {
    auto output = router->Search(queries[0]);
    ASSERT_TRUE(output.ok()) << output.status();
  }
  ServiceHealth health = router->health();
  EXPECT_TRUE(health.degraded);
  EXPECT_EQ(health.shards[bad].state, "quarantined");
  EXPECT_GT(health.shards[bad].backoff_ms, 0.0);
  MetricsSnapshot snapshot = router->metrics_snapshot();
  EXPECT_GE(snapshot.counter("router.quarantines"), 1u);
  EXPECT_EQ(snapshot.counter("router.shards_quarantined"), 1u);

  // While quarantined (backoff not yet elapsed) the query re-routes
  // without charging the bad shard further.
  auto rerouted = router->Search(queries[0]);
  ASSERT_TRUE(rerouted.ok()) << rerouted.status();

  // Disarm and let the backoff elapse: the next dispatch is the probe,
  // it succeeds, and the breaker closes.
  Failpoints::Instance().DisarmAll();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto probed = router->Search(queries[0]);
  ASSERT_TRUE(probed.ok()) << probed.status();
  health = router->health();
  EXPECT_FALSE(health.degraded);
  EXPECT_EQ(health.shards[bad].state, "closed");
  snapshot = router->metrics_snapshot();
  EXPECT_GE(snapshot.counter("router.readmissions"), 1u);
  EXPECT_EQ(snapshot.counter("router.shards_quarantined"), 0u);
}

// Every single-query entry point (Search, a session's Ask and pin Refine,
// SearchAsync) fails over through the same loop as the batch path: with
// the home shard armed (error and throw), each call answers from one
// re-routed replica, byte-identical to a fault-free run. The session
// plan resumes on the replica, and the async stream delivers each
// result exactly once.
TEST_F(FaultInjectionTest, SingleQueryEntryPointsFailOver) {
  const std::string query = MiniBankQueries()[0];
  const size_t bad = ShardOfKey(NormalizedQueryKey(query), 4);
  const std::string baseline = Baseline(4, /*threads=*/2)[0];
  auto reference = MakeEngine(/*threads=*/1, /*cache_capacity=*/0);
  for (FailpointSpec::Action action :
       {FailpointSpec::Action::kError, FailpointSpec::Action::kThrow}) {
    SCOPED_TRACE(action == FailpointSpec::Action::kError ? "error" : "throw");
    // Cache off: every call must reach a shard (and the session must
    // capture a plan on Ask).
    SodaConfig config = FaultConfig(4, /*threads=*/2);
    config.cache_capacity = 0;
    auto router = MakeRouter(config);
    FailpointSpec spec;
    spec.action = action;
    spec.match = std::to_string(bad);
    Failpoints::Instance().Arm("shard.dispatch", spec);
    auto rerouted = [&] {
      return router->metrics_snapshot().counter("router.rerouted_queries");
    };

    uint64_t before = rerouted();
    auto searched = router->Search(query);
    ASSERT_TRUE(searched.ok()) << searched.status();
    EXPECT_EQ(Fingerprint(*searched), baseline);
    EXPECT_EQ(rerouted(), before + 1);

    SodaSession session(router.get());
    before = rerouted();
    auto asked = session.Ask(query);
    ASSERT_TRUE(asked.ok()) << asked.status();
    EXPECT_EQ(Fingerprint(*asked), baseline);
    EXPECT_EQ(rerouted(), before + 1);
    ASSERT_FALSE(asked->results.empty());

    before = rerouted();
    auto refined =
        session.PinTable(asked->results[0].statement.from[0].table).Refine();
    ASSERT_TRUE(refined.ok()) << refined.status();
    EXPECT_EQ(session.last_stages_skipped(), 4u);
    auto cold = reference->Search(query, session.constraints());
    ASSERT_TRUE(cold.ok()) << cold.status();
    EXPECT_EQ(Fingerprint(*refined), Fingerprint(*cold));
    EXPECT_EQ(rerouted(), before + 1);

    before = rerouted();
    std::mutex mu;
    std::vector<size_t> deliveries;
    std::vector<SodaResult> streamed;
    SnippetBarrier barrier;
    auto async = router->SearchAsync(
        query,
        [&](size_t, size_t result_index, const SodaResult& result) {
          std::lock_guard<std::mutex> lock(mu);
          if (result_index >= deliveries.size()) {
            deliveries.resize(result_index + 1, 0);
            streamed.resize(result_index + 1);
          }
          ++deliveries[result_index];
          streamed[result_index] = result;
        },
        &barrier);
    ASSERT_TRUE(async.ok()) << async.status();
    barrier.Wait();
    ASSERT_EQ(deliveries.size(), async->results.size());
    for (size_t r = 0; r < deliveries.size(); ++r) {
      EXPECT_EQ(deliveries[r], 1u) << "result " << r;
      async->results[r] = streamed[r];
    }
    EXPECT_EQ(Fingerprint(*async), baseline);
    EXPECT_EQ(rerouted(), before + 1);

    EXPECT_GT(Failpoints::Instance().fires("shard.dispatch"), 0u);
    Failpoints::Instance().DisarmAll();
  }
}

// ---------------------------------------------------------------------------
// Engine containment: pool tasks and snippet execution
// ---------------------------------------------------------------------------

// A throwing pool task inside the engine degrades to a per-query error
// Status — and through the router it is a query outcome, NOT a shard
// failure: the breaker stays closed (the replica is healthy; re-routing
// an engine-level fault would just fail again elsewhere).
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

TEST_F(FaultInjectionTest, EngineFaultDoesNotTripShardBreaker) {
  auto router = MakeRouter(FaultConfig(2, /*threads=*/2));
  FailpointSpec spec;
  spec.action = FailpointSpec::Action::kThrow;
  Failpoints::Instance().Arm("engine.pool_task", spec);

  std::vector<std::string> queries = MiniBankQueries();
  auto outputs = router->SearchAll(std::span<const std::string>(queries));
  for (const auto& output : outputs) {
    ASSERT_FALSE(output.ok());
    EXPECT_EQ(output.status().code(), StatusCode::kUnavailable);
  }
  // The error Results are query outcomes: no shard was blamed.
  ServiceHealth health = router->health();
  EXPECT_FALSE(health.degraded);
  EXPECT_EQ(router->metrics_snapshot().counter("router.shard_failures"), 0u);
}

// The session path under a poisoned pool task. A failed Refine is a
// per-query kUnavailable that leaves the session's plan in place — a
// serve hands its new plan over only when it succeeded, so even a failed
// binding change (which would have recaptured) keeps the old plan. Once
// disarmed, the next Refine resumes that plan (Steps 1-4 skipped) and
// matches a cold constrained Search. Through a 2-shard router the
// engine fault is a query outcome, never a shard failure.
TEST_F(FaultInjectionTest, FailedRefineKeepsTheSessionPlan) {
  const std::string query = "customers Zürich financial instruments";
  const std::string term = "financial instruments";
  auto reference = MakeEngine(/*threads=*/1, /*cache_capacity=*/0);
  auto engine = MakeEngine(/*threads=*/4, /*cache_capacity=*/0);
  SodaConfig router_config = FaultConfig(2, /*threads=*/2);
  router_config.cache_capacity = 0;
  auto router = MakeRouter(router_config);

  for (SodaService* service :
       {static_cast<SodaService*>(engine.get()),
        static_cast<SodaService*>(router.get())}) {
    SCOPED_TRACE(service == engine.get() ? "engine" : "router");
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
  EXPECT_EQ(router->metrics_snapshot().counter("router.shard_failures"), 0u);
  EXPECT_FALSE(router->health().degraded);
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

// A snippet task that throws mid-stream — on a router whose armed shard
// is quarantined, so the sub-batch was rerouted — still delivers every
// expected callback: Wait() returns instead of hanging, with the
// poisoned results marked unexecuted.
TEST_F(FaultInjectionTest,
       SnippetBarrierDrainsWhenTaskThrowsOnQuarantinedShard) {
  std::vector<std::string> queries = MiniBankQueries();
  size_t bad = ShardOfKey(NormalizedQueryKey(queries[0]), 4);
  auto router = MakeRouter(FaultConfig(4, /*threads=*/2));

  // Quarantine the bad shard first with dispatch errors...
  FailpointSpec dispatch_spec;
  dispatch_spec.action = FailpointSpec::Action::kError;
  dispatch_spec.match = std::to_string(bad);
  Failpoints::Instance().Arm("shard.dispatch", dispatch_spec);
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(router->Search(queries[0]).ok());
  }
  ASSERT_TRUE(router->health().degraded);

  // ...then stream an async batch with snippet execution poisoned too.
  // Drop the answers the priming searches cached (their snippets ran
  // healthy) so the batch really re-executes under the fault.
  router->ClearCache();
  FailpointSpec snippet_spec;
  snippet_spec.action = FailpointSpec::Action::kThrow;
  Failpoints::Instance().Arm("snippet.execute", snippet_spec);

  std::atomic<size_t> delivered{0};
  std::atomic<size_t> executed{0};
  SnippetBarrier barrier;
  auto outputs = router->SearchAllAsync(
      std::span<const std::string>(queries),
      [&delivered, &executed](size_t, size_t, const SodaResult& result) {
        if (result.executed) executed.fetch_add(1);
        delivered.fetch_add(1);
      },
      &barrier);
  barrier.Wait();  // must return: every callback delivered despite faults

  ASSERT_EQ(outputs.size(), queries.size());
  size_t expected = 0;
  for (const auto& output : outputs) {
    ASSERT_TRUE(output.ok()) << output.status();
    expected += output->results.size();
  }
  EXPECT_EQ(delivered.load(), expected);
  EXPECT_EQ(executed.load(), 0u);  // every snippet execution was poisoned
  EXPECT_EQ(barrier.pending(), 0u);
  EXPECT_EQ(barrier.callback_exceptions(), 0u);
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
// HTTP front end: handler faults and degraded-mode /healthz
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

TEST_F(FaultInjectionTest, HealthzReportsDegradedAndRecovers) {
  std::vector<std::string> queries = MiniBankQueries();
  size_t bad = ShardOfKey(NormalizedQueryKey(queries[0]), 4);
  auto router = MakeRouter(FaultConfig(4, /*threads=*/2));
  HttpServerOptions options;
  options.num_threads = 2;
  SodaHttpServer server(router.get(), options);
  ASSERT_TRUE(server.Start().ok());
  HttpClient client("127.0.0.1", server.port());

  // Healthy fleet: verdict line + one detail line per shard.
  auto before = client.Get("/healthz");
  ASSERT_TRUE(before.ok()) << before.status();
  EXPECT_EQ(before->body.compare(0, 3, "ok\n"), 0) << before->body;
  EXPECT_NE(before->body.find("shard 0: closed"), std::string::npos)
      << before->body;

  FailpointSpec spec;
  spec.action = FailpointSpec::Action::kError;
  spec.match = std::to_string(bad);
  Failpoints::Instance().Arm("shard.dispatch", spec);
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(router->Search(queries[0]).ok());
  }

  auto during = client.Get("/healthz");
  ASSERT_TRUE(during.ok()) << during.status();
  EXPECT_EQ(during->status, 200);  // degraded still serves
  EXPECT_EQ(during->body.compare(0, 9, "degraded\n"), 0) << during->body;
  EXPECT_NE(during->body.find("shard " + std::to_string(bad) +
                              ": quarantined"),
            std::string::npos)
      << during->body;

  // Quarantine state reaches /metrics as a point-in-time gauge.
  auto metrics = client.Get("/metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_NE(metrics->body.find("soda_router_shards_quarantined"),
            std::string::npos);

  Failpoints::Instance().DisarmAll();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_TRUE(router->Search(queries[0]).ok());  // successful probe
  auto after = client.Get("/healthz");
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->body.compare(0, 3, "ok\n"), 0) << after->body;
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
  // max_fires auto-disarmed after exactly two fires; both fires may land
  // in one search (several pool tasks per search), so 1 or 2 searches
  // failed — but the last ones are healthy.
  EXPECT_EQ(Failpoints::Instance().fires("engine.pool_task") - fires_before,
            2u);
  EXPECT_GE(failed, 1u);
  EXPECT_LE(failed, 2u);
  EXPECT_FALSE(FailpointsArmed());
}

TEST_F(FaultInjectionTest, MatchFiltersByDetail) {
  auto router = MakeRouter(FaultConfig(4, /*threads=*/1));
  std::vector<std::string> queries = MiniBankQueries();
  size_t home0 = ShardOfKey(NormalizedQueryKey(queries[0]), 4);
  // Arm a detail that is NOT query 0's home: its dispatch must not fire.
  FailpointSpec spec;
  spec.action = FailpointSpec::Action::kThrow;
  spec.match = std::to_string((home0 + 1) % 4);
  Failpoints::Instance().Arm("shard.dispatch", spec);

  auto output = router->Search(queries[0]);
  ASSERT_TRUE(output.ok()) << output.status();
  EXPECT_GE(Failpoints::Instance().evaluations("shard.dispatch"), 1u);
  EXPECT_EQ(router->metrics_snapshot().counter("router.shard_failures"), 0u);
}

}  // namespace
}  // namespace soda
