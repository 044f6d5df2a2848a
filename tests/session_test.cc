// Tests for the interactive-session layer (core/session.h): structured
// explanations that can never drift from the rendered line, pin/ban/bind
// constraint enforcement, constrained answers bypassing the result cache,
// and the acceptance bar — Refine resumes the captured TranslationPlan
// (skipping stages per the constraint-change matrix) yet answers
// byte-identically to a cold constrained translation, at any cache
// stripes x threads; any base-data mutation — whether or not it touches the
// plan's terms, with or without a FreshnessManager — invalidates the
// plan, and the next Refine silently runs the full pipeline again.
//
// Minibank only, deliberately: this binary is inside the sanitizer ctest
// filter (ci.sh adds 'session'); the enterprise explanation identity
// check lives in enterprise_eval_test.cc with the other heavy suites.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/freshness.h"
#include "core/session.h"
#include "core/soda.h"
#include "datasets/minibank.h"
#include "pattern/library.h"
#include "sql/value.h"

namespace soda {
namespace {

// Order-sensitive answer fingerprint (snippets included): "byte-identical"
// is literal; engine bookkeeping (cache counters, stages_skipped) is
// deliberately excluded — a resumed plan is an optimization, never a
// semantic.
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

// The query every bind test steers: complexity 2 (paper Figure 5), with
// two candidates for "financial instruments" to bind between.
const char kSteerable[] = "customers Zürich financial instruments";

// The query the pin/ban tests steer: three results whose FROM lists
// differ, so there is a table read by some results and not others.
const char kMultiResult[] = "private customers family name";

// Same mutation the freshness tests replay: a new individual with a
// Zürich address, touching tables and tokens the steerable query reads.
void AppendZebraQuuxville(Database* db) {
  Table* individuals = db->FindTable("individuals");
  Table* addresses = db->FindTable("addresses");
  ASSERT_NE(individuals, nullptr);
  ASSERT_NE(addresses, nullptr);
  int64_t id = static_cast<int64_t>(individuals->num_rows()) + 1000;
  ASSERT_TRUE(individuals
                  ->Append({Value::Int(id), Value::Str("Zebra"),
                            Value::Str("Quuxville"), Value::Int(90000),
                            Value::DateV(Date::FromYmd(1980, 1, 1))})
                  .ok());
  ASSERT_TRUE(addresses
                  ->Append({Value::Int(id), Value::Int(id),
                            Value::Str("Teststrasse 1"), Value::Str("Zürich"),
                            Value::Str("CH")})
                  .ok());
}

// A new individual whose tokens ("Yodelina", "Wobbleton") no query here
// probes: the append moves the change log without touching any plan's
// term vocabulary.
void AppendUnprobedIndividual(Database* db) {
  Table* individuals = db->FindTable("individuals");
  ASSERT_NE(individuals, nullptr);
  int64_t id = static_cast<int64_t>(individuals->num_rows()) + 2000;
  ASSERT_TRUE(individuals
                  ->Append({Value::Int(id), Value::Str("Yodelina"),
                            Value::Str("Wobbleton"), Value::Int(50000),
                            Value::DateV(Date::FromYmd(1975, 6, 1))})
                  .ok());
}

bool ResultReadsTable(const SodaResult& result, const std::string& table) {
  for (const TableRef& ref : result.statement.from) {
    if (ref.table == table) return true;
  }
  return false;
}

// A table read by at least one result but not by all of them — banning
// it leaves survivors, pinning it drops some, so both levers can be
// observed doing real work. Empty when the results are table-uniform.
std::string PartialTable(const SearchOutput& output) {
  std::set<std::string> all;
  for (const SodaResult& result : output.results) {
    for (const TableRef& ref : result.statement.from) all.insert(ref.table);
  }
  for (const std::string& table : all) {
    size_t readers = 0;
    for (const SodaResult& result : output.results) {
      if (ResultReadsTable(result, table)) ++readers;
    }
    if (readers > 0 && readers < output.results.size()) return table;
  }
  return "";
}

class SessionTest : public ::testing::Test {
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

  static SodaConfig Config(size_t threads = 2, size_t cache = 0) {
    SodaConfig config;
    config.num_threads = threads;
    config.cache_capacity = cache;
    return config;
  }

  static std::unique_ptr<SodaEngine> Engine(const SodaConfig& config) {
    auto engine = SodaEngine::Create(&bank_->db, &bank_->graph,
                                     CreditSuissePatternLibrary(), config);
    EXPECT_TRUE(engine.ok()) << engine.status();
    return std::move(engine).value();
  }

  static MiniBank* bank_;
};

MiniBank* SessionTest::bank_ = nullptr;

// ---------------------------------------------------------------------------
// Structured explanations
// ---------------------------------------------------------------------------

// The legacy one-line explanation is rendered from the structured record,
// so the two can never disagree; the record's tables mirror the emitted
// statement's FROM list and every matched term names a bindable entry.
TEST_F(SessionTest, ExplanationMatchesRenderedLine) {
  auto engine = Engine(Config());
  size_t total_results = 0;
  for (const std::string& query : MiniBankQueries()) {
    auto output = engine->Search(query);
    ASSERT_TRUE(output.ok()) << query << ": " << output.status();
    total_results += output->results.size();
    for (const SodaResult& result : output->results) {
      EXPECT_EQ(result.explanation, result.provenance.Render()) << query;
      // Pure operator queries consume every term into predicates and
      // legitimately explain nothing.
      EXPECT_EQ(result.provenance.terms.empty(), result.explanation.empty())
          << query;
      for (const ExplanationTerm& term : result.provenance.terms) {
        EXPECT_FALSE(term.phrase.empty()) << query;
        EXPECT_EQ(term.entry_key, EntryPointKey(term.entry)) << query;
      }
      ASSERT_EQ(result.provenance.tables.size(),
                result.statement.from.size())
          << query;
      for (size_t i = 0; i < result.statement.from.size(); ++i) {
        EXPECT_EQ(result.provenance.tables[i], result.statement.from[i].table)
            << query;
      }
    }
  }
  EXPECT_GT(total_results, 0u);
}

// The provenance's joins are exactly the statement's join conjuncts, in
// WHERE order — including the joins Step 5 adds to reach the tables of
// aggregation arguments, group-by columns and metadata aggregations,
// which Step 3 never saw.
TEST_F(SessionTest, ProvenanceJoinsAreTheStatementsJoinConjuncts) {
  auto engine = Engine(Config());
  size_t total_joins = 0;
  for (const std::string& query :
       {"sum(salary) group by (city)", "count(transactions) customers Zürich",
        "count(transactions) group by (currency)",
        "trading volume transaction date between date(2010-01-01) "
        "date(2011-12-31)",
        "customers Zürich financial instruments"}) {
    auto output = engine->Search(query);
    ASSERT_TRUE(output.ok()) << query << ": " << output.status();
    ASSERT_FALSE(output->results.empty()) << query;
    for (const SodaResult& result : output->results) {
      std::vector<std::string> conjuncts;
      for (const Predicate& predicate : result.statement.where) {
        if (!predicate.IsJoinCondition()) continue;
        conjuncts.push_back(predicate.lhs.column.table + "." +
                            predicate.lhs.column.column + " = " +
                            predicate.rhs.column.table + "." +
                            predicate.rhs.column.column);
      }
      std::vector<std::string> provenance;
      for (const JoinEdge& join : result.provenance.joins) {
        provenance.push_back(join.ToString());
      }
      EXPECT_EQ(provenance, conjuncts) << query << "\n" << result.sql;
      total_joins += conjuncts.size();
    }
  }
  EXPECT_GT(total_joins, 0u);
}

// ---------------------------------------------------------------------------
// Constraint semantics
// ---------------------------------------------------------------------------

TEST_F(SessionTest, BanAndPinEnforced) {
  auto engine = Engine(Config());
  SodaSession session(engine.get());
  auto first = session.Ask(kMultiResult);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_GT(first->results.size(), 1u);

  const std::string target = PartialTable(*first);
  ASSERT_FALSE(target.empty())
      << "expected a table read by some but not all results";

  auto banned = session.BanTable(target).Refine();
  ASSERT_TRUE(banned.ok()) << banned.status();
  ASSERT_FALSE(banned->results.empty());
  for (const SodaResult& result : banned->results) {
    EXPECT_FALSE(ResultReadsTable(result, target)) << result.sql;
  }

  auto pinned = session.UnbanTable(target).PinTable(target).Refine();
  ASSERT_TRUE(pinned.ok()) << pinned.status();
  ASSERT_FALSE(pinned->results.empty());
  for (const SodaResult& result : pinned->results) {
    EXPECT_TRUE(ResultReadsTable(result, target)) << result.sql;
  }
  // The two constrained answers partition the unconstrained one.
  EXPECT_EQ(banned->results.size() + pinned->results.size(),
            first->results.size());
}

// A caller that drives the stages itself sets QueryContext::constraints
// directly. The pipeline alone must enforce a pin and a ban from that
// one field, answering exactly as a session Refine under the same set.
TEST_F(SessionTest, ContextConstraintsEnforcedWithoutEngine) {
  auto engine = Engine(Config());
  const Soda& soda = engine->soda();
  auto run = [&](const SessionConstraints* constraints) {
    QueryContext ctx(kMultiResult);
    ctx.config = &soda.config();
    ctx.constraints = constraints;
    EXPECT_TRUE(RunPipeline(soda.stages(), &ctx).ok());
    return FinalizeOutput(std::move(ctx));
  };
  const SearchOutput free = run(nullptr);
  // A pin that drops some results and a ban that drops some of the rest.
  std::set<std::string> tables;
  for (const SodaResult& result : free.results) {
    for (const TableRef& ref : result.statement.from) tables.insert(ref.table);
  }
  std::string pin;
  std::string ban;
  for (const std::string& p : tables) {
    for (const std::string& b : tables) {
      size_t kept = 0;
      size_t banned = 0;
      for (const SodaResult& result : free.results) {
        if (!ResultReadsTable(result, p)) continue;
        ++(ResultReadsTable(result, b) ? banned : kept);
      }
      if (pin.empty() && kept > 0 && banned > 0 &&
          kept + banned < free.results.size()) {
        pin = p;
        ban = b;
      }
    }
  }
  ASSERT_FALSE(pin.empty());
  SessionConstraints constraints;
  constraints.PinTable(pin);
  constraints.BanTable(ban);

  const SearchOutput constrained = run(&constraints);
  ASSERT_FALSE(constrained.results.empty());
  ASSERT_LT(constrained.results.size(), free.results.size());
  for (const SodaResult& result : constrained.results) {
    EXPECT_TRUE(ResultReadsTable(result, pin)) << result.sql;
    EXPECT_FALSE(ResultReadsTable(result, ban)) << result.sql;
  }
  SodaSession session(engine.get());
  ASSERT_TRUE(session.Ask(kMultiResult).ok());
  auto refined = session.PinTable(pin).BanTable(ban).Refine();
  ASSERT_TRUE(refined.ok()) << refined.status();
  ASSERT_EQ(refined->results.size(), constrained.results.size());
  for (size_t i = 0; i < constrained.results.size(); ++i) {
    EXPECT_EQ(refined->results[i].sql, constrained.results[i].sql);
  }
}

// A pinned name no table carries matches no statement, so every
// interpretation drops; a banned one is inert.
TEST_F(SessionTest, PinOfUnknownTableDropsEveryInterpretation) {
  auto engine = Engine(Config());
  SodaSession session(engine.get());
  auto first = session.Ask(kMultiResult);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_FALSE(first->results.empty());

  auto pinned = session.PinTable("no_such_table").Refine();
  ASSERT_TRUE(pinned.ok()) << pinned.status();
  EXPECT_TRUE(pinned->results.empty());
  // A known table pinned beside it does not rescue any statement.
  auto both = session.PinTable(PartialTable(*first)).Refine();
  ASSERT_TRUE(both.ok()) << both.status();
  EXPECT_TRUE(both->results.empty());
}

TEST_F(SessionTest, BanOfUnknownTableIsInert) {
  auto engine = Engine(Config());
  SodaSession session(engine.get());
  auto first = session.Ask(kMultiResult);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_FALSE(first->results.empty());

  auto banned = session.BanTable("no_such_table").Refine();
  ASSERT_TRUE(banned.ok()) << banned.status();
  EXPECT_EQ(Fingerprint(*banned), Fingerprint(*first));
  // Banning a known table beside it bans exactly what banning it alone
  // does.
  const std::string target = PartialTable(*first);
  auto both = session.BanTable(target).Refine();
  SodaSession alone_session(engine.get());
  ASSERT_TRUE(alone_session.Ask(kMultiResult).ok());
  auto alone = alone_session.BanTable(target).Refine();
  ASSERT_TRUE(both.ok()) << both.status();
  ASSERT_TRUE(alone.ok()) << alone.status();
  ASSERT_LT(alone->results.size(), first->results.size());
  EXPECT_EQ(Fingerprint(*both), Fingerprint(*alone));
}

TEST_F(SessionTest, BindTermRestrictsChosenEntryPoints) {
  auto engine = Engine(Config());
  SodaSession session(engine.get());
  ASSERT_TRUE(session.Ask(kSteerable).ok());

  auto candidates = session.TermCandidates("financial instruments");
  ASSERT_EQ(candidates.size(), 2u);  // paper Figure 5: 1 x 1 x 2
  EXPECT_NE(candidates[0].first, candidates[1].first);

  std::set<std::string> keys_seen;
  for (const auto& [entry_key, description] : candidates) {
    SCOPED_TRACE(description);
    auto bound = session.BindTerm("financial instruments", entry_key)
                     .Refine();
    ASSERT_TRUE(bound.ok()) << bound.status();
    ASSERT_FALSE(bound->results.empty());
    for (const SodaResult& result : bound->results) {
      for (const ExplanationTerm& term : result.provenance.terms) {
        if (term.phrase == "financial instruments") {
          EXPECT_EQ(term.entry_key, entry_key);
          keys_seen.insert(term.entry_key);
        }
      }
    }
  }
  // Binding to the second candidate surfaced the other interpretation.
  EXPECT_EQ(keys_seen.size(), 2u);

  // A binding whose term matches nothing is inert: same answer bytes as
  // the unconstrained translation.
  auto unconstrained = engine->Search(kSteerable);
  ASSERT_TRUE(unconstrained.ok());
  auto inert = session.ClearConstraints()
                   .BindTerm("no such term", candidates[0].first)
                   .Refine();
  ASSERT_TRUE(inert.ok()) << inert.status();
  EXPECT_EQ(Fingerprint(*inert), Fingerprint(*unconstrained));
}

TEST_F(SessionTest, RefineBeforeAskErrors) {
  auto engine = Engine(Config());
  SodaSession session(engine.get());
  auto refined = session.Refine();
  EXPECT_FALSE(refined.ok());
  EXPECT_EQ(session.refines(), 0u);
}

// ---------------------------------------------------------------------------
// Acceptance bar: Refine == cold constrained translation, byte for byte
// ---------------------------------------------------------------------------

TEST_F(SessionTest, RefineMatchesColdConstrainedTranslation) {
  for (size_t stripes : {1u, 4u}) {
    for (size_t threads : {1u, 4u}) {
      SCOPED_TRACE("stripes=" + std::to_string(stripes) +
                   " threads=" + std::to_string(threads));
      SodaConfig config = Config(threads, /*cache=*/0);  // all translate
      config.num_shards = stripes;
      auto engine = Engine(config);
      SodaService* service = engine.get();

      SodaSession session(service);
      auto first = session.Ask(kMultiResult);
      ASSERT_TRUE(first.ok()) << first.status();
      EXPECT_EQ(session.last_stages_skipped(), 0u);

      // Pin/ban change: Step 5 only.
      const std::string target = PartialTable(*first);
      ASSERT_FALSE(target.empty());
      auto refined = session.BanTable(target).Refine();
      ASSERT_TRUE(refined.ok()) << refined.status();
      EXPECT_GT(session.last_stages_skipped(), 0u);
      EXPECT_NE(Fingerprint(*refined), Fingerprint(*first));
      auto cold = service->Search(kMultiResult, session.constraints());
      ASSERT_TRUE(cold.ok()) << cold.status();
      EXPECT_EQ(Fingerprint(*refined), Fingerprint(*cold));

      // Binding change on top: re-ranks from the cached lookup.
      auto candidates = session.TermCandidates("name");
      ASSERT_EQ(candidates.size(), 7u);
      auto rebound = session.BindTerm("name", candidates[2].first).Refine();
      ASSERT_TRUE(rebound.ok()) << rebound.status();
      EXPECT_GT(session.last_stages_skipped(), 0u);
      auto cold_bound = service->Search(kMultiResult, session.constraints());
      ASSERT_TRUE(cold_bound.ok()) << cold_bound.status();
      EXPECT_EQ(Fingerprint(*rebound), Fingerprint(*cold_bound));

      MetricsSnapshot snapshot = service->metrics_snapshot();
      EXPECT_GT(snapshot.counter("session.stages_skipped"), 0u);
      EXPECT_EQ(snapshot.counter("session.refines"), 2u);
    }
  }
}

// ---------------------------------------------------------------------------
// Constrained answers bypass the result cache
// ---------------------------------------------------------------------------

// The shared cache holds unconstrained answers only: a constrained serve
// neither probes nor fills it, so a repeat of the same constrained
// search translates again, while the unconstrained entry of the same
// question keeps hitting.
TEST_F(SessionTest, ConstrainedAnswersBypassResultCache) {
  auto engine = Engine(Config(/*threads=*/2, /*cache=*/64));
  auto miss = engine->Search(kMultiResult);
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss->from_cache);
  auto hit = engine->Search(kMultiResult);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->from_cache);
  const size_t cached_entries = engine->cache_stats().size;
  EXPECT_EQ(cached_entries, 1u);

  const std::string target = PartialTable(*miss);
  ASSERT_FALSE(target.empty());
  SessionConstraints constraints;
  constraints.BanTable(target);
  auto constrained = engine->Search(kMultiResult, constraints);
  ASSERT_TRUE(constrained.ok());
  EXPECT_FALSE(constrained->from_cache);
  EXPECT_NE(Fingerprint(*constrained), Fingerprint(*miss));

  auto constrained_again = engine->Search(kMultiResult, constraints);
  ASSERT_TRUE(constrained_again.ok());
  EXPECT_FALSE(constrained_again->from_cache);
  EXPECT_EQ(Fingerprint(*constrained_again), Fingerprint(*constrained));
  EXPECT_EQ(engine->cache_stats().size, cached_entries);

  // And the unconstrained entry survived untouched.
  auto still_cached = engine->Search(kMultiResult);
  ASSERT_TRUE(still_cached.ok());
  EXPECT_TRUE(still_cached->from_cache);
  EXPECT_EQ(Fingerprint(*still_cached), Fingerprint(*miss));
}

// Cache pollution: a session steering through twice the cache's capacity
// in distinct constraint sets evicts nothing, so the hot unconstrained
// question of the same stripe is still served from cache afterwards.
TEST_F(SessionTest, ConstrainedRefinesDoNotEvictHotQuestions) {
  constexpr size_t kCapacity = 4;
  std::vector<std::string> tables;
  for (const Table* table : bank_->db.tables()) tables.push_back(table->name());
  ASSERT_GE(tables.size(), 2 * kCapacity);
  for (size_t stripes : {1u, 2u}) {
    SCOPED_TRACE("stripes=" + std::to_string(stripes));
    SodaConfig config = Config(/*threads=*/2, kCapacity);
    config.num_shards = stripes;
    std::unique_ptr<SodaService> service = Engine(config);
    ASSERT_TRUE(service->Search(kMultiResult).ok());

    SodaSession session(service.get());
    ASSERT_TRUE(session.Ask(kMultiResult).ok());
    for (size_t i = 0; i < 2 * kCapacity; ++i) {
      auto refined = session.ClearConstraints().BanTable(tables[i]).Refine();
      ASSERT_TRUE(refined.ok()) << tables[i] << ": " << refined.status();
      EXPECT_FALSE(refined->from_cache) << tables[i];
    }

    auto hot = service->Search(kMultiResult);
    ASSERT_TRUE(hot.ok());
    EXPECT_TRUE(hot->from_cache);
    EXPECT_EQ(service->cache_stats().evictions, 0u);
  }
}

// ---------------------------------------------------------------------------
// Stage-skip accounting and plan freshness
// ---------------------------------------------------------------------------

TEST_F(SessionTest, StageSkipMatrixAndCounters) {
  auto engine = Engine(Config(/*threads=*/2, /*cache=*/0));
  SodaSession session(engine.get());
  ASSERT_TRUE(session.Ask(kSteerable).ok());
  EXPECT_EQ(session.last_stages_skipped(), 0u);

  const std::string target = "fi_contains_sec";
  // Pin/ban-only change: everything up to Step 5 is reused.
  ASSERT_TRUE(session.BanTable(target).Refine().ok());
  EXPECT_EQ(session.last_stages_skipped(), 4u);

  // Binding change: only Step 1 is reused.
  auto candidates = session.TermCandidates("financial instruments");
  ASSERT_EQ(candidates.size(), 2u);
  ASSERT_TRUE(session.BindTerm("financial instruments", candidates[0].first)
                  .Refine()
                  .ok());
  EXPECT_EQ(session.last_stages_skipped(), 1u);

  // No change since the recapture: back to the Step-5-only resume.
  ASSERT_TRUE(session.Refine().ok());
  EXPECT_EQ(session.last_stages_skipped(), 4u);

  // A new question cannot resume anything.
  ASSERT_TRUE(session.Refine("addresses Sara Guttinger").ok());
  EXPECT_EQ(session.last_stages_skipped(), 0u);

  EXPECT_EQ(session.refines(), 4u);
  MetricsSnapshot snapshot = engine->metrics_snapshot();
  EXPECT_EQ(snapshot.counter("session.refines"), 4u);
  EXPECT_EQ(snapshot.counter("session.stages_skipped"), 4u + 1u + 4u);
}

TEST_F(SessionTest, MutationInvalidatesPlanAndRefineMatchesColdEngine) {
  // This test mutates the database, so it builds its own mini-bank.
  auto bank = BuildMiniBank().value();
  SodaConfig config = Config(/*threads=*/2, /*cache=*/0);
  auto engine = SodaEngine::Create(&bank->db, &bank->graph,
                                   CreditSuissePatternLibrary(), config)
                    .value();
  FreshnessManager freshness(&bank->db.change_log());
  freshness.Track(engine.get());

  {
    SodaSession session(engine.get());
    ASSERT_TRUE(session.Ask(kSteerable).ok());
    ASSERT_TRUE(session.BanTable("fi_contains_sec").Refine().ok());
    EXPECT_EQ(session.last_stages_skipped(), 4u);

    // The appended rows carry tokens the plan's lookup probed ("zürich"):
    // the change log moves past the plan's capture, and the next Refine
    // quietly runs the full pipeline against the new base data.
    AppendZebraQuuxville(&bank->db);

    auto refined = session.Refine();
    ASSERT_TRUE(refined.ok()) << refined.status();
    EXPECT_EQ(session.last_stages_skipped(), 0u);

    auto cold_engine = SodaEngine::Create(&bank->db, &bank->graph,
                                          CreditSuissePatternLibrary(), config)
                           .value();
    auto cold = cold_engine->Search(kSteerable, session.constraints());
    ASSERT_TRUE(cold.ok()) << cold.status();
    EXPECT_EQ(Fingerprint(*refined), Fingerprint(*cold));

    // Recaptured against the mutated data: refining resumes again.
    ASSERT_TRUE(session.UnbanTable("fi_contains_sec")
                    .BanTable("securities")
                    .Refine()
                    .ok());
    EXPECT_EQ(session.last_stages_skipped(), 4u);
  }
}

// One staleness rule for every plan: an append whose tokens the plan
// never probed still voids it, at any stripe count, whether or not a
// FreshnessManager tracks the service.
TEST_F(SessionTest, UnrelatedAppendStillVoidsPlan) {
  for (size_t stripes : {1u, 4u}) {
    for (bool tracked : {false, true}) {
      SCOPED_TRACE("stripes=" + std::to_string(stripes) +
                   " tracked=" + std::to_string(tracked));
      // This test mutates the database, so it builds its own mini-bank.
      auto bank = BuildMiniBank().value();
      SodaConfig config = Config(/*threads=*/2, /*cache=*/0);
      config.num_shards = stripes;
      auto engine = SodaEngine::Create(&bank->db, &bank->graph,
                                       CreditSuissePatternLibrary(), config)
                        .value();
      std::unique_ptr<FreshnessManager> freshness;
      if (tracked) {
        freshness =
            std::make_unique<FreshnessManager>(&bank->db.change_log());
        freshness->Track(engine.get());
      }

      SodaSession session(engine.get());
      ASSERT_TRUE(session.Ask(kSteerable).ok());
      ASSERT_TRUE(session.BanTable("fi_contains_sec").Refine().ok());
      EXPECT_EQ(session.last_stages_skipped(), 4u);

      AppendUnprobedIndividual(&bank->db);
      auto refined = session.Refine();
      ASSERT_TRUE(refined.ok()) << refined.status();
      EXPECT_EQ(session.last_stages_skipped(), 0u);
      auto cold = engine->Search(kSteerable, session.constraints());
      ASSERT_TRUE(cold.ok()) << cold.status();
      EXPECT_EQ(Fingerprint(*refined), Fingerprint(*cold));

      // Recaptured after the append: the next Refine resumes again.
      ASSERT_TRUE(session.Refine().ok());
      EXPECT_EQ(session.last_stages_skipped(), 4u);
    }
  }
}

// A plan holds no reference to the FreshnessManager: a session may
// outlive the manager that tracked its service, and keep refining.
TEST_F(SessionTest, SessionOutlivesFreshnessManager) {
  auto engine = Engine(Config(/*threads=*/2, /*cache=*/8));
  auto freshness =
      std::make_unique<FreshnessManager>(&bank_->db.change_log());
  freshness->Track(engine.get());
  {
    SodaSession session(engine.get());
    ASSERT_TRUE(session.Ask(kSteerable).ok());
    ASSERT_TRUE(session.BanTable("fi_contains_sec").Refine().ok());
    freshness.reset();

    // A binding change recaptures the plan, dropping the old one.
    auto candidates = session.TermCandidates("financial instruments");
    ASSERT_EQ(candidates.size(), 2u);
    auto refined =
        session.BindTerm("financial instruments", candidates[0].first)
            .Refine();
    ASSERT_TRUE(refined.ok()) << refined.status();
    EXPECT_EQ(session.last_stages_skipped(), 1u);
    auto cold = engine->Search(kSteerable, session.constraints());
    ASSERT_TRUE(cold.ok()) << cold.status();
    EXPECT_EQ(Fingerprint(*refined), Fingerprint(*cold));
  }  // the session and its plan die after the manager
}

// ---------------------------------------------------------------------------
// Plans cached beside answers
// ---------------------------------------------------------------------------

// An engine of `stripes` cache stripes with the result cache on.
std::unique_ptr<SodaEngine> CachedEngine(MiniBank* bank, size_t stripes) {
  SodaConfig config;
  config.num_shards = stripes;
  config.num_threads = 2;
  config.cache_capacity = 64;
  auto engine = SodaEngine::Create(&bank->db, &bank->graph,
                                   CreditSuissePatternLibrary(), config);
  EXPECT_TRUE(engine.ok()) << engine.status();
  return std::move(engine).value();
}

// The cold constrained translation every session answer must equal: a
// cache-off engine, so nothing it serves is resumed.
std::string ColdFingerprint(MiniBank* bank, const std::string& query,
                            const SessionConstraints& constraints) {
  SodaConfig config;
  config.num_threads = 1;
  config.cache_capacity = 0;
  auto engine = SodaEngine::Create(&bank->db, &bank->graph,
                                   CreditSuissePatternLibrary(), config)
                    .value();
  auto cold = engine->Search(query, constraints);
  EXPECT_TRUE(cold.ok()) << cold.status();
  return cold.ok() ? Fingerprint(*cold) : "";
}

// An Ask served from cache hands the session the plan stored beside the
// answer, so term candidates are there to bind and the first Refine
// resumes instead of re-running Steps 1-4.
TEST_F(SessionTest, CachedAskKeepsTermCandidates) {
  for (size_t stripes : {1u, 4u}) {
    SCOPED_TRACE("stripes=" + std::to_string(stripes));
    auto engine = CachedEngine(bank_, stripes);
    SodaSession cold(engine.get());
    auto first = cold.Ask(kSteerable);
    ASSERT_TRUE(first.ok()) << first.status();
    ASSERT_FALSE(first->from_cache);
    const auto expected = cold.TermCandidates("financial instruments");
    ASSERT_EQ(expected.size(), 2u);

    SodaSession cached(engine.get());
    auto second = cached.Ask(kSteerable);
    ASSERT_TRUE(second.ok()) << second.status();
    EXPECT_TRUE(second->from_cache);
    EXPECT_EQ(cached.last_stages_skipped(), 5u);
    EXPECT_EQ(cached.TermCandidates("financial instruments"), expected);
    EXPECT_EQ(cached.TermCandidates("zürich"), cold.TermCandidates("zürich"));
  }
}

// After a cached Ask: a pin/ban Refine skips 4 stages, a bind Refine 1,
// and dropping the binding again resumes Step 5 from the cached plan —
// every answer equal to a cold constrained translation, and no peek
// books a cache hit or miss.
TEST_F(SessionTest, RefinesAfterCachedAskResumeTheCachedPlan) {
  for (size_t stripes : {1u, 2u, 4u}) {
    SCOPED_TRACE("stripes=" + std::to_string(stripes));
    auto engine = CachedEngine(bank_, stripes);
    ASSERT_TRUE(SodaSession(engine.get()).Ask(kSteerable).ok());

    // First Refine a pin/ban.
    SodaSession banning(engine.get());
    ASSERT_TRUE(banning.Ask(kSteerable).ok());
    EXPECT_EQ(banning.last_stages_skipped(), 5u);
    const CacheStats before = engine->cache_stats();
    auto banned = banning.BanTable("fi_contains_sec").Refine();
    ASSERT_TRUE(banned.ok()) << banned.status();
    EXPECT_EQ(banning.last_stages_skipped(), 4u);
    EXPECT_EQ(Fingerprint(*banned),
              ColdFingerprint(bank_, kSteerable, banning.constraints()));

    // Then a binding: re-ranks from the plan's lookup.
    const auto candidates = banning.TermCandidates("financial instruments");
    ASSERT_EQ(candidates.size(), 2u);
    auto bound =
        banning.BindTerm("financial instruments", candidates[1].first)
            .Refine();
    ASSERT_TRUE(bound.ok()) << bound.status();
    EXPECT_EQ(banning.last_stages_skipped(), 1u);
    EXPECT_EQ(Fingerprint(*bound),
              ColdFingerprint(bank_, kSteerable, banning.constraints()));

    // Unbinding leaves a held plan ranked under the binding; the plan
    // cached beside the unconstrained answer fits, and Step 5 alone runs.
    auto unbound = banning.UnbindTerm("financial instruments").Refine();
    ASSERT_TRUE(unbound.ok()) << unbound.status();
    EXPECT_EQ(banning.last_stages_skipped(), 4u);
    EXPECT_EQ(Fingerprint(*unbound), Fingerprint(*banned));

    // First Refine a bind.
    SodaSession binding(engine.get());
    ASSERT_TRUE(binding.Ask(kSteerable).ok());
    auto first_bind =
        binding.BindTerm("financial instruments", candidates[0].first)
            .Refine();
    ASSERT_TRUE(first_bind.ok()) << first_bind.status();
    EXPECT_EQ(binding.last_stages_skipped(), 1u);
    EXPECT_EQ(Fingerprint(*first_bind),
              ColdFingerprint(bank_, kSteerable, binding.constraints()));

    // Only the two Asks touched the books, as hits.
    const CacheStats after = engine->cache_stats();
    EXPECT_EQ(after.misses, before.misses);
    EXPECT_EQ(after.hits, before.hits + 1);
    EXPECT_EQ(after.size, before.size);
  }
}

// A changed question under carried constraints resumes from the plan
// cached beside the new question's answer: Step 5 alone under pins and
// bans, re-ranking when bindings are carried.
TEST_F(SessionTest, ChangedQuestionResumesFromCachedPlan) {
  const std::string other = "addresses Sara Guttinger";
  for (size_t stripes : {1u, 2u, 4u}) {
    SCOPED_TRACE("stripes=" + std::to_string(stripes));
    auto engine = CachedEngine(bank_, stripes);
    ASSERT_TRUE(SodaSession(engine.get()).Ask(other).ok());
    const CacheStats before = engine->cache_stats();

    SodaSession session(engine.get());
    ASSERT_TRUE(session.Ask(kSteerable).ok());
    EXPECT_EQ(session.last_stages_skipped(), 0u);
    ASSERT_TRUE(session.BanTable("securities").Refine().ok());
    auto changed = session.Refine(other);
    ASSERT_TRUE(changed.ok()) << changed.status();
    EXPECT_EQ(session.last_stages_skipped(), 4u);
    EXPECT_EQ(Fingerprint(*changed),
              ColdFingerprint(bank_, other, session.constraints()));

    // Back to the first question, with a binding carried over.
    auto back = session.Refine(kSteerable);
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_EQ(session.last_stages_skipped(), 4u);
    const auto candidates = session.TermCandidates("financial instruments");
    ASSERT_EQ(candidates.size(), 2u);
    ASSERT_TRUE(session.BindTerm("financial instruments", candidates[1].first)
                    .Refine()
                    .ok());
    auto bound_change = session.Refine(other);
    ASSERT_TRUE(bound_change.ok()) << bound_change.status();
    EXPECT_EQ(session.last_stages_skipped(), 1u);
    EXPECT_EQ(Fingerprint(*bound_change),
              ColdFingerprint(bank_, other, session.constraints()));

    // The Ask missed and filled its entry; no constrained serve touched
    // the books.
    const CacheStats after = engine->cache_stats();
    EXPECT_EQ(after.misses, before.misses + 1);
    EXPECT_EQ(after.hits, before.hits);
  }
}

// The one staleness rule covers cached plans too: after an append, an
// answer that survived invalidation still serves from cache, but the
// plan beside it is not resumed — the Refine runs cold, equals a cold
// engine over the mutated data, and its recaptured plan resumes again.
// An entry the FreshnessManager evicts takes its plan with it.
TEST_F(SessionTest, StaleCachedPlanIsNotResumed) {
  // Reads no individuals and probes none of the appended tokens, so a
  // tracking FreshnessManager keeps its entry.
  const std::string survivor = "money transactions CHF";
  for (size_t stripes : {1u, 2u, 4u}) {
    for (bool tracked : {false, true}) {
      SCOPED_TRACE("stripes=" + std::to_string(stripes) +
                   " tracked=" + std::to_string(tracked));
      // This test mutates the database, so it builds its own mini-bank.
      auto bank = BuildMiniBank().value();
      auto engine = CachedEngine(bank.get(), stripes);
      std::unique_ptr<FreshnessManager> freshness;
      if (tracked) {
        freshness =
            std::make_unique<FreshnessManager>(&bank->db.change_log());
        freshness->Track(engine.get());
      }
      auto warm = SodaSession(engine.get()).Ask(survivor);
      ASSERT_TRUE(warm.ok()) << warm.status();
      ASSERT_FALSE(warm->results.empty());
      ASSERT_TRUE(SodaSession(engine.get()).Ask(kSteerable).ok());
      const std::string table = warm->results[0].statement.from[0].table;

      AppendUnprobedIndividual(&bank->db);

      SodaSession session(engine.get());
      auto asked = session.Ask(survivor);
      ASSERT_TRUE(asked.ok()) << asked.status();
      EXPECT_TRUE(asked->from_cache);
      auto pinned = session.PinTable(table).Refine();
      ASSERT_TRUE(pinned.ok()) << pinned.status();
      EXPECT_EQ(session.last_stages_skipped(), 0u);
      EXPECT_EQ(Fingerprint(*pinned),
                ColdFingerprint(bank.get(), survivor, session.constraints()));
      ASSERT_TRUE(session.Refine().ok());
      EXPECT_EQ(session.last_stages_skipped(), 4u);

      // The steerable question reads individuals: a tracked service
      // evicted its entry and plan, so its Ask recaptures; untracked, the
      // answer is still cached and its stale plan ignored.
      SodaSession steering(engine.get());
      auto steered = steering.Ask(kSteerable);
      ASSERT_TRUE(steered.ok()) << steered.status();
      EXPECT_EQ(steered->from_cache, !tracked);
      auto banned = steering.BanTable("fi_contains_sec").Refine();
      ASSERT_TRUE(banned.ok()) << banned.status();
      EXPECT_EQ(steering.last_stages_skipped(), tracked ? 4u : 0u);
      EXPECT_EQ(Fingerprint(*banned),
                ColdFingerprint(bank.get(), kSteerable,
                                steering.constraints()));
    }
  }
}

// An unconstrained serve that resumes a plan skipped the lookup that
// records the dependency terms; its answer is still cached with the same
// dependency record as a cold serve's.
TEST_F(SessionTest, ResumedAnswerIsCachedWithItsDependencies) {
  auto engine = CachedEngine(bank_, 1);
  std::vector<std::vector<std::string>> records;
  const CachePredicate take = [&](const std::string&,
                                  const CachedAnswer& entry) {
    records.push_back(entry.freshness_terms);
    records.push_back(entry.tables);
    return true;
  };
  SodaSession session(engine.get());
  ASSERT_TRUE(session.Ask(kSteerable).ok());
  ASSERT_EQ(engine->InvalidateWhere(take), 1u);
  auto resumed = session.Refine();
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_FALSE(resumed->from_cache);
  EXPECT_EQ(session.last_stages_skipped(), 4u);
  ASSERT_EQ(engine->InvalidateWhere(take), 1u);
  ASSERT_EQ(records.size(), 4u);
  EXPECT_FALSE(records[0].empty());
  EXPECT_FALSE(records[1].empty());
  EXPECT_EQ(records[2], records[0]);
  EXPECT_EQ(records[3], records[1]);
}

// A plain search captures no plan, so an Ask served from the entry it
// filled hands the session none: no term candidates until a Refine, which
// runs cold (a peek finds no plan either), captures one and equals a cold
// constrained translation. The next Refine resumes that capture.
TEST_F(SessionTest, PlainSearchFillsNoPlan) {
  for (size_t stripes : {1u, 4u}) {
    SCOPED_TRACE("stripes=" + std::to_string(stripes));
    auto engine = CachedEngine(bank_, stripes);
    ASSERT_TRUE(engine->Search(kSteerable).ok());

    SodaSession session(engine.get());
    auto asked = session.Ask(kSteerable);
    ASSERT_TRUE(asked.ok()) << asked.status();
    EXPECT_TRUE(asked->from_cache);
    EXPECT_TRUE(session.TermCandidates("financial instruments").empty());

    auto banned = session.BanTable("fi_contains_sec").Refine();
    ASSERT_TRUE(banned.ok()) << banned.status();
    EXPECT_EQ(session.last_stages_skipped(), 0u);
    EXPECT_EQ(Fingerprint(*banned),
              ColdFingerprint(bank_, kSteerable, session.constraints()));
    EXPECT_EQ(session.TermCandidates("financial instruments").size(), 2u);
    ASSERT_TRUE(session.UnbanTable("fi_contains_sec")
                    .BanTable("securities")
                    .Refine()
                    .ok());
    EXPECT_EQ(session.last_stages_skipped(), 4u);
  }
}

}  // namespace
}  // namespace soda
