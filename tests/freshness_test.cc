// Tests for the live-base-data freshness subsystem (change log → index
// deltas → keyed cache invalidation): epoch coalescing, ChangeEvent
// contents, incremental-vs-rebuilt index equivalence on random mutation
// sequences, and the acceptance bar — an engine that stayed up across a
// mutation (auto-invalidated by the FreshnessManager) answers
// byte-identically to a freshly created engine over the mutated
// database, at any cache stripes × threads, while unaffected cache entries
// survive.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "core/freshness.h"
#include "core/soda.h"
#include "datasets/minibank.h"
#include "pattern/library.h"
#include "storage/change_log.h"
#include "text/inverted_index.h"

namespace soda {
namespace {

// Order-sensitive answer fingerprint (snippets included): "byte-identical"
// is literal; engine-lifetime cache counters are bookkeeping, not answer
// content, and are deliberately excluded.
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

std::vector<std::string> Dashboard() {
  return {
      "customers Zürich financial instruments",
      "addresses Sara Guttinger",
      "sum(investments) group by (currency)",
      "private customers family name",
  };
}

// Captures every published event.
class RecordingListener : public ChangeListener {
 public:
  void OnChange(const ChangeEvent& event) override {
    events.push_back(event);
  }
  std::vector<ChangeEvent> events;
};

// Applies every published event to one index (what the FreshnessManager
// does for each tracked engine).
class IndexingListener : public ChangeListener {
 public:
  explicit IndexingListener(InvertedIndex* index) : index_(index) {}
  void OnChange(const ChangeEvent& event) override {
    index_->ApplyDelta(event);
  }

 private:
  InvertedIndex* index_;
};

// The new-individual mutation the engine tests replay: one individual
// with an unmistakably fresh name and one Zürich address for them. Both
// tables already back cached dashboard answers.
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

// ---------------------------------------------------------------------------
// Change log: publication, epochs, event contents
// ---------------------------------------------------------------------------

TEST(ChangeLogFreshnessTest, AppendPublishesOneEventPerRow) {
  Database db;
  Table* t = db.CreateTable("t", {{"name", ValueType::kString}}).value();
  RecordingListener listener;
  db.change_log().Subscribe(&listener);

  ASSERT_TRUE(t->Append({Value::Str("alpha")}).ok());
  t->AppendUnchecked({Value::Str("beta")});  // fast path publishes too

  ASSERT_EQ(listener.events.size(), 2u);
  EXPECT_EQ(listener.events[0].table, "t");
  EXPECT_EQ(listener.events[0].row_begin, 0u);
  EXPECT_EQ(listener.events[0].row_end, 1u);
  EXPECT_EQ(listener.events[0].sequence, 1u);
  EXPECT_EQ(listener.events[1].sequence, 2u);
  EXPECT_EQ(db.change_log().sequence(), 2u);
  EXPECT_EQ(db.change_log().rows_recorded(), 2u);
  db.change_log().Unsubscribe(&listener);
}

TEST(ChangeLogFreshnessTest, EpochCoalescesToOneEventPerTable) {
  Database db;
  Table* a = db.CreateTable("a", {{"v", ValueType::kString}}).value();
  Table* b = db.CreateTable("b", {{"v", ValueType::kString}}).value();
  RecordingListener listener;
  db.change_log().Subscribe(&listener);

  {
    ChangeLog::EpochGuard epoch(db.change_log());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(a->Append({Value::Str("a" + std::to_string(i))}).ok());
    }
    {
      ChangeLog::EpochGuard nested(db.change_log());  // nesting is a no-op
      ASSERT_TRUE(b->Append({Value::Str("b0")}).ok());
    }
    ASSERT_TRUE(a->Append({Value::Str("a5")}).ok());
    EXPECT_TRUE(listener.events.empty());  // deferred until outermost close
  }

  ASSERT_EQ(listener.events.size(), 2u);  // first-touch order: a then b
  EXPECT_EQ(listener.events[0].table, "a");
  EXPECT_EQ(listener.events[0].row_begin, 0u);
  EXPECT_EQ(listener.events[0].row_end, 6u);
  EXPECT_EQ(listener.events[1].table, "b");
  EXPECT_EQ(db.change_log().events_published(), 2u);
  db.change_log().Unsubscribe(&listener);
}

TEST(ChangeLogFreshnessTest, EventCarriesStringDeltasOnly) {
  Database db;
  Table* t = db.CreateTable("mix", {{"id", ValueType::kInt64},
                                    {"name", ValueType::kString},
                                    {"city", ValueType::kString}})
                 .value();
  RecordingListener listener;
  db.change_log().Subscribe(&listener);

  {
    ChangeLog::EpochGuard epoch(db.change_log());
    ASSERT_TRUE(
        t->Append({Value::Int(1), Value::Str("ada"), Value::Str("bern")})
            .ok());
    ASSERT_TRUE(
        t->Append({Value::Int(2), Value::Null(), Value::Str("")}).ok());
    ASSERT_TRUE(
        t->Append({Value::Int(3), Value::Str("bob"), Value::Null()}).ok());
  }

  ASSERT_EQ(listener.events.size(), 1u);
  const ChangeEvent& event = listener.events[0];
  ASSERT_EQ(event.deltas.size(), 2u);  // int column absent
  EXPECT_EQ(event.deltas[0].column, "name");
  EXPECT_EQ(event.deltas[0].column_index, 1u);
  EXPECT_EQ(event.deltas[0].values, (std::vector<std::string>{"ada", "bob"}));
  EXPECT_EQ(event.deltas[0].rows, (std::vector<size_t>{0, 2}));
  // Values ship pre-tokenized as interned ids against the database's
  // shared dictionary, so consumers never re-tokenize under the
  // exclusive data lock.
  ASSERT_EQ(event.dict, db.token_dict());
  ASSERT_EQ(event.deltas[0].token_ids.size(), 2u);
  ASSERT_EQ(event.deltas[0].token_ids[0].size(), 1u);
  EXPECT_EQ(event.dict->Spelling(event.deltas[0].token_ids[0][0]), "ada");
  EXPECT_EQ(event.deltas[1].column, "city");
  EXPECT_EQ(event.deltas[1].values, (std::vector<std::string>{"bern"}));
  EXPECT_EQ(event.NumValues(), 3u);
  db.change_log().Unsubscribe(&listener);
}

// ---------------------------------------------------------------------------
// Incremental index maintenance ≡ from-scratch rebuild
// ---------------------------------------------------------------------------

TEST(IncrementalIndexFreshnessTest, RandomMutationSequencesMatchRebuild) {
  Rng rng(0xF5E5);
  const std::vector<std::string> words = {"alpha", "beta",  "gamma", "delta",
                                          "credit", "suisse", "zurich",
                                          "bond",  "fund"};
  auto random_value = [&]() {
    std::string value = words[rng.Below(words.size())];
    size_t extra = rng.Below(3);  // 0-2 extra tokens → phrases too
    for (size_t i = 0; i < extra; ++i) {
      value += " " + words[rng.Below(words.size())];
    }
    return value;
  };

  for (int round = 0; round < 5; ++round) {
    Database db;
    Table* a = db.CreateTable("customers", {{"name", ValueType::kString},
                                            {"city", ValueType::kString}})
                   .value();
    Table* b = db.CreateTable("products", {{"label", ValueType::kString}})
                   .value();
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(
          a->Append({Value::Str(random_value()), Value::Str(random_value())})
              .ok());
      ASSERT_TRUE(b->Append({Value::Str(random_value())}).ok());
    }

    // Live index, built before the mutations, kept fresh via deltas.
    InvertedIndex live;
    live.Build(db);
    IndexingListener listener(&live);
    db.change_log().Subscribe(&listener);

    size_t mutations = 10 + rng.Below(20);
    for (size_t m = 0; m < mutations; ++m) {
      Table* target = rng.Below(2) == 0 ? a : b;
      bool epoch_batch = rng.Below(4) == 0;
      size_t rows = epoch_batch ? 1 + rng.Below(4) : 1;
      std::unique_ptr<ChangeLog::EpochGuard> epoch;
      if (epoch_batch) {
        epoch = std::make_unique<ChangeLog::EpochGuard>(db.change_log());
      }
      for (size_t r = 0; r < rows; ++r) {
        if (target == a) {
          // Occasionally NULL a column — deltas must skip the hole.
          Value city = rng.Below(5) == 0 ? Value::Null()
                                         : Value::Str(random_value());
          ASSERT_TRUE(
              a->Append({Value::Str(random_value()), city}).ok());
        } else {
          ASSERT_TRUE(b->Append({Value::Str(random_value())}).ok());
        }
      }
    }
    db.change_log().Unsubscribe(&listener);

    InvertedIndex rebuilt;
    rebuilt.Build(db);

    EXPECT_EQ(live.num_tokens(), rebuilt.num_tokens());
    EXPECT_EQ(live.num_values(), rebuilt.num_values());
    EXPECT_EQ(live.num_records(), rebuilt.num_records());

    // Probe every single token and a sample of two-token phrases; the
    // postings must match the rebuild exactly — ordering included (the
    // pipeline's candidate enumeration depends on it).
    std::vector<std::string> probes = words;
    for (const std::string& w1 : words) {
      for (const std::string& w2 : words) {
        probes.push_back(w1 + " " + w2);
      }
    }
    for (const std::string& probe : probes) {
      EXPECT_EQ(live.CountPhrase(probe), rebuilt.CountPhrase(probe)) << probe;
      std::vector<ValuePosting> lhs = live.LookupPhrase(probe);
      std::vector<ValuePosting> rhs = rebuilt.LookupPhrase(probe);
      ASSERT_EQ(lhs.size(), rhs.size()) << probe;
      for (size_t i = 0; i < lhs.size(); ++i) {
        EXPECT_EQ(lhs[i].table, rhs[i].table) << probe << " #" << i;
        EXPECT_EQ(lhs[i].column, rhs[i].column) << probe << " #" << i;
        EXPECT_EQ(lhs[i].value, rhs[i].value) << probe << " #" << i;
        EXPECT_EQ(lhs[i].row_count, rhs[i].row_count) << probe << " #" << i;
      }
    }
    for (const std::string& word : words) {
      EXPECT_EQ(live.ContainsToken(word), rebuilt.ContainsToken(word));
    }
  }
}

// ---------------------------------------------------------------------------
// End to end: stayed-up engine ≡ cold engine on the mutated database
// ---------------------------------------------------------------------------

// Every engine test mutates its own mini-bank (a shared fixture would
// leak mutations across tests), so there is no static dataset here.
class FreshnessEngineTest : public ::testing::Test {
 protected:
  static SodaConfig Config(size_t threads, size_t stripes) {
    SodaConfig config;
    config.num_threads = threads;
    config.num_shards = stripes;
    config.cache_capacity = 64;
    return config;
  }
};

TEST_F(FreshnessEngineTest, AutoInvalidationMatchesColdEngineAndIsKeyed) {
  // A fresh mini-bank: this test mutates the database, so it builds its
  // own instead of the shared fixture.
  auto bank = BuildMiniBank().value();
  auto engine = SodaEngine::Create(&bank->db, &bank->graph,
                                   CreditSuissePatternLibrary(),
                                   Config(/*threads=*/2, /*stripes=*/1))
                    .value();
  FreshnessManager freshness(&bank->db.change_log());
  freshness.Track(engine.get());

  // Warm the cache: every dashboard query plus one the mutation must not
  // touch.
  const std::vector<std::string> queries = Dashboard();
  const std::string unaffected = "sum(investments) group by (currency)";
  for (const std::string& query : queries) {
    ASSERT_TRUE(engine->Search(query).ok());
  }
  uint64_t events_before = freshness.events_seen();

  AppendZebraQuuxville(&bank->db);

  // Two events (individuals, addresses), keys invalidated automatically.
  EXPECT_EQ(freshness.events_seen(), events_before + 2);
  EXPECT_GT(freshness.keys_invalidated(), 0u);

  // Keyed, not a clear: the aggregation query shares no token with the
  // appended values and its SQL does not read the mutated tables, so its
  // entry must still be served from cache.
  auto unaffected_output = engine->Search(unaffected);
  ASSERT_TRUE(unaffected_output.ok());
  EXPECT_TRUE(unaffected_output->from_cache);

  // The Zürich query depends on the appended value's tokens, so its
  // entry must be gone — the re-serve below runs the pipeline again.
  auto zurich = engine->Search(queries[0]);
  ASSERT_TRUE(zurich.ok());
  EXPECT_FALSE(zurich->from_cache);

  // The acceptance bar: byte-identical to an engine created after the
  // mutation, for every dashboard query.
  auto cold = SodaEngine::Create(&bank->db, &bank->graph,
                                 CreditSuissePatternLibrary(),
                                 Config(/*threads=*/2, /*stripes=*/1))
                  .value();
  for (const std::string& query : queries) {
    auto stayed_up = engine->Search(query);
    auto fresh = cold->Search(query);
    ASSERT_TRUE(stayed_up.ok()) << query;
    ASSERT_TRUE(fresh.ok()) << query;
    EXPECT_EQ(Fingerprint(*stayed_up), Fingerprint(*fresh)) << query;
  }
}

TEST_F(FreshnessEngineTest, IgnoredWordGainsBaseDataMatch) {
  auto bank = BuildMiniBank().value();
  auto engine = SodaEngine::Create(&bank->db, &bank->graph,
                                   CreditSuissePatternLibrary(),
                                   Config(/*threads=*/1, /*stripes=*/1))
                    .value();
  FreshnessManager freshness(&bank->db.change_log());
  freshness.Track(engine.get());

  // "Quuxville" matches nothing yet: the word is ignored and cached so.
  const std::string query = "addresses Quuxville";
  auto before = engine->Search(query);
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->ignored_words.size(), 1u);

  AppendZebraQuuxville(&bank->db);

  // The append made "Quuxville" a base-data value, so the cached answer
  // (keyed on the then-ignored token) was invalidated; re-serving must
  // match a cold engine that never saw the stale world.
  auto after = engine->Search(query);
  auto cold = SodaEngine::Create(&bank->db, &bank->graph,
                                 CreditSuissePatternLibrary(),
                                 Config(/*threads=*/1, /*stripes=*/1))
                  .value();
  auto fresh = cold->Search(query);
  ASSERT_TRUE(after.ok());
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(after->from_cache);
  EXPECT_TRUE(after->ignored_words.empty());
  EXPECT_EQ(Fingerprint(*after), Fingerprint(*fresh));
}

TEST_F(FreshnessEngineTest, StripedSweepMatchesColdEngine) {
  // Postings booked by the one-stripe runs: a delta is applied once, to
  // the engine's one core, so any stripe count books the same.
  uint64_t single_stripe_postings = 0;
  for (size_t stripes : {1, 4}) {
    for (size_t threads : {1, 4}) {
      auto bank = BuildMiniBank().value();
      auto engine = SodaEngine::Create(&bank->db, &bank->graph,
                                       CreditSuissePatternLibrary(),
                                       Config(threads, stripes))
                        .value();
      FreshnessManager freshness(&bank->db.change_log());
      freshness.Track(engine.get());

      const std::vector<std::string> queries = Dashboard();
      for (const auto& output : engine->SearchAll(queries)) {
        ASSERT_TRUE(output.ok());
      }

      AppendZebraQuuxville(&bank->db);
      EXPECT_EQ(freshness.events_seen(), 2u);
      const uint64_t postings =
          freshness.metrics_snapshot().counter("freshness.delta_postings");
      EXPECT_GT(postings, 0u);
      if (stripes == 1 && single_stripe_postings == 0) {
        single_stripe_postings = postings;
      }
      EXPECT_EQ(postings, single_stripe_postings)
          << "stripes=" << stripes << " threads=" << threads;

      auto cold = SodaEngine::Create(&bank->db, &bank->graph,
                                     CreditSuissePatternLibrary(),
                                     Config(/*threads=*/1, /*stripes=*/1))
                      .value();
      std::vector<Result<SearchOutput>> stayed_up =
          engine->SearchAll(queries);
      for (size_t i = 0; i < queries.size(); ++i) {
        auto fresh = cold->Search(queries[i]);
        ASSERT_TRUE(stayed_up[i].ok()) << queries[i];
        ASSERT_TRUE(fresh.ok()) << queries[i];
        EXPECT_EQ(Fingerprint(*stayed_up[i]), Fingerprint(*fresh))
            << "stripes=" << stripes << " threads=" << threads << " "
            << queries[i];
      }
    }
  }
}

// Appends race dashboard batches. The 4-stripe engine with two cache
// slots per stripe also races capacity evictions and re-inserts against
// the invalidations.
TEST_F(FreshnessEngineTest, ConcurrentAppendDuringSearchAllIsConsistent) {
  for (size_t stripes : {1, 4}) {
    SCOPED_TRACE("stripes=" + std::to_string(stripes));
    auto bank = BuildMiniBank().value();
    SodaConfig config = Config(/*threads=*/2, stripes);
    if (stripes > 1) config.cache_capacity = 2;
    std::unique_ptr<SodaService> service =
        SodaEngine::Create(&bank->db, &bank->graph,
                           CreditSuissePatternLibrary(), config)
            .value();
    FreshnessManager freshness(&bank->db.change_log());
    freshness.Track(service.get());

    const std::vector<std::string> queries = Dashboard();
    std::atomic<bool> stop{false};
    std::atomic<size_t> batches{0};

    std::thread searcher([&] {
      while (!stop.load()) {
        for (const auto& output : service->SearchAll(queries)) {
          ASSERT_TRUE(output.ok());
        }
        batches.fetch_add(1);
      }
    });

    // Every row lands under the exclusive data lock, so each batch sees
    // a consistent prefix of the mutation stream.
    Table* securities = bank->db.FindTable("securities");
    ASSERT_NE(securities, nullptr);
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(securities
                      ->Append({Value::Int(1000 + i),
                                Value::Str("Racer Bond " + std::to_string(i)),
                                Value::Str("RACE" + std::to_string(i))})
                      .ok());
      if (i == 10) {
        // Let at least one batch land mid-stream.
        while (batches.load() == 0 && !stop.load()) std::this_thread::yield();
      }
    }
    stop.store(true);
    searcher.join();

    // Quiesced: the stayed-up service must now agree with a cold engine
    // over the final database, for the mutated vocabulary too.
    std::vector<std::string> final_queries = queries;
    final_queries.push_back("securities Racer Bond");
    auto cold = SodaEngine::Create(&bank->db, &bank->graph,
                                   CreditSuissePatternLibrary(),
                                   Config(/*threads=*/2, /*stripes=*/1))
                    .value();
    for (const std::string& query : final_queries) {
      auto stayed_up = service->Search(query);
      auto fresh = cold->Search(query);
      ASSERT_TRUE(stayed_up.ok()) << query;
      ASSERT_TRUE(fresh.ok()) << query;
      EXPECT_EQ(Fingerprint(*stayed_up), Fingerprint(*fresh)) << query;
    }
    EXPECT_EQ(freshness.events_seen(), 20u);
  }
}

TEST_F(FreshnessEngineTest, DisabledCacheTracksNothingAndStaysSafe) {
  auto bank = BuildMiniBank().value();
  SodaConfig config = Config(/*threads=*/1, /*stripes=*/1);
  config.cache_capacity = 0;
  auto engine = SodaEngine::Create(&bank->db, &bank->graph,
                                   CreditSuissePatternLibrary(), config)
                    .value();
  FreshnessManager freshness(&bank->db.change_log());
  freshness.Track(engine.get());

  ASSERT_TRUE(engine->Search("addresses Sara Guttinger").ok());
  EXPECT_EQ(engine->cache_stats().size, 0u);

  AppendZebraQuuxville(&bank->db);
  EXPECT_EQ(freshness.events_seen(), 2u);
  EXPECT_EQ(freshness.keys_invalidated(), 0u);
  ASSERT_TRUE(engine->Search("addresses Quuxville").ok());
}

// ClearCache is InvalidateWhere over every entry: it empties the cache
// and books cache.invalidated, at one cache stripe and at four.
TEST_F(FreshnessEngineTest, ClearCacheEvictsAndBooksEveryEntry) {
  auto bank = BuildMiniBank().value();
  auto engine = SodaEngine::Create(&bank->db, &bank->graph,
                                   CreditSuissePatternLibrary(),
                                   Config(/*threads=*/2, /*stripes=*/1))
                    .value();
  auto striped = SodaEngine::Create(&bank->db, &bank->graph,
                                    CreditSuissePatternLibrary(),
                                    Config(/*threads=*/2, /*stripes=*/4))
                     .value();
  for (SodaService* service : {engine.get(), striped.get()}) {
    SCOPED_TRACE(service == engine.get() ? "one stripe" : "four stripes");
    for (const auto& output : service->SearchAll(Dashboard())) {
      ASSERT_TRUE(output.ok()) << output.status();
    }
    const size_t cached = service->cache_stats().size;
    ASSERT_GT(cached, 0u);
    const uint64_t invalidated_before =
        service->metrics_snapshot().counter("cache.invalidated");

    service->ClearCache();
    EXPECT_EQ(service->cache_stats().size, 0u);
    EXPECT_EQ(service->metrics_snapshot().counter("cache.invalidated"),
              invalidated_before + cached);
  }
}

// Engines hold no pointer to the manager, so an engine keeps serving and
// caching after the manager that tracked it is gone (the ASan leg guards
// the negative).
TEST_F(FreshnessEngineTest, EngineOutlivesDestroyedManager) {
  auto bank = BuildMiniBank().value();
  auto engine = SodaEngine::Create(&bank->db, &bank->graph,
                                   CreditSuissePatternLibrary(),
                                   Config(/*threads=*/1, /*stripes=*/1))
                    .value();
  {
    FreshnessManager freshness(&bank->db.change_log());
    freshness.Track(engine.get());
    ASSERT_TRUE(engine->Search("addresses Sara Guttinger").ok());
  }
  ASSERT_TRUE(engine->Search("customers Zürich financial instruments").ok());
  AppendZebraQuuxville(&bank->db);
  EXPECT_EQ(engine->cache_stats().size, 2u);
}

// An answer cached before Track carries its own dependencies, so the
// first append after Track still evicts it.
TEST_F(FreshnessEngineTest, AnswerCachedBeforeTrackIsInvalidated) {
  for (size_t stripes : {1, 4}) {
    SCOPED_TRACE("stripes=" + std::to_string(stripes));
    auto bank = BuildMiniBank().value();
    std::unique_ptr<SodaService> service =
        SodaEngine::Create(&bank->db, &bank->graph,
                           CreditSuissePatternLibrary(),
                           Config(/*threads=*/2, stripes))
            .value();
    const std::string query = "customers Zürich financial instruments";
    ASSERT_TRUE(service->Search(query).ok());
    ASSERT_TRUE(service->Search(query)->from_cache);

    FreshnessManager freshness(&bank->db.change_log());
    freshness.Track(service.get());
    AppendZebraQuuxville(&bank->db);

    auto after = service->Search(query);
    ASSERT_TRUE(after.ok());
    EXPECT_FALSE(after->from_cache);
    auto cold = SodaEngine::Create(&bank->db, &bank->graph,
                                   CreditSuissePatternLibrary(),
                                   Config(/*threads=*/1, /*stripes=*/1))
                    .value();
    auto fresh = cold->Search(query);
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(Fingerprint(*after), Fingerprint(*fresh));
  }
}

// The dependency rule, pinned: over a warm cache, each append of a
// scripted sequence invalidates exactly the recorded key set. The sets
// were recorded with the rule that compared every result's FROM entries
// with EqualsFolded; the folded, sorted table list each cached answer
// now carries must reproduce them. Tables without string columns publish
// no tokens, so only the table half of the rule can fire for them.
TEST_F(FreshnessEngineTest, ScriptedAppendsInvalidateTheRecordedKeys) {
  auto bank = BuildMiniBank().value();
  auto engine = SodaEngine::Create(&bank->db, &bank->graph,
                                   CreditSuissePatternLibrary(),
                                   Config(/*threads=*/2, /*stripes=*/1))
                    .value();
  FreshnessManager freshness(&bank->db.change_log());
  freshness.Track(engine.get());

  const std::string zurich = "customers Zürich financial instruments";
  const std::string sara = "addresses Sara Guttinger";
  const std::string family = "private customers family name";
  const std::string quux = "addresses Quuxville";
  const std::string corporate = "corporate customers";
  const std::string money = "money transactions CHF";
  const std::string trading =
      "trading volume transaction date between date(2010-01-01) "
      "date(2011-12-31)";
  const std::vector<std::string> queries = {
      zurich,       sara,    "sum(investments) group by (currency)",
      family,       trading, quux,
      corporate,    money,   "securities",
      "Geneva",     "fund",  "wealthy customers",
  };
  // Lists the cached keys without evicting any.
  auto cached_keys = [&] {
    std::set<std::string> keys;
    engine->InvalidateWhere([&](const std::string& key, const auto&) {
      keys.insert(key);
      return false;
    });
    return keys;
  };
  const Date day = Date::FromYmd(2012, 3, 4);
  struct Append {
    std::string table;
    std::vector<Value> row;
    std::set<std::string> invalidated;
  };
  const std::vector<Append> script = {
      {"individuals",
       {Value::Int(9001), Value::Str("Zebra"), Value::Str("Quuxville"),
        Value::Int(90000), Value::DateV(day)},
       {quux, sara, zurich, family, "wealthy customers"}},
      {"addresses",
       {Value::Int(9001), Value::Int(9001), Value::Str("Teststrasse 1"),
        Value::Str("Zürich"), Value::Str("CH")},
       {"Geneva", quux, sara, zurich}},
      {"organizations",
       {Value::Int(9002), Value::Str("Geneva Holdings")},
       {"Geneva", corporate}},
      {"money_transactions",
       {Value::Int(9003), Value::Real(12.5), Value::Str("CHF"),
        Value::DateV(day)},
       {money, trading}},
      {"securities",
       {Value::Int(9004), Value::Str("Guttinger Bond"),
        Value::Str("CH0000000001")},
       {sara, zurich, family, "securities"}},
      {"fin_instruments",
       {Value::Int(9005), Value::Str("Basel fund"), Value::Str("fund")},
       {sara, zurich, "fund", family}},
      {"parties",
       {Value::Int(9006), Value::Str("person")},
       {"Geneva", quux, sara, corporate, zurich, family}},
      {"fi_contains_sec",
       {Value::Int(1), Value::Int(1)},
       {sara, zurich, family}},
      {"transactions",
       {Value::Int(9007), Value::Int(1), Value::Int(2)},
       {sara, zurich, money, family, trading}},
  };
  for (const Append& append : script) {
    SCOPED_TRACE(append.table);
    for (const std::string& query : queries) {
      ASSERT_TRUE(engine->Search(query).ok()) << query;
    }
    const std::set<std::string> before = cached_keys();
    ASSERT_EQ(before.size(), queries.size());
    Table* table = bank->db.FindTable(append.table);
    ASSERT_NE(table, nullptr);
    ASSERT_TRUE(table->Append(append.row).ok());
    const std::set<std::string> after = cached_keys();
    std::set<std::string> invalidated;
    for (const std::string& key : before) {
      if (after.count(key) == 0) invalidated.insert(key);
    }
    EXPECT_EQ(invalidated, append.invalidated);
  }
}

TEST_F(FreshnessEngineTest, FreshnessCountersSurfaceThroughSink) {
  auto bank = BuildMiniBank().value();
  auto engine = SodaEngine::Create(&bank->db, &bank->graph,
                                   CreditSuissePatternLibrary(),
                                   Config(/*threads=*/1, /*stripes=*/1))
                    .value();
  FreshnessManager freshness(&bank->db.change_log());
  freshness.Track(engine.get());

  ASSERT_TRUE(engine->Search("customers Zürich financial instruments").ok());
  AppendZebraQuuxville(&bank->db);

  MetricsSnapshot snapshot = freshness.metrics_snapshot();
  EXPECT_EQ(snapshot.counter("freshness.events"), 2u);
  EXPECT_GT(snapshot.counter("freshness.delta_postings"), 0u);
  EXPECT_GT(snapshot.counter("freshness.keys_invalidated"), 0u);
}

}  // namespace
}  // namespace soda
