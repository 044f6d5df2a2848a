// Tests for the interned-token index core: the TokenDict contract, a
// randomized equivalence sweep of the packed phrase matcher against a
// naive string-compare reference, ApplyDelta equivalence with a rebuild
// when the index shares the event's dictionary, and the stripe sweep —
// an engine's index shares the database's ONE dictionary instance while
// answering byte-identically at any cache stripes × threads.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "core/soda.h"
#include "datasets/minibank.h"
#include "pattern/library.h"
#include "storage/change_log.h"
#include "storage/table.h"
#include "text/inverted_index.h"
#include "text/token_dict.h"
#include "text/tokenizer.h"
#include "minibank_queries.h"

namespace soda {
namespace {

// ---------------------------------------------------------------------------
// TokenDict contract
// ---------------------------------------------------------------------------

TEST(TokenDictTest, InternIsIdempotentAndDense) {
  TokenDict dict;
  TokenId credit = dict.Intern("credit");
  TokenId suisse = dict.Intern("suisse");
  EXPECT_EQ(credit, 0u);
  EXPECT_EQ(suisse, 1u);
  EXPECT_EQ(dict.Intern("credit"), credit);
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.Spelling(credit), "credit");
  EXPECT_EQ(dict.Spelling(suisse), "suisse");
}

TEST(TokenDictTest, FindNeverInterns) {
  TokenDict dict;
  EXPECT_EQ(dict.Find("zurich"), kNoToken);
  EXPECT_EQ(dict.size(), 0u);
  dict.Intern("zurich");
  EXPECT_EQ(dict.Find("zurich"), 0u);
}

TEST(TokenDictTest, InternTextFoldsLikeTokenize) {
  TokenDict dict;
  std::vector<TokenId> ids;
  dict.InternText("Zürich Insurance, AG!", &ids);
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(dict.Spelling(ids[0]), "zurich");
  EXPECT_EQ(dict.Spelling(ids[1]), "insurance");
  EXPECT_EQ(dict.Spelling(ids[2]), "ag");
}

TEST(TokenDictTest, FindTextFailsOnUnknownToken) {
  TokenDict dict;
  std::vector<TokenId> seed;
  dict.InternText("credit suisse", &seed);
  std::vector<TokenId> ids;
  EXPECT_TRUE(dict.FindText("Credit SUISSE", &ids));
  EXPECT_EQ(ids.size(), 2u);
  ids.clear();
  EXPECT_FALSE(dict.FindText("credit lyonnais", &ids));
}

TEST(TokenDictTest, SpellingsSurviveGrowth) {
  TokenDict dict;
  const std::string& first = dict.Spelling(dict.Intern("anchor"));
  for (int i = 0; i < 5000; ++i) {
    dict.Intern("filler" + std::to_string(i));
  }
  // Deque-backed storage: the earliest spelling's address is stable and
  // the id map still resolves it.
  EXPECT_EQ(first, "anchor");
  EXPECT_EQ(dict.Find("anchor"), 0u);
  EXPECT_GT(dict.ApproxMemoryBytes(), 5000u * sizeof(TokenId));
}

// ---------------------------------------------------------------------------
// Randomized property sweep: packed matcher ≡ naive string reference
// ---------------------------------------------------------------------------

// The reference model: distinct values in first-occurrence order with
// row counts, phrase matching by naive string-compare over the token
// vectors — exactly the pre-interning index semantics.
struct ReferenceCorpus {
  struct Entry {
    std::string value;
    std::vector<std::string> tokens;
    int64_t row_count = 0;
  };
  std::vector<Entry> entries;  // first-occurrence order == order_key order

  void Add(const std::string& value) {
    for (Entry& entry : entries) {
      if (entry.value == value) {
        ++entry.row_count;
        return;
      }
    }
    Entry entry;
    entry.value = value;
    entry.tokens = Tokenize(value);
    entry.row_count = 1;
    if (!entry.tokens.empty()) entries.push_back(std::move(entry));
  }

  std::vector<const Entry*> Matches(const std::string& phrase) const {
    std::vector<std::string> query = Tokenize(phrase);
    std::vector<const Entry*> out;
    if (query.empty()) return out;
    for (const Entry& entry : entries) {
      if (entry.tokens.size() < query.size()) continue;
      for (size_t start = 0;
           start + query.size() <= entry.tokens.size(); ++start) {
        bool all = true;
        for (size_t k = 0; k < query.size(); ++k) {
          if (entry.tokens[start + k] != query[k]) {
            all = false;
            break;
          }
        }
        if (all) {
          out.push_back(&entry);
          break;
        }
      }
    }
    return out;
  }
};

TEST(PackedMatcherPropertyTest, MatchesNaiveReferenceOnRandomCorpus) {
  const std::vector<std::string> words = {
      "alpha", "beta",  "gamma",  "delta",  "credit", "suisse",
      "bond",  "fund",  "zürich", "geneva", "2011",   "gold"};
  Rng rng(0xC0FFEE);

  Database db;
  Table* t = db.CreateTable("corpus", {{"v", ValueType::kString}}).value();
  ReferenceCorpus reference;
  for (int i = 0; i < 400; ++i) {
    size_t len = 1 + rng.Below(5);
    std::string value;
    for (size_t k = 0; k < len; ++k) {
      if (k > 0) value += " ";
      value += words[rng.Below(words.size())];
    }
    ASSERT_TRUE(t->Append({Value::Str(value)}).ok());
    reference.Add(value);
  }
  InvertedIndex index;
  index.Build(db);
  ASSERT_EQ(index.token_dict(), db.token_dict());

  for (int probe = 0; probe < 500; ++probe) {
    size_t len = 1 + rng.Below(4);
    std::string phrase;
    for (size_t k = 0; k < len; ++k) {
      if (k > 0) phrase += " ";
      phrase += words[rng.Below(words.size())];
    }
    auto expected = reference.Matches(phrase);
    auto actual = index.LookupPhrase(phrase);
    ASSERT_EQ(actual.size(), expected.size()) << phrase;
    for (size_t i = 0; i < actual.size(); ++i) {
      EXPECT_EQ(actual[i].table, "corpus") << phrase;
      EXPECT_EQ(actual[i].column, "v") << phrase;
      // Order-sensitive: the packed matcher must emit values in the same
      // first-occurrence order the string-scan reference uses.
      EXPECT_EQ(actual[i].value, expected[i]->value) << phrase;
      EXPECT_EQ(actual[i].row_count, expected[i]->row_count) << phrase;
    }
    EXPECT_EQ(index.CountPhrase(phrase), expected.size()) << phrase;
  }

  // Tokens the corpus never saw resolve to "no match", not a crash.
  EXPECT_TRUE(index.LookupPhrase("unseen alpha").empty());
  EXPECT_FALSE(index.ContainsToken("unseen"));
  EXPECT_TRUE(index.ContainsToken("zurich"));
}

// ---------------------------------------------------------------------------
// ApplyDelta equivalence with a rebuild
// ---------------------------------------------------------------------------

class IndexingListener : public ChangeListener {
 public:
  explicit IndexingListener(InvertedIndex* index) : index_(index) {}
  void OnChange(const ChangeEvent& event) override {
    index_->ApplyDelta(event);
  }

 private:
  InvertedIndex* index_;
};

// Probes both indexes with every word and every stored value and demands
// identical answers, ordering included.
void ExpectIndexesEquivalent(const InvertedIndex& a, const InvertedIndex& b,
                             const std::vector<std::string>& phrases) {
  EXPECT_EQ(a.num_values(), b.num_values());
  EXPECT_EQ(a.num_records(), b.num_records());
  EXPECT_EQ(a.num_tokens(), b.num_tokens());
  for (const std::string& phrase : phrases) {
    auto pa = a.LookupPhrase(phrase);
    auto pb = b.LookupPhrase(phrase);
    ASSERT_EQ(pa.size(), pb.size()) << phrase;
    for (size_t i = 0; i < pa.size(); ++i) {
      EXPECT_EQ(pa[i].table, pb[i].table) << phrase;
      EXPECT_EQ(pa[i].column, pb[i].column) << phrase;
      EXPECT_EQ(pa[i].value, pb[i].value) << phrase;
      EXPECT_EQ(pa[i].row_count, pb[i].row_count) << phrase;
    }
    EXPECT_EQ(a.CountPhrase(phrase), b.CountPhrase(phrase)) << phrase;
  }
}

TEST(TokenDictDeltaTest, SharedDictionaryEventsApplyVerbatim) {
  Database db;
  Table* t = db.CreateTable("t", {{"v", ValueType::kString}}).value();
  ASSERT_TRUE(t->Append({Value::Str("seed value")}).ok());

  // Built over the database BEFORE the mutations: adopts the shared
  // dictionary, so the events' ids are already its own.
  InvertedIndex live;
  live.Build(db);
  ASSERT_EQ(live.token_dict(), db.token_dict());
  IndexingListener listener(&live);
  db.change_log().Subscribe(&listener);
  ASSERT_TRUE(t->Append({Value::Str("appended seed")}).ok());
  ASSERT_TRUE(t->Append({Value::Str("seed value")}).ok());  // row_count bump
  db.change_log().Unsubscribe(&listener);

  InvertedIndex rebuilt;
  rebuilt.Build(db);
  ExpectIndexesEquivalent(live, rebuilt,
                          {"seed", "value", "appended", "seed value",
                           "appended seed", "value seed"});
}

// ---------------------------------------------------------------------------
// Stripe sweep: one dictionary instance, identical answers
// ---------------------------------------------------------------------------

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

TEST(SharedDictStripeSweepTest, IndexSharesOneDictionaryByteIdentically) {
  const std::vector<std::string>& queries = MiniBankQueries();

  // Baseline: serial 1×1.
  std::vector<std::string> baseline;
  {
    auto bank = std::move(BuildMiniBank()).value();
    SodaConfig config;
    config.num_shards = 1;
    config.num_threads = 1;
    auto engine = std::move(SodaEngine::Create(&bank->db, &bank->graph,
                                               CreditSuissePatternLibrary(),
                                               config))
                      .value();
    for (const std::string& query : queries) {
      auto output = engine->Search(query);
      ASSERT_TRUE(output.ok()) << query;
      baseline.push_back(Fingerprint(*output));
    }
  }

  for (size_t stripes : {1u, 4u}) {
    for (size_t threads : {1u, 4u}) {
      auto bank = std::move(BuildMiniBank()).value();
      SodaConfig config;
      config.num_shards = stripes;
      config.num_threads = threads;
      auto engine = std::move(SodaEngine::Create(&bank->db, &bank->graph,
                                                 CreditSuissePatternLibrary(),
                                                 config))
                        .value();
      // One dictionary instance: the engine's index AND the database
      // point at the same TokenDict.
      EXPECT_EQ(engine->soda().inverted_index().token_dict().get(),
                bank->db.token_dict().get())
          << stripes << "x" << threads;
      for (size_t q = 0; q < queries.size(); ++q) {
        auto output = engine->Search(queries[q]);
        ASSERT_TRUE(output.ok()) << queries[q];
        EXPECT_EQ(Fingerprint(*output), baseline[q])
            << queries[q] << " at " << stripes << "x" << threads;
      }
    }
  }
}

}  // namespace
}  // namespace soda
