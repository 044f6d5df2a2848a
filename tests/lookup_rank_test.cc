// Unit tests for classification, the lookup step, and ranking — on the
// mini-bank (shared across the suite to amortize setup), plus
// segmentation over the enterprise warehouse.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>
#include <utility>

#include "common/metrics.h"
#include "common/strings.h"
#include "core/classification.h"
#include "core/engine.h"
#include "core/lookup.h"
#include "core/soda.h"
#include "datasets/enterprise.h"
#include "datasets/minibank.h"
#include "eval/workload.h"
#include "pattern/library.h"
#include "text/tokenizer.h"

namespace soda {
namespace {

class LookupRankTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    bank_ = BuildMiniBank().value().release();
    soda_ = Soda::Create(&bank_->db, &bank_->graph, CreditSuissePatternLibrary(),
                         SodaConfig{})
                .value()
                .release();
  }
  static void TearDownTestSuite() {
    delete soda_;
    delete bank_;
  }

  static LookupOutput Lookup(const std::string& query) {
    SodaConfig config;
    LookupStep step(&soda_->classification(), &config_);
    auto parsed = ParseInputQuery(query);
    EXPECT_TRUE(parsed.ok());
    auto output = step.Run(*parsed);
    EXPECT_TRUE(output.ok()) << output.status();
    return output.ok() ? *output : LookupOutput{};
  }

  static MiniBank* bank_;
  static Soda* soda_;
  static SodaConfig config_;
};

MiniBank* LookupRankTest::bank_ = nullptr;
Soda* LookupRankTest::soda_ = nullptr;
SodaConfig LookupRankTest::config_;

// ---------------------------------------------------------------------------
// classification
// ---------------------------------------------------------------------------

TEST_F(LookupRankTest, ClassificationFindsAllMetadataKinds) {
  const ClassificationIndex& index = soda_->classification();
  // Ontology concept.
  auto customers = index.Lookup("customers");
  ASSERT_EQ(customers.size(), 1u);
  EXPECT_EQ(customers[0].layer, MetadataLayer::kDomainOntology);
  // Conceptual + logical entity.
  EXPECT_EQ(index.Lookup("financial instruments").size(), 2u);
  // Physical table name.
  bool physical_found = false;
  for (const auto& ep : index.Lookup("individuals")) {
    physical_found |= ep.layer == MetadataLayer::kPhysicalSchema;
  }
  EXPECT_TRUE(physical_found);
  // Metadata filter label.
  EXPECT_FALSE(index.Lookup("wealthy customers").empty());
  // DBpedia term.
  auto client = index.Lookup("client");
  ASSERT_FALSE(client.empty());
  EXPECT_EQ(client[0].layer, MetadataLayer::kDbpedia);
  // Base data.
  auto zurich = index.Lookup("Zurich");
  ASSERT_EQ(zurich.size(), 1u);
  EXPECT_EQ(zurich[0].kind, EntryPoint::Kind::kBaseData);
  EXPECT_EQ(zurich[0].value(), "Zürich");
}

TEST_F(LookupRankTest, MetadataBeforeBaseData) {
  // When a phrase matches both, metadata candidates come first.
  auto results = soda_->classification().Lookup("individuals");
  ASSERT_GE(results.size(), 1u);
  EXPECT_EQ(results[0].kind, EntryPoint::Kind::kMetadataNode);
}

TEST_F(LookupRankTest, SegmentationPrefersLongestCombination) {
  std::vector<std::string> ignored;
  auto phrases = soda_->classification().SegmentKeywords(
      {"financial", "instruments", "Zurich"}, &ignored);
  ASSERT_EQ(phrases.size(), 2u);
  EXPECT_EQ(phrases[0].phrase, "financial instruments");
  EXPECT_EQ(phrases[0].candidates.size(), 2u);
  EXPECT_EQ(phrases[1].phrase, "Zurich");  // original spelling preserved
  EXPECT_TRUE(ignored.empty());
}

TEST_F(LookupRankTest, UnknownWordsIgnored) {
  std::vector<std::string> ignored;
  auto phrases = soda_->classification().SegmentKeywords(
      {"frobnicate", "customers"}, &ignored);
  ASSERT_EQ(phrases.size(), 1u);
  EXPECT_EQ(phrases[0].phrase, "customers");
  ASSERT_EQ(ignored.size(), 1u);
  EXPECT_EQ(ignored[0], "frobnicate");
}

// Segmentation against a reference built from the count probe: the
// longest combination with a non-zero candidate count wins, words no
// combination starts with are ignored, and every accepted phrase carries
// exactly Lookup(phrase), in order.
void ExpectSegmentationMatchesReference(const ClassificationIndex& index,
                                        const std::vector<std::string>& words) {
  std::vector<std::string> expected_phrases;
  std::vector<std::string> expected_ignored;
  for (size_t i = 0; i < words.size();) {
    size_t len = words.size() - i;
    std::string phrase;
    for (; len >= 1; --len) {
      phrase = Join(std::vector<std::string>(words.begin() + i,
                                             words.begin() + i + len),
                    " ");
      if (index.CountMatches(phrase) > 0) break;
    }
    if (len == 0) {
      expected_ignored.push_back(words[i]);
      ++i;
    } else {
      expected_phrases.push_back(phrase);
      i += len;
    }
  }

  const std::string run = Join(words, " ");
  std::vector<std::string> ignored;
  std::vector<LookupTerm> phrases = index.SegmentKeywords(words, &ignored);
  EXPECT_EQ(ignored, expected_ignored) << run;
  ASSERT_EQ(phrases.size(), expected_phrases.size()) << run;
  for (size_t p = 0; p < phrases.size(); ++p) {
    EXPECT_EQ(phrases[p].phrase, expected_phrases[p]) << run;
    std::vector<EntryPoint> lookup = index.Lookup(phrases[p].phrase);
    ASSERT_EQ(phrases[p].candidates.size(), lookup.size())
        << phrases[p].phrase;
    for (size_t c = 0; c < lookup.size(); ++c) {
      const EntryPoint& got = phrases[p].candidates[c];
      EXPECT_EQ(EntryPointKey(got), EntryPointKey(lookup[c]))
          << phrases[p].phrase << " #" << c;
      EXPECT_EQ(got.label, lookup[c].label) << phrases[p].phrase;
      EXPECT_EQ(got.row_count, lookup[c].row_count) << phrases[p].phrase;
    }
  }
}

// Every keyword run of the Table 2 queries, as the parser splits them,
// plus each query's raw tokens (the baselines segment those).
std::vector<std::vector<std::string>> Table2KeywordRuns() {
  std::vector<std::vector<std::string>> runs;
  for (const BenchmarkQuery& query : EnterpriseWorkload()) {
    auto parsed = ParseInputQuery(query.keywords);
    EXPECT_TRUE(parsed.ok()) << query.id;
    if (!parsed.ok()) continue;
    for (const InputElement& element : parsed->elements) {
      if (element.kind == InputElement::Kind::kKeywords) {
        runs.push_back(element.words);
      }
    }
    runs.push_back(Tokenize(query.keywords));
  }
  return runs;
}

TEST_F(LookupRankTest, SegmentedPhrasesCarryTheirLookupOnMiniBank) {
  std::vector<std::vector<std::string>> runs = Table2KeywordRuns();
  runs.push_back({"financial", "instruments", "Zurich", "and", "customers"});
  for (const auto& words : runs) {
    ExpectSegmentationMatchesReference(soda_->classification(), words);
  }
}

TEST(SegmentationTest, SegmentedPhrasesCarryTheirLookupOnEnterprise) {
  auto warehouse = BuildEnterpriseWarehouse();
  ASSERT_TRUE(warehouse.ok()) << warehouse.status();
  SodaConfig config;
  config.execute_snippets = false;
  auto soda = Soda::Create(&(*warehouse)->db, &(*warehouse)->graph,
                           CreditSuissePatternLibrary(), config);
  ASSERT_TRUE(soda.ok()) << soda.status();
  // The Keymantic baseline's metadata-only index: no base data.
  ClassificationIndex metadata_only;
  metadata_only.Build((*warehouse)->graph, nullptr);
  for (const auto& words : Table2KeywordRuns()) {
    ExpectSegmentationMatchesReference((*soda)->classification(), words);
    ExpectSegmentationMatchesReference(metadata_only, words);
  }
}

// ---------------------------------------------------------------------------
// lookup step
// ---------------------------------------------------------------------------

TEST_F(LookupRankTest, CombinatorialProduct) {
  LookupOutput out = Lookup("customers Zürich financial instruments");
  ASSERT_EQ(out.terms.size(), 3u);
  EXPECT_EQ(out.complexity, 2u);  // 1 x 1 x 2 (paper Figure 5)
  EXPECT_EQ(RankAndTopN(out, SodaConfig{}).size(), 2u);
}

TEST_F(LookupRankTest, OperatorBindsToPrecedingTerm) {
  LookupOutput out = Lookup("salary >= 500000");
  ASSERT_EQ(out.operators.size(), 1u);
  EXPECT_EQ(out.operators[0].op, CompareOp::kGe);
  EXPECT_EQ(out.operators[0].literal, Value::Int(500000));
  EXPECT_EQ(out.terms[out.operators[0].term_index].phrase, "salary");
  EXPECT_TRUE(out.terms[out.operators[0].term_index].has_operator);
}

// A word operand is consumed as the literal whatever its case: the term
// segmentation made of it is dropped for `Sara` as for `sara`, so both
// spellings give the same terms and the same SQL (the literal keeps the
// typed spelling).
TEST_F(LookupRankTest, OperandWordIsDroppedWhateverItsCase) {
  for (const auto& [typed, lower] :
       {std::pair<std::string, std::string>{"given name = Sara",
                                            "given name = sara"},
        {"city = Zurich", "city = zurich"}}) {
    LookupOutput a = Lookup(typed);
    LookupOutput b = Lookup(lower);
    ASSERT_EQ(a.terms.size(), b.terms.size()) << typed;
    for (size_t t = 0; t < a.terms.size(); ++t) {
      EXPECT_EQ(a.terms[t].phrase, b.terms[t].phrase) << typed;
    }
    ASSERT_EQ(a.operators.size(), 1u) << typed;
    ASSERT_EQ(b.operators.size(), 1u) << lower;
    EXPECT_EQ(a.operators[0].term_index, b.operators[0].term_index) << typed;

    auto typed_out = soda_->Search(typed);
    auto lower_out = soda_->Search(lower);
    ASSERT_TRUE(typed_out.ok() && lower_out.ok()) << typed;
    ASSERT_FALSE(typed_out->results.empty()) << typed;
    ASSERT_EQ(typed_out->results.size(), lower_out->results.size()) << typed;
    for (size_t r = 0; r < typed_out->results.size(); ++r) {
      const SodaResult& x = typed_out->results[r];
      const SodaResult& y = lower_out->results[r];
      EXPECT_TRUE(EqualsFolded(x.sql, y.sql)) << x.sql << "\nvs\n" << y.sql;
      EXPECT_EQ(x.explanation, y.explanation) << typed;
    }
  }
}

TEST_F(LookupRankTest, BetweenBindsTwoLiterals) {
  LookupOutput out = Lookup(
      "transaction date between date(2010-01-01) date(2010-12-31)");
  ASSERT_EQ(out.operators.size(), 1u);
  EXPECT_TRUE(out.operators[0].is_between);
  EXPECT_EQ(out.operators[0].literal.type(), ValueType::kDate);
  EXPECT_EQ(out.operators[0].literal_high.type(), ValueType::kDate);
}

TEST_F(LookupRankTest, ComparisonWithoutLhsFails) {
  SodaConfig config;
  LookupStep step(&soda_->classification(), &config);
  auto parsed = ParseInputQuery(">= 100");
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(step.Run(*parsed).ok());
}

// ---------------------------------------------------------------------------
// ranking
// ---------------------------------------------------------------------------

TEST_F(LookupRankTest, LayerWeightsOrdered) {
  EXPECT_GT(LayerWeight(MetadataLayer::kDomainOntology),
            LayerWeight(MetadataLayer::kConceptualSchema));
  EXPECT_GT(LayerWeight(MetadataLayer::kConceptualSchema),
            LayerWeight(MetadataLayer::kLogicalSchema));
  EXPECT_GT(LayerWeight(MetadataLayer::kBaseData),
            LayerWeight(MetadataLayer::kDbpedia));
}

TEST_F(LookupRankTest, RankingPrefersOntologyOverDbpedia) {
  // "customer" matches only DBpedia; "customers" only the ontology. Build
  // an artificial lookup with both candidates for one term and check the
  // ordering of interpretations.
  LookupOutput out = Lookup("financial instruments");
  ASSERT_EQ(out.terms.size(), 1u);
  ASSERT_EQ(out.terms[0].candidates.size(), 2u);
  SodaConfig config;
  auto ranked = RankAndTopN(out, config);
  ASSERT_EQ(ranked.size(), 2u);
  // Conceptual (0.85) must come before logical (0.80).
  const EntryPoint& first =
      out.terms[0].candidates[ranked[0].choice[0]];
  EXPECT_EQ(first.layer, MetadataLayer::kConceptualSchema);
  EXPECT_GT(ranked[0].score, ranked[1].score);
}

TEST_F(LookupRankTest, TopNCapsInterpretations) {
  LookupOutput out = Lookup("Sara");  // several base-data homes
  SodaConfig config;
  config.top_n = 1;
  auto ranked = RankAndTopN(out, config);
  EXPECT_EQ(ranked.size(), 1u);
}

// The reference ranking: materialize the first max_interpretations
// choice vectors of the product (first term fastest), drop those a mask
// rejects, stable-sort by descending score and cut at top_n.
std::vector<Interpretation> RankByFullSort(
    const LookupOutput& lookup, const SodaConfig& config,
    const std::vector<std::vector<bool>>* masks) {
  std::vector<Interpretation> all;
  std::vector<size_t> cursor(lookup.terms.size(), 0);
  for (size_t n = 0; n < config.max_interpretations; ++n) {
    Interpretation interpretation;
    interpretation.choice = cursor;
    double total = 0.0;
    size_t counted = 0;
    bool admitted = true;
    for (size_t t = 0; t < lookup.terms.size(); ++t) {
      if (lookup.terms[t].candidates.empty()) continue;
      if (masks != nullptr && !(*masks)[t].empty() &&
          !(*masks)[t][cursor[t]]) {
        admitted = false;
      }
      total += LayerWeight(lookup.terms[t].candidates[cursor[t]].layer);
      ++counted;
    }
    interpretation.score = counted == 0 ? 0.0 : total / counted;
    if (admitted) all.push_back(interpretation);
    size_t k = 0;
    for (; k < cursor.size(); ++k) {
      if (lookup.terms[k].candidates.size() <= 1) continue;
      if (++cursor[k] < lookup.terms[k].candidates.size()) break;
      cursor[k] = 0;
    }
    if (k == cursor.size()) break;
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const Interpretation& a, const Interpretation& b) {
                     return a.score > b.score;
                   });
  if (all.size() > config.top_n) all.resize(config.top_n);
  return all;
}

// Ranking keeps the top N while it enumerates; the kept choices, scores
// and order equal the full sort's, at every cut and cap, with and
// without a candidate mask (a session binding).
TEST_F(LookupRankTest, TopNDuringEnumerationMatchesFullSort) {
  std::vector<std::string> queries = {
      "Sara", "private customers family name", "Sara Guttinger customers",
      "customers Zürich financial instruments", "names addresses Sara"};
  for (const BenchmarkQuery& query : EnterpriseWorkload()) {
    queries.push_back(query.keywords);
  }
  size_t products_over_one = 0;
  for (const std::string& query : queries) {
    auto parsed = ParseInputQuery(query);
    if (!parsed.ok()) continue;
    SodaConfig lookup_config;
    LookupStep step(&soda_->classification(), &lookup_config);
    auto out = step.Run(*parsed);
    if (!out.ok()) continue;
    // Mask: the first term with several candidates allows every other one.
    std::vector<std::vector<bool>> masks(out->terms.size());
    for (size_t t = 0; t < out->terms.size(); ++t) {
      if (out->terms[t].candidates.size() < 2) continue;
      for (size_t c = 0; c < out->terms[t].candidates.size(); ++c) {
        masks[t].push_back(c % 2 == 0);
      }
      ++products_over_one;
      break;
    }
    for (size_t top_n : {size_t{0}, size_t{1}, size_t{3}, size_t{10},
                         size_t{1000}}) {
      for (size_t cap : {size_t{1}, size_t{5}, size_t{1000}}) {
        SodaConfig config;
        config.top_n = top_n;
        config.max_interpretations = cap;
        for (const auto* mask : {static_cast<decltype(&masks)>(nullptr),
                                 &masks}) {
          std::vector<Interpretation> got = RankAndTopN(*out, config, mask);
          std::vector<Interpretation> want = RankByFullSort(*out, config, mask);
          ASSERT_EQ(got.size(), want.size()) << query;
          for (size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].choice, want[i].choice) << query << " #" << i;
            EXPECT_EQ(got[i].score, want[i].score) << query << " #" << i;
          }
        }
      }
    }
  }
  EXPECT_GT(products_over_one, 0u);
}

// The max_interpretations bound: a product larger than the cap stops at
// exactly the cap and books lookup.interpretations_capped once; a product
// under the cap books nothing. Complexity still reports the full product.
TEST_F(LookupRankTest, InterpretationCapStopsTheProductAndIsCounted) {
  const std::string capped_query = "private customers family name";
  SodaConfig config;
  config.max_interpretations = 2;
  LookupStep step(&soda_->classification(), &config);

  InMemoryMetricsSink sink;
  auto capped = step.Run(*ParseInputQuery(capped_query), &sink);
  ASSERT_TRUE(capped.ok()) << capped.status();
  ASSERT_GT(capped->complexity, 2u);
  EXPECT_EQ(RankAndTopN(*capped, config).size(), 2u);
  EXPECT_EQ(sink.Snapshot().counter("lookup.interpretations_capped"), 1u);

  InMemoryMetricsSink uncapped_sink;
  auto uncapped = step.Run(*ParseInputQuery("customers"), &uncapped_sink);
  ASSERT_TRUE(uncapped.ok()) << uncapped.status();
  EXPECT_EQ(RankAndTopN(*uncapped, config).size(), 1u);
  EXPECT_EQ(uncapped_sink.Snapshot().counter("lookup.interpretations_capped"),
            0u);

  // Through the engine: pre-registered at zero, booked by the lookup
  // stage of a capped query.
  config.num_threads = 1;
  auto engine = SodaEngine::Create(&bank_->db, &bank_->graph,
                                   CreditSuissePatternLibrary(), config);
  ASSERT_TRUE(engine.ok()) << engine.status();
  MetricsSnapshot before = (*engine)->metrics_snapshot();
  ASSERT_EQ(before.counters.count("lookup.interpretations_capped"), 1u);
  EXPECT_EQ(before.counter("lookup.interpretations_capped"), 0u);
  ASSERT_TRUE((*engine)->Search("customers").ok());
  EXPECT_EQ((*engine)->metrics_snapshot().counter(
                "lookup.interpretations_capped"),
            0u);
  ASSERT_TRUE((*engine)->Search(capped_query).ok());
  EXPECT_EQ((*engine)->metrics_snapshot().counter(
                "lookup.interpretations_capped"),
            1u);
}

// ---------------------------------------------------------------------------
// end-to-end step timing sanity
// ---------------------------------------------------------------------------

TEST_F(LookupRankTest, SearchReportsTimings) {
  auto output = soda_->Search("customers Zürich financial instruments");
  ASSERT_TRUE(output.ok());
  EXPECT_GE(output->timings.soda_total_ms(), 0.0);
  EXPECT_GE(output->timings.lookup_ms, 0.0);
}

}  // namespace
}  // namespace soda
