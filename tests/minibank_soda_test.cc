// End-to-end tests of the SODA pipeline on the paper's running example
// (mini-bank, Sections 2 and 4.4).

#include <gtest/gtest.h>

#include <memory>

#include "core/soda.h"
#include "datasets/minibank.h"
#include "pattern/library.h"

namespace soda {
namespace {

class MiniBankSodaTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto built = BuildMiniBank();
    ASSERT_TRUE(built.ok()) << built.status();
    bank_ = built.value().release();
    soda_ = Soda::Create(&bank_->db, &bank_->graph, CreditSuissePatternLibrary(),
                         SodaConfig{})
                .value()
                .release();
  }
  static void TearDownTestSuite() {
    delete soda_;
    delete bank_;
    soda_ = nullptr;
    bank_ = nullptr;
  }

  static MiniBank* bank_;
  static Soda* soda_;
};

MiniBank* MiniBankSodaTest::bank_ = nullptr;
Soda* MiniBankSodaTest::soda_ = nullptr;

// A Soda always searches a database: building one without is an error,
// not a metadata-only mode.
TEST_F(MiniBankSodaTest, CreateRequiresDatabase) {
  auto soda = Soda::Create(nullptr, &bank_->graph,
                           CreditSuissePatternLibrary(), SodaConfig{});
  ASSERT_FALSE(soda.ok());
  EXPECT_EQ(soda.status().code(), StatusCode::kInvalidArgument);
}

// Paper Query 1: "Sara Guttinger" should generate a parties/individuals
// join filtered on first and last name.
TEST_F(MiniBankSodaTest, SaraGuttingerKeywordQuery) {
  auto output = soda_->Search("Sara Guttinger");
  ASSERT_TRUE(output.ok()) << output.status();
  ASSERT_FALSE(output->results.empty());

  const SodaResult& best = output->results[0];
  EXPECT_NE(best.sql.find("individuals"), std::string::npos) << best.sql;
  EXPECT_NE(best.sql.find("parties"), std::string::npos) << best.sql;
  EXPECT_NE(best.sql.find("'Sara'"), std::string::npos) << best.sql;
  EXPECT_NE(best.sql.find("'Guttinger'"), std::string::npos) << best.sql;

  ASSERT_TRUE(best.executed) << best.execution_status;
  ASSERT_EQ(best.snippet.num_rows(), 1u);  // exactly one Sara Guttinger
}

// Figure 5: "customers Zürich financial instruments" has complexity
// 1 x 1 x 2 = 2 (ontology, base data, conceptual+logical schema).
TEST_F(MiniBankSodaTest, QueryClassificationComplexity) {
  auto output = soda_->Search("customers Zürich financial instruments");
  ASSERT_TRUE(output.ok()) << output.status();
  EXPECT_EQ(output->complexity, 2u);
}

// The diacritic-folded query spelling ("Zurich") matches the stored value
// "Zürich".
TEST_F(MiniBankSodaTest, DiacriticInsensitiveLookup) {
  auto output = soda_->Search("customers Zurich financial instruments");
  ASSERT_TRUE(output.ok()) << output.status();
  EXPECT_EQ(output->complexity, 2u);
  ASSERT_FALSE(output->results.empty());
  EXPECT_NE(output->results[0].sql.find("Zürich"), std::string::npos)
      << output->results[0].sql;
}

// Paper Query 2: comparison operators and date().
TEST_F(MiniBankSodaTest, ComparisonOperators) {
  auto output = soda_->Search("salary >= 500000");
  ASSERT_TRUE(output.ok()) << output.status();
  ASSERT_FALSE(output->results.empty());
  const SodaResult& best = output->results[0];
  EXPECT_NE(best.sql.find("salary >= 500000"), std::string::npos) << best.sql;
  ASSERT_TRUE(best.executed) << best.execution_status;
}

// Paper Query 3: sum (amount) group by (transaction date).
TEST_F(MiniBankSodaTest, AggregationWithGroupBy) {
  auto output = soda_->Search("sum (amount) group by (transaction date)");
  ASSERT_TRUE(output.ok()) << output.status();
  ASSERT_FALSE(output->results.empty());
  const SodaResult& best = output->results[0];
  EXPECT_NE(best.sql.find("sum("), std::string::npos) << best.sql;
  EXPECT_NE(best.sql.find("GROUP BY"), std::string::npos) << best.sql;
  ASSERT_TRUE(best.executed) << best.execution_status;
  EXPECT_GT(best.snippet.num_rows(), 0u);
}

// Metadata-defined filter: "wealthy customers" expands to the salary
// predicate stored in the domain ontology.
TEST_F(MiniBankSodaTest, MetadataFilterWealthyCustomers) {
  auto output = soda_->Search("wealthy customers");
  ASSERT_TRUE(output.ok()) << output.status();
  ASSERT_FALSE(output->results.empty());
  const SodaResult& best = output->results[0];
  EXPECT_NE(best.sql.find("salary >= 1000000"), std::string::npos)
      << best.sql;
}

// Metadata-defined aggregation: "trading volume" expands to
// sum(fi_transactions.amount) (paper Section 4.4.2).
TEST_F(MiniBankSodaTest, MetadataAggregationTradingVolume) {
  auto output = soda_->Search("trading volume");
  ASSERT_TRUE(output.ok()) << output.status();
  ASSERT_FALSE(output->results.empty());
  const SodaResult& best = output->results[0];
  EXPECT_NE(best.sql.find("sum(fi_transactions.amount)"), std::string::npos)
      << best.sql;
}

// DBpedia synonym: "client" maps to parties.
TEST_F(MiniBankSodaTest, DbpediaSynonym) {
  auto output = soda_->Search("client");
  ASSERT_TRUE(output.ok()) << output.status();
  ASSERT_FALSE(output->results.empty());
  EXPECT_NE(output->results[0].sql.find("parties"), std::string::npos);
}

// Inheritance: a keyword matching an inheritance child pulls in the
// parent table and the join (paper Query 1 joins parties).
TEST_F(MiniBankSodaTest, InheritanceParentCollected) {
  auto output = soda_->Search("individuals");
  ASSERT_TRUE(output.ok()) << output.status();
  ASSERT_FALSE(output->results.empty());
  const SodaResult& best = output->results[0];
  EXPECT_NE(best.sql.find("parties"), std::string::npos) << best.sql;
  EXPECT_NE(best.sql.find("individuals.id = parties.id"), std::string::npos)
      << best.sql;
}

}  // namespace
}  // namespace soda
