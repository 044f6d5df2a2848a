// Engine-level property tests: invariants that must hold for *every*
// query SODA answers, swept over a broad query corpus on both datasets.
//
//   1. every generated statement is executable SQL — it re-parses and
//      runs on the catalog (the paper's definition of "executable"),
//   2. searching twice yields identical results (determinism),
//   3. snippets never exceed the configured row limit,
//   4. deduplication holds: no two results share a canonical form
//      (weaker check here: rendered SQL strings are unique),
//   5. scores are within [0, 1] and descending.

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "core/soda.h"
#include "datasets/enterprise.h"
#include "datasets/minibank.h"
#include "eval/workload.h"
#include "pattern/library.h"
#include "sql/parser.h"

namespace soda {
namespace {

class SodaPropertyTest : public ::testing::TestWithParam<const char*> {
 protected:
  static void SetUpTestSuite() {
    bank_ = BuildMiniBank().value().release();
    bank_soda_ = Soda::Create(&bank_->db, &bank_->graph,
                              CreditSuissePatternLibrary(), SodaConfig{})
                     .value()
                     .release();
    warehouse_ = BuildEnterpriseWarehouse().value().release();
    warehouse_soda_ = Soda::Create(&warehouse_->db, &warehouse_->graph,
                                   CreditSuissePatternLibrary(), SodaConfig{})
                          .value()
                          .release();
  }
  static void TearDownTestSuite() {
    delete warehouse_soda_;
    delete warehouse_;
    delete bank_soda_;
    delete bank_;
  }

  void CheckInvariants(const Soda& engine, const std::string& query) {
    auto output = engine.Search(query);
    ASSERT_TRUE(output.ok()) << query << ": " << output.status();

    Executor executor(engine.database());
    std::set<std::string> seen_sql;
    double previous_score = 1.0 + 1e-9;
    for (const SodaResult& result : output->results) {
      // 1. Executable: re-parses and runs.
      auto reparsed = ParseSql(result.sql);
      ASSERT_TRUE(reparsed.ok())
          << query << " produced unparseable SQL:\n" << result.sql;
      auto rs = executor.ExecuteSql(result.sql);
      EXPECT_TRUE(rs.ok()) << query << " produced non-executable SQL:\n"
                           << result.sql << "\n" << rs.status();
      // 3. Snippet bound.
      if (result.executed) {
        EXPECT_LE(result.snippet.num_rows(), engine.config().snippet_rows)
            << query;
      }
      // 4. No duplicate statements.
      EXPECT_TRUE(seen_sql.insert(result.sql).second)
          << query << " produced a duplicate statement:\n" << result.sql;
      // 5. Scores in range and descending.
      EXPECT_GE(result.score, 0.0) << query;
      EXPECT_LE(result.score, 1.0 + 1e-9) << query;
      EXPECT_LE(result.score, previous_score) << query;
      previous_score = result.score;
    }

    // 2. Determinism.
    auto again = engine.Search(query);
    ASSERT_TRUE(again.ok());
    ASSERT_EQ(again->results.size(), output->results.size()) << query;
    for (size_t i = 0; i < output->results.size(); ++i) {
      EXPECT_EQ(again->results[i].sql, output->results[i].sql) << query;
    }
    EXPECT_EQ(again->complexity, output->complexity) << query;
  }

  static MiniBank* bank_;
  static Soda* bank_soda_;
  static EnterpriseWarehouse* warehouse_;
  static Soda* warehouse_soda_;
};

MiniBank* SodaPropertyTest::bank_ = nullptr;
Soda* SodaPropertyTest::bank_soda_ = nullptr;
EnterpriseWarehouse* SodaPropertyTest::warehouse_ = nullptr;
Soda* SodaPropertyTest::warehouse_soda_ = nullptr;

TEST_P(SodaPropertyTest, MiniBankInvariants) {
  CheckInvariants(*bank_soda_, GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    MiniBankQueries, SodaPropertyTest,
    ::testing::Values(
        "Sara Guttinger", "customers Zürich financial instruments",
        "wealthy customers", "trading volume", "client",
        "salary >= 500000", "sum (amount) group by (transaction date)",
        "count (transactions) group by (company name)",
        "individuals", "securities", "Credit Suisse", "addresses Basel",
        "salary >= 100000 and birthday = date(1981-04-23)",
        "top 3 trading volume group by (company name)",
        "nonsense gibberish quux", "Zurich or Geneva",
        "instrument type", "money transactions YEN"));

class EnterprisePropertyTest : public SodaPropertyTest {};

TEST_P(EnterprisePropertyTest, EnterpriseInvariants) {
  CheckInvariants(*warehouse_soda_, GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    WorkloadQueries, EnterprisePropertyTest,
    ::testing::Values(
        "private customers family name", "Sara", "Sara given name",
        "Sara birth date", "Credit Suisse", "gold agreement",
        "customers names", "trade order period > date(2011-09-01)",
        "YEN trade order", "trade order investment product Lehman XYZ",
        "select count() private customers Switzerland",
        "sum(investments) group by (currency)", "wealthy customers",
        "corporate customers", "agreement", "currency"));

// The workload keywords must all be answerable (at least one result) —
// except none; even Q9.0 produces (wrong) statements.
TEST_F(SodaPropertyTest, EveryWorkloadQueryProducesResults) {
  for (const BenchmarkQuery& query : EnterpriseWorkload()) {
    auto output = warehouse_soda_->Search(query.keywords);
    ASSERT_TRUE(output.ok()) << query.id;
    EXPECT_FALSE(output->results.empty()) << query.id;
  }
}

}  // namespace
}  // namespace soda
