// Validation of the benchmark workload definition: every gold statement
// parses and executes on the enterprise warehouse, extractors are
// non-empty, and the paper reference numbers are present.

#include <gtest/gtest.h>

#include <memory>

#include "datasets/enterprise.h"
#include "eval/workload.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "text/inverted_index.h"

namespace soda {
namespace {

class WorkloadTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    warehouse_ = BuildEnterpriseWarehouse().value().release();
  }
  static void TearDownTestSuite() { delete warehouse_; }

  static EnterpriseWarehouse* warehouse_;
};

EnterpriseWarehouse* WorkloadTest::warehouse_ = nullptr;

TEST_F(WorkloadTest, ThirteenQueries) {
  EXPECT_EQ(EnterpriseWorkload().size(), 13u);
}

TEST_F(WorkloadTest, GoldStatementsParseAndExecute) {
  Executor executor(&warehouse_->db);
  for (const BenchmarkQuery& query : EnterpriseWorkload()) {
    for (const std::string& sql : query.gold_sql) {
      auto stmt = ParseSql(sql);
      ASSERT_TRUE(stmt.ok()) << "Q" << query.id << ": " << stmt.status()
                             << "\n" << sql;
      auto rs = executor.ExecuteSql(sql);
      ASSERT_TRUE(rs.ok()) << "Q" << query.id << ": " << rs.status();
      EXPECT_GT(rs->num_rows(), 0u) << "Q" << query.id
                                    << " gold result is empty:\n" << sql;
    }
  }
}

TEST_F(WorkloadTest, EveryQueryHasExtractorsAndPaperNumbers) {
  for (const BenchmarkQuery& query : EnterpriseWorkload()) {
    EXPECT_FALSE(query.keywords.empty()) << query.id;
    EXPECT_FALSE(query.extractors.empty()) << query.id;
    EXPECT_FALSE(query.types.empty()) << query.id;
    EXPECT_GE(query.paper_precision, 0.0) << query.id;
    EXPECT_LE(query.paper_precision, 1.0) << query.id;
    EXPECT_GT(query.paper_complexity, 0) << query.id;
    EXPECT_GT(query.paper_soda_seconds, 0.0) << query.id;
  }
}

TEST_F(WorkloadTest, GoldStandardsEncodeTheKnownCardinalities) {
  Executor executor(&warehouse_->db);
  // Q2.1 gold: the five name-history versions of Sara.
  auto sara = executor.ExecuteSql(EnterpriseWorkload()[1].gold_sql[0]);
  ASSERT_TRUE(sara.ok());
  EXPECT_EQ(sara->num_rows(), static_cast<size_t>(kEntNameVersions));

  // Q5.0 gold: one current name per customer, both legs.
  auto leg1 = executor.ExecuteSql(EnterpriseWorkload()[7].gold_sql[0]);
  auto leg2 = executor.ExecuteSql(EnterpriseWorkload()[7].gold_sql[1]);
  ASSERT_TRUE(leg1.ok());
  ASSERT_TRUE(leg2.ok());
  EXPECT_EQ(leg1->num_rows(), static_cast<size_t>(kEntIndividuals));
  EXPECT_EQ(leg2->num_rows(), static_cast<size_t>(kEntOrganizations));

  // Q7.0 gold: orders with both currencies YEN.
  auto yen = executor.ExecuteSql(EnterpriseWorkload()[9].gold_sql[0]);
  ASSERT_TRUE(yen.ok());
  EXPECT_EQ(yen->num_rows(),
            static_cast<size_t>(kEntYenSettledYenOrders));

  // Q9.0 gold: the distinct count of Swiss private customers.
  auto swiss = executor.ExecuteSql(EnterpriseWorkload()[11].gold_sql[0]);
  ASSERT_TRUE(swiss.ok());
  ASSERT_EQ(swiss->num_rows(), 1u);
  EXPECT_EQ(swiss->rows[0][0],
            Value::Int(kEntSwissIndividuals));
}

TEST_F(WorkloadTest, EnterpriseIsDeterministic) {
  auto again = BuildEnterpriseWarehouse();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->db.TotalRows(), warehouse_->db.TotalRows());
  EXPECT_EQ((*again)->graph.num_nodes(), warehouse_->graph.num_nodes());
  EXPECT_EQ((*again)->graph.num_edges(), warehouse_->graph.num_edges());
}

TEST_F(WorkloadTest, PlantedValuesExactCardinalities) {
  // "Credit Suisse" occurs in exactly 12 distinct (table, column, value)
  // homes — the paper's Q3.x complexity.
  InvertedIndex index;
  index.Build(warehouse_->db);
  EXPECT_EQ(index.LookupPhrase("credit suisse").size(), 12u);
  // "Sara" in exactly 4.
  EXPECT_EQ(index.LookupPhrase("sara").size(), 4u);
  // "Lehman XYZ" in exactly 2.
  EXPECT_EQ(index.LookupPhrase("lehman xyz").size(), 2u);
}

}  // namespace
}  // namespace soda
