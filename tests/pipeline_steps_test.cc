// Unit tests for the individual pipeline steps (tables, filters, SQL
// generation) against the mini-bank.

#include <gtest/gtest.h>

#include <memory>

#include "core/soda.h"
#include "datasets/minibank.h"
#include "pattern/library.h"

namespace soda {
namespace {

class PipelineStepsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    bank_ = BuildMiniBank().value().release();
    SodaConfig config;
    config.execute_snippets = false;
    soda_ = Soda::Create(&bank_->db, &bank_->graph, CreditSuissePatternLibrary(),
                         config)
                .value()
                .release();
  }
  static void TearDownTestSuite() {
    delete soda_;
    delete bank_;
  }

  static EntryPoint MetadataEntry(const std::string& phrase,
                                  MetadataLayer layer) {
    for (const auto& candidate : soda_->classification().Lookup(phrase)) {
      if (candidate.layer == layer) return candidate;
    }
    ADD_FAILURE() << "no entry for '" << phrase << "' in layer "
                  << MetadataLayerName(layer);
    return EntryPoint{};
  }

  static EntryPoint BaseDataEntry(const std::string& phrase) {
    for (const auto& candidate : soda_->classification().Lookup(phrase)) {
      if (candidate.kind == EntryPoint::Kind::kBaseData) return candidate;
    }
    ADD_FAILURE() << "no base-data entry for '" << phrase << "'";
    return EntryPoint{};
  }

  static bool HasTable(const TablesOutput& out, const std::string& name) {
    for (TableId table : out.tables) {
      if (soda_->join_graph().catalog().name(table) == name) return true;
    }
    return false;
  }

  static MiniBank* bank_;
  static Soda* soda_;
};

MiniBank* PipelineStepsTest::bank_ = nullptr;
Soda* PipelineStepsTest::soda_ = nullptr;

// ---------------------------------------------------------------------------
// tables step
// ---------------------------------------------------------------------------

TEST_F(PipelineStepsTest, OntologyEntryExpandsThroughLayers) {
  auto out = soda_->tables_step().Run(
      {MetadataEntry("customers", MetadataLayer::kDomainOntology)});
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(HasTable(*out, "parties"));
  EXPECT_TRUE(HasTable(*out, "individuals"));    // inheritance expansion
  EXPECT_TRUE(HasTable(*out, "organizations"));
}

TEST_F(PipelineStepsTest, LogicalEntitySplitAcrossTables) {
  auto out = soda_->tables_step().Run(
      {MetadataEntry("financial instruments", MetadataLayer::kLogicalSchema)});
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(HasTable(*out, "fin_instruments"));
  EXPECT_TRUE(HasTable(*out, "securities"));
  EXPECT_TRUE(HasTable(*out, "fi_contains_sec"));
}

TEST_F(PipelineStepsTest, BaseDataEntryMapsToItsTable) {
  auto out = soda_->tables_step().Run({BaseDataEntry("Zürich")});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->tables_per_entry.size(), 1u);
  EXPECT_TRUE(HasTable(*out, "addresses"));
  ASSERT_TRUE(out->entry_columns[0].has_value());
  EXPECT_EQ(out->entry_columns[0]->ToString(), "addresses.city");
}

TEST_F(PipelineStepsTest, BaseDataOnInheritanceChildAddsParent) {
  auto out = soda_->tables_step().Run({BaseDataEntry("Sara")});
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(HasTable(*out, "individuals"));
  EXPECT_TRUE(HasTable(*out, "parties"));  // inheritance parent
}

TEST_F(PipelineStepsTest, JoinsOnDirectPathBetweenEntries) {
  auto out = soda_->tables_step().Run(
      {MetadataEntry("customers", MetadataLayer::kDomainOntology),
       BaseDataEntry("Zürich")});
  ASSERT_TRUE(out.ok());
  bool address_join = false;
  for (EdgeId join : out->joins) {
    if (soda_->join_graph().edge(join).ToString() ==
        "addresses.party_id = individuals.id") {
      address_join = true;
    }
  }
  EXPECT_TRUE(address_join);
  EXPECT_TRUE(out->fully_connected);
}

TEST_F(PipelineStepsTest, MetadataFilterDiscovered) {
  auto out = soda_->tables_step().Run(
      {MetadataEntry("wealthy customers", MetadataLayer::kDomainOntology)});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->filters.size(), 1u);
  EXPECT_EQ(out->filters[0].column.ToString(), "individuals.salary");
  EXPECT_EQ(out->filters[0].op, ">=");
  EXPECT_EQ(out->filters[0].value, "1000000");
}

TEST_F(PipelineStepsTest, MetadataAggregationDiscovered) {
  auto out = soda_->tables_step().Run(
      {MetadataEntry("trading volume", MetadataLayer::kDomainOntology)});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->aggregations.size(), 1u);
  EXPECT_EQ(out->aggregations[0].func, AggFunc::kSum);
  EXPECT_EQ(out->aggregations[0].column.ToString(),
            "fi_transactions.amount");
}

// ---------------------------------------------------------------------------
// filters step
// ---------------------------------------------------------------------------

TEST_F(PipelineStepsTest, FiltersFromAllThreeSources) {
  std::vector<EntryPoint> entries = {
      BaseDataEntry("Zürich"),
      MetadataEntry("wealthy customers", MetadataLayer::kDomainOntology),
      MetadataEntry("salary", MetadataLayer::kLogicalSchema)};
  auto tables = soda_->tables_step().Run(entries);
  ASSERT_TRUE(tables.ok());

  OperatorBinding binding;
  binding.term_index = 2;  // "salary"
  binding.op = CompareOp::kLt;
  binding.literal = Value::Int(2000000);

  FiltersStep step(&bank_->db);
  auto filters = step.Run(entries, {binding}, *tables);
  ASSERT_TRUE(filters.ok()) << filters.status();
  ASSERT_EQ(filters->size(), 3u);
  // 1. base data equality.
  EXPECT_EQ((*filters)[0].column.ToString(), "addresses.city");
  EXPECT_EQ((*filters)[0].value, Value::Str("Zürich"));
  // 2. the input operator.
  EXPECT_EQ((*filters)[1].op, CompareOp::kLt);
  // 3. the metadata-defined filter, typed against the int column.
  EXPECT_EQ((*filters)[2].value, Value::Int(1000000));
}

TEST_F(PipelineStepsTest, TypeValueRespectsColumnTypes) {
  FiltersStep step(&bank_->db);
  EXPECT_EQ(step.TypeValue({"individuals", "salary"}, "100"),
            Value::Int(100));
  EXPECT_EQ(step.TypeValue({"individuals", "birthday"}, "1981-04-23"),
            Value::DateV(Date::FromYmd(1981, 4, 23)));
  EXPECT_EQ(step.TypeValue({"individuals", "firstName"}, "Sara"),
            Value::Str("Sara"));
  EXPECT_EQ(step.TypeValue({"fi_transactions", "amount"}, "1.5"),
            Value::Real(1.5));
  // Unknown table falls back to string.
  EXPECT_EQ(step.TypeValue({"ghost", "x"}, "1"), Value::Str("1"));
}

TEST_F(PipelineStepsTest, ParseCompareOpCoversAll) {
  EXPECT_EQ(ParseCompareOp(">"), CompareOp::kGt);
  EXPECT_EQ(ParseCompareOp(">="), CompareOp::kGe);
  EXPECT_EQ(ParseCompareOp("<"), CompareOp::kLt);
  EXPECT_EQ(ParseCompareOp("<="), CompareOp::kLe);
  EXPECT_EQ(ParseCompareOp("like"), CompareOp::kLike);
  EXPECT_EQ(ParseCompareOp("<>"), CompareOp::kNe);
  EXPECT_EQ(ParseCompareOp("whatever"), CompareOp::kEq);
}

// ---------------------------------------------------------------------------
// end-to-end statement shapes
// ---------------------------------------------------------------------------

TEST_F(PipelineStepsTest, PaperQuery3Shape) {
  auto output = soda_->Search("sum (amount) group by (transaction date)");
  ASSERT_TRUE(output.ok());
  ASSERT_FALSE(output->results.empty());
  const SelectStatement& stmt = output->results[0].statement;
  ASSERT_EQ(stmt.items.size(), 2u);
  EXPECT_EQ(stmt.items[0].expr.agg, AggFunc::kSum);
  ASSERT_EQ(stmt.group_by.size(), 1u);
  EXPECT_EQ(stmt.group_by[0].column, "transactiondate");
}

TEST_F(PipelineStepsTest, PaperQuery4ShapeWithOrderByDesc) {
  auto output =
      soda_->Search("count (transactions) group by (company name)");
  ASSERT_TRUE(output.ok());
  ASSERT_FALSE(output->results.empty());
  const SelectStatement& stmt = output->results[0].statement;
  // count over the transactions entity key, grouped by company name,
  // ordered descending (the paper's Query 4).
  ASSERT_GE(stmt.items.size(), 2u);
  EXPECT_EQ(stmt.items[0].expr.agg, AggFunc::kCount);
  ASSERT_EQ(stmt.order_by.size(), 1u);
  EXPECT_TRUE(stmt.order_by[0].descending);
  // The generator pulled in the join path to organizations.
  bool has_org = false;
  for (const auto& table : stmt.from) {
    has_org |= table.table == "organizations";
  }
  EXPECT_TRUE(has_org);
}

TEST_F(PipelineStepsTest, TopNAddsLimit) {
  auto output = soda_->Search(
      "top 10 trading volume group by (company name)");
  ASSERT_TRUE(output.ok());
  ASSERT_FALSE(output->results.empty());
  const SelectStatement& stmt = output->results[0].statement;
  EXPECT_EQ(stmt.limit, 10);
  ASSERT_FALSE(stmt.order_by.empty());
  EXPECT_TRUE(stmt.order_by[0].descending);
}

TEST_F(PipelineStepsTest, DisconnectedEntriesStillProduceSql) {
  // "securities" and "currency" have no join path in the mini-bank
  // (money_transactions.currency is reachable only through transactions
  // inheritance... which exists; use an actually disconnected pair).
  auto output = soda_->Search("isin currency");
  ASSERT_TRUE(output.ok());
  // Either a connected result or a cross product marked as such — the
  // pipeline must not crash and must report connectivity.
  for (const auto& result : output->results) {
    if (!result.fully_connected) {
      SUCCEED();
      return;
    }
  }
}

}  // namespace
}  // namespace soda
