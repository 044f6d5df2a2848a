// Unit tests for the join graph: harvesting join conditions and bridges
// through the patterns, direct-path search, and ignore annotations.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/join_graph.h"
#include "datasets/enterprise.h"
#include "datasets/minibank.h"
#include "graph/vocab.h"
#include "pattern/library.h"
#include "pattern/matcher.h"
#include "schema/warehouse_model.h"

namespace soda {
namespace {

class JoinGraphTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    bank_ = BuildMiniBank().value().release();
    library_ = new PatternLibrary(CreditSuissePatternLibrary());
    matcher_ = new PatternMatcher(&bank_->graph, library_);
    join_graph_ = new JoinGraph();
    ASSERT_TRUE(join_graph_->Build(*matcher_).ok());
  }
  static void TearDownTestSuite() {
    delete join_graph_;
    delete matcher_;
    delete library_;
    delete bank_;
  }

  static MiniBank* bank_;
  static PatternLibrary* library_;
  static PatternMatcher* matcher_;
  static JoinGraph* join_graph_;
};

MiniBank* JoinGraphTest::bank_ = nullptr;

// The ids of `tables` in `graph`'s catalog; tables it lacks are left out.
std::vector<TableId> Ids(const JoinGraph& graph,
                         const std::vector<std::string>& tables) {
  std::vector<TableId> ids;
  for (const std::string& table : tables) {
    TableId id = graph.catalog().Find(table);
    if (id != kInvalidTableId) ids.push_back(id);
  }
  return ids;
}
PatternLibrary* JoinGraphTest::library_ = nullptr;
PatternMatcher* JoinGraphTest::matcher_ = nullptr;
JoinGraph* JoinGraphTest::join_graph_ = nullptr;

TEST_F(JoinGraphTest, HarvestsAllDeclaredForeignKeys) {
  // The mini-bank declares 10 foreign keys, all via join nodes.
  EXPECT_EQ(join_graph_->num_edges(), 10u);
}

TEST_F(JoinGraphTest, AdjacencyCoversBothSides) {
  const TableCatalog& catalog = join_graph_->catalog();
  EXPECT_FALSE(join_graph_->EdgesOf(catalog.Find("parties")).empty());
  EXPECT_FALSE(join_graph_->EdgesOf(catalog.Find("individuals")).empty());
  EXPECT_EQ(catalog.Find("no_such_table"), kInvalidTableId);
}

TEST_F(JoinGraphTest, DetectsBridgeTables) {
  // fi_contains_sec bridges fin_instruments and securities.
  bool found = false;
  for (const BridgeInfo& bridge : join_graph_->bridges()) {
    if (join_graph_->catalog().name(bridge.table) == "fi_contains_sec") {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(JoinGraphTest, TransactionsIsNotABridgeOntoItself) {
  // transactions has two FKs to the same table (parties); the bridge
  // pattern requires two distinct targets (p1 distinct p2).
  for (const BridgeInfo& bridge : join_graph_->bridges()) {
    EXPECT_NE(join_graph_->catalog().name(bridge.table), "transactions");
  }
}

TEST_F(JoinGraphTest, DirectPathSingleHop) {
  std::vector<EdgeId> path;
  std::vector<TableId> tables;
  ASSERT_TRUE(join_graph_->DirectPath(Ids(*join_graph_, {"individuals"}),
                                      Ids(*join_graph_, {"parties"}), &path,
                                      &tables));
  ASSERT_EQ(path.size(), 1u);
  EXPECT_EQ(join_graph_->edge(path[0]).ToString(),
            "individuals.id = parties.id");
}

TEST_F(JoinGraphTest, DirectPathMultiHop) {
  std::vector<EdgeId> path;
  std::vector<TableId> tables;
  ASSERT_TRUE(join_graph_->DirectPath(Ids(*join_graph_, {"addresses"}),
                                      Ids(*join_graph_, {"fin_instruments"}),
                                      &path, &tables));
  // addresses - individuals - parties - transactions - fi_transactions -
  // fin_instruments.
  EXPECT_EQ(path.size(), 5u);
}

TEST_F(JoinGraphTest, MultiSourcePathPicksShortest) {
  std::vector<EdgeId> path;
  std::vector<TableId> tables;
  ASSERT_TRUE(
      join_graph_->DirectPath(Ids(*join_graph_, {"addresses", "parties"}),
                              Ids(*join_graph_, {"transactions"}), &path,
                              &tables));
  ASSERT_EQ(path.size(), 1u);  // parties -> transactions directly
}

TEST_F(JoinGraphTest, OverlappingSetsNeedNoPath) {
  std::vector<EdgeId> path;
  std::vector<TableId> tables;
  ASSERT_TRUE(
      join_graph_->DirectPath(Ids(*join_graph_, {"parties", "individuals"}),
                              Ids(*join_graph_, {"individuals"}), &path,
                              &tables));
  EXPECT_TRUE(path.empty());
}

TEST_F(JoinGraphTest, DisconnectedTablesReportFalse) {
  MetadataGraph isolated_graph;
  PatternLibrary lib = CreditSuissePatternLibrary();
  PatternMatcher matcher(&isolated_graph, &lib);
  JoinGraph empty;
  ASSERT_TRUE(empty.Build(matcher).ok());
  std::vector<EdgeId> path;
  EXPECT_FALSE(
      empty.DirectPath(Ids(empty, {"a"}), Ids(empty, {"b"}), &path, nullptr));
}

TEST_F(JoinGraphTest, IgnoredEdgesAreNotUsedForPaths) {
  // Annotate the addresses join as ignored in a scratch copy of the
  // mini-bank and verify the path router avoids it.
  auto bank = BuildMiniBank().value();
  NodeId join = bank->graph.FindNode(
      JoinUri("addresses", "party_id", "individuals", "id"));
  ASSERT_NE(join, kInvalidNode);
  bank->graph.AddTextEdge(join, vocab::kAnnotation,
                          vocab::kIgnoreRelationship);
  PatternLibrary lib = CreditSuissePatternLibrary();
  PatternMatcher matcher(&bank->graph, &lib);
  JoinGraph jg;
  ASSERT_TRUE(jg.Build(matcher).ok());
  std::vector<EdgeId> path;
  EXPECT_FALSE(jg.DirectPath(Ids(jg, {"addresses"}), Ids(jg, {"individuals"}),
                             &path, nullptr));
}

// The physical tables of `graph`: every node typed physical_table.
size_t CountPhysicalTables(const MetadataGraph& graph) {
  size_t count = 0;
  for (NodeId node = 0; static_cast<size_t>(node) < graph.num_nodes();
       ++node) {
    if (graph.HasType(node, vocab::kPhysicalTable)) ++count;
  }
  return count;
}

// Checks the precomputed inheritance of every table against the
// Inheritance-Child pattern matched at its node, the way Step 3 used to
// at query time: the parents of all matches, the siblings of the first.
void ExpectInheritanceMatchesPattern(const MetadataGraph& graph,
                                     const PatternMatcher& matcher,
                                     const JoinGraph& join_graph) {
  const TableCatalog& catalog = join_graph.catalog();
  size_t children = 0;
  for (NodeId node = 0; static_cast<size_t>(node) < graph.num_nodes();
       ++node) {
    if (!graph.HasType(node, vocab::kPhysicalTable)) continue;
    std::string table = *TableNameOf(graph, node);
    auto matches = matcher.MatchAt(patterns::kInheritanceChild, node);
    ASSERT_TRUE(matches.ok()) << matches.status();
    std::vector<std::string> want_parents;
    std::vector<std::string> want_siblings;
    for (const MatchBinding& m : *matches) {
      std::string parent = *TableNameOf(graph, m.node("p"));
      if (std::find(want_parents.begin(), want_parents.end(), parent) ==
          want_parents.end()) {
        want_parents.push_back(parent);
      }
    }
    if (!matches->empty()) {
      ++children;
      for (NodeId sibling : graph.Targets(matches->front().node("y"),
                                          vocab::kInheritanceChild)) {
        if (sibling != node) {
          want_siblings.push_back(*TableNameOf(graph, sibling));
        }
      }
    }
    std::vector<std::string> got_parents;
    std::vector<std::string> got_siblings;
    TableId id = catalog.Find(table);
    ASSERT_NE(id, kInvalidTableId) << table;
    for (TableId parent : join_graph.parents(id)) {
      got_parents.push_back(catalog.name(parent));
    }
    for (TableId sibling : join_graph.siblings(id)) {
      got_siblings.push_back(catalog.name(sibling));
    }
    EXPECT_EQ(got_parents, want_parents) << table;
    EXPECT_EQ(got_siblings, want_siblings) << table;
  }
  EXPECT_GT(children, 0u);
}

TEST_F(JoinGraphTest, InternsEveryPhysicalTable) {
  EXPECT_EQ(join_graph_->catalog().size(),
            CountPhysicalTables(bank_->graph));
  EXPECT_EQ(join_graph_->catalog().size(), bank_->db.num_tables());

  auto warehouse = BuildEnterpriseWarehouse().value();
  PatternLibrary lib = CreditSuissePatternLibrary();
  PatternMatcher matcher(&warehouse->graph, &lib);
  JoinGraph jg;
  ASSERT_TRUE(jg.Build(matcher).ok());
  EXPECT_EQ(jg.catalog().size(), CountPhysicalTables(warehouse->graph));
  EXPECT_EQ(jg.catalog().size(), 472u);
}

TEST_F(JoinGraphTest, EdgeLessTableReachesOnlyItself) {
  WarehouseModel model;
  for (const char* name : {"lonely", "a", "b"}) {
    TableSpec spec;
    spec.name = name;
    spec.columns.push_back(ColumnSpec{"id", ValueType::kInt64, ""});
    spec.columns.push_back(ColumnSpec{"ref", ValueType::kInt64, ""});
    model.AddTable(std::move(spec));
  }
  ForeignKeySpec fk;
  fk.from_table = "a";
  fk.from_column = "ref";
  fk.to_table = "b";
  fk.to_column = "id";
  model.AddForeignKey(std::move(fk));
  MetadataGraph graph;
  ASSERT_TRUE(model.Compile(&graph, nullptr).ok());
  PatternLibrary lib = CreditSuissePatternLibrary();
  PatternMatcher matcher(&graph, &lib);
  JoinGraph jg;
  ASSERT_TRUE(jg.Build(matcher).ok());
  ASSERT_EQ(jg.catalog().size(), 3u);
  TableId lonely = jg.catalog().Find("lonely");
  ASSERT_NE(lonely, kInvalidTableId);
  EXPECT_TRUE(jg.EdgesOf(lonely).empty());

  // Connected to itself by the empty path...
  std::vector<EdgeId> path;
  std::vector<TableId> tables;
  ASSERT_TRUE(jg.DirectPath(Ids(jg, {"lonely"}), Ids(jg, {"lonely"}), &path,
                            &tables));
  EXPECT_TRUE(path.empty());
  EXPECT_EQ(tables, std::vector<TableId>{lonely});
  // ...and to nothing else, in either direction.
  EXPECT_FALSE(jg.DirectPath(Ids(jg, {"lonely"}), Ids(jg, {"a", "b"}), &path,
                             &tables));
  EXPECT_FALSE(jg.DirectPath(Ids(jg, {"b"}), Ids(jg, {"lonely"}), &path,
                             &tables));
  EXPECT_TRUE(jg.DirectPath(Ids(jg, {"lonely", "a"}), Ids(jg, {"b"}), &path,
                            &tables));
  EXPECT_EQ(path.size(), 1u);
}

TEST_F(JoinGraphTest, InheritanceMatchesPatternOnBothDatasets) {
  ExpectInheritanceMatchesPattern(bank_->graph, *matcher_, *join_graph_);

  auto warehouse = BuildEnterpriseWarehouse().value();
  PatternLibrary lib = CreditSuissePatternLibrary();
  PatternMatcher matcher(&warehouse->graph, &lib);
  JoinGraph jg;
  ASSERT_TRUE(jg.Build(matcher).ok());
  ExpectInheritanceMatchesPattern(warehouse->graph, matcher, jg);
}

}  // namespace
}  // namespace soda
