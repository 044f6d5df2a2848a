// Unit tests for the metadata graph.

#include <gtest/gtest.h>

#include "graph/metadata_graph.h"
#include "graph/vocab.h"

namespace soda {
namespace {

TEST(UriTableTest, InternIsIdempotent) {
  UriTable uris;
  UriId a = uris.Intern("table/parties");
  UriId b = uris.Intern("table/parties");
  EXPECT_EQ(a, b);
  EXPECT_EQ(uris.Lookup(a), "table/parties");
  EXPECT_EQ(uris.size(), 1u);
}

TEST(UriTableTest, FindWithoutIntern) {
  UriTable uris;
  EXPECT_FALSE(uris.Find("nope").has_value());
  uris.Intern("yes");
  EXPECT_TRUE(uris.Find("yes").has_value());
}

class MetadataGraphTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = *graph_.AddNode("table/parties", MetadataLayer::kPhysicalSchema);
    column_ = *graph_.AddNode("column/parties.id",
                              MetadataLayer::kPhysicalSchema);
    concept_ = *graph_.AddNode("onto/customers",
                               MetadataLayer::kDomainOntology);
    graph_.AddEdge(table_, vocab::kColumn, column_);
    graph_.AddEdge(concept_, vocab::kClassifies, table_);
    graph_.AddTextEdge(table_, vocab::kTablename, "parties");
    graph_.AddTextEdge(table_, vocab::kLabel, "parties");
  }

  MetadataGraph graph_;
  NodeId table_ = kInvalidNode;
  NodeId column_ = kInvalidNode;
  NodeId concept_ = kInvalidNode;
};

TEST_F(MetadataGraphTest, DuplicateUriRejected) {
  auto dup = graph_.AddNode("table/parties", MetadataLayer::kPhysicalSchema);
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
}

TEST_F(MetadataGraphTest, GetOrAddReusesNode) {
  NodeId again = graph_.GetOrAddNode("table/parties",
                                     MetadataLayer::kPhysicalSchema);
  EXPECT_EQ(again, table_);
  EXPECT_EQ(graph_.num_nodes(), 3u);
}

TEST_F(MetadataGraphTest, FindNode) {
  EXPECT_EQ(graph_.FindNode("table/parties"), table_);
  EXPECT_EQ(graph_.FindNode("nope"), kInvalidNode);
}

TEST_F(MetadataGraphTest, EdgesAreIndexedBothWays) {
  EXPECT_EQ(graph_.FirstTarget(table_, vocab::kColumn), column_);
  auto sources = graph_.Sources(column_, vocab::kColumn);
  ASSERT_EQ(sources.size(), 1u);
  EXPECT_EQ(sources[0], table_);
  EXPECT_TRUE(graph_.HasEdge(table_, vocab::kColumn, column_));
  EXPECT_FALSE(graph_.HasEdge(column_, vocab::kColumn, table_));
}

TEST_F(MetadataGraphTest, TextEdges) {
  auto name = graph_.FirstText(table_, vocab::kTablename);
  ASSERT_TRUE(name.has_value());
  EXPECT_EQ(*name, "parties");
  EXPECT_FALSE(graph_.FirstText(column_, vocab::kTablename).has_value());
  EXPECT_EQ(graph_.num_text_edges(), 2u);
}

TEST_F(MetadataGraphTest, MissingPredicateIsEmpty) {
  EXPECT_EQ(graph_.FirstTarget(table_, "never_used"), kInvalidNode);
  EXPECT_TRUE(graph_.Targets(table_, "never_used").empty());
}

TEST_F(MetadataGraphTest, LayersAndNames) {
  EXPECT_EQ(graph_.layer(concept_), MetadataLayer::kDomainOntology);
  EXPECT_STREQ(MetadataLayerName(MetadataLayer::kDbpedia), "DBpedia");
  auto in_layer = graph_.NodesInLayer(MetadataLayer::kPhysicalSchema);
  EXPECT_EQ(in_layer.size(), 2u);
}

TEST_F(MetadataGraphTest, HasType) {
  NodeId type_node = graph_.GetOrAddNode(vocab::kPhysicalTable,
                                         MetadataLayer::kOther);
  graph_.AddEdge(table_, vocab::kType, type_node);
  EXPECT_TRUE(graph_.HasType(table_, vocab::kPhysicalTable));
  EXPECT_FALSE(graph_.HasType(column_, vocab::kPhysicalTable));
  EXPECT_FALSE(graph_.HasType(table_, "no_such_type"));
}

TEST_F(MetadataGraphTest, DotExport) {
  std::string dot = graph_.ToDot();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("table/parties"), std::string::npos);
  EXPECT_NE(dot.find(vocab::kClassifies), std::string::npos);
}

TEST(MetadataGraphScaleTest, ManyNodesAndEdges) {
  MetadataGraph graph;
  constexpr int kNodes = 2000;
  for (int i = 0; i < kNodes; ++i) {
    ASSERT_TRUE(graph.AddNode("n/" + std::to_string(i),
                              MetadataLayer::kPhysicalSchema)
                    .ok());
  }
  for (int i = 1; i < kNodes; ++i) {
    graph.AddEdge(i - 1, "next", i);
  }
  EXPECT_EQ(graph.num_nodes(), static_cast<size_t>(kNodes));
  EXPECT_EQ(graph.num_edges(), static_cast<size_t>(kNodes - 1));
  EXPECT_EQ(graph.Targets(0, "next").size(), 1u);
}

}  // namespace
}  // namespace soda
