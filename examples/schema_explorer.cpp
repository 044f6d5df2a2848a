// Schema explorer: the second usage scenario from the paper's feedback
// section (5.3.2) — "an exploratory tool to analyze the schema and learn
// patterns in the schema in order to find out which entities are related
// with others".
//
// This example walks the enterprise metadata graph interactively-style:
// for a keyword it prints the entry points, the tables each one maps to,
// the join relationships around them, and a DOT fragment of the local
// neighborhood that can be piped into graphviz.

#include <cstdio>

#include "core/soda.h"
#include "datasets/enterprise.h"
#include "graph/vocab.h"
#include "pattern/library.h"

namespace {

void Explore(const soda::Soda& engine, const char* keyword) {
  std::printf("==============================================\n");
  std::printf("explore> %s\n\n", keyword);
  const soda::MetadataGraph& graph = *engine.graph();

  auto entries = engine.classification().Lookup(keyword);
  if (entries.empty()) {
    std::printf("  (not found in metadata or base data)\n");
    return;
  }
  for (const auto& entry : entries) {
    std::printf("entry point: %s\n", entry.ToString().c_str());
    if (entry.kind == soda::EntryPoint::Kind::kBaseData) {
      std::printf("  value '%s' in %s.%s (%lld rows)\n",
                  entry.value().c_str(), entry.table_name().c_str(),
                  entry.column_name().c_str(),
                  static_cast<long long>(entry.row_count));
      continue;
    }
    // Tables reachable from this node (the Step 3 mapping).
    // Step 3 works on table ids; the join graph's catalog names them.
    const soda::JoinGraph& join_graph = engine.join_graph();
    auto step3 = engine.tables_step().Run({entry});
    std::vector<soda::TableId> tables;
    if (step3.ok()) tables = step3->tables_per_entry.front();
    std::printf("  maps to %zu physical table(s):", tables.size());
    for (soda::TableId table : tables) {
      std::printf(" %s", join_graph.catalog().name(table).c_str());
    }
    std::printf("\n");
    // Join relationships around those tables.
    for (soda::TableId table : tables) {
      for (soda::EdgeId id : join_graph.EdgesOf(table)) {
        const soda::JoinEdge& edge = join_graph.edge(id);
        std::printf("    join: %s%s\n", edge.ToString().c_str(),
                    edge.ignored ? "   [annotated: ignore]" : "");
      }
    }
    // Outgoing metadata edges of the node itself.
    std::printf("  node '%s' edges:\n", graph.uri(entry.node).c_str());
    for (const auto& edge : graph.OutEdges(entry.node)) {
      std::printf("    --%s--> %s\n",
                  graph.PredicateUri(edge.predicate).c_str(),
                  graph.uri(edge.target).c_str());
    }
  }
}

}  // namespace

int main() {
  auto warehouse = soda::BuildEnterpriseWarehouse();
  if (!warehouse.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 warehouse.status().ToString().c_str());
    return 1;
  }
  soda::SodaConfig config;
  config.execute_snippets = false;
  auto created = soda::Soda::Create(&(*warehouse)->db, &(*warehouse)->graph,
                                    soda::CreditSuissePatternLibrary(),
                                    config);
  if (!created.ok()) {
    std::fprintf(stderr, "engine construction failed: %s\n",
                 created.status().ToString().c_str());
    return 1;
  }
  soda::Soda& engine = **created;

  Explore(engine, "private customers");
  Explore(engine, "trade order");
  Explore(engine, "Credit Suisse");

  // A user who spots a suspicious mapping can dump the neighborhood:
  std::printf("==============================================\n");
  std::printf("DOT fragment of the metadata graph (first 40 nodes):\n\n%s\n",
              (*warehouse)->graph.ToDot(40).c_str());
  return 0;
}
