// Tests for the compiled closure layer: a fresh core's cold-memo output
// must be Fingerprint-identical to its warm-memo output, and the engine
// across cache-stripe/thread sweeps to the serial Soda::Search
// reference; the APSP join-path closure must agree with a naive
// per-call BFS reference on random subgraphs and on the mini-bank; the
// count-only index probes must agree with the materializing lookups;
// and the closure counters must surface through the engine metrics
// snapshots.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/closure.h"
#include "core/engine.h"
#include "core/join_graph.h"
#include "core/soda.h"
#include "datasets/enterprise.h"
#include "datasets/minibank.h"
#include "eval/workload.h"
#include "pattern/library.h"
#include "schema/warehouse_model.h"
#include "minibank_queries.h"

namespace soda {
namespace {

// Serializes everything rank-relevant about an output, snippets included,
// so "byte-identical" is literal (cache/thread counters excluded — they
// are engine-lifetime bookkeeping, not answer content).
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

std::vector<std::string> EnterpriseQueries() {
  std::vector<std::string> queries;
  for (const BenchmarkQuery& bench : EnterpriseWorkload()) {
    queries.push_back(bench.keywords);
  }
  return queries;
}

// Runs every query twice on a fresh core: the cold pass traverses and
// fills the Step-3 memo, the warm pass must be served from it (no
// traversal misses) with byte-identical output.
void ExpectWarmMemoMatchesCold(const Soda& soda,
                               const std::vector<std::string>& queries) {
  ASSERT_EQ(soda.entry_point_closure().filled(), 0u);
  InMemoryMetricsSink cold_sink;
  std::vector<std::string> cold;
  for (const std::string& query : queries) {
    auto output = soda.Search(query, &cold_sink);
    ASSERT_TRUE(output.ok()) << output.status();
    cold.push_back(Fingerprint(*output));
  }
  EXPECT_GT(cold_sink.Snapshot().counter("closure.traverse_misses"), 0u);
  EXPECT_GT(soda.entry_point_closure().filled(), 0u);

  InMemoryMetricsSink warm_sink;
  for (size_t q = 0; q < queries.size(); ++q) {
    auto output = soda.Search(queries[q], &warm_sink);
    ASSERT_TRUE(output.ok()) << output.status();
    EXPECT_EQ(Fingerprint(*output), cold[q]) << queries[q];
  }
  MetricsSnapshot warm = warm_sink.Snapshot();
  EXPECT_GT(warm.counter("closure.traverse_hits"), 0u);
  EXPECT_EQ(warm.counter("closure.traverse_misses"), 0u);
}

// The tie-break JoinGraph::DirectPath documents, computed the slow way:
// adjacency rebuilt from all_edges() in insertion order, one fresh BFS
// per known source table, strict improvement over (from, to) pairs in
// set order, and the winning BFS tree chain walked back from the target.
bool NaiveDirectPath(const JoinGraph& graph,
                     const std::vector<std::string>& from_set,
                     const std::vector<std::string>& to_set,
                     std::vector<JoinEdge>* path_edges,
                     std::vector<std::string>* path_tables) {
  for (const std::string& from : from_set) {
    for (const std::string& to : to_set) {
      if (FoldForMatch(from) == FoldForMatch(to)) {
        path_tables->push_back(from);
        return true;
      }
    }
  }
  const std::vector<JoinEdge>& edges = graph.all_edges();
  std::map<std::string, std::vector<size_t>> adjacency;
  for (size_t e = 0; e < edges.size(); ++e) {
    adjacency[FoldForMatch(edges[e].from.table)].push_back(e);
    adjacency[FoldForMatch(edges[e].to.table)].push_back(e);
  }
  constexpr size_t kNone = SIZE_MAX;
  size_t best_dist = kNone;
  std::string best_target;
  std::map<std::string, size_t> best_parent;
  std::string best_source;
  for (const std::string& from : from_set) {
    const std::string source = FoldForMatch(from);
    if (adjacency.count(source) == 0) continue;
    std::map<std::string, size_t> dist = {{source, 0}};
    std::map<std::string, size_t> parent;
    std::deque<std::string> queue = {source};
    while (!queue.empty()) {
      std::string current = queue.front();
      queue.pop_front();
      for (size_t e : adjacency[current]) {
        if (edges[e].ignored) continue;
        std::string a = FoldForMatch(edges[e].from.table);
        std::string other = a == current ? FoldForMatch(edges[e].to.table) : a;
        if (dist.count(other) != 0) continue;
        dist[other] = dist[current] + 1;
        parent[other] = e;
        queue.push_back(other);
      }
    }
    for (const std::string& to : to_set) {
      auto it = dist.find(FoldForMatch(to));
      if (it != dist.end() && it->second < best_dist) {
        best_dist = it->second;
        best_source = source;
        best_target = it->first;
        best_parent = parent;
      }
    }
  }
  if (best_dist == kNone) return false;
  for (std::string cursor = best_target; cursor != best_source;) {
    const JoinEdge& edge = edges[best_parent[cursor]];
    path_edges->push_back(edge);
    path_tables->push_back(edge.from.table);
    path_tables->push_back(edge.to.table);
    std::string a = FoldForMatch(edge.from.table);
    cursor = a == cursor ? FoldForMatch(edge.to.table) : a;
  }
  std::reverse(path_edges->begin(), path_edges->end());
  return true;
}

// Runs the id API on the names' catalog ids (names the catalog lacks are
// left out, as the naive reference ignores them) and maps its output
// back to edges and names.
void ExpectDirectPathMatchesNaive(const JoinGraph& graph,
                                  const std::vector<std::string>& from_set,
                                  const std::vector<std::string>& to_set) {
  auto ids = [&graph](const std::vector<std::string>& tables) {
    std::vector<TableId> out;
    for (const std::string& table : tables) {
      TableId id = graph.catalog().Find(table);
      if (id != kInvalidTableId) out.push_back(id);
    }
    return out;
  };
  std::vector<EdgeId> path_edges;
  std::vector<TableId> path_tables;
  bool apsp = graph.DirectPath(ids(from_set), ids(to_set), &path_edges,
                               &path_tables);
  std::vector<JoinEdge> apsp_edges, naive_edges;
  std::vector<std::string> apsp_tables, naive_tables;
  for (EdgeId edge : path_edges) apsp_edges.push_back(graph.edge(edge));
  for (TableId table : path_tables) {
    apsp_tables.push_back(graph.catalog().name(table));
  }
  bool naive =
      NaiveDirectPath(graph, from_set, to_set, &naive_edges, &naive_tables);
  ASSERT_EQ(apsp, naive);
  ASSERT_EQ(apsp_edges, naive_edges);
  ASSERT_EQ(apsp_tables, naive_tables);
}

class PipelineClosureTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    bank_ = BuildMiniBank().value().release();
    enterprise_ = BuildEnterpriseWarehouse().value().release();
  }
  static void TearDownTestSuite() {
    delete enterprise_;
    delete bank_;
  }

  static MiniBank* bank_;
  static EnterpriseWarehouse* enterprise_;
};

MiniBank* PipelineClosureTest::bank_ = nullptr;
EnterpriseWarehouse* PipelineClosureTest::enterprise_ = nullptr;

// ---------------------------------------------------------------------------
// Fingerprint identity, serial driver: cold memo vs warm memo
// ---------------------------------------------------------------------------

TEST_F(PipelineClosureTest, SerialMiniBankWarmMemoMatchesCold) {
  auto soda = Soda::Create(&bank_->db, &bank_->graph,
                           CreditSuissePatternLibrary(), SodaConfig());
  ASSERT_TRUE(soda.ok()) << soda.status();
  ExpectWarmMemoMatchesCold(**soda, MiniBankQueries());
}

TEST_F(PipelineClosureTest, SerialEnterpriseWarmMemoMatchesCold) {
  // Snippets off: building and searching a full enterprise core is the
  // dominant cost under the sanitizer legs' ctest timeout, and the
  // snippet-inclusive fingerprint is held by the mini-bank test.
  SodaConfig config;
  config.execute_snippets = false;
  auto soda = Soda::Create(&enterprise_->db, &enterprise_->graph,
                           CreditSuissePatternLibrary(), config);
  ASSERT_TRUE(soda.ok()) << soda.status();
  ExpectWarmMemoMatchesCold(**soda, EnterpriseQueries());
}

// ---------------------------------------------------------------------------
// Fingerprint identity, the engine across cache stripes x threads
// ---------------------------------------------------------------------------

TEST_F(PipelineClosureTest, StripedMiniBankSweepMatchesSerial) {
  auto baseline = Soda::Create(&bank_->db, &bank_->graph,
                               CreditSuissePatternLibrary(), SodaConfig());
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  std::vector<std::string> queries = MiniBankQueries();
  std::vector<std::string> expected;
  for (const std::string& query : queries) {
    auto output = (*baseline)->Search(query);
    ASSERT_TRUE(output.ok()) << output.status();
    expected.push_back(Fingerprint(*output));
  }
  for (size_t stripes : {1u, 4u}) {
    for (size_t threads : {1u, 4u}) {
      SodaConfig config;
      config.num_shards = stripes;
      config.num_threads = threads;
      auto engine = SodaEngine::Create(&bank_->db, &bank_->graph,
                                       CreditSuissePatternLibrary(), config);
      ASSERT_TRUE(engine.ok()) << engine.status();
      auto outputs = (*engine)->SearchAll(queries);
      for (size_t q = 0; q < queries.size(); ++q) {
        ASSERT_TRUE(outputs[q].ok()) << outputs[q].status();
        EXPECT_EQ(Fingerprint(*outputs[q]), expected[q])
            << "stripes=" << stripes << " threads=" << threads << " query="
            << queries[q];
      }
    }
  }
}

// The enterprise-workload sweep lives in
// closure_enterprise_test.cc: it builds several more enterprise engines,
// which does not fit the sanitizer legs' per-binary ctest timeout, and
// the concurrency surface it would cover is already held under TSan by
// the minibank sweep above.

// ---------------------------------------------------------------------------
// APSP closure vs the naive BFS reference
// ---------------------------------------------------------------------------

TEST_F(PipelineClosureTest, ApspMatchesBfsOnRandomSubgraphs) {
  Rng rng(0x50DA'C105'0001ull);
  for (int round = 0; round < 12; ++round) {
    // A random physical schema: `num_tables` tables, each with an id
    // column and a few fk columns, wired by random (sometimes ignored)
    // foreign keys. Sparse enough to leave disconnected islands.
    size_t num_tables = 4 + rng.Below(20);
    size_t num_edges = rng.Below(2 * num_tables);
    WarehouseModel model;
    std::vector<std::string> names;
    for (size_t t = 0; t < num_tables; ++t) {
      std::string name = "t" + std::to_string(t);
      names.push_back(name);
      TableSpec spec;
      spec.name = name;
      spec.columns.push_back(ColumnSpec{"id", ValueType::kInt64, ""});
      for (size_t k = 0; k < 4; ++k) {
        spec.columns.push_back(
            ColumnSpec{"fk" + std::to_string(k), ValueType::kInt64, ""});
      }
      model.AddTable(std::move(spec));
    }
    std::vector<std::string> used;  // dedupe: join URIs must be unique
    for (size_t e = 0; e < num_edges; ++e) {
      ForeignKeySpec fk;
      fk.from_table = rng.Pick(names);
      fk.from_column = "fk" + std::to_string(rng.Below(4));
      fk.to_table = rng.Pick(names);
      fk.to_column = "id";
      fk.via_join_node = rng.Chance(0.5);
      fk.ignored = rng.Chance(0.15);
      std::string key = fk.from_table + "." + fk.from_column + "->" +
                        fk.to_table + "." + fk.to_column;
      if (std::find(used.begin(), used.end(), key) != used.end()) continue;
      used.push_back(key);
      model.AddForeignKey(std::move(fk));
    }
    MetadataGraph graph;
    ASSERT_TRUE(model.Compile(&graph, nullptr).ok());
    PatternLibrary library = CreditSuissePatternLibrary();
    PatternMatcher matcher(&graph, &library);
    JoinGraph join_graph;
    ASSERT_TRUE(join_graph.Build(matcher).ok());

    for (int probe = 0; probe < 40; ++probe) {
      std::vector<std::string> from_set;
      std::vector<std::string> to_set;
      for (size_t i = 0, n = 1 + rng.Below(3); i < n; ++i) {
        from_set.push_back(rng.Pick(names));
      }
      for (size_t i = 0, n = 1 + rng.Below(3); i < n; ++i) {
        to_set.push_back(rng.Chance(0.1) ? "unknown_table"
                                         : rng.Pick(names));
      }
      ExpectDirectPathMatchesNaive(join_graph, from_set, to_set);
    }
  }
}

TEST_F(PipelineClosureTest, ApspMatchesBfsOnMiniBankTablePairs) {
  auto soda = Soda::Create(&bank_->db, &bank_->graph,
                           CreditSuissePatternLibrary(), SodaConfig());
  ASSERT_TRUE(soda.ok()) << soda.status();
  const JoinGraph& join_graph = (*soda)->join_graph();
  std::vector<std::string> tables;
  for (const JoinEdge& edge : join_graph.all_edges()) {
    for (const std::string& table : {edge.from.table, edge.to.table}) {
      if (std::find(tables.begin(), tables.end(), table) == tables.end()) {
        tables.push_back(table);
      }
    }
  }
  ASSERT_GT(tables.size(), 2u);
  for (const std::string& a : tables) {
    for (const std::string& b : tables) {
      ExpectDirectPathMatchesNaive(join_graph, {a}, {b});
      for (const std::string& c : tables) {
        ExpectDirectPathMatchesNaive(join_graph, {a, c}, {b});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Count-only probes agree with the materializing lookups
// ---------------------------------------------------------------------------

TEST_F(PipelineClosureTest, CountProbesMatchMaterializedLookups) {
  SodaConfig config;
  config.execute_snippets = false;
  auto created = Soda::Create(&enterprise_->db, &enterprise_->graph,
                              CreditSuissePatternLibrary(), config);
  ASSERT_TRUE(created.ok()) << created.status();
  const Soda& soda = **created;
  std::vector<std::string> phrases = {
      "customers",       "family name", "trading volume", "currency",
      "transactions",    "investments", "Sara",           "organizations",
      "no such phrase",  "",            "private customers",
  };
  for (const std::string& phrase : phrases) {
    EXPECT_EQ(soda.classification().CountMatches(phrase),
              soda.classification().Lookup(phrase).size())
        << phrase;
    EXPECT_EQ(soda.inverted_index().CountPhrase(phrase),
              soda.inverted_index().LookupPhrase(phrase).size())
        << phrase;
  }
}

// ---------------------------------------------------------------------------
// Closure counters surface through both engines' metrics snapshots
// ---------------------------------------------------------------------------

TEST_F(PipelineClosureTest, ClosureCountersSurfaceOnEngine) {
  SodaConfig config;
  config.num_threads = 2;
  config.cache_capacity = 0;  // repeats must re-run the pipeline
  auto engine = SodaEngine::Create(&bank_->db, &bank_->graph,
                                   CreditSuissePatternLibrary(), config);
  ASSERT_TRUE(engine.ok()) << engine.status();
  const std::string query = "customers Zürich financial instruments";
  ASSERT_TRUE((*engine)->Search(query).ok());
  ASSERT_TRUE((*engine)->Search(query).ok());
  MetricsSnapshot snapshot = (*engine)->metrics_snapshot();
  EXPECT_GT(snapshot.counter("closure.traverse_misses"), 0u);
  EXPECT_GT(snapshot.counter("closure.traverse_hits"), 0u);
  EXPECT_GT(snapshot.counter("closure.path_lookups"), 0u);
}

TEST_F(PipelineClosureTest, ClosureCountersSurfaceOnStripedEngine) {
  SodaConfig config;
  config.num_shards = 2;
  config.num_threads = 1;
  config.cache_capacity = 0;
  auto engine = SodaEngine::Create(&bank_->db, &bank_->graph,
                                   CreditSuissePatternLibrary(), config);
  ASSERT_TRUE(engine.ok()) << engine.status();
  std::vector<std::string> queries = MiniBankQueries();
  for (const auto& output : (*engine)->SearchAll(queries)) {
    ASSERT_TRUE(output.ok()) << output.status();
  }
  MetricsSnapshot snapshot = (*engine)->metrics_snapshot();
  EXPECT_GT(snapshot.counter("closure.traverse_misses"), 0u);
  EXPECT_GT(snapshot.counter("closure.path_lookups"), 0u);
}

}  // namespace
}  // namespace soda
