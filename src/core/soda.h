// SODA — Search over DAta warehouse.
//
// The public entry point of the library. A Soda instance binds together a
// storage catalog (the base data), the extended metadata graph, the graph
// pattern library, the inverted index, and the pipeline configuration, and
// answers keyword + operator queries with a ranked list of executable SQL
// statements plus result snippets.
//
// Architecture (this layer and up):
//
//   ┌────────────────────────────────────────────────────────────────┐
//   │ SodaEngine (core/engine.h)                                     │
//   │   LRU result cache in num_shards stripes · one worker pool     │
//   │   fanning out batch queries · one translation core:            │
//   │   Search/SearchSession are a batch of one, SearchAll/          │
//   │   SearchAllAsync the deduplicated batch; the async half is a   │
//   │   returned SnippetStream the caller runs                       │
//   └──────────────────────────┬─────────────────────────────────────┘
//                              │ owns one, runs the stage list of
//   ┌──────────────────────────▼─────────────────────────────────────┐
//   │ Soda (this header)        serial reference driver (Search)     │
//   │   owns the indexes (inverted, classification, join graph), the │
//   │   step objects, and the ordered PipelineStage adapters         │
//   └──────────────────────────┬─────────────────────────────────────┘
//                              │ runs
//   ┌──────────────────────────▼─────────────────────────────────────┐
//   │ Pipeline (core/pipeline.h) — paper Figure 4 as stages          │
//   │   LookupStage → RankStage → TablesStage → FiltersStage →       │
//   │   SqlStage, over one QueryContext; per-interpretation stages   │
//   │   are independent per InterpretationState, which is what the   │
//   │   engine exploits for parallelism. Steps 3-5 work on the join  │
//   │   graph's table and edge ids; FinalizeOutput merges in ranked  │
//   │   order and dedups on those ids (SameStatement), so serial and │
//   │   concurrent execution produce byte-identical result lists.    │
//   │   Each stage run is timed by one StageScope (span, histogram   │
//   │   and StepTimings slot from the same clock readings).          │
//   └────────────────────────────────────────────────────────────────┘
//
// Typical use (serial, library-style):
//
//   soda::Database db;
//   soda::MetadataGraph graph;
//   model.Compile(&graph, &db);          // WarehouseModel
//   ... populate base data ...
//   auto soda = soda::Soda::Create(&db, &graph,
//                                  soda::CreditSuissePatternLibrary(), {});
//   auto output = (*soda)->Search("customers Zürich financial instruments");
//   for (const auto& result : output->results) {
//     std::cout << result.sql << "\n" << result.snippet.ToAsciiTable();
//   }
//
// For a service-style deployment (shared across threads, cached), wrap the
// same arguments in a soda::SodaEngine instead — see core/engine.h.

#ifndef SODA_CORE_SODA_H_
#define SODA_CORE_SODA_H_

#include <memory>
#include <string>
#include <vector>

#include "core/classification.h"
#include "core/closure.h"
#include "core/config.h"
#include "core/filters_step.h"
#include "core/input_query.h"
#include "core/join_graph.h"
#include "core/lookup.h"
#include "core/pipeline.h"
#include "core/sql_generator.h"
#include "core/tables_step.h"
#include "pattern/library.h"
#include "pattern/matcher.h"
#include "sql/executor.h"
#include "sql/result_set.h"
#include "text/inverted_index.h"

namespace soda {

class Soda {
 public:
  /// Builds the search engine over an existing catalog + metadata graph,
  /// propagating any index-construction failure (e.g. a malformed join
  /// pattern) instead of deferring it. `db` (required: a null one is
  /// InvalidArgument) and `graph` must outlive the returned instance and
  /// every result or plan it hands out (their entry points borrow from
  /// both, core/entry_point.h), and `graph` must not be modified while
  /// the instance lives: rebuild it after a metadata edit.
  /// This is the only way to construct a Soda — a
  /// returned instance is always fully initialized, so Search never has
  /// to report a construction-time failure after the fact.
  ///
  /// One instance is one immutable core: a SodaEngine builds one and
  /// serves every query from it, so the indexes, the join graph and the
  /// Step-3 closure exist once per engine.
  static Result<std::unique_ptr<Soda>> Create(
      const Database* db, const MetadataGraph* graph, PatternLibrary patterns,
      SodaConfig config);

  /// Runs the five-step pipeline on a query string: the ordered stage
  /// list from stages(), executed serially, followed by snippet
  /// execution. Thread-safe: Search is const and all mutable state lives
  /// in the per-call QueryContext.
  Result<SearchOutput> Search(const std::string& query) const {
    return Search(query, nullptr);
  }

  /// As Search, additionally streaming per-stage latency samples
  /// ("stage.<name>.ms", including "stage.execute.ms") and snippet
  /// outcome counters into `metrics`. nullptr disables observation. This
  /// is the library-style hook for deployments that want fleet metrics
  /// without the engine, and the serial reference the engine's
  /// concurrent translation core is checked against.
  Result<SearchOutput> Search(const std::string& query,
                              MetricsSink* metrics) const;

  /// The ordered stage list (lookup, rank, tables, filters, sql). The
  /// SodaEngine drives these same stages concurrently, and resumes a
  /// session plan at index 1 (rank) or 4 (sql).
  const std::vector<const PipelineStage*>& stages() const { return stages_; }

  /// Executes `statement` with the snippet row limit and stores the
  /// outcome on `result`. Used by Search and the engine after the merge. When
  /// `metrics` is set, executor-level distributions ("executor.rows",
  /// "executor.tables", "executor.tuples") are observed per executed
  /// statement, and the "executor.index_builds" counter counts the column
  /// indexes it built for the first time.
  void ExecuteSnippet(SodaResult* result,
                      MetricsSink* metrics = nullptr) const;

  /// Incremental base-data maintenance: applies one storage ChangeEvent
  /// to the inverted index in place (the classification index resolves
  /// base-data phrases through it, so lookups see the appended values
  /// immediately; the metadata graph, join graph and closures stay
  /// untouched — only base data moves). Returns the number of new
  /// posting entries. MUST be called under the owning database's change
  /// log exclusive data lock — in practice, from a ChangeListener such
  /// as the FreshnessManager (core/freshness.h).
  size_t ApplyBaseDataDelta(const ChangeEvent& event) {
    return inverted_index_.ApplyDelta(event);
  }

  /// Exposed internals for benches, tests and the example applications.
  const ClassificationIndex& classification() const {
    return classification_;
  }
  const InvertedIndex& inverted_index() const { return inverted_index_; }
  const JoinGraph& join_graph() const { return join_graph_; }
  const PatternMatcher& matcher() const { return *matcher_; }
  const LookupStep& lookup_step() const { return *lookup_step_; }
  const TablesStep& tables_step() const { return *tables_step_; }
  const FiltersStep& filters_step() const { return *filters_step_; }
  const SqlGenerator& generator() const { return *generator_; }
  const Executor& executor() const { return *executor_; }
  const SodaConfig& config() const { return config_; }
  const Database* database() const { return db_; }
  const MetadataGraph* graph() const { return graph_; }

  /// The Step-3 traversal memo.
  const EntryPointClosure& entry_point_closure() const { return closure_; }

 private:
  /// Index construction happens here (the paper reports it separately
  /// from query processing); any failure lands in init_status_, which
  /// Create checks before handing the instance out.
  Soda(const Database* db, const MetadataGraph* graph, PatternLibrary patterns,
       SodaConfig config);

  const Database* db_;
  const MetadataGraph* graph_;
  PatternLibrary patterns_;
  SodaConfig config_;
  Status init_status_;

  InvertedIndex inverted_index_;
  ClassificationIndex classification_;
  std::unique_ptr<PatternMatcher> matcher_;
  JoinGraph join_graph_;
  EntryPointClosure closure_;
  std::unique_ptr<LookupStep> lookup_step_;
  std::unique_ptr<TablesStep> tables_step_;
  std::unique_ptr<FiltersStep> filters_step_;
  std::unique_ptr<SqlGenerator> generator_;
  std::unique_ptr<Executor> executor_;

  // The stage adapters, in pipeline order, and the list handed to the
  // drivers. Stages only hold pointers to the step objects above.
  std::unique_ptr<LookupStage> lookup_stage_;
  std::unique_ptr<RankStage> rank_stage_;
  std::unique_ptr<TablesStage> tables_stage_;
  std::unique_ptr<FiltersStage> filters_stage_;
  std::unique_ptr<SqlStage> sql_stage_;
  std::vector<const PipelineStage*> stages_;
};

}  // namespace soda

#endif  // SODA_CORE_SODA_H_
