#include "core/soda.h"

#include <chrono>
#include <shared_mutex>
#include <utility>

namespace soda {

Result<std::unique_ptr<Soda>> Soda::Create(
    const Database* db, const MetadataGraph* graph, PatternLibrary patterns,
    SodaConfig config) {
  if (db == nullptr) return Status::InvalidArgument("Soda needs a database");
  // Not make_unique: the constructor is private to force construction
  // through this factory (and its init_status_ check).
  std::unique_ptr<Soda> soda(new Soda(db, graph, std::move(patterns), config));
  SODA_RETURN_NOT_OK(soda->init_status_);
  return soda;
}

Soda::Soda(const Database* db, const MetadataGraph* graph,
           PatternLibrary patterns, SodaConfig config)
    : db_(db), graph_(graph), patterns_(std::move(patterns)),
      config_(config), closure_(graph_->num_nodes()) {
  inverted_index_.Build(*db_);
  matcher_ = std::make_unique<PatternMatcher>(graph_, &patterns_);
  init_status_ = join_graph_.Build(*matcher_);
  join_graph_.Bind(*db_);
  classification_.Build(*graph_, &inverted_index_);
  lookup_step_ = std::make_unique<LookupStep>(&classification_, &config_);
  tables_step_ = std::make_unique<TablesStep>(matcher_.get(), &join_graph_,
                                              &config_, &closure_);
  filters_step_ = std::make_unique<FiltersStep>(db_);
  generator_ = std::make_unique<SqlGenerator>(matcher_.get(), &join_graph_,
                                              &classification_);
  executor_ = std::make_unique<Executor>(db_);

  lookup_stage_ = std::make_unique<LookupStage>(lookup_step_.get());
  rank_stage_ = std::make_unique<RankStage>();
  tables_stage_ = std::make_unique<TablesStage>(tables_step_.get());
  filters_stage_ = std::make_unique<FiltersStage>(filters_step_.get());
  sql_stage_ = std::make_unique<SqlStage>(generator_.get());
  stages_ = {lookup_stage_.get(), rank_stage_.get(), tables_stage_.get(),
             filters_stage_.get(), sql_stage_.get()};
}

void Soda::ExecuteSnippet(SodaResult* result, MetricsSink* metrics) const {
  ExecStats stats;
  Result<ResultSet> rs =
      executor_->Execute(result->statement, &stats,
                         static_cast<int64_t>(config_.snippet_rows));
  result->executed = rs.ok();
  result->execution_status = rs.status();
  if (rs.ok()) result->snippet = std::move(*rs);
  if (metrics != nullptr && rs.ok()) {
    metrics->Observe("executor.rows", static_cast<double>(stats.rows_output));
    metrics->Observe("executor.tables", static_cast<double>(stats.tables));
    metrics->Observe("executor.tuples",
                     static_cast<double>(stats.tuples_enumerated));
    if (stats.index_builds > 0) {
      metrics->IncrementCounter("executor.index_builds", stats.index_builds);
    }
    if (stats.seed_reduced) {
      metrics->IncrementCounter("executor.seed_reductions", 1);
    }
  }
}

Result<SearchOutput> Soda::Search(const std::string& query,
                                  MetricsSink* metrics) const {
  // Live-data discipline: hold the database's shared data lock for the
  // whole serve, so concurrent appends (exclusive holders) can never
  // interleave with the pipeline, the index probes or the snippet scan.
  std::shared_lock<std::shared_mutex> data_guard =
      db_->change_log().ReaderLock();

  auto t_start = std::chrono::steady_clock::now();
  QueryContext ctx(query);
  ctx.config = &config_;
  ctx.metrics = metrics;
  SODA_RETURN_NOT_OK(RunPipeline(stages_, &ctx));
  SearchOutput output = FinalizeOutput(std::move(ctx));

  if (config_.execute_snippets) {
    StageScope exec(kExecuteTiming, TraceContext{}, metrics, &output.timings);
    for (SodaResult& result : output.results) {
      ExecuteSnippet(&result, metrics);
      if (metrics != nullptr) {
        metrics->IncrementCounter(
            result.executed ? "snippet.executed" : "snippet.failed", 1);
      }
    }
  }
  output.timings.wall_ms = MsSince(t_start);
  if (metrics != nullptr) {
    metrics->IncrementCounter("soda.search", 1);
    metrics->Observe("search.wall.ms", output.timings.wall_ms);
  }
  return output;
}

}  // namespace soda
