// End-to-end micro benchmarks: full SODA translation (Steps 1-5, no
// execution) per benchmark-query class, executor throughput (two fixed
// statements and the Table 2 workload's snippets), and the
// SodaEngine scaling story — a num_threads sweep over the fan-out of
// Steps 3-5 plus the LRU cache hit path.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "../tests/alloc_counter.h"
#include "common/trace.h"
#include "core/engine.h"
#include "core/freshness.h"
#include "core/session.h"
#include "core/soda.h"
#include "datasets/enterprise.h"
#include "datasets/minibank.h"
#include "eval/workload.h"
#include "pattern/library.h"
#include "sql/executor.h"
#include "sql/parser.h"

namespace {

struct Env {
  std::unique_ptr<soda::EnterpriseWarehouse> warehouse;
  std::unique_ptr<soda::Soda> soda;
  std::map<std::pair<size_t, size_t>, std::unique_ptr<soda::SodaEngine>>
      engines;
  std::string widest_query;  // workload query with the most interpretations

  Env() {
    warehouse = std::move(soda::BuildEnterpriseWarehouse()).value();
    soda::SodaConfig config;
    config.execute_snippets = false;
    soda = soda::Soda::Create(&warehouse->db, &warehouse->graph,
                              soda::CreditSuissePatternLibrary(), config)
               .value();
    size_t best = 0;
    for (const soda::BenchmarkQuery& bench : soda::EnterpriseWorkload()) {
      auto output = soda->Search(bench.keywords);
      if (output.ok() && output->complexity > best) {
        best = output->complexity;
        widest_query = bench.keywords;
      }
    }
    if (widest_query.empty()) widest_query = "private customers family name";
  }

  /// Engine with `threads` workers and a cold-by-default cache. Built on
  /// first use so only swept widths pay construction.
  soda::SodaEngine* engine(size_t threads, size_t cache_capacity = 0) {
    auto key = std::make_pair(threads, cache_capacity);
    auto it = engines.find(key);
    if (it != engines.end()) return it->second.get();
    soda::SodaConfig config;
    config.execute_snippets = false;
    config.num_threads = threads;
    config.cache_capacity = cache_capacity;
    auto created = soda::SodaEngine::Create(&warehouse->db, &warehouse->graph,
                                            soda::CreditSuissePatternLibrary(),
                                            config);
    if (!created.ok()) {
      std::fprintf(stderr, "failed to build engine: %s\n",
                   created.status().ToString().c_str());
      std::exit(1);
    }
    auto* engine = created.value().get();
    engines[key] = std::move(created).value();
    return engine;
  }
};

Env* env() {
  static Env* instance = new Env();
  return instance;
}

// Note: the fixture is built lazily on first use (building it during
// static initialization would race the dataset's own static pools). Every
// benchmark fetches it, and any engine, before its timed loop, so the
// one-time setup cost is never timed.

void TranslateBench(benchmark::State& state, const char* query) {
  const soda::Soda* soda = env()->soda.get();
  for (auto _ : state) {
    auto output = soda->Search(query);
    benchmark::DoNotOptimize(output);
  }
}

void BM_TranslateKeywordOnly(benchmark::State& state) {
  TranslateBench(state, "Sara");
}
BENCHMARK(BM_TranslateKeywordOnly);

void BM_TranslateOntologyJoin(benchmark::State& state) {
  TranslateBench(state, "private customers family name");
}
BENCHMARK(BM_TranslateOntologyJoin);

void BM_TranslatePredicate(benchmark::State& state) {
  TranslateBench(state, "trade order period > date(2011-09-01)");
}
BENCHMARK(BM_TranslatePredicate);

void BM_TranslateAggregation(benchmark::State& state) {
  TranslateBench(state, "sum(investments) group by (currency)");
}
BENCHMARK(BM_TranslateAggregation);

void BM_ExecuteThreeWayJoin(benchmark::State& state) {
  soda::Executor executor(&env()->warehouse->db);
  auto stmt = soda::ParseSql(
      "SELECT indvl_td.id, indvl_nm_hist_td.family_name "
      "FROM party_td, indvl_td, indvl_nm_hist_td "
      "WHERE indvl_td.id = party_td.id "
      "AND indvl_td.curr_name_id = indvl_nm_hist_td.name_id");
  if (!soda::ResolveStatement(env()->warehouse->db, &*stmt).ok()) return;
  // The tables keep the equality indexes a statement builds; build them
  // before timing, so the loop measures the steady state.
  benchmark::DoNotOptimize(executor.Execute(*stmt));
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.Execute(*stmt));
  }
}
BENCHMARK(BM_ExecuteThreeWayJoin);

void BM_ExecuteGroupByAggregation(benchmark::State& state) {
  soda::Executor executor(&env()->warehouse->db);
  auto stmt = soda::ParseSql(
      "SELECT sum(invst_pos_td.invst_amt), invst_pos_td.crncy_cd "
      "FROM invst_pos_td GROUP BY invst_pos_td.crncy_cd");
  if (!soda::ResolveStatement(env()->warehouse->db, &*stmt).ok()) return;
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.Execute(*stmt));
  }
}
BENCHMARK(BM_ExecuteGroupByAggregation);

// Snippet execution as the engine runs it: every statement the 13 Table 2
// queries translate to, with the snippet LIMIT, executed back to back.
// One untimed pass builds the equality indexes and records the
// per-statement work the counters report.
void BM_ExecuteAnalystSnippets(benchmark::State& state) {
  const soda::Soda* soda = env()->soda.get();
  std::vector<soda::SelectStatement> statements;
  for (const soda::BenchmarkQuery& bench : soda::EnterpriseWorkload()) {
    auto output = soda->Search(bench.keywords);
    if (!output.ok()) continue;
    for (const soda::SodaResult& result : output->results) {
      soda::SelectStatement limited = result.statement;
      const auto cap = static_cast<int64_t>(soda->config().snippet_rows);
      if (!limited.limit.has_value() || *limited.limit > cap) {
        limited.limit = cap;
      }
      statements.push_back(std::move(limited));
    }
  }
  size_t tuples = 0, reductions = 0;
  for (const soda::SelectStatement& stmt : statements) {
    soda::ExecStats stats;
    benchmark::DoNotOptimize(soda->executor().Execute(stmt, &stats));
    tuples += stats.tuples_enumerated;
    if (stats.seed_reduced) ++reductions;
  }
  for (auto _ : state) {
    for (const soda::SelectStatement& stmt : statements) {
      benchmark::DoNotOptimize(soda->executor().Execute(stmt));
    }
  }
  const double n = static_cast<double>(statements.size());
  state.counters["snippet_statements"] = n;
  state.counters["tuples_per_statement"] =
      n > 0 ? static_cast<double>(tuples) / n : 0.0;
  state.counters["seed_reductions"] = static_cast<double>(reductions);
}
BENCHMARK(BM_ExecuteAnalystSnippets);

// ---------------------------------------------------------------------------
// SodaEngine: one query end to end. The engine never splits one query
// across its pool, so only the 1-thread row is run; "interpretations"
// records how much work the widest query carries.
// ---------------------------------------------------------------------------

void BM_EngineFanoutWidestQuery(benchmark::State& state) {
  size_t threads = static_cast<size_t>(state.range(0));
  soda::SodaEngine* engine = env()->engine(threads);
  const std::string& query = env()->widest_query;
  size_t interpretations = 0;
  for (auto _ : state) {
    auto output = engine->Search(query);
    benchmark::DoNotOptimize(output);
    if (output.ok()) interpretations = output->complexity;
  }
  state.counters["threads"] = static_cast<double>(engine->num_threads());
  state.counters["interpretations"] = static_cast<double>(interpretations);
}
BENCHMARK(BM_EngineFanoutWidestQuery)->Arg(1);

// The full 13-query paper workload per iteration, one Search at a time.
void BM_EngineFanoutWorkload(benchmark::State& state) {
  size_t threads = static_cast<size_t>(state.range(0));
  soda::SodaEngine* engine = env()->engine(threads);
  const auto& workload = soda::EnterpriseWorkload();
  for (auto _ : state) {
    for (const soda::BenchmarkQuery& bench : workload) {
      benchmark::DoNotOptimize(engine->Search(bench.keywords));
    }
  }
  state.counters["threads"] = static_cast<double>(engine->num_threads());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(workload.size()));
}
BENCHMARK(BM_EngineFanoutWorkload)->Arg(1);

// ---------------------------------------------------------------------------
// SodaEngine: LRU cache hit path and hit rate under dashboard-style
// repetition (every query repeats after the first round).
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// SodaEngine: batched SearchAll — the whole 13-query workload admitted as
// one batch per iteration, fanned across the pool one query per task —
// the thread sweep that still means something. "stage_samples" proves
// the per-stage metrics sink saw the traffic (CI greps for it).
// ---------------------------------------------------------------------------

void BM_EngineBatchSearchAll(benchmark::State& state) {
  size_t threads = static_cast<size_t>(state.range(0));
  soda::SodaEngine* engine = env()->engine(threads);
  std::vector<std::string> queries;
  for (const soda::BenchmarkQuery& bench : soda::EnterpriseWorkload()) {
    queries.push_back(bench.keywords);
  }
  for (auto _ : state) {
    auto outputs = engine->SearchAll(queries);
    benchmark::DoNotOptimize(outputs);
  }
  soda::MetricsSnapshot snapshot = engine->metrics_snapshot();
  state.counters["threads"] = static_cast<double>(engine->num_threads());
  state.counters["batch_queries"] =
      static_cast<double>(snapshot.counter("batch.queries"));
  const soda::HistogramSnapshot* lookup =
      snapshot.histogram("stage.lookup.ms");
  state.counters["stage_samples"] =
      lookup == nullptr ? 0.0 : static_cast<double>(lookup->count);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(queries.size()));
}
BENCHMARK(BM_EngineBatchSearchAll)->Arg(1)->Arg(4);

// Tracing overhead guard: the BM_EngineBatchSearchAll workload with the
// trace layer at three sampling settings — Arg is sample_every. Arg(0)
// (compiled in, sampled off: every span is one relaxed load + branch)
// must stay within noise of the untraced baseline; Arg(1) keeps every
// trace, Arg(2) alternates keep/drop so both tails of the head-sampling
// decision are exercised. "trace_spans" / "trace_sampled" /
// "trace_dropped" feed the CI counter guard for the trace surface.
void BM_TraceOverhead(benchmark::State& state) {
  size_t sample_every = static_cast<size_t>(state.range(0));
  static std::map<size_t, std::unique_ptr<soda::SodaEngine>> engines;
  auto it = engines.find(sample_every);
  if (it == engines.end()) {
    soda::SodaConfig config;
    config.execute_snippets = false;
    config.num_threads = 2;
    config.cache_capacity = 0;  // cold: trace the full pipeline each op
    auto created = soda::SodaEngine::Create(&env()->warehouse->db,
                                            &env()->warehouse->graph,
                                            soda::CreditSuissePatternLibrary(),
                                            config);
    if (!created.ok()) {
      std::fprintf(stderr, "failed to build trace engine: %s\n",
                   created.status().ToString().c_str());
      std::exit(1);
    }
    it = engines.emplace(sample_every, std::move(created).value()).first;
  }
  soda::SodaEngine* engine = it->second.get();
  soda::TraceRecorder& recorder = soda::TraceRecorder::Instance();
  recorder.Clear();
  recorder.Configure(sample_every, /*slow_threshold_ms=*/0.0);
  std::vector<std::string> queries;
  for (const soda::BenchmarkQuery& bench : soda::EnterpriseWorkload()) {
    queries.push_back(bench.keywords);
  }
  for (auto _ : state) {
    auto outputs = engine->SearchAll(queries);
    benchmark::DoNotOptimize(outputs);
  }
  // Leave the process-wide recorder off for whatever bench runs next.
  recorder.Configure(0, 0.0);
  soda::MetricsSnapshot snapshot = engine->metrics_snapshot();
  state.counters["sample_every"] = static_cast<double>(sample_every);
  state.counters["trace_spans"] =
      static_cast<double>(snapshot.counter("trace.spans"));
  state.counters["trace_sampled"] =
      static_cast<double>(snapshot.counter("trace.sampled"));
  state.counters["trace_dropped"] =
      static_cast<double>(snapshot.counter("trace.dropped"));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(queries.size()));
}
BENCHMARK(BM_TraceOverhead)->Arg(0)->Arg(1)->Arg(2);

// Dashboard-style batch with heavy repetition: every unique query appears
// four times, so dedup should hand back 3/4 of the batch as in-batch
// hits. "dedup_hits" and "cache_hits" guard the batch accounting.
void BM_EngineBatchDedup(benchmark::State& state) {
  soda::SodaEngine* engine = env()->engine(/*threads=*/2,
                                           /*cache_capacity=*/256);
  std::vector<std::string> queries;
  for (const soda::BenchmarkQuery& bench : soda::EnterpriseWorkload()) {
    for (int repeat = 0; repeat < 4; ++repeat) {
      queries.push_back(bench.keywords);
    }
  }
  for (auto _ : state) {
    auto outputs = engine->SearchAll(queries);
    benchmark::DoNotOptimize(outputs);
  }
  soda::MetricsSnapshot snapshot = engine->metrics_snapshot();
  state.counters["dedup_hits"] =
      static_cast<double>(snapshot.counter("batch.dedup_hits"));
  state.counters["cache_hits"] =
      static_cast<double>(engine->cache_stats().hits);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(queries.size()));
}
BENCHMARK(BM_EngineBatchDedup);

// Async snippet streaming: translated SQL returns immediately, snippets
// execute inside the returned stream's Run() and stream through the
// callback; Run() is the per-iteration completion point.
// "snippets_streamed" guards the exactly-once delivery path end to end.
void BM_EngineAsyncStream(benchmark::State& state) {
  static soda::SodaEngine* engine = [] {
    soda::SodaConfig config;
    config.execute_snippets = true;  // streaming is the point here
    config.num_threads = 4;
    config.cache_capacity = 0;
    auto created = soda::SodaEngine::Create(
        &env()->warehouse->db, &env()->warehouse->graph,
        soda::CreditSuissePatternLibrary(), config);
    if (!created.ok()) {
      std::fprintf(stderr, "failed to build async engine: %s\n",
                   created.status().ToString().c_str());
      std::exit(1);
    }
    return created.value().release();
  }();
  std::vector<std::string> queries;
  for (const soda::BenchmarkQuery& bench : soda::EnterpriseWorkload()) {
    queries.push_back(bench.keywords);
  }
  size_t streamed = 0;
  for (auto _ : state) {
    size_t delivered = 0;
    soda::AsyncSearch search = engine->SearchAllAsync(
        queries, [&delivered](size_t, size_t, const soda::SodaResult&) {
          ++delivered;
        });
    benchmark::DoNotOptimize(search.outputs);
    search.snippets.Run();
    streamed += delivered;
  }
  state.counters["snippets_streamed"] = static_cast<double>(streamed);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(queries.size()));
}
BENCHMARK(BM_EngineAsyncStream);

// One cold query per call, as an analyst's request runs it: a batch of
// one through SearchAllAsync plus Run(), one thread, the cache off and
// snippets on. "allocs_per_query" is the heap allocations per query over
// the Table 2 workload (what alloc_budget_test bounds; 0 under a
// sanitizer, which interposes the allocator).
void BM_EngineColdAsyncQuery(benchmark::State& state) {
  static soda::SodaEngine* engine = [] {
    soda::SodaConfig config;
    config.num_threads = 1;
    config.cache_capacity = 0;
    config.execute_snippets = true;
    return soda::SodaEngine::Create(&env()->warehouse->db,
                                    &env()->warehouse->graph,
                                    soda::CreditSuissePatternLibrary(), config)
        .value()
        .release();
  }();
  std::vector<std::string> queries;
  for (const soda::BenchmarkQuery& bench : soda::EnterpriseWorkload()) {
    queries.push_back(bench.keywords);
  }
  auto serve = [&](const std::string& query) {
    soda::AsyncSearch search = engine->SearchAllAsync(
        std::span<const std::string>(&query, 1), nullptr);
    search.snippets.Run();
  };
  for (const std::string& query : queries) serve(query);  // warm-up
  size_t allocations = 0;
  for (const std::string& query : queries) {
    allocations += soda::alloc_counter::Count([&] { serve(query); });
  }
  size_t q = 0;
  for (auto _ : state) {
    serve(queries[q]);
    q = (q + 1) % queries.size();
  }
  state.counters["allocs_per_query"] =
      static_cast<double>(allocations) / static_cast<double>(queries.size());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineColdAsyncQuery);

// Striped result cache: the 13-query workload admitted as one batch by
// an engine of Arg(0) cache stripes x Arg(1) workers per stripe (one pool
// of stripes x threads), each stripe an LRU of 4 entries. One stripe
// holds 4 of the 13 answers, so the batch thrashes it; more stripes hold
// more of them, each in the stripe its folded key hash picks. On the
// 1-vCPU CI box the pool's wall clock stays flat (its workers time-slice
// one core) — read the hit rate, and re-record on multi-core hardware to
// see the fan-out. "shards" (the stripe count), "stripe_capacity" and
// "stripe_entries" feed the CI counter guard for the striped cache.
void BM_StripedSearchAll(benchmark::State& state) {
  size_t stripes = static_cast<size_t>(state.range(0));
  size_t threads = static_cast<size_t>(state.range(1));
  static std::map<std::pair<size_t, size_t>,
                  std::unique_ptr<soda::SodaEngine>>
      engines;
  auto key = std::make_pair(stripes, threads);
  auto it = engines.find(key);
  if (it == engines.end()) {
    soda::SodaConfig config;
    config.execute_snippets = false;
    config.num_shards = stripes;
    config.num_threads = threads;
    config.cache_capacity = 4;  // per stripe
    auto created = soda::SodaEngine::Create(
        &env()->warehouse->db, &env()->warehouse->graph,
        soda::CreditSuissePatternLibrary(), config);
    if (!created.ok()) {
      std::fprintf(stderr, "failed to build striped engine: %s\n",
                   created.status().ToString().c_str());
      std::exit(1);
    }
    it = engines.emplace(key, std::move(created).value()).first;
  }
  soda::SodaEngine* engine = it->second.get();
  std::vector<std::string> queries;
  for (const soda::BenchmarkQuery& bench : soda::EnterpriseWorkload()) {
    queries.push_back(bench.keywords);
  }
  for (auto _ : state) {
    auto outputs = engine->SearchAll(queries);
    benchmark::DoNotOptimize(outputs);
  }
  soda::CacheStats stats = engine->cache_stats();
  state.counters["shards"] = static_cast<double>(stripes);
  state.counters["threads"] = static_cast<double>(engine->num_threads());
  state.counters["stripe_capacity"] = static_cast<double>(stats.capacity);
  state.counters["stripe_entries"] = static_cast<double>(stats.size);
  state.counters["hit_rate"] = stats.hit_rate();
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(queries.size()));
}
BENCHMARK(BM_StripedSearchAll)
    ->Args({1, 1})
    ->Args({1, 4})
    ->Args({2, 1})
    ->Args({2, 4})
    ->Args({4, 1})
    ->Args({4, 4});

// ---------------------------------------------------------------------------
// Compiled closures: the full workload translated serially over the
// entry-point traversal memo, APSP join-path matrices and
// integer-interned adjacency. Per-op CPU time is the number to read
// (1-vCPU caveat as above); "closure_traverse_hits" and
// "closure_path_lookups" feed the CI counter guard.
// ---------------------------------------------------------------------------

// One snippet-free enterprise core shared by the Step-3 and join-path
// rows below.
const soda::Soda& ClosureSoda() {
  static std::unique_ptr<soda::Soda> soda = [] {
    soda::SodaConfig config;
    config.execute_snippets = false;
    return soda::Soda::Create(&env()->warehouse->db,
                              &env()->warehouse->graph,
                              soda::CreditSuissePatternLibrary(), config)
        .value();
  }();
  return *soda;
}

void BM_EngineClosure(benchmark::State& state) {
  static std::unique_ptr<soda::SodaEngine> engine = [] {
    soda::SodaConfig config;
    config.execute_snippets = false;
    config.num_threads = 1;  // serial: isolate the translation cost
    config.cache_capacity = 0;
    auto created = soda::SodaEngine::Create(&env()->warehouse->db,
                                            &env()->warehouse->graph,
                                            soda::CreditSuissePatternLibrary(),
                                            config);
    if (!created.ok()) {
      std::fprintf(stderr, "failed to build closure engine: %s\n",
                   created.status().ToString().c_str());
      std::exit(1);
    }
    return std::move(created).value();
  }();
  const auto& workload = soda::EnterpriseWorkload();
  for (auto _ : state) {
    for (const soda::BenchmarkQuery& bench : workload) {
      benchmark::DoNotOptimize(engine->Search(bench.keywords));
    }
  }
  soda::MetricsSnapshot snapshot = engine->metrics_snapshot();
  state.counters["closure_traverse_hits"] =
      static_cast<double>(snapshot.counter("closure.traverse_hits"));
  state.counters["closure_path_lookups"] =
      static_cast<double>(snapshot.counter("closure.path_lookups"));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(workload.size()));
}
BENCHMARK(BM_EngineClosure);

// Step 3 in isolation (the Figure 6 path): one fixed entry-point set,
// translated through TablesStep::Run over the traversal memo + APSP
// closure.
void BM_TablesStepClosure(benchmark::State& state) {
  const soda::Soda& translator = ClosureSoda();
  std::vector<soda::EntryPoint> entries;
  for (const char* phrase :
       {"private customers", "family name", "organizations"}) {
    auto candidates = translator.classification().Lookup(phrase);
    if (!candidates.empty()) entries.push_back(candidates.front());
  }
  if (entries.empty()) {
    state.SkipWithError("no entry points resolved");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(translator.tables_step().Run(entries));
  }
  state.counters["entry_points"] = static_cast<double>(entries.size());
}
BENCHMARK(BM_TablesStepClosure);

// Join-path discovery in isolation (the Figure 9 path): DirectPath over
// every ordered pair of the first tables of the harvested edge list —
// matrix min-scan + reconstruction.
void BM_JoinPathClosure(benchmark::State& state) {
  const soda::JoinGraph& join_graph = ClosureSoda().join_graph();
  std::vector<soda::TableId> tables;
  for (soda::EdgeId edge = 0; edge < join_graph.num_edges(); ++edge) {
    const auto& [from, to] = join_graph.ends(edge);
    soda::AppendUnique(&tables, from);
    soda::AppendUnique(&tables, to);
    if (tables.size() >= 12) break;
  }
  size_t paths = 0;
  for (auto _ : state) {
    for (size_t i = 0; i < tables.size(); ++i) {
      for (size_t j = 0; j < tables.size(); ++j) {
        if (i == j) continue;
        std::vector<soda::EdgeId> path;
        std::vector<soda::TableId> path_tables;
        if (join_graph.DirectPath({&tables[i], 1}, {&tables[j], 1}, &path,
                                  &path_tables)) {
          ++paths;
        }
        benchmark::DoNotOptimize(path);
      }
    }
  }
  state.counters["path_pairs"] =
      static_cast<double>(tables.size() * (tables.size() - 1));
  benchmark::DoNotOptimize(paths);
}
BENCHMARK(BM_JoinPathClosure);

// Steps 3 and 5 plus result dedup over the ranked interpretations of the
// 13 Table 2 queries, on a warm closure. Lookup, rank and Step 4 run once
// in setup; each iteration copies every query's post-Rank states, runs
// the tables and sql stages on each (replaying the filters Step 4 made in
// setup) and merges them with FinalizeOutput. Per-op time covers the
// whole workload; "interpretations" and "results" count one pass.
void BM_TablesSqlDedup(benchmark::State& state) {
  const soda::Soda& soda = ClosureSoda();
  // lookup, rank, tables, filters, sql
  const std::vector<const soda::PipelineStage*>& stages = soda.stages();
  struct Prepared {
    std::unique_ptr<soda::QueryContext> ranked;
    // Step 4's output per state; nullopt when Step 3 or 4 retired it.
    std::vector<std::optional<std::vector<soda::GeneratedFilter>>> filters;
  };
  std::vector<Prepared> prepared;
  for (const soda::BenchmarkQuery& bench : soda::EnterpriseWorkload()) {
    Prepared query;
    query.ranked = std::make_unique<soda::QueryContext>(bench.keywords);
    query.ranked->config = &soda.config();
    if (!soda::RunQueryStages(stages, query.ranked.get()).ok()) continue;
    for (const soda::InterpretationState& ranked : query.ranked->states) {
      soda::InterpretationState warm = ranked;  // also fills the closure
      soda::RunInterpretationStages(
          std::span<const soda::PipelineStage* const>(stages).first(4),
          *query.ranked, &warm);
      query.filters.push_back(warm.dropped ? std::nullopt
                                           : std::optional(warm.filters));
    }
    prepared.push_back(std::move(query));
  }
  size_t interpretations = 0;
  size_t results = 0;
  for (auto _ : state) {
    interpretations = 0;
    results = 0;
    for (const Prepared& query : prepared) {
      soda::QueryContext ctx(query.ranked->raw_query);
      ctx.config = query.ranked->config;
      ctx.parsed = query.ranked->parsed;
      ctx.states = query.ranked->states;
      for (size_t s = 0; s < ctx.states.size(); ++s) {
        soda::InterpretationState* interpretation = &ctx.states[s];
        if (interpretation->dropped || !query.filters[s].has_value()) {
          continue;
        }
        (void)stages[2]->RunOne(ctx, interpretation);
        interpretation->filters = *query.filters[s];
        (void)stages[4]->RunOne(ctx, interpretation);
        ++interpretations;
      }
      soda::SearchOutput output = soda::FinalizeOutput(std::move(ctx));
      results += output.results.size();
      benchmark::DoNotOptimize(output);
    }
  }
  state.counters["interpretations"] = static_cast<double>(interpretations);
  state.counters["results"] = static_cast<double>(results);
}
BENCHMARK(BM_TablesSqlDedup);

void BM_EngineCacheHit(benchmark::State& state) {
  soda::SodaEngine* engine = env()->engine(/*threads=*/2,
                                           /*cache_capacity=*/64);
  const std::string& query = env()->widest_query;
  benchmark::DoNotOptimize(engine->Search(query));  // warm the entry
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->Search(query));
  }
  state.counters["hit_rate"] = engine->cache_stats().hit_rate();
}
BENCHMARK(BM_EngineCacheHit);

void BM_EngineCachedWorkload(benchmark::State& state) {
  soda::SodaEngine* engine = env()->engine(/*threads=*/2,
                                           /*cache_capacity=*/128);
  const auto& workload = soda::EnterpriseWorkload();
  for (auto _ : state) {
    for (const soda::BenchmarkQuery& bench : workload) {
      benchmark::DoNotOptimize(engine->Search(bench.keywords));
    }
  }
  state.counters["hit_rate"] = engine->cache_stats().hit_rate();
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(workload.size()));
}
BENCHMARK(BM_EngineCachedWorkload);

// The live-base-data cycle: serve a cached query, append a row that its
// answer depends on (new Zürich address), let the FreshnessManager apply
// the index delta and invalidate the key, and serve again cold. Runs an
// engine with Arg(0) cache stripes on its own mini-bank — the shared
// enterprise Env must stay immutable for the other benches. The engine
// has one core, so the delta is applied once whatever the stripe count:
// "freshness_delta_postings" (new postings per append) stays flat from
// shards=1 to shards=4. Each run builds its own env and makes a fixed
// number of appends, so every run measures the same table sizes.
struct FreshnessEnv {
  std::unique_ptr<soda::MiniBank> bank;
  std::unique_ptr<soda::SodaEngine> engine;
  std::unique_ptr<soda::FreshnessManager> freshness;
  int64_t next_id = 100000;

  explicit FreshnessEnv(size_t stripes) {
    bank = std::move(soda::BuildMiniBank()).value();
    soda::SodaConfig config;
    config.num_shards = stripes;
    config.num_threads = 2;
    config.cache_capacity = 64;
    auto created = soda::SodaEngine::Create(
        &bank->db, &bank->graph, soda::CreditSuissePatternLibrary(), config);
    if (!created.ok()) {
      std::fprintf(stderr, "failed to build freshness engine: %s\n",
                   created.status().ToString().c_str());
      std::exit(1);
    }
    engine = std::move(created).value();
    freshness =
        std::make_unique<soda::FreshnessManager>(&bank->db.change_log());
    freshness->Track(engine.get());
  }
};

void BM_FreshnessAppendInvalidate(benchmark::State& state) {
  FreshnessEnv env(static_cast<size_t>(state.range(0)));
  soda::Table* addresses = env.bank->db.FindTable("addresses");
  const std::string query = "customers Zürich financial instruments";
  for (auto _ : state) {
    // The previous iteration's append invalidated this key, so every
    // serve is a cold pipeline run over the grown table. The street is
    // new on every append, so each delta books fresh postings.
    benchmark::DoNotOptimize(env.engine->Search(query));
    int64_t id = env.next_id++;
    addresses->AppendUnchecked({soda::Value::Int(id), soda::Value::Int(id),
                                soda::Value::Str("Benchstrasse " +
                                                 std::to_string(id)),
                                soda::Value::Str("Zürich"),
                                soda::Value::Str("CH")});
  }
  auto snapshot = env.freshness->metrics_snapshot();
  const double iterations = static_cast<double>(state.iterations());
  state.counters["shards"] = static_cast<double>(state.range(0));
  state.counters["freshness_events"] =
      static_cast<double>(snapshot.counter("freshness.events"));
  state.counters["freshness_keys_invalidated"] =
      static_cast<double>(snapshot.counter("freshness.keys_invalidated"));
  state.counters["freshness_delta_postings"] =
      static_cast<double>(snapshot.counter("freshness.delta_postings")) /
      iterations;
}
BENCHMARK(BM_FreshnessAppendInvalidate)->Arg(1)->Arg(4)->Iterations(500);

// A session engine over the shared enterprise warehouse: snippets off,
// so a serve is translation alone.
soda::SodaEngine* SessionEngine(size_t cache_capacity) {
  soda::SodaConfig config;
  config.execute_snippets = false;
  config.num_threads = 2;
  config.cache_capacity = cache_capacity;
  auto created = soda::SodaEngine::Create(&env()->warehouse->db,
                                          &env()->warehouse->graph,
                                          soda::CreditSuissePatternLibrary(),
                                          config);
  if (!created.ok()) {
    std::fprintf(stderr, "failed to build session engine: %s\n",
                 created.status().ToString().c_str());
    std::exit(1);
  }
  return created.value().release();
}

constexpr char kSessionQuestion[] = "private customers family name";

// The interactive-session loop: one Ask captures a TranslationPlan, then
// every iteration flips a pin/ban constraint and Refines — a pure Step-5
// re-run over the session-cached Steps 1-4. "session_refines" and
// "session_stages_skipped" feed the CI counter guard for the session
// surface; compare against BM_TranslateOntologyJoin for the cold cost of
// what a refine skips.
void BM_SessionRefine(benchmark::State& state) {
  // Cache off: measure the plan resume, not the cache.
  static soda::SodaEngine* engine = SessionEngine(/*cache_capacity=*/0);
  soda::SodaSession session(engine);
  auto first = session.Ask(kSessionQuestion);
  if (!first.ok()) {
    state.SkipWithError("session Ask failed");
    return;
  }
  bool pin = false;
  for (auto _ : state) {
    session.ClearConstraints();
    if (pin) {
      session.PinTable("party_td");
    } else {
      session.BanTable("party_td");
    }
    pin = !pin;
    benchmark::DoNotOptimize(session.Refine());
  }
  soda::MetricsSnapshot snapshot = engine->metrics_snapshot();
  state.counters["session_refines"] =
      static_cast<double>(snapshot.counter("session.refines"));
  state.counters["session_stages_skipped"] =
      static_cast<double>(snapshot.counter("session.stages_skipped"));
}
BENCHMARK(BM_SessionRefine);

// A new user steering a popular question: an earlier session's Ask
// cached the answer, so every iteration starts a session whose Ask is a
// hit, pins a table and Refines. The first Refine resumes the plan cached
// beside the answer; "first_refine_stages_skipped" reads 4 when it does
// and 0 when it re-runs the whole pipeline.
void BM_SessionFirstRefineAfterCachedAsk(benchmark::State& state) {
  static soda::SodaEngine* engine = SessionEngine(/*cache_capacity=*/64);
  if (!soda::SodaSession(engine).Ask(kSessionQuestion).ok()) {  // fill once
    state.SkipWithError("filling Ask failed");
    return;
  }
  double stages_skipped = 0.0;
  for (auto _ : state) {
    soda::SodaSession session(engine);
    benchmark::DoNotOptimize(session.Ask(kSessionQuestion));
    session.PinTable("party_td");
    benchmark::DoNotOptimize(session.Refine());
    stages_skipped += static_cast<double>(session.last_stages_skipped());
  }
  state.counters["first_refine_stages_skipped"] =
      stages_skipped / static_cast<double>(state.iterations());
  state.counters["cache_hit_rate"] = engine->cache_stats().hit_rate();
}
BENCHMARK(BM_SessionFirstRefineAfterCachedAsk);

}  // namespace
