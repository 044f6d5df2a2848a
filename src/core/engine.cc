#include "core/engine.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/failpoint.h"
#include "common/strings.h"
#include "common/trace.h"
#include "storage/change_log.h"

namespace soda {

namespace {

// Every counter series the engine (and the pipeline/snippet code running
// under its sink) can ever emit. Pre-registered at zero on construction
// and replayed into any later-installed sink, so exporters see the full
// series set from the first scrape — not only after the first event of
// each kind (prometheus_metrics_test pins the list).
constexpr const char* kEngineCounterSeries[] = {
    "engine.search", "engine.search_all", "engine.search_all_async",
    "engine.task_exceptions",
    "cache.hit", "cache.miss", "cache.invalidated",
    "cache.stale_insert_skipped",
    "batch.queries", "batch.unique", "batch.interpretations",
    "batch.dedup_hits",
    "session.refines", "session.stages_skipped",
    "snippet.executed", "snippet.failed", "snippet.exception",
    "snippet.streamed", "snippet.callback_exception",
    "executor.index_builds", "executor.seed_reductions",
    "lookup.interpretations_capped",
    "closure.traverse_hits", "closure.traverse_misses",
    "closure.path_lookups",
    "trace.spans", "trace.sampled", "trace.dropped", "trace.slow_queries",
};

// Indexes into Soda::stages() (lookup, rank, tables, filters, sql) of
// the first stage a session resume runs; each equals the stages_skipped
// the serve reports.
constexpr size_t kRankStage = 1;  // bindings changed: re-rank
constexpr size_t kSqlStage = 4;   // pins/bans only: Step 5 alone

void ClearSnippet(SodaResult* result) {
  result->snippet = ResultSet();
  result->executed = false;
  result->execution_status = Status::OK();
}

void PreRegisterEngineCounters(MetricsSink* sink) {
  for (const char* name : kEngineCounterSeries) {
    sink->IncrementCounter(name, 0);
  }
}

// The prologue every serving entry point shares. It holds the
// whole-serve shared data lock — concurrent appends (exclusive holders)
// order entirely before or after the serve, so the cache probe, the plan
// freshness check, the pipeline, the snippet scan and the cache insert
// all see one database state — books the entry counter, and opens the
// root span named after the entry point: joined to the caller's trace
// (an HTTP request's) when one is installed on this thread,
// otherwise in a trace of its own when the recorder is on. The untraced
// common case is one relaxed load and a branch. The destructor ends the
// root span and finishes an owned trace on every exit path, booking the
// trace.* counters from the recorder's verdict.
class ServeScope {
 public:
  ServeScope(std::shared_lock<std::shared_mutex> data_guard,
             MetricsSink* sink, const char* root)
      : data_guard_(std::move(data_guard)),
        start_(std::chrono::steady_clock::now()),
        sink_(sink) {
    sink_->IncrementCounter(root, 1);
    TraceContext parent = CurrentTraceContext();
    if (!parent.active() && TraceRecorder::Instance().enabled()) {
      owned_ = TraceRecorder::Instance().StartTrace(root);
      parent = owned_;
    }
    span_ = Span(parent, root);
  }
  ~ServeScope() {
    span_.End();
    if (!owned_.active()) return;
    TraceVerdict verdict =
        TraceRecorder::Instance().FinishTrace(owned_, MsSince(start_));
    sink_->IncrementCounter("trace.spans", verdict.spans);
    sink_->IncrementCounter(verdict.kept ? "trace.sampled" : "trace.dropped",
                            1);
    if (verdict.slow) sink_->IncrementCounter("trace.slow_queries", 1);
  }

  ServeScope(const ServeScope&) = delete;
  ServeScope& operator=(const ServeScope&) = delete;

  std::chrono::steady_clock::time_point start() const { return start_; }
  Span& span() { return span_; }

 private:
  std::shared_lock<std::shared_mutex> data_guard_;
  std::chrono::steady_clock::time_point start_;
  MetricsSink* sink_;
  TraceContext owned_;  // inactive when the serve joined a caller's trace
  Span span_;
};

// num_threads workers per cache stripe, or the whole machine when 0.
size_t PoolWidth(const SodaConfig& config) {
  if (config.num_threads != 0) {
    return config.num_threads * std::max<size_t>(1, config.num_shards);
  }
  size_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

// Runs one pool task and converts an escaped exception — an armed
// failpoint, a defective stage or snippet — into an Unavailable Status,
// booking `counter`, so one poisoned task degrades one query (or one
// snippet) instead of unwinding through the serving layer
// (ThreadPool::ParallelFor rethrows the first task exception at the
// submitting caller).
template <typename Fn>
Status RunContained(MetricsSink* sink, const char* counter, const char* what,
                    Fn&& fn) {
  try {
    return std::forward<Fn>(fn)();
  } catch (const std::exception& e) {
    sink->IncrementCounter(counter, 1);
    return Status::Unavailable(std::string(what) + " threw: " + e.what());
  } catch (...) {
    sink->IncrementCounter(counter, 1);
    return Status::Unavailable(std::string(what) +
                               " threw a non-standard exception");
  }
}

// Per-result snippet containment: a throwing ExecuteSnippet (or an armed
// snippet.execute failpoint) marks that one result failed and the serve
// continues — snippets are an enrichment, not the answer.
void ExecuteSnippetContained(const Soda& soda, SodaResult* result,
                             MetricsSink* sink) {
  Status status =
      RunContained(sink, "snippet.exception", "snippet execution", [&] {
        SODA_FAILPOINT("snippet.execute");
        soda.ExecuteSnippet(result, sink);
        return Status::OK();
      });
  if (!status.ok()) {
    result->executed = false;
    result->execution_status = std::move(status);
  }
  sink->IncrementCounter(result->executed ? "snippet.executed"
                                          : "snippet.failed",
                         1);
}

// What a plan keeps of one post-Filters state (see
// PlannedInterpretation). No stage time is kept: a resumed run books only
// the stage work it does.
PlannedInterpretation PlanInterpretation(const InterpretationState& state) {
  PlannedInterpretation planned;
  planned.interpretation = state.interpretation;
  planned.tables = state.tables;
  if (planned.tables.has_value()) {
    planned.tables->tables_per_entry.clear();
    planned.tables->tables_per_entry.shrink_to_fit();
  }
  planned.filters = state.filters;
  planned.dropped = state.dropped;
  return planned;
}

// The post-Filters states a Step-5-only resume starts from, fresh copies
// (SqlStage mutates states in place) with the derived fields rebuilt.
std::vector<InterpretationState> ResumeInterpretations(
    const TranslationPlan& plan) {
  std::vector<InterpretationState> states(plan.states.size());
  for (size_t s = 0; s < states.size(); ++s) {
    const PlannedInterpretation& planned = plan.states[s];
    InterpretationState& state = states[s];
    state.interpretation = planned.interpretation;
    MaterializeInterpretation(plan.lookup, &state);
    state.tables = planned.tables;
    state.filters = planned.filters;
    state.dropped = planned.dropped;
  }
  return states;
}

}  // namespace

// Whitespace runs collapsed — the input tokenizer splits on whitespace,
// so reformatted repeats are the same query (see the header for why case
// is kept). The single definition shared by the cache, its stripe choice
// and the invalidation hooks.
std::string NormalizedQueryKey(const std::string& query) {
  return Join(SplitWhitespace(query), " ");
}

size_t ShardOfKey(const std::string& normalized_key, size_t num_shards) {
  if (num_shards <= 1) return 0;
  uint64_t hash = Fnv1a64(normalized_key);
  // Fold to 32 bits: FNV's low bits mix slowly for short keys, so xor
  // the halves before the modulo to keep small stripe counts balanced.
  uint32_t folded = static_cast<uint32_t>(hash >> 32) ^
                    static_cast<uint32_t>(hash & 0xffffffffull);
  return static_cast<size_t>(folded % num_shards);
}

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

Result<std::unique_ptr<SodaEngine>> SodaEngine::Create(
    const Database* db, const MetadataGraph* graph, PatternLibrary patterns,
    SodaConfig config) {
  SODA_ASSIGN_OR_RETURN(std::unique_ptr<Soda> soda,
                        Soda::Create(db, graph, std::move(patterns), config));
  // Not make_unique: the constructor is private.
  return std::unique_ptr<SodaEngine>(new SodaEngine(std::move(soda)));
}

SodaEngine::SodaEngine(std::unique_ptr<Soda> soda)
    : soda_(std::move(soda)),
      default_sink_(std::make_shared<InMemoryMetricsSink>()),
      sink_(default_sink_),
      pool_(PoolWidth(soda_->config())) {
  const SodaConfig& config = soda_->config();
  const size_t num_stripes = std::max<size_t>(1, config.num_shards);
  stripes_.reserve(num_stripes);
  for (size_t s = 0; s < num_stripes; ++s) {
    stripes_.push_back(std::make_unique<AnswerCache>(config.cache_capacity));
  }
  // The recorder is process-global (traces cross the engine and server
  // layers); an engine only pushes its knobs there when they are set, so
  // building an untraced engine never turns an already-configured
  // recorder off.
  if (config.trace_sample_n != 0 || config.slow_query_threshold_ms != 0.0) {
    TraceRecorder::Instance().Configure(config.trace_sample_n,
                                        config.slow_query_threshold_ms);
  }
  // Pre-register every counter and histogram series so exporters see the
  // full set from the first scrape, not only after the first event of
  // each kind (histograms are an InMemoryMetricsSink feature; custom
  // sinks get the counters replayed in set_metrics_sink).
  PreRegisterEngineCounters(default_sink_.get());
  for (const char* name :
       {"search.wall.ms", "batch.wall.ms", "stage.execute.ms",
        "pool.queue_depth", "executor.rows", "executor.tables",
        "executor.tuples"}) {
    default_sink_->RegisterHistogram(name);
  }
  for (const PipelineStage* stage : soda_->stages()) {
    default_sink_->RegisterHistogram(stage->timing().histogram);
  }
}

void SodaEngine::set_metrics_sink(std::shared_ptr<MetricsSink> sink) {
  sink_ = sink != nullptr ? std::move(sink) : default_sink_;
  // A freshly installed exporter sink starts empty; replay the counter
  // pre-registration so its first scrape is as complete as the built-in
  // sink's.
  if (sink_ != default_sink_) PreRegisterEngineCounters(sink_.get());
}

size_t SodaEngine::num_threads() const {
  return pool_.size() == 0 ? 1 : pool_.size();
}

CacheStats SodaEngine::cache_stats() const {
  CacheStats total;
  for (const std::unique_ptr<AnswerCache>& stripe : stripes_) {
    total += stripe->stats();
  }
  return total;
}

size_t SodaEngine::InvalidateWhere(const CachePredicate& pred) const {
  size_t erased = 0;
  for (const std::unique_ptr<AnswerCache>& stripe : stripes_) {
    erased += stripe->EraseIf(pred);
  }
  sink_->IncrementCounter("cache.invalidated", erased);
  return erased;
}

std::shared_lock<std::shared_mutex> SodaEngine::ReadGuard() const {
  return soda_->database()->change_log().ReaderLock();
}

void SodaEngine::CacheInsert(const std::string& key, SearchOutput output,
                             std::vector<std::string> freshness_terms,
                             std::shared_ptr<const TranslationPlan> plan,
                             const TraceContext& trace) const {
  if (soda_->config().cache_capacity == 0) return;
  // Names a miss's copy in a sampled trace.
  Span span(trace, "cache.insert");
  auto entry = std::make_shared<CachedAnswer>();
  for (const SodaResult& result : output.results) {
    for (const TableRef& ref : result.statement.from) {
      entry->tables.push_back(FoldForMatch(ref.table));
    }
  }
  std::sort(entry->tables.begin(), entry->tables.end());
  entry->tables.erase(std::unique(entry->tables.begin(), entry->tables.end()),
                      entry->tables.end());
  entry->output = std::move(output);
  entry->freshness_terms = std::move(freshness_terms);
  entry->plan = std::move(plan);
  StripeOf(key).Put(key, std::move(entry));
}

// ---------------------------------------------------------------------------
// Translation core
// ---------------------------------------------------------------------------

struct SodaEngine::BatchItem {
  const std::string* query = nullptr;  // raw text of the first occurrence
  std::string normalized;  // NormalizedQueryKey(*query); the cache key
  const SessionConstraints* constraints = nullptr;  // nullptr: none
  std::shared_ptr<const TranslationPlan>* plan = nullptr;  // session slot
  std::vector<size_t> occurrences;  // input indices, ascending
  bool from_cache = false;
  Result<SearchOutput> output{Status::Internal("batch item not computed")};
  // An unconstrained computed answer's dependency record, for its entry.
  std::vector<std::string> freshness_terms;

  // Non-empty constraints bypass the result cache: a pinned, banned or
  // bound answer is a one-off, and reusing it is the session plan's job.
  bool constrained() const {
    return constraints != nullptr && !constraints->empty();
  }
};

std::vector<SodaEngine::BatchItem> SodaEngine::TranslateQueries(
    std::span<const std::string> queries, bool execute,
    const TraceContext& trace,
    std::chrono::steady_clock::time_point start) const {
  // Dedup identical normalized queries *before* the cache is probed, so
  // repeats inside one batch cost one pipeline run and one miss.
  std::vector<BatchItem> items;
  std::unordered_map<std::string, size_t> item_of_key;
  for (size_t i = 0; i < queries.size(); ++i) {
    auto [it, inserted] =
        item_of_key.emplace(NormalizedQueryKey(queries[i]), items.size());
    if (inserted) {
      BatchItem& item = items.emplace_back();
      item.query = &queries[i];
      item.normalized = it->first;
    }
    items[it->second].occurrences.push_back(i);
  }
  sink_->IncrementCounter("batch.queries", queries.size());
  sink_->IncrementCounter("batch.unique", items.size());
  sink_->IncrementCounter(
      "batch.interpretations",
      TranslateBatch(&items, execute, trace, start, "batch.query"));
  sink_->Observe("batch.wall.ms", MsSince(start));
  return items;
}

size_t SodaEngine::TranslateBatch(std::vector<BatchItem>* items, bool execute,
                                  const TraceContext& trace,
                                  std::chrono::steady_clock::time_point start,
                                  const char* query_span) const {
  const SodaConfig& config = soda_->config();
  // Stable for the whole batch: every caller holds the shared data lock.
  const uint64_t sequence = soda_->database()->change_log().sequence();

  // One job per unique cache miss: its context, its span, the stage it
  // starts from, the plan it resumes and, when it captures a plan, the
  // snapshot of its states at the Step-4/5 boundary.
  struct Job {
    explicit Job(BatchItem* batch_item)
        : item(batch_item), ctx(*batch_item->query) {}
    BatchItem* item;
    QueryContext ctx;
    Span span;  // one per batch query; inert for a single query
    size_t stages_skipped = 0;  // = the index of the first stage run
    bool capture = false;
    std::vector<PlannedInterpretation> snapshot;
    // The plan resumed, then the one captured; handed over on success only.
    std::shared_ptr<const TranslationPlan> plan;
    size_t interpretations = 0;
    Status status;
  };
  std::vector<Job> jobs;
  jobs.reserve(items->size());

  for (BatchItem& item : *items) {
    if (item.plan != nullptr && *item.plan != nullptr) {
      sink_->IncrementCounter("session.refines", 1);
    }
    std::shared_ptr<const CachedAnswer> cached =
        item.constrained() ? nullptr
                           : StripeOf(item.normalized).Get(item.normalized);
    if (cached != nullptr) {
      // Deliberate copy: the payload is bounded (top_n statements x
      // snippet_rows rows) and the response patches its own from_cache,
      // timings and stages_skipped; measured hit path stays ~100x faster
      // than the pipeline.
      sink_->IncrementCounter("cache.hit", 1);
      item.from_cache = true;
      item.output = cached->output;
      if (item.plan != nullptr) {
        sink_->IncrementCounter("session.stages_skipped", 5);
        *item.plan = cached->plan;
      }
      continue;
    }
    if (!item.constrained()) sink_->IncrementCounter("cache.miss", 1);

    Job& job = jobs.emplace_back(&item);
    QueryContext& ctx = job.ctx;
    ctx.config = &config;
    ctx.metrics = sink_.get();
    if (item.constrained()) ctx.constraints = item.constraints;
    // A batch query's span stays open until its task is done, so its
    // duration covers that query's pipeline and snippets; stage spans
    // parent under it through ctx.trace.
    ctx.trace = trace;
    if (query_span != nullptr) {
      job.span = Span(trace, query_span);
      job.span.SetAttr("query", ctx.raw_query);
      ctx.trace = job.span.context();
    }
    if (item.plan != nullptr) {
      // Session serve. Resume only from a plan that answers this very
      // question and still reflects the current base data: no mutation
      // since its capture (the change log has not moved). Bindings
      // select which stages the resume can skip — pins/bans only gate
      // Step 5, so a plan ranked under this serve's bindings lends its
      // post-Filters states wholesale, while any other plan re-ranks
      // from its (always constraint-independent) Step-1 lookup. When the
      // held plan cannot serve with Step 5 alone, a constrained serve
      // peeks the plan cached beside its question's unconstrained
      // answer — a peek books no hit or miss, and a constrained answer
      // fills nothing.
      const std::string fp = item.constraints->BindingsFingerprint();
      std::shared_ptr<const TranslationPlan> plan = *item.plan;
      if (plan != nullptr && (plan->captured_at_sequence != sequence ||
                              NormalizedQueryKey(plan->parsed.raw) !=
                                  item.normalized)) {
        plan = nullptr;
      }
      if (item.constrained() && (plan == nullptr || plan->bindings_fp != fp)) {
        std::shared_ptr<const CachedAnswer> entry =
            StripeOf(item.normalized).Peek(item.normalized);
        if (entry != nullptr && entry->plan != nullptr &&
            entry->plan->captured_at_sequence == sequence &&
            (plan == nullptr || entry->plan->bindings_fp == fp)) {
          plan = entry->plan;
        }
      }
      if (plan != nullptr) {
        // Copies, never moves: the plan is shared and stays resumable.
        ctx.parsed = plan->parsed;
        ctx.lookup = plan->lookup;
        if (plan->bindings_fp == fp) {
          ctx.states = ResumeInterpretations(*plan);
          job.stages_skipped = kSqlStage;
        } else {
          job.stages_skipped = kRankStage;
        }
        job.plan = std::move(plan);
      }
    }
    // A session serve captures a plan unless it reuses a plan's states
    // as they are; the cache entry its answer fills keeps the plan too.
    // Plain serves capture nothing.
    job.capture = item.plan != nullptr && job.stages_skipped != kSqlStage;
  }

  // One task per job: a query's stages, its plan snapshot, its output
  // and (on the sync paths) its snippets run in order on one thread. The
  // pool fans out across the queries of a batch only, so a batch of one
  // never leaves the caller's thread. Each task writes only its own job,
  // so a poisoned task fails one query.
  const bool run_snippets = execute && config.execute_snippets;
  if (jobs.size() > 1) {
    sink_->Observe("pool.queue_depth",
                   static_cast<double>(pool_.queue_depth()));
  }
  const std::span<const PipelineStage* const> all_stages = soda_->stages();
  auto run_job = [&](Job& job) {
    QueryContext& ctx = job.ctx;
    job.status = RunContained(
        sink_.get(), "engine.task_exceptions", "pipeline task", [&] {
          SODA_FAILPOINT("engine.pool_task");
          const auto stages = all_stages.subspan(job.stages_skipped);
          SODA_RETURN_NOT_OK(RunQueryStages(stages, &ctx));
          job.interpretations = ctx.states.size();
          if (job.capture) job.snapshot.resize(ctx.states.size());
          for (size_t s = 0; s < ctx.states.size(); ++s) {
            InterpretationState* state = &ctx.states[s];
            if (!job.capture) {
              RunInterpretationStages(stages, ctx, state);
              continue;
            }
            // Snapshot at the Step-4/5 boundary (the driver skips the
            // query-level stages of the prefix).
            RunInterpretationStages(all_stages.first(kSqlStage), ctx, state);
            job.snapshot[s] = PlanInterpretation(*state);
            RunInterpretationStages(all_stages.subspan(kSqlStage), ctx, state);
          }
          return Status::OK();
        });
    BatchItem& item = *job.item;
    if (!job.status.ok()) {
      item.output = job.status;
      job.span.SetStatus(job.status.message());
      return;
    }
    if (job.capture) {
      // Before FinalizeOutput, which consumes the context fields.
      auto plan = std::make_shared<TranslationPlan>();
      plan->parsed = ctx.parsed;
      plan->lookup = ctx.lookup;
      if (item.constraints != nullptr) {
        plan->bindings_fp = item.constraints->BindingsFingerprint();
      }
      plan->states = std::move(job.snapshot);
      plan->captured_at_sequence = sequence;
      job.plan = std::move(plan);
    }
    if (!item.constrained() && config.cache_capacity > 0) {
      // Only a cache entry keeps the answer's dependency record.
      item.freshness_terms = CollectFreshnessTerms(ctx);
    }
    const TraceContext query_trace = ctx.trace;
    item.output = FinalizeOutput(std::move(ctx));
    item.output->stages_skipped = job.stages_skipped;
    if (!run_snippets) return;
    // This query's snippets, in result order, timed into its own output.
    StageScope exec(kExecuteTiming, query_trace, sink_.get(),
                    &item.output->timings);
    exec.span().SetAttr("snippets",
                        static_cast<int64_t>(item.output->results.size()));
    for (SodaResult& result : item.output->results) {
      ExecuteSnippetContained(*soda_, &result, sink_.get());
    }
  };
  pool_.ParallelFor(jobs.size(), [&](size_t j) {
    run_job(jobs[j]);
    jobs[j].span.End();
  });

  const double wall_ms = MsSince(start);
  size_t interpretations = 0;
  for (Job& job : jobs) {
    BatchItem& item = *job.item;
    interpretations += job.interpretations;
    if (!item.output.ok()) continue;
    if (item.plan != nullptr && job.stages_skipped > 0) {
      sink_->IncrementCounter("session.stages_skipped", job.stages_skipped);
    }
    item.output->timings.wall_ms = wall_ms;
    // Cache every unconstrained answer that is fully materialized
    // (statements + snippets): all of them on the sync paths, only those
    // without a snippet to stream on the async path — its last snippet
    // task caches the rest. The stored copy keeps from_cache=false;
    // each response patches its own.
    // The plan the output was translated from (resumed or captured; null
    // for plain serves) goes to the cache entry and the session slot.
    if (!item.constrained() && (execute || item.output->results.empty())) {
      CacheInsert(item.normalized, *item.output,
                  std::move(item.freshness_terms), job.plan, trace);
    }
    // Hand the plan over last: a serve that failed anywhere leaves the
    // caller's previous plan untouched.
    if (item.plan != nullptr) *item.plan = std::move(job.plan);
  }
  return interpretations;
}

std::vector<Result<SearchOutput>> SodaEngine::ExpandBatch(
    std::vector<BatchItem> items, size_t query_count,
    bool mark_dedup_as_cached,
    std::chrono::steady_clock::time_point batch_start) const {
  const bool cache_enabled = soda_->config().cache_capacity > 0;

  // Book the in-batch repeats: the unique probe already counted one
  // miss (or hit); each further occurrence of the same normalized query
  // is a hit against the entry the batch itself materialized.
  for (const BatchItem& item : items) {
    if (!item.output.ok() || item.occurrences.size() <= 1) continue;
    size_t repeats = item.occurrences.size() - 1;
    StripeOf(item.normalized).RecordDedupHits(repeats);
    sink_->IncrementCounter("batch.dedup_hits", repeats);
  }

  std::vector<Result<SearchOutput>> outputs(
      query_count, Result<SearchOutput>(Status::Internal("unmapped query")));
  for (BatchItem& item : items) {
    for (size_t occ = 0; occ < item.occurrences.size(); ++occ) {
      size_t input_idx = item.occurrences[occ];
      if (!item.output.ok()) {
        outputs[input_idx] = item.output.status();
        continue;
      }
      // The last occurrence takes the item's output; earlier ones copy.
      SearchOutput output = occ + 1 == item.occurrences.size()
                                ? std::move(*item.output)
                                : *item.output;
      // from_cache promises the payload was served materialized (snippets
      // included). That holds for probe hits always, and for in-batch
      // repeats only on the sync path — async repeats are copies of the
      // still-unexecuted translation, so the async caller keeps
      // mark_dedup_as_cached off.
      bool served_from_cache =
          occ == 0 ? item.from_cache
                   : (item.from_cache ||
                      (cache_enabled && mark_dedup_as_cached));
      output.from_cache = served_from_cache;
      if (served_from_cache) {
        // This response did no pipeline work of its own, and the stored
        // entry's cold-run wall time is not this response's latency —
        // stamp this call's elapsed time.
        output.timings = StepTimings{};
        output.timings.wall_ms = MsSince(batch_start);
        output.stages_skipped = 5;
      }
      outputs[input_idx] = std::move(output);
    }
  }
  return outputs;
}

// ---------------------------------------------------------------------------
// Single-query entry point: a batch of one
// ---------------------------------------------------------------------------

Result<SearchOutput> SodaEngine::SearchSession(
    const std::string& query, const SessionConstraints& constraints,
    std::shared_ptr<const TranslationPlan>* plan) const {
  ServeScope serve(ReadGuard(), sink_.get(), "engine.search");
  serve.span().SetAttr("query", query);

  std::vector<BatchItem> items(1);
  BatchItem& item = items[0];
  item.query = &query;
  item.normalized = NormalizedQueryKey(query);
  item.constraints = &constraints;
  item.plan = plan;
  item.occurrences.push_back(0);
  // No per-query span: the root span is this query's span, so the stage
  // spans parent directly under it.
  TranslateBatch(&items, /*execute=*/true, serve.span().context(),
                 serve.start(), /*query_span=*/nullptr);
  serve.span().SetAttr("cache", item.from_cache ? "hit" : "miss");
  Result<SearchOutput> output = std::move(
      ExpandBatch(std::move(items), 1, /*mark_dedup_as_cached=*/true,
                  serve.start())[0]);
  if (output.ok()) sink_->Observe("search.wall.ms", output->timings.wall_ms);
  return output;
}

// ---------------------------------------------------------------------------
// SearchAll (sync batch)
// ---------------------------------------------------------------------------

std::vector<Result<SearchOutput>> SodaEngine::SearchAll(
    std::span<const std::string> queries) const {
  if (queries.empty()) return {};
  ServeScope serve(ReadGuard(), sink_.get(), "engine.search_all");
  serve.span().SetAttr("queries", static_cast<int64_t>(queries.size()));

  std::vector<BatchItem> items = TranslateQueries(
      queries, /*execute=*/true, serve.span().context(), serve.start());
  return ExpandBatch(std::move(items), queries.size(),
                     /*mark_dedup_as_cached=*/true, serve.start());
}

// ---------------------------------------------------------------------------
// Async snippet streaming
// ---------------------------------------------------------------------------

/// One unique query's snippet stream, run in result order by one thread.
/// A stream whose answer is cached (or was served from the cache) runs
/// over its own copy of the output, which becomes or mirrors the cache
/// entry; any other runs over the results of the returned output in
/// place, copying nothing.
struct SodaEngine::StreamState {
  SearchOutput output;   // the own copy; empty when running in place
  std::span<SodaResult> results;  // the results the stream runs over
  std::vector<std::string> freshness_terms;  // cached beside the output
  std::vector<size_t> occurrences;
  std::string key;
  SnippetCallback on_snippet;  // one copy per unique query
  bool run_execution = false;  // false when served from cache (or disabled)
  bool cache_insert = false;   // insert the materialized output when done
  /// Change-log sequence at translation time. The deferred cache insert
  /// is skipped when the log moved past it meanwhile — a mutation
  /// between translation and the last snippet already invalidated this
  /// key's dependents, and inserting the stale answer afterwards would
  /// undo that forever.
  uint64_t translated_at_sequence = 0;
};

SnippetStream::Summary SodaEngine::RunStream(StreamState& stream,
                                             const TraceContext& trace) const {
  SnippetStream::Summary summary;
  for (size_t r = 0; r < stream.results.size(); ++r) {
    // The span parents under the batch span through the captured
    // context, although it starts after SearchAllAsync returned.
    Span snippet_span(trace, "snippet.stream");
    if (snippet_span.active()) {
      snippet_span.SetAttr("result", static_cast<int64_t>(r));
    }
    SodaResult& result = stream.results[r];
    if (stream.run_execution) {
      // The data lock covers the scan only: a callback may block on a
      // slow client, and no append may wait behind it. Contained: a
      // throwing snippet (or armed failpoint) marks this one result
      // failed and its callbacks still fan out.
      auto data_guard = ReadGuard();
      ExecuteSnippetContained(*soda_, &result, sink_.get());
    }
    // One delivery per (query_index, result_index) pair: the snippet ran
    // once, every occurrence of the query in the batch hears of it.
    for (size_t query_index : stream.occurrences) {
      ++summary.delivered;
      if (stream.on_snippet) {
        try {
          stream.on_snippet(query_index, r, result);
        } catch (...) {
          ++summary.callback_exceptions;
          sink_->IncrementCounter("snippet.callback_exception", 1);
        }
      }
      sink_->IncrementCounter("snippet.streamed", 1);
    }
    // Delivered: an uncached stream runs over the returned outputs, which
    // never keep snippet payloads.
    if (!stream.cache_insert) ClearSnippet(&result);
  }
  if (!stream.cache_insert) return summary;
  // Cache the materialized answer — unless base data moved since
  // translation (the stored answer would be stale and its invalidation
  // already happened). Checked and inserted under one shared lock, so no
  // append can slip between the two.
  auto data_guard = ReadGuard();
  if (soda_->database()->change_log().sequence() ==
      stream.translated_at_sequence) {
    // Plain searches keep no plan.
    CacheInsert(stream.key, std::move(stream.output),
                std::move(stream.freshness_terms), nullptr, trace);
  } else {
    sink_->IncrementCounter("cache.stale_insert_skipped", 1);
  }
  return summary;
}

AsyncSearch SodaEngine::SearchAllAsync(std::span<const std::string> queries,
                                       SnippetCallback on_snippet) const {
  if (queries.empty()) return {};
  // The async trace outlives this call: the runs carry the batch span's
  // context to the thread that runs the stream and append their spans
  // after the trace was finished — TraceData is shared and append-safe,
  // so they still land in the archived record.
  ServeScope serve(ReadGuard(), sink_.get(), "engine.search_all_async");
  serve.span().SetAttr("queries", static_cast<int64_t>(queries.size()));

  const bool can_execute = soda_->config().execute_snippets;
  const bool cache_enabled = soda_->config().cache_capacity > 0;
  const uint64_t translated_at_sequence =
      soda_->database()->change_log().sequence();

  std::vector<BatchItem> items = TranslateQueries(
      queries, /*execute=*/false, serve.span().context(), serve.start());

  // One run per unique query with results, in item (= first-occurrence)
  // order, captured before ExpandBatch consumes the items.
  AsyncSearch search;
  const TraceContext stream_trace = serve.span().context();
  for (BatchItem& item : items) {
    // Nothing to stream: TranslateBatch already cached the empty answer.
    if (!item.output.ok() || item.output->results.empty()) continue;
    StreamState stream;
    stream.cache_insert = cache_enabled && !item.from_cache;
    if (stream.cache_insert || item.from_cache) {
      stream.output = *item.output;
      stream.results = stream.output.results;
    } else {
      // In place: ExpandBatch moves the item's output, and with it this
      // results buffer, into the returned outputs.
      stream.results = item.output->results;
    }
    stream.freshness_terms = std::move(item.freshness_terms);
    stream.occurrences = item.occurrences;
    stream.key = item.normalized;
    stream.on_snippet = on_snippet;
    stream.run_execution = can_execute && !item.from_cache;
    stream.translated_at_sequence = translated_at_sequence;
    // The outputs never carry snippet payloads, so a cache-served answer
    // renders exactly like a miss; its stream keeps the materialized copy
    // for its events.
    if (item.from_cache) {
      for (SodaResult& result : item.output->results) ClearSnippet(&result);
    }
    search.snippets.runs_.push_back(
        [this, stream = std::move(stream), stream_trace]() mutable {
          return RunStream(stream, stream_trace);
        });
  }
  search.outputs = ExpandBatch(std::move(items), queries.size(),
                               /*mark_dedup_as_cached=*/false, serve.start());
  return search;
}

}  // namespace soda
