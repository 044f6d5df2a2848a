#include "core/engine.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/failpoint.h"
#include "common/strings.h"
#include "common/trace.h"
#include "core/freshness.h"
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
    "session.refines", "session.stages_skipped", "session.constraint_hits",
    "snippet.executed", "snippet.failed", "snippet.exception",
    "snippet.streamed", "snippet.callback_exception",
    "executor.index_builds",
    "index.probe_memo_hits", "index.probe_memo_misses",
    "closure.traverse_hits", "closure.traverse_misses",
    "closure.path_lookups",
    "trace.spans", "trace.sampled", "trace.dropped", "trace.slow_queries",
};

void PreRegisterEngineCounters(MetricsSink* sink) {
  for (const char* name : kEngineCounterSeries) {
    sink->IncrementCounter(name, 0);
  }
}

// Finishes an engine-owned trace on every exit path — including error
// returns, where the destructor falls back to the trace's own elapsed
// clock — and books the trace.* counters into the engine's sink from
// the recorder's verdict. Constructed with an inactive context when the
// engine joined a caller's trace instead of opening its own.
class OwnedTrace {
 public:
  OwnedTrace(TraceContext ctx, MetricsSink* sink)
      : ctx_(std::move(ctx)), sink_(sink) {}
  ~OwnedTrace() {
    if (!ctx_.active()) return;
    double wall = wall_ms_ >= 0.0 ? wall_ms_ : ctx_.data->ElapsedMs();
    TraceVerdict verdict = TraceRecorder::Instance().FinishTrace(ctx_, wall);
    sink_->IncrementCounter("trace.spans", verdict.spans);
    sink_->IncrementCounter(verdict.kept ? "trace.sampled" : "trace.dropped",
                            1);
    if (verdict.slow) sink_->IncrementCounter("trace.slow_queries", 1);
  }

  OwnedTrace(const OwnedTrace&) = delete;
  OwnedTrace& operator=(const OwnedTrace&) = delete;

  void set_wall_ms(double ms) { wall_ms_ = ms; }

 private:
  TraceContext ctx_;
  MetricsSink* sink_;
  double wall_ms_ = -1.0;
};

size_t ResolveThreads(size_t configured) {
  if (configured != 0) return configured;
  size_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

// Runs a pool fan-out and converts any escaped exception — an armed
// failpoint or a defective stage — into a Status, so one poisoned task
// degrades to a per-query error instead of unwinding through the serving
// layer (ThreadPool::ParallelFor rethrows the first task exception at
// the submitting caller).
template <typename Fn>
Status RunContained(MetricsSink* sink, const char* what, Fn&& fn) {
  try {
    std::forward<Fn>(fn)();
    return Status::OK();
  } catch (const std::exception& e) {
    sink->IncrementCounter("engine.task_exceptions", 1);
    return Status::Unavailable(std::string(what) + " threw: " + e.what());
  } catch (...) {
    sink->IncrementCounter("engine.task_exceptions", 1);
    return Status::Unavailable(std::string(what) +
                               " threw a non-standard exception");
  }
}

// Per-result snippet containment: a throwing ExecuteSnippet (or an armed
// snippet.execute failpoint) marks that one result failed and the serve
// continues — snippets are an enrichment, not the answer.
void ExecuteSnippetContained(const Soda& soda, SodaResult* result,
                             MetricsSink* sink) {
  try {
    SODA_FAILPOINT("snippet.execute");
    soda.ExecuteSnippet(result, sink);
  } catch (const std::exception& e) {
    result->executed = false;
    result->execution_status =
        Status::Unavailable(std::string("snippet execution threw: ") +
                            e.what());
    sink->IncrementCounter("snippet.exception", 1);
  } catch (...) {
    result->executed = false;
    result->execution_status =
        Status::Unavailable("snippet execution threw a non-standard exception");
    sink->IncrementCounter("snippet.exception", 1);
  }
  sink->IncrementCounter(result->executed ? "snippet.executed"
                                          : "snippet.failed",
                         1);
}

}  // namespace

// Whitespace runs collapsed — the input tokenizer splits on whitespace,
// so reformatted repeats are the same query (see the header for why case
// is kept). The single definition shared by the cache, the sharded
// router and the invalidation hooks.
std::string NormalizedQueryKey(const std::string& query) {
  return Join(SplitWhitespace(query), " ");
}

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

Result<std::unique_ptr<SodaEngine>> SodaEngine::Create(
    const Database* db, const MetadataGraph* graph, PatternLibrary patterns,
    SodaConfig config, std::shared_ptr<EntryPointClosure> shared_closure) {
  SODA_ASSIGN_OR_RETURN(
      std::unique_ptr<Soda> soda,
      Soda::Create(db, graph, std::move(patterns), config,
                   std::move(shared_closure)));
  // The recorder is process-global (traces cross engine/router/server
  // layers); an engine only pushes its knobs there when they are set, so
  // building an untraced engine never turns an already-configured
  // recorder off.
  if (config.trace_sample_n != 0 || config.slow_query_threshold_ms != 0.0) {
    TraceRecorder::Instance().Configure(config.trace_sample_n,
                                        config.slow_query_threshold_ms);
  }
  return std::make_unique<SodaEngine>(std::move(soda));
}

SodaEngine::SodaEngine(std::unique_ptr<Soda> soda)
    : soda_(std::move(soda)),
      cache_(soda_->config().cache_capacity),
      default_sink_(std::make_shared<InMemoryMetricsSink>()),
      sink_(default_sink_),
      pool_(ResolveThreads(soda_->config().num_threads)) {
  // Session-resume sub-lists over the Soda-owned stage objects. The
  // drivers skip stages of the wrong kind, so membership alone encodes
  // what a resume re-runs.
  bool seen_sql = false;
  for (const PipelineStage* stage : soda_->stages()) {
    if (stage->name() != "lookup") stages_rank_on_.push_back(stage);
    if (!stage->per_interpretation()) continue;
    if (stage->name() == "sql") seen_sql = true;
    (seen_sql ? stages_sql_ : stages_pre_sql_).push_back(stage);
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
    default_sink_->RegisterHistogram(std::string("stage.") +
                                     std::string(stage->name()) + ".ms");
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

size_t SodaEngine::InvalidateWhere(
    const std::function<bool(const std::string&)>& pred) const {
  // Collect the evicted keys while the predicate runs (under the cache
  // lock — a plain push_back), so the freshness layer can drop their
  // dependency records afterwards instead of leaking them.
  std::vector<std::string> erased_keys;
  size_t erased = cache_.EraseIf([&](const std::string& key) {
    if (!pred(key)) return false;
    if (freshness_ != nullptr) erased_keys.push_back(key);
    return true;
  });
  sink_->IncrementCounter("cache.invalidated", erased);
  if (freshness_ != nullptr) {
    for (const std::string& key : erased_keys) freshness_->Forget(key);
  }
  return erased;
}

std::shared_lock<std::shared_mutex> SodaEngine::ReadGuard() const {
  const Database* db = soda_->database();
  if (db == nullptr) return {};
  return db->change_log().ReaderLock();
}

void SodaEngine::CacheInsert(const std::string& key,
                             const SearchOutput& output) const {
  if (cache_.capacity() == 0) return;
  // The manager keeps the dependency record; the stored copy does not
  // need to carry the term vector through every future cache hit.
  auto stored = std::make_shared<SearchOutput>(output);
  stored->freshness_terms.clear();
  stored->freshness_terms.shrink_to_fit();
  std::optional<std::string> evicted = cache_.Put(key, std::move(stored));
  if (freshness_ != nullptr) {
    freshness_->RecordQuery(key, output);
    // Capacity eviction: the dropped key can no longer be served, so
    // its reverse-map entries would only leak — forget them, unless a
    // concurrent serve re-inserted the same key meanwhile (ForgetEvicted
    // re-checks membership under the manager's mutex).
    if (evicted.has_value()) {
      freshness_->ForgetEvicted(*evicted, [this](const std::string& k) {
        return cache_.Contains(k);
      });
    }
  }
}

// ---------------------------------------------------------------------------
// Single-query path (plain, constrained, and session)
// ---------------------------------------------------------------------------

Result<SearchOutput> SodaEngine::Search(
    const std::string& query, const SessionConstraints& constraints) const {
  return SearchInternal(query, constraints, /*plan=*/nullptr);
}

Result<SearchOutput> SodaEngine::SearchSession(
    const std::string& query, const SessionConstraints& constraints,
    std::shared_ptr<TranslationPlan>* plan) const {
  return SearchInternal(query, constraints, plan);
}

bool SodaEngine::PlanStillFresh(const TranslationPlan& plan) const {
  if (!plan.valid.load(std::memory_order_acquire)) return false;
  // A watched plan's validity is maintained precisely (the freshness
  // hook flips it exactly when a mutation touches its term vocabulary);
  // unwatched plans fall back to the coarse check: any change-log
  // advance voids them.
  if (plan.watched) return true;
  const Database* db = soda_->database();
  if (db == nullptr) return true;
  return db->change_log().sequence() == plan.captured_at_sequence;
}

void SodaEngine::RegisterPlan(
    const std::shared_ptr<TranslationPlan>& plan) const {
  if (freshness_ == nullptr) return;
  std::string reg_key =
      "plan:" + std::to_string(reinterpret_cast<uintptr_t>(plan.get()));
  // The hook only flips an atomic through a weak_ptr: it is safe to fire
  // from OnChange (under the exclusive data lock, outside the manager
  // mutex) and safe against the plan dying first.
  std::weak_ptr<TranslationPlan> weak = plan;
  freshness_->RecordPlan(reg_key, plan->freshness_terms, [weak] {
    if (std::shared_ptr<TranslationPlan> p = weak.lock()) {
      p->valid.store(false, std::memory_order_release);
    }
  });
  plan->watched = true;
  FreshnessManager* manager = freshness_;
  plan->deregister = [manager, reg_key] { manager->ForgetPlan(reg_key); };
}

Result<SearchOutput> SodaEngine::SearchInternal(
    const std::string& query, const SessionConstraints& constraints,
    std::shared_ptr<TranslationPlan>* plan) const {
  // Whole-serve shared data lock: concurrent appends (exclusive holders)
  // order entirely before or after this serve, so the cache probe, the
  // plan freshness check, the pipeline, the snippet scan and the cache
  // insert all see one consistent database state.
  auto data_guard = ReadGuard();
  auto t_start = std::chrono::steady_clock::now();
  sink_->IncrementCounter("engine.search", 1);

  // Join the caller's trace (HTTP request, router dispatch) when one is
  // installed on this thread; otherwise open our own when the recorder
  // is on. The untraced common case is one relaxed load and a branch.
  TraceContext trace_parent = CurrentTraceContext();
  const bool owns_trace =
      !trace_parent.active() && TraceRecorder::Instance().enabled();
  if (owns_trace) {
    trace_parent = TraceRecorder::Instance().StartTrace("engine.search");
  }
  OwnedTrace owned_trace(owns_trace ? trace_parent : TraceContext{},
                         sink_.get());
  Span search_span(trace_parent, "engine.search");
  if (search_span.active()) search_span.SetAttr("query", query);

  const bool constrained = !constraints.empty();
  const std::string normalized = NormalizedQueryKey(query);
  const std::string key = ConstrainedCacheKey(normalized, constraints);
  const bool is_refine = plan != nullptr && *plan != nullptr;
  if (is_refine) sink_->IncrementCounter("session.refines", 1);

  if (std::shared_ptr<const SearchOutput> cached = cache_.Get(key)) {
    // Deliberate copy: the payload is bounded (top_n statements x
    // snippet_rows rows) and the response needs its own counter fields;
    // measured hit path stays ~100x faster than the pipeline.
    sink_->IncrementCounter("cache.hit", 1);
    if (constrained) sink_->IncrementCounter("session.constraint_hits", 1);
    if (plan != nullptr) sink_->IncrementCounter("session.stages_skipped", 5);
    SearchOutput output = *cached;
    output.from_cache = true;
    output.stages_skipped = 5;
    CacheStats stats = cache_.stats();
    output.cache_hits = stats.hits;
    output.cache_misses = stats.misses;
    output.threads_used = num_threads();
    output.timings = StepTimings{};  // this response did no pipeline work
    output.timings.wall_ms = MsSince(t_start);
    sink_->Observe("search.wall.ms", output.timings.wall_ms);
    if (search_span.active()) search_span.SetAttr("cache", "hit");
    owned_trace.set_wall_ms(output.timings.wall_ms);
    return output;
  }
  sink_->IncrementCounter("cache.miss", 1);
  if (search_span.active()) search_span.SetAttr("cache", "miss");

  const SodaConfig& config = soda_->config();
  QueryContext ctx(query);
  ctx.config = &config;
  ctx.metrics = sink_.get();
  ctx.trace = search_span.context();
  if (constrained) ctx.constraints = &constraints;
  ctx.collect_freshness_terms = freshness_ != nullptr;
  const std::vector<const PipelineStage*>& stages = soda_->stages();

  // Resume decision: the held plan must answer this very question and
  // still reflect the current base data. Bindings select which stages
  // the resume can skip — pins/bans only gate Step 5, so matching
  // bindings let the post-Filters states be reused wholesale, while a
  // binding change re-ranks from the (always constraint-independent)
  // Step-1 lookup.
  TranslationPlan* resume = nullptr;
  if (is_refine && (*plan)->key == normalized && PlanStillFresh(**plan)) {
    resume = plan->get();
  }
  const std::string bindings_fp = constraints.BindingsFingerprint();
  const bool reuse_states =
      resume != nullptr && resume->bindings_fp == bindings_fp;
  const bool capture = plan != nullptr && !reuse_states;
  size_t stages_skipped = 0;

  if (resume != nullptr) {
    // Copies, never moves: the plan stays resumable for the next Refine.
    ctx.parsed = resume->parsed;
    ctx.lookup = resume->lookup;
    ctx.freshness_terms = resume->freshness_terms;
    if (reuse_states) {
      ctx.states = resume->states;  // SqlStage mutates states in place
      stages_skipped = 4;           // lookup, rank, tables, filters
    } else {
      stages_skipped = 1;  // lookup
      SODA_RETURN_NOT_OK(RunQueryStages(stages_rank_on_, &ctx));
    }
  } else {
    // Query-level prefix (lookup, rank) runs serially — it is cheap and
    // produces the independent per-interpretation states.
    SODA_RETURN_NOT_OK(RunQueryStages(stages, &ctx));
  }

  // Fan the remaining per-interpretation stages out across the pool, one
  // task per interpretation. Each task touches only its own state; the
  // shared context is read-only. A capturing run splits the fan-out at
  // the Step-4/5 boundary to snapshot the reusable states.
  sink_->Observe("pool.queue_depth",
                 static_cast<double>(pool_.queue_depth()));
  std::vector<InterpretationState> snapshot;
  SODA_RETURN_NOT_OK(
      RunContained(sink_.get(), "interpretation fan-out", [&] {
        if (reuse_states) {
          pool_.ParallelFor(ctx.states.size(), [&](size_t i) {
            SODA_FAILPOINT("engine.pool_task");
            RunInterpretationStages(stages_sql_, ctx, &ctx.states[i]);
          });
        } else if (capture) {
          pool_.ParallelFor(ctx.states.size(), [&](size_t i) {
            SODA_FAILPOINT("engine.pool_task");
            RunInterpretationStages(stages_pre_sql_, ctx, &ctx.states[i]);
          });
          snapshot = ctx.states;  // post-Filters, pre-Sql
          pool_.ParallelFor(ctx.states.size(), [&](size_t i) {
            RunInterpretationStages(stages_sql_, ctx, &ctx.states[i]);
          });
        } else {
          pool_.ParallelFor(ctx.states.size(), [&](size_t i) {
            SODA_FAILPOINT("engine.pool_task");
            RunInterpretationStages(stages, ctx, &ctx.states[i]);
          });
        }
      }));
  if (plan != nullptr && stages_skipped > 0) {
    sink_->IncrementCounter("session.stages_skipped", stages_skipped);
  }

  // Capture before FinalizeOutput, which consumes the context fields.
  std::shared_ptr<TranslationPlan> captured;
  if (capture) {
    captured = std::make_shared<TranslationPlan>();
    captured->key = normalized;
    captured->parsed = ctx.parsed;
    captured->lookup = ctx.lookup;
    captured->bindings_fp = bindings_fp;
    captured->freshness_terms = ctx.freshness_terms;
    captured->states = std::move(snapshot);
    for (InterpretationState& state : captured->states) {
      // A resumed run books only the stage work it actually did.
      state.tables_ms = 0.0;
      state.filters_ms = 0.0;
      state.sql_ms = 0.0;
    }
    const Database* db = soda_->database();
    captured->captured_at_sequence =
        db != nullptr ? db->change_log().sequence() : 0;
    RegisterPlan(captured);
  }

  SearchOutput output = FinalizeOutput(std::move(ctx));
  output.stages_skipped = stages_skipped;

  if (config.execute_snippets && soda_->database() != nullptr) {
    auto t_exec = std::chrono::steady_clock::now();
    Span exec_span(search_span.context(), "stage.execute");
    pool_.ParallelFor(output.results.size(), [&](size_t i) {
      ExecuteSnippetContained(*soda_, &output.results[i], sink_.get());
    });
    if (exec_span.active()) {
      exec_span.SetAttr("snippets",
                        static_cast<int64_t>(output.results.size()));
    }
    exec_span.End();
    output.timings.execute_ms = MsSince(t_exec);
    sink_->Observe("stage.execute.ms", output.timings.execute_ms);
  }
  output.threads_used = num_threads();
  output.timings.wall_ms = MsSince(t_start);
  sink_->Observe("search.wall.ms", output.timings.wall_ms);
  owned_trace.set_wall_ms(output.timings.wall_ms);

  // Cache the fully materialized answer (statements + snippets). The
  // stored copy keeps from_cache=false; hits patch their own counters.
  CacheInsert(key, output);

  CacheStats stats = cache_.stats();
  output.cache_hits = stats.hits;
  output.cache_misses = stats.misses;
  // Hand the new plan over last: an error on any earlier path leaves the
  // caller's previous plan untouched.
  if (capture) *plan = std::move(captured);
  return output;
}

// ---------------------------------------------------------------------------
// Batch translation core
// ---------------------------------------------------------------------------

struct SodaEngine::BatchItem {
  std::string key;                  // normalized query (the cache key)
  std::vector<size_t> occurrences;  // input indices, ascending
  bool from_cache = false;
  Result<SearchOutput> output{Status::Internal("batch item not computed")};
};

std::vector<SodaEngine::BatchItem> SodaEngine::TranslateBatch(
    std::span<const std::string> queries, bool execute,
    const TraceContext& trace) const {
  auto t_start = std::chrono::steady_clock::now();

  // Dedup identical normalized queries *before* the cache is probed, so
  // repeats inside one batch cost one pipeline run and one miss.
  std::vector<BatchItem> items;
  std::unordered_map<std::string, size_t> item_of_key;
  for (size_t i = 0; i < queries.size(); ++i) {
    std::string key = NormalizedQueryKey(queries[i]);
    auto [it, inserted] = item_of_key.emplace(std::move(key), items.size());
    if (inserted) {
      BatchItem item;
      item.key = it->first;
      items.push_back(std::move(item));
    }
    items[it->second].occurrences.push_back(i);
  }
  sink_->IncrementCounter("batch.queries", queries.size());
  sink_->IncrementCounter("batch.unique", items.size());

  // Probe the cache once per unique key.
  std::vector<size_t> misses;  // item indices that must run the pipeline
  for (size_t it_idx = 0; it_idx < items.size(); ++it_idx) {
    BatchItem& item = items[it_idx];
    if (std::shared_ptr<const SearchOutput> cached = cache_.Get(item.key)) {
      sink_->IncrementCounter("cache.hit", 1);
      item.from_cache = true;
      item.output = *cached;
    } else {
      sink_->IncrementCounter("cache.miss", 1);
      misses.push_back(it_idx);
    }
  }

  const SodaConfig& config = soda_->config();
  const std::vector<const PipelineStage*>& stages = soda_->stages();

  // Steps 1-2 once per unique miss, fanned across the pool: query
  // contexts are independent and the step objects are stateless.
  std::vector<std::unique_ptr<QueryContext>> contexts;
  std::vector<Status> prefix_status(misses.size(), Status::OK());
  contexts.reserve(misses.size());
  // One span per unique miss, open across both fan-outs below so its
  // duration covers that query's full pipeline; stage spans created by
  // the drivers parent under it through ctx->trace. Inert (and unmoved
  // past a reserve) when the batch is untraced.
  std::vector<Span> query_spans;
  query_spans.reserve(misses.size());
  for (size_t miss_idx : misses) {
    auto ctx =
        std::make_unique<QueryContext>(queries[items[miss_idx].occurrences[0]]);
    ctx->config = &config;
    ctx->metrics = sink_.get();
    ctx->collect_freshness_terms = freshness_ != nullptr;
    Span query_span(trace, "batch.query");
    if (query_span.active()) query_span.SetAttr("query", ctx->raw_query);
    ctx->trace = query_span.context();
    query_spans.push_back(std::move(query_span));
    contexts.push_back(std::move(ctx));
  }
  sink_->Observe("pool.queue_depth",
                 static_cast<double>(pool_.queue_depth()));
  pool_.ParallelFor(contexts.size(), [&](size_t i) {
    // Each task writes only its own slot, so an exception (or armed
    // failpoint) poisons one query's prefix, never the batch.
    try {
      SODA_FAILPOINT("engine.pool_task");
      prefix_status[i] = RunQueryStages(stages, contexts[i].get());
    } catch (const std::exception& e) {
      prefix_status[i] = Status::Unavailable(
          std::string("pipeline prefix threw: ") + e.what());
      sink_->IncrementCounter("engine.task_exceptions", 1);
    } catch (...) {
      prefix_status[i] =
          Status::Unavailable("pipeline prefix threw a non-standard exception");
      sink_->IncrementCounter("engine.task_exceptions", 1);
    }
  });

  // Steps 3-5 over one flat (query, interpretation) task list: a batch
  // of narrow queries load-balances exactly like one wide query.
  std::vector<std::pair<size_t, size_t>> units;  // (context idx, state idx)
  for (size_t c = 0; c < contexts.size(); ++c) {
    if (!prefix_status[c].ok()) continue;
    for (size_t s = 0; s < contexts[c]->states.size(); ++s) {
      units.emplace_back(c, s);
    }
  }
  sink_->IncrementCounter("batch.interpretations", units.size());
  // One slot per unit (several units of one context run concurrently, so
  // a shared per-context status would race); folded serially below.
  std::vector<Status> unit_status(units.size(), Status::OK());
  pool_.ParallelFor(units.size(), [&](size_t u) {
    auto [c, s] = units[u];
    try {
      SODA_FAILPOINT("engine.pool_task");
      RunInterpretationStages(stages, *contexts[c], &contexts[c]->states[s]);
    } catch (const std::exception& e) {
      unit_status[u] = Status::Unavailable(
          std::string("interpretation task threw: ") + e.what());
      sink_->IncrementCounter("engine.task_exceptions", 1);
    } catch (...) {
      unit_status[u] = Status::Unavailable(
          "interpretation task threw a non-standard exception");
      sink_->IncrementCounter("engine.task_exceptions", 1);
    }
  });
  for (size_t u = 0; u < units.size(); ++u) {
    size_t c = units[u].first;
    if (!unit_status[u].ok() && prefix_status[c].ok()) {
      prefix_status[c] = unit_status[u];
    }
  }

  // Deterministic per-query merge, in miss order.
  for (size_t c = 0; c < contexts.size(); ++c) {
    BatchItem& item = items[misses[c]];
    if (!prefix_status[c].ok()) {
      item.output = prefix_status[c];
      query_spans[c].SetStatus(prefix_status[c].message());
      query_spans[c].End();
      continue;
    }
    item.output = FinalizeOutput(std::move(*contexts[c]));
    query_spans[c].End();
  }

  // Snippet execution for the sync path: again one flat task list across
  // every (miss item, result) pair.
  if (execute && config.execute_snippets && soda_->database() != nullptr) {
    auto t_exec = std::chrono::steady_clock::now();
    std::vector<std::pair<size_t, size_t>> snips;  // (item idx, result idx)
    for (size_t miss_idx : misses) {
      BatchItem& item = items[miss_idx];
      if (!item.output.ok()) continue;
      for (size_t r = 0; r < item.output->results.size(); ++r) {
        snips.emplace_back(miss_idx, r);
      }
    }
    Span exec_span(trace, "stage.execute");
    if (exec_span.active()) {
      exec_span.SetAttr("snippets", static_cast<int64_t>(snips.size()));
    }
    pool_.ParallelFor(snips.size(), [&](size_t i) {
      auto [it_idx, r] = snips[i];
      ExecuteSnippetContained(*soda_, &items[it_idx].output->results[r],
                              sink_.get());
    });
    exec_span.End();
    double exec_ms = MsSince(t_exec);
    sink_->Observe("stage.execute.ms", exec_ms);
    // Per-item attribution of a shared fan-out is ill-defined; every
    // computed output carries the batch-level execution wall time.
    for (size_t miss_idx : misses) {
      BatchItem& item = items[miss_idx];
      if (item.output.ok()) item.output->timings.execute_ms = exec_ms;
    }
  }

  double wall_ms = MsSince(t_start);
  for (size_t miss_idx : misses) {
    BatchItem& item = items[miss_idx];
    if (!item.output.ok()) continue;
    item.output->threads_used = num_threads();
    item.output->timings.wall_ms = wall_ms;
  }
  sink_->Observe("batch.wall.ms", wall_ms);
  return items;
}

std::vector<Result<SearchOutput>> SodaEngine::ExpandBatch(
    std::vector<BatchItem> items, size_t query_count,
    bool mark_dedup_as_cached,
    std::chrono::steady_clock::time_point batch_start) const {
  const bool cache_enabled = cache_.capacity() > 0;

  // Book the in-batch repeats: the unique probe already counted one
  // miss (or hit); each further occurrence of the same normalized query
  // is a hit against the entry the batch itself materialized.
  for (const BatchItem& item : items) {
    if (!item.output.ok() || item.occurrences.size() <= 1) continue;
    size_t repeats = item.occurrences.size() - 1;
    cache_.RecordDedupHits(repeats);
    sink_->IncrementCounter("batch.dedup_hits", repeats);
  }

  CacheStats stats = cache_.stats();
  std::vector<Result<SearchOutput>> outputs(
      query_count, Result<SearchOutput>(Status::Internal("unmapped query")));
  for (const BatchItem& item : items) {
    for (size_t occ = 0; occ < item.occurrences.size(); ++occ) {
      size_t input_idx = item.occurrences[occ];
      if (!item.output.ok()) {
        outputs[input_idx] = item.output.status();
        continue;
      }
      SearchOutput output = *item.output;
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
        // Like the single-query hit path: this response did no pipeline
        // work of its own, and the stored entry's cold-run wall time is
        // not this response's latency — stamp this call's elapsed time.
        output.timings = StepTimings{};
        output.timings.wall_ms = MsSince(batch_start);
      }
      output.cache_hits = stats.hits;
      output.cache_misses = stats.misses;
      output.threads_used = num_threads();
      outputs[input_idx] = std::move(output);
    }
  }
  return outputs;
}

// ---------------------------------------------------------------------------
// SearchAll (sync batch)
// ---------------------------------------------------------------------------

std::vector<Result<SearchOutput>> SodaEngine::SearchAll(
    std::span<const std::string> queries) const {
  if (queries.empty()) return {};
  auto data_guard = ReadGuard();
  auto t_start = std::chrono::steady_clock::now();
  sink_->IncrementCounter("engine.search_all", 1);

  TraceContext trace_parent = CurrentTraceContext();
  const bool owns_trace =
      !trace_parent.active() && TraceRecorder::Instance().enabled();
  if (owns_trace) {
    trace_parent = TraceRecorder::Instance().StartTrace("engine.search_all");
  }
  OwnedTrace owned_trace(owns_trace ? trace_parent : TraceContext{},
                         sink_.get());
  Span batch_span(trace_parent, "engine.search_all");
  if (batch_span.active()) {
    batch_span.SetAttr("queries", static_cast<int64_t>(queries.size()));
  }

  std::vector<BatchItem> items =
      TranslateBatch(queries, /*execute=*/true, batch_span.context());

  // Insert the fully materialized computed entries, keyed on the
  // normalized query after dedup — one Put per unique miss. The stored
  // copy keeps from_cache=false and unset counters, exactly like the
  // single-query path.
  for (const BatchItem& item : items) {
    if (item.from_cache || !item.output.ok()) continue;
    CacheInsert(item.key, *item.output);
  }
  std::vector<Result<SearchOutput>> outputs =
      ExpandBatch(std::move(items), queries.size(),
                  /*mark_dedup_as_cached=*/true, t_start);
  batch_span.End();
  owned_trace.set_wall_ms(MsSince(t_start));
  return outputs;
}

// ---------------------------------------------------------------------------
// Async snippet streaming
// ---------------------------------------------------------------------------

namespace {

/// Shared state of one unique query's snippet stream. Result slots are
/// written by exactly one task each; the task that drops `remaining` to
/// zero observes all earlier writes through the acq_rel decrement and
/// owns the cache insertion.
struct StreamState {
  SearchOutput output;
  std::vector<size_t> occurrences;
  std::string key;
  SnippetCallback on_snippet;  // one copy per unique query, not per task
  bool run_execution = false;  // false when served from cache (or disabled)
  bool cache_insert = false;   // insert the materialized output when done
  /// Change-log sequence at translation time. The deferred cache insert
  /// is skipped when the log moved past it meanwhile — a mutation
  /// between translation and the last snippet already invalidated this
  /// key's dependents, and inserting the stale answer afterwards would
  /// undo that forever.
  uint64_t translated_at_sequence = 0;
  std::atomic<size_t> remaining{0};
};

}  // namespace

std::vector<Result<SearchOutput>> SodaEngine::SearchAllAsync(
    std::span<const std::string> queries, SnippetCallback on_snippet,
    SnippetBarrier* barrier) const {
  if (queries.empty()) return {};
  auto data_guard = ReadGuard();
  auto t_start = std::chrono::steady_clock::now();
  sink_->IncrementCounter("engine.search_all_async", 1);

  // The async trace outlives this call: snippet tasks carry the batch
  // span's context into the pool and append their spans after the trace
  // was finished — TraceData is shared and append-safe, so stragglers
  // still land in the archived record.
  TraceContext trace_parent = CurrentTraceContext();
  const bool owns_trace =
      !trace_parent.active() && TraceRecorder::Instance().enabled();
  if (owns_trace) {
    trace_parent =
        TraceRecorder::Instance().StartTrace("engine.search_all_async");
  }
  OwnedTrace owned_trace(owns_trace ? trace_parent : TraceContext{},
                         sink_.get());
  Span batch_span(trace_parent, "engine.search_all_async");
  if (batch_span.active()) {
    batch_span.SetAttr("queries", static_cast<int64_t>(queries.size()));
  }

  const SodaConfig& config = soda_->config();
  const Database* db = soda_->database();
  const bool can_execute = config.execute_snippets && db != nullptr;
  const uint64_t translated_at_sequence =
      db != nullptr ? db->change_log().sequence() : 0;

  std::vector<BatchItem> items =
      TranslateBatch(queries, /*execute=*/false, batch_span.context());

  // Snapshot the per-unique stream states before the items are consumed
  // by ExpandBatch, and register every expected callback up front so the
  // barrier can never observe a transient zero while later items are
  // still being scheduled.
  std::vector<std::shared_ptr<StreamState>> streams;
  size_t expected_callbacks = 0;
  for (const BatchItem& item : items) {
    if (!item.output.ok()) continue;
    if (item.output->results.empty()) {
      // Nothing to stream, so no task will ever do the deferred cache
      // insert — cache the (empty) answer now, like the sync paths do.
      if (!item.from_cache) {
        CacheInsert(item.key, *item.output);
      }
      continue;
    }
    auto stream = std::make_shared<StreamState>();
    stream->output = *item.output;
    stream->occurrences = item.occurrences;
    stream->key = item.key;
    stream->on_snippet = on_snippet;
    stream->run_execution = can_execute && !item.from_cache;
    stream->cache_insert = !item.from_cache;
    stream->translated_at_sequence = translated_at_sequence;
    stream->remaining.store(stream->output.results.size(),
                            std::memory_order_relaxed);
    expected_callbacks +=
        stream->output.results.size() * stream->occurrences.size();
    streams.push_back(std::move(stream));
  }
  if (barrier != nullptr) barrier->Expect(expected_callbacks);

  std::vector<Result<SearchOutput>> outputs =
      ExpandBatch(std::move(items), queries.size(),
                  /*mark_dedup_as_cached=*/false, t_start);

  // Release the serve's shared lock before scheduling the snippet
  // tasks: on a workerless pool Submit runs the task inline on this
  // thread, and its own ReadGuard must not re-enter the shared_mutex
  // (UB, and a deadlock with a queued writer). The tasks re-acquire for
  // themselves; the sequence check above keeps a mutation that sneaks
  // into the gap from ever caching a stale answer.
  if (data_guard.owns_lock()) data_guard.unlock();

  // One task per (unique query, result): execute the snippet, then fan
  // the callback out to every occurrence of that query in the batch —
  // exactly one delivery per (query_index, result_index) pair.
  const TraceContext stream_trace = batch_span.context();
  for (const std::shared_ptr<StreamState>& stream : streams) {
    for (size_t r = 0; r < stream->output.results.size(); ++r) {
      pool_.Submit([this, stream, barrier, r, stream_trace] {
        // Pool tasks run outside the submitting call's data guard, so
        // each takes its own shared lock around the snippet scan and the
        // (possible) cache insert.
        auto data_guard = ReadGuard();
        // Explicit context capture is how the trace crosses the pool
        // boundary: this span parents under the batch span even though
        // it starts on a worker after SearchAllAsync returned.
        Span snippet_span(stream_trace, "snippet.stream");
        if (snippet_span.active()) {
          snippet_span.SetAttr("result", static_cast<int64_t>(r));
        }
        SodaResult& result = stream->output.results[r];
        if (stream->run_execution) {
          // Contained: a throwing snippet (or armed failpoint) marks this
          // one result failed; the callbacks below still fan out and the
          // barrier Deliver still runs, so Wait() never hangs on a fault.
          ExecuteSnippetContained(*soda_, &result, sink_.get());
        }
        std::vector<std::exception_ptr> exceptions;
        exceptions.reserve(stream->occurrences.size());
        for (size_t query_index : stream->occurrences) {
          std::exception_ptr exception;
          if (stream->on_snippet) {
            try {
              stream->on_snippet(query_index, r, result);
            } catch (...) {
              exception = std::current_exception();
              sink_->IncrementCounter("snippet.callback_exception", 1);
            }
          }
          sink_->IncrementCounter("snippet.streamed", 1);
          exceptions.push_back(std::move(exception));
        }
        if (stream->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
            stream->cache_insert) {
          // Last snippet of this query: cache the materialized answer —
          // unless base data moved since translation (the stored answer
          // would be stale and its invalidation already happened).
          const Database* db = soda_->database();
          if (db == nullptr ||
              db->change_log().sequence() == stream->translated_at_sequence) {
            CacheInsert(stream->key, stream->output);
          } else {
            sink_->IncrementCounter("cache.stale_insert_skipped", 1);
          }
        }
        // End (and append) the span before delivering: a caller may
        // finish the trace as soon as Wait() returns, and a span
        // recorded after that would be dropped as an orphan.
        snippet_span.End();
        // Deliver last: once the barrier reports drained, the cache
        // insertion (done by whichever task decremented to zero) has
        // already happened — Wait() is a true completion point.
        if (barrier != nullptr) {
          for (std::exception_ptr& exception : exceptions) {
            barrier->Deliver(std::move(exception));
          }
        }
      });
    }
  }
  sink_->Observe("pool.queue_depth",
                 static_cast<double>(pool_.queue_depth()));
  batch_span.End();
  owned_trace.set_wall_ms(MsSince(t_start));
  return outputs;
}

Result<SearchOutput> SodaEngine::SearchAsync(const std::string& query,
                                             SnippetCallback on_snippet,
                                             SnippetBarrier* barrier) const {
  std::vector<Result<SearchOutput>> outputs =
      SearchAllAsync(std::span<const std::string>(&query, 1),
                     std::move(on_snippet), barrier);
  return std::move(outputs[0]);
}

}  // namespace soda
