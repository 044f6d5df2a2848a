// SodaEngine — the concurrent, cached, observable service layer over the
// pipeline.
//
// Soda::Search runs the Figure 4 stage list serially. The engine wraps
// the same Soda instance for service-style deployments (think Sigma-style
// interactive query construction over a warehouse, many users hammering
// the same schema):
//
//   1. an LRU result cache keyed on the whitespace-normalized query
//      string (case is kept: comparison literals are case-sensitive) —
//      repeated business queries (dashboards, saved searches)
//      short-circuit the whole pipeline; hit/miss counters are read
//      through cache_stats(). The cache is striped: config.num_shards
//      LRUs of cache_capacity entries each, every one behind its own
//      lock, and a key lives in exactly one of them, picked by
//      ShardOfKey over its normalized text. A key's stripe sees every
//      hit, miss, eviction and plan peek of that key, so concurrent
//      callers contend per stripe rather than on one lock;
//   2. a fixed-size worker pool that fans out across the queries of a
//      batch, never within one query: each query's stages, its
//      interpretations (in ranked order) and its snippets run on one
//      thread, so a single query never pays a thread hand-off (its units
//      of work cost about as much as one hand-off each);
//   3. a deterministic merge: states are recombined in ranked order and
//      deduplicated with SameStatement, so the ranked SQL list is
//      byte-identical whether num_threads is 1 or N;
//   4. a batched front door — SearchAll admits a whole dashboard refresh
//      at once, dedups identical normalized queries inside the batch
//      (Steps 1-5 run once per unique query; repeats cost one cache hit),
//      and runs one pool task per unique miss;
//   5. async snippet streaming — SearchAllAsync returns the translated,
//      ranked SQL immediately, together with a SnippetStream holding each
//      query's snippet work; the caller's Run() executes it on the
//      calling thread, delivering each executed snippet through a
//      SnippetCallback in result order;
//   6. pluggable observability — every stage latency, cache hit/miss,
//      batch dedup, snippet outcome and queue-depth sample flows into a
//      MetricsSink (default: in-memory counters + histograms, snapshot
//      via metrics_snapshot()); each stage run is timed once by a
//      StageScope (core/pipeline.h), whose single duration feeds the
//      stage span, the "stage.<name>.ms" histogram and StepTimings;
//   7. interactive sessions — Search takes SessionConstraints (constrained
//      answers bypass the result cache), and SearchSession captures/resumes
//      a TranslationPlan so a session's Refine re-runs only the stages a
//      constraint change can affect (core/service.h, core/session.h). A
//      session serve that fills a cache entry stores its plan there
//      (plain searches capture none), so a later Ask served from that
//      entry hands its session the plan, and a constrained session serve
//      with no fitting plan of its own resumes from the one cached for
//      its question — peeked, so the hit/miss books and the rule that
//      constrained answers neither probe nor fill the cache stand.
//
// One driver serves all of it: every entry point runs the same
// translation core (TranslateBatch) — SearchSession (which Search calls
// without a plan slot) as a batch of one item that carries its
// constraints and plan slot, SearchAll and SearchAllAsync as the
// deduplicated batch — so cache probing, session resume, fan-out,
// exception containment and snippet execution exist once.
//
// The engine owns its Soda core (inverted and classification indexes,
// join graph, closure), built once in Create and immutable afterwards
// apart from ApplyBaseDataDelta. It is safe to share across caller
// threads: all entry points are const, every cache stripe and the sink
// are internally locked, and the underlying step objects are stateless
// (the pattern matcher's memoization is mutex-guarded).

#ifndef SODA_CORE_ENGINE_H_
#define SODA_CORE_ENGINE_H_

#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "common/lru_cache.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/service.h"
#include "core/soda.h"

namespace soda {

/// The engine's cache key, whose hash also picks its cache stripe:
/// whitespace runs collapsed to single spaces, ends trimmed. Case is NOT
/// folded — comparison literals ("family name = Meier") compare
/// case-sensitively in the executor, so differently-cased queries can
/// have genuinely different answers. Exposed so the invalidation
/// predicates handed to InvalidateWhere and the tests agree on exactly
/// the bytes that get hashed and cached.
std::string NormalizedQueryKey(const std::string& query);

/// The cache stripe of a *normalized* query key (callers hash
/// NormalizedQueryKey(query), not the raw string): 64-bit FNV-1a folded
/// to 32 bits (high xor low) before the modulo, so short keys still
/// spread over every stripe. Deterministic and platform-independent, so
/// a key's stripe is the same across runs and machines. Session traffic
/// picks by the same key — the constraints are NOT hashed — so every
/// constrained variant of one question peeks the stripe holding its
/// unconstrained answer and plan.
size_t ShardOfKey(const std::string& normalized_key, size_t num_shards);

class SodaEngine : public SodaService {
 public:
  /// Builds the underlying Soda (propagating index-construction errors),
  /// the worker pool (config.num_threads x config.num_shards workers;
  /// hardware concurrency when num_threads is 0) and the result cache
  /// (config.num_shards stripes of config.cache_capacity entries; 0
  /// capacity disables). Sets the process-wide trace recorder's knobs
  /// when the config sets them (an untraced engine never turns a
  /// configured recorder off).
  static Result<std::unique_ptr<SodaEngine>> Create(
      const Database* db, const MetadataGraph* graph, PatternLibrary patterns,
      SodaConfig config);

  using SodaService::SearchAll;

  /// Single-question search, with TranslationPlan capture/resume when
  /// `plan` is set — see SodaService::SearchSession for the contract and
  /// the stage-skip matrix. A batch of one through TranslateBatch: on a
  /// cache hit the stored output is copied with `from_cache` set; on a
  /// miss the pipeline and the snippets run on the caller's thread. Only
  /// unconstrained answers probe or fill the cache, constrained ones may
  /// peek a cached plan. The slot takes the answer's plan (cached,
  /// resumed or newly captured) only when the serve succeeded. Outputs
  /// are byte-identical across all paths.
  Result<SearchOutput> SearchSession(
      const std::string& query, const SessionConstraints& constraints,
      std::shared_ptr<const TranslationPlan>* plan) const override;

  /// Batched search: one dashboard refresh in, per-query outputs out, in
  /// input order. Identical normalized queries inside the batch are
  /// deduplicated before the cache is touched — the pipeline runs once
  /// per unique query and repeats are booked as one miss + N-1 hits.
  /// The unique misses fan out across the pool, one task per query that
  /// runs its stages, interpretations and snippets in order. Per-query
  /// failures (e.g. a malformed query) error only their own slot.
  /// Results are byte-identical to N independent Search calls at any
  /// thread count.
  std::vector<Result<SearchOutput>> SearchAll(
      std::span<const std::string> queries) const override;

  /// Async batched search: SearchAll's dedup and cross-query fan-out
  /// for the translation phase, then returns at once. The outputs carry
  /// executed=false and empty snippets, cache-served answers included;
  /// the stream holds one run per unique query with results, in
  /// first-occurrence order. Its Run() executes each query's
  /// snippets in result order on the calling thread, delivering each
  /// through `on_snippet` once per occurrence — deduplicated repeats
  /// share one execution but get their own callbacks (with their own
  /// query_index) — and caches the materialized answer after the last
  /// one, unless base data changed since translation. The data lock is
  /// held only around each snippet's execution and the cache insert,
  /// never across a callback. This engine must outlive that Run().
  AsyncSearch SearchAllAsync(std::span<const std::string> queries,
                             SnippetCallback on_snippet) const override;

  /// Cache observability: every stripe's books summed (capacity and
  /// size too — they describe the whole cache).
  CacheStats cache_stats() const override;

  /// Keyed cache invalidation: evicts every cached answer for which
  /// `pred(key, entry)` holds — the key is the normalized query (see
  /// NormalizedQueryKey), the entry the stored answer with its plan and
  /// tables — and returns how many entries were dropped, over every
  /// stripe. This is the base-data update hook for mutable warehouses —
  /// on a table refresh, evict the answers that read it instead of
  /// clearing the whole cache. Safe to call concurrently with Search
  /// traffic: the predicate runs under each stripe's lock in turn (keep
  /// it cheap; it must not call back into the engine),
  /// and in-flight readers keep their payloads alive. Note async
  /// streaming inserts into the cache inside SnippetStream::Run(), so
  /// invalidate after Run() to cover in-flight async answers.
  size_t InvalidateWhere(const CachePredicate& pred) const override;

  /// Incremental base-data maintenance: forwards one storage ChangeEvent
  /// to the underlying Soda's inverted index. MUST run under the
  /// database change log's exclusive data lock (i.e. from a
  /// ChangeListener) — every serve holds the shared side from its cache
  /// probe to its cache insert, and a snippet stream around each
  /// execution and its insert, so the delta never interleaves with one.
  /// Returns the number of new posting entries.
  size_t ApplyBaseDataDelta(const ChangeEvent& event) override {
    return soda_->ApplyBaseDataDelta(event);
  }

  /// Replaces the metrics sink (push exporters such as statsd plug in
  /// here). Not thread-safe with respect to in-flight searches — install
  /// the sink before serving traffic. Passing nullptr restores the
  /// built-in in-memory sink.
  void set_metrics_sink(std::shared_ptr<MetricsSink> sink) override;

  /// Snapshot of the built-in in-memory sink. When a custom sink is
  /// installed the built-in one stops receiving events and this freezes;
  /// snapshot the custom sink through its own interface instead.
  MetricsSnapshot metrics_snapshot() const override {
    return default_sink_->Snapshot();
  }

  /// Effective parallelism: the whole pool's worker count, or 1 when
  /// running inline.
  size_t num_threads() const override;

  /// Worker-pool backlog (see SodaService::queue_depth).
  size_t queue_depth() const override { return pool_.queue_depth(); }

  const Soda& soda() const { return *soda_; }

  /// The cache stripe count, and the engine itself as its only "shard":
  /// kept, with the old router's name aliased in core/sharded_engine.h,
  /// for the end-to-end benchmark harness under perfbench/, which still
  /// reads them. Delete all three with their last use there.
  size_t num_shards() const { return stripes_.size(); }
  const SodaEngine& shard(size_t) const { return *this; }

 private:
  using AnswerCache = LruCache<std::string, CachedAnswer>;

  explicit SodaEngine(std::unique_ptr<Soda> soda);

  /// The stripe that holds normalized key `key`.
  AnswerCache& StripeOf(const std::string& key) const {
    return *stripes_[ShardOfKey(key, stripes_.size())];
  }

  struct BatchItem;
  struct StreamState;

  /// The batch entry points' front half: deduplicates `queries` into one
  /// item per unique normalized query, runs TranslateBatch over them
  /// (one "batch.query" span per miss) and books the batch.* counters
  /// and the batch.wall.ms sample.
  std::vector<BatchItem> TranslateQueries(
      std::span<const std::string> queries, bool execute,
      const TraceContext& trace,
      std::chrono::steady_clock::time_point start) const;

  /// The translation core of every entry point: probes the cache once
  /// per item under its key, then runs one contained pool task per miss
  /// — its query-level stages (or a session plan resume), then its
  /// interpretations in ranked order — so a throwing task fails only its
  /// query and a batch of one stays on the caller's thread. A capturing
  /// item (a session serve that cannot reuse a plan's states) snapshots
  /// its states at the Step-4/5 boundary; its plan reaches the session
  /// slot, and the cache entry an unconstrained answer fills, only on
  /// success. `execute` (the sync paths) appends the
  /// query's snippet execution to its task, timed into its own output;
  /// computed answers are cached once materialized (all of them when
  /// `execute`, else only those with no snippet to stream). `trace` (the
  /// root span's context, possibly inactive) parents, when `query_span`
  /// is set, one such span per miss; otherwise the stage and execute
  /// spans parent under `trace` directly. Computed outputs are stamped
  /// with the wall time since `start`. Returns the number of
  /// interpretations translated.
  size_t TranslateBatch(std::vector<BatchItem>* items, bool execute,
                        const TraceContext& trace,
                        std::chrono::steady_clock::time_point start,
                        const char* query_span) const;

  /// Expands per-unique BatchItems into per-input-index outputs, booking
  /// dedup repeats as cache hits.
  /// `mark_dedup_as_cached` sets from_cache on in-batch repeats — true
  /// for the sync path (repeats are materialized), false for async
  /// (repeats are still-unexecuted translations).
  /// `batch_start` stamps cache-served responses with this call's own
  /// elapsed wall time (computed outputs already carry the batch wall)
  /// and stages_skipped = 5.
  std::vector<Result<SearchOutput>> ExpandBatch(
      std::vector<BatchItem> items, size_t query_count,
      bool mark_dedup_as_cached,
      std::chrono::steady_clock::time_point batch_start) const;

  /// Runs one unique query's snippets in result order on the calling
  /// thread: executes each under its own ReadGuard, fans its callback
  /// out to every occurrence unlocked, and caches the materialized answer
  /// after the last result.
  SnippetStream::Summary RunStream(StreamState& stream,
                                   const TraceContext& trace) const;

  /// The database's shared data lock: every entry point takes one before
  /// probing the cache and holds it through its own cache insert, so
  /// answers can never be cached after an invalidation that should have
  /// covered them.
  std::shared_lock<std::shared_mutex> ReadGuard() const;

  /// Caches `output` under `key`, in its stripe, with its dependency
  /// record — its `freshness_terms` and folded table list, which
  /// InvalidateWhere predicates read — and `plan` (the plan it was
  /// translated from, or null when no session serve captured one), under
  /// the caller's ReadGuard, inside a "cache.insert" span under `trace`.
  void CacheInsert(const std::string& key, SearchOutput output,
                   std::vector<std::string> freshness_terms,
                   std::shared_ptr<const TranslationPlan> plan,
                   const TraceContext& trace) const;

  std::unique_ptr<Soda> soda_;
  // config.num_shards stripes (at least one), each its own locked LRU.
  std::vector<std::unique_ptr<AnswerCache>> stripes_;
  std::shared_ptr<InMemoryMetricsSink> default_sink_;
  std::shared_ptr<MetricsSink> sink_;
  // Fans out across the queries of a batch only; every ParallelFor joins
  // before its call returns, so no task outlives a serve.
  mutable ThreadPool pool_;
};

}  // namespace soda

#endif  // SODA_CORE_ENGINE_H_
