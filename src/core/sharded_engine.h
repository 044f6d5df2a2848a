// ShardedSodaEngine — a query router over N SodaEngine shards that share
// one Soda core.
//
// The SODA pipeline is embarrassingly parallel across queries, so
// scaling past one worker pool is a routing problem, not an algorithm
// problem. The router builds ONE immutable core (core/soda.h: inverted
// and classification indexes, pattern matcher, join graph, closure —
// built once, as the paper reports index construction apart from query
// processing) and fronts N SodaEngine shards over it. A shard owns only
// what serving needs per shard: its worker pool, LRU result cache and
// metrics sink. All of it sits behind one engine-shaped surface:
//
//   1. routing — every query is assigned to exactly one shard by a
//      folded 64-bit FNV-1a hash of its whitespace-normalized string
//      (NormalizedQueryKey). Deterministic and platform-independent, so
//      a query's cache entry lives on exactly one shard, repeats always
//      hit the shard that computed them, and the shard map is stable
//      across runs and machines. Session traffic routes by the same key
//      — the constraints are deliberately NOT hashed — so every
//      constrained variant of one question lands on one shard (session
//      affinity: a Refine always finds the shard whose plans know the
//      question);
//   2. batched admission — SearchAll splits a batch into per-shard
//      sub-batches, runs them concurrently on a persistent router-side
//      dispatch pool, and re-merges the per-query Results into input
//      order. Each shard still applies its own in-batch dedup and cache,
//      so the ranked output is byte-identical to a single engine at any
//      shard count × thread count. SearchAllAsync splits the same way and
//      orders the shards' snippet runs by global first-occurrence index
//      after the join, so the streamed event order is a single engine's
//      too;
//   3. failure containment — every shard dispatch runs behind the
//      "shard.dispatch" failpoint and an exception barrier. A sub-batch
//      whose dispatch fails (throws, or errors through the failpoint)
//      fails only its own queries, each with Unavailable; a routed
//      single query returns Unavailable. Nothing is retried: every shard
//      serves the same core in the same process, so a sibling would
//      re-run the same code over the same data. Faults inside the
//      engine (pool tasks, snippets) are already contained per query by
//      the engine itself;
//   4. aggregated observability — metrics_snapshot() merges every
//      shard's sink plus the router's own samples
//      (router.shard_batch_size, router.shard_queries, router.batches)
//      into one fleet view; cache_stats() sums the per-shard books;
//   5. invalidation fan-out — InvalidateWhere(pred) (and so ClearCache())
//      forwards to every shard, so base-data update notifications keep
//      working when the cache is spread over N shards. A base-data delta
//      is applied once, to the shared core.
//
// Thread-safety matches SodaEngine: all entry points are const and safe
// to call from many caller threads at once.

#ifndef SODA_CORE_SHARDED_ENGINE_H_
#define SODA_CORE_SHARDED_ENGINE_H_

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/lru_cache.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "core/service.h"

namespace soda {

/// The router's shard choice for a *normalized* query key (callers hash
/// NormalizedQueryKey(query), not the raw string): 64-bit FNV-1a folded
/// to 32 bits (high xor low) before the modulo, so short keys still
/// spread over the full shard range. Exposed for tests and for external
/// placement logic (e.g. cache warmers) that must agree with the router.
size_t ShardOfKey(const std::string& normalized_key, size_t num_shards);

class ShardedSodaEngine : public SodaService {
 public:
  /// Builds one Soda core over the catalog and graph (its indexes, join
  /// graph and closure) and config.num_shards SodaEngine shards over it.
  /// A core construction failure propagates. num_shards 0 and 1 both
  /// build a single shard. With num_threads=0 ("use the hardware"), each
  /// shard gets hardware_concurrency / num_shards workers (min 1), so the
  /// fleet's pool roughly matches the machine instead of oversubscribing
  /// it num_shards-fold.
  static Result<std::unique_ptr<ShardedSodaEngine>> Create(
      const Database* db, const MetadataGraph* graph, PatternLibrary patterns,
      SodaConfig config);

  using SodaService::SearchAll;

  /// Routes the query to its shard and runs that shard's SearchSession
  /// inline on the caller thread, under a router.route span, with the
  /// dispatch contained (a failed dispatch returns Unavailable). The
  /// question routes by its normalized text (constraints excluded), so
  /// repeats of one query always land on the same shard and its cache
  /// behaves exactly like a single engine's; every Refine resumes on the
  /// shard that captured its plan, and a constrained serve lands on the
  /// shard whose cache holds the question's answer and plan: session
  /// affinity. Books router.session_queries when `plan` is set.
  Result<SearchOutput> SearchSession(
      const std::string& query, const SessionConstraints& constraints,
      std::shared_ptr<const TranslationPlan>* plan) const override;

  /// Batched admission point: splits the batch by shard, runs the
  /// occupied shards' SearchAll concurrently, and merges the per-query
  /// outputs back into input order. Byte-identical ranked results to a
  /// single engine; in-batch dedup still applies (identical normalized
  /// queries route identically, so they meet in one sub-batch). A
  /// sub-batch whose dispatch fails comes back as per-query Unavailable
  /// errors; the rest of the batch is unaffected.
  std::vector<Result<SearchOutput>> SearchAll(
      std::span<const std::string> queries) const override;

  /// Async admission: per-shard SearchAllAsync with the callback's
  /// query_index remapped to the caller's batch position. Every shard's
  /// translation completes before this returns; the shards' streams are
  /// concatenated after the join and ordered by global first-occurrence
  /// index, so Run() delivers in the same order at any shard count. A
  /// failed sub-batch contributes no runs and its queries come back
  /// Unavailable.
  AsyncSearch SearchAllAsync(std::span<const std::string> queries,
                             SnippetCallback on_snippet) const override;

  /// Sum of every shard's cache books (hits/misses/dedup/invalidations;
  /// capacity and size sum too — they describe the fleet).
  CacheStats cache_stats() const override;

  /// Keyed invalidation fan-out: forwards `pred` (over cached entries:
  /// normalized query key and stored answer) to every shard and returns the total number of evicted
  /// entries. Each key lives on exactly one shard, so the total equals
  /// what a single engine would have evicted.
  size_t InvalidateWhere(const CachePredicate& pred) const override;

  /// Incremental base-data maintenance: every shard shares one core, so
  /// one storage ChangeEvent is applied once, to the core's inverted
  /// index. Same contract as SodaEngine::ApplyBaseDataDelta (call under
  /// the change log's exclusive data lock, i.e. from a ChangeListener).
  /// Returns the number of new posting entries.
  size_t ApplyBaseDataDelta(const ChangeEvent& event) override;

  /// Installs `sink` on every shard — the exporter hook for fleet
  /// deployments (MetricsSink implementations are thread-safe, so one
  /// instance may serve all shards). Same caveat as
  /// SodaEngine::set_metrics_sink: install before serving traffic.
  /// nullptr restores each shard's built-in sink. The router's own
  /// router.* samples stay in its internal sink either way and keep
  /// appearing in metrics_snapshot().
  void set_metrics_sink(std::shared_ptr<MetricsSink> sink) override;

  /// Fleet view: every shard's snapshot merged (counters add, histograms
  /// merge on the shared bucket grid) plus the router's own router.*
  /// series. Shards whose built-in sink was replaced via
  /// set_metrics_sink stop contributing new samples here — snapshot the
  /// custom sink instead.
  MetricsSnapshot metrics_snapshot() const override;

  size_t num_shards() const { return shards_.size(); }

  /// Per-shard worker width (all shards share one config).
  size_t num_threads() const override { return shards_.front()->num_threads(); }

  /// Fleet backlog: the router's own dispatch-pool queue plus every
  /// shard pool's queue (see SodaService::queue_depth). This is the
  /// depth signal the HTTP front end's admission watermark compares
  /// against — a batch wave that outruns the shards shows up here
  /// before latency does.
  size_t queue_depth() const override;

  /// Direct access to one shard, for tests and per-shard inspection.
  /// Every shard's soda() is the one shared core.
  const SodaEngine& shard(size_t i) const { return *shards_[i]; }

 private:
  /// Shared split/route/merge core of SearchAll and SearchAllAsync: the
  /// occupied shards' sub-batches run through dispatch_pool_.ParallelFor
  /// (the caller runs one of them itself, so a one-shard batch runs
  /// inline), each under its own router.dispatch span, and their outputs
  /// merge back into input order. With `snippets` set the sub-batches run
  /// async and their streams merge into *snippets in global
  /// first-occurrence order.
  std::vector<Result<SearchOutput>> DispatchBatch(
      std::span<const std::string> queries, const SnippetCallback& on_snippet,
      SnippetStream* snippets) const;

  /// `num_shards` engines over the one shared `core`.
  ShardedSodaEngine(std::shared_ptr<Soda> core, size_t num_shards);

  std::vector<std::unique_ptr<SodaEngine>> shards_;
  std::shared_ptr<InMemoryMetricsSink> router_sink_;

  // Helpers for DispatchBatch's ParallelFor. Persistent: no per-batch
  // thread create/join on the serving hot path. Declared last so it
  // drains before the members its tasks touch are destroyed.
  mutable ThreadPool dispatch_pool_;
};

}  // namespace soda

#endif  // SODA_CORE_SHARDED_ENGINE_H_
