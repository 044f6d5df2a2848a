// Tuning knobs of the SODA pipeline.

#ifndef SODA_CORE_CONFIG_H_
#define SODA_CORE_CONFIG_H_

#include <cstddef>

namespace soda {

struct SodaConfig {
  /// Step 2 - Rank and top N: how many interpretations survive ranking.
  size_t top_n = 10;

  /// Result snippets execute with this row limit (the paper shows up to
  /// twenty tuples per candidate query).
  size_t snippet_rows = 20;

  /// Cap on the combinatorial product of the lookup step. The complexity
  /// counter still reports the untruncated product.
  size_t max_interpretations = 1000;

  /// Step 3: keep only join conditions on a direct path between entry
  /// points (Figure 9). Disabling this is the ablation that includes every
  /// join edge attached to a collected table.
  bool direct_path_only = true;

  /// Execute the generated statements to produce result snippets.
  bool execute_snippets = true;

  /// SodaEngine: width of the worker pool that fans the queries of a
  /// batch out (one query never splits across it). 0 means "use the
  /// hardware concurrency"; 1 runs every batch serially. The ranked
  /// result list is byte-identical at any width.
  size_t num_threads = 0;

  /// SodaEngine: capacity of the LRU result cache, keyed on the
  /// whitespace-normalized query string. 0 disables caching.
  size_t cache_capacity = 128;

  /// ShardedSodaEngine: how many SodaEngine shards the router fronts,
  /// all over one shared Soda core (indexes, join graph, closure). Each
  /// shard gets its own worker pool (num_threads wide; with
  /// num_threads=0 the router divides the hardware concurrency across
  /// shards so the fleet's worker count roughly matches the machine) and
  /// its own LRU cache (cache_capacity entries); a query's cache entry
  /// lives on exactly one shard, picked by a folded hash of the
  /// normalized query string. 0 and 1 both mean a single shard. Plain
  /// SodaEngine ignores this knob. The router only partitions: every
  /// shard serves the same core in the same process, so a failed shard
  /// dispatch fails its own queries with Unavailable and is never
  /// retried on a sibling (which would re-run the same code over the
  /// same data).
  size_t num_shards = 1;

  // -------------------------------------------------------------------
  // Request tracing (common/trace.h). When either is set, both knobs
  // apply to the process-global TraceRecorder as an engine is built;
  // ranked output is byte-identical with tracing on or off.
  // -------------------------------------------------------------------

  /// Head sampling: every trace_sample_n-th request's span tree is kept
  /// in the trace ring (1 keeps every request). 0 disables tracing
  /// entirely — the ~free default (one branch + relaxed load per span
  /// site). Slow and errored requests are kept regardless of the head
  /// decision while tracing is enabled.
  size_t trace_sample_n = 0;

  /// Requests slower than this always keep their trace and append a
  /// line to the slow-query log, whatever the sampling decision said.
  /// 0 disables the slow-query rules.
  double slow_query_threshold_ms = 0.0;
};

}  // namespace soda

#endif  // SODA_CORE_CONFIG_H_
