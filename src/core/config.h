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

  /// SodaEngine: workers per cache stripe. The engine's one worker pool
  /// is num_threads x num_shards wide and fans the queries of a batch
  /// out (one query never splits across it). 0 means "use the hardware
  /// concurrency" for the whole pool; a width of 1 runs every batch
  /// serially. The ranked result list is byte-identical at any width.
  size_t num_threads = 0;

  /// SodaEngine: capacity of each LRU result-cache stripe, keyed on the
  /// whitespace-normalized query string. 0 disables caching.
  size_t cache_capacity = 128;

  /// SodaEngine: how many stripes the result cache is split into, each
  /// an LRU of cache_capacity entries behind its own lock. A query's
  /// entry lives in exactly one stripe, picked by a folded hash of its
  /// normalized string (ShardOfKey), so it meets the same hits and
  /// evictions whatever the other stripes hold. 0 and 1 both mean one
  /// stripe.
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
