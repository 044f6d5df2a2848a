// SodaService — the abstract serving surface of the SODA stack.
//
// SodaEngine (core/engine.h: one worker pool, one striped result cache,
// one Soda core) implements it. Everything above the engine — the
// interactive session layer (core/session.h), the FreshnessManager
// (core/freshness.h), the HTTP server (net/http_server.h) and the demos —
// programs against SodaService, so tests can put a fake service behind
// the same callers.
//
// The interface also carries the session machinery:
// SessionConstraints travel with every search, and
// SearchSession — the one single-question entry point, which both Search
// overloads call without a plan slot — captures/reuses a TranslationPlan
// when given one: the Steps 1-2 (+3-4) output that lets a Refine re-run
// only the stages a constraint change can affect. The shared result
// cache holds unconstrained answers only, each a session serve filled
// beside the plan it was translated from (CachedAnswer), so a session
// whose question was answered from cache still resumes its Refines;
// reuse across a session's constrained serves is the plan's job.
//
// The async half of a search is a returned value, not registered work:
// SearchAllAsync hands back the translated outputs with a SnippetStream,
// and the caller runs that stream on its own thread (the HTTP streaming
// handler buffers one query's snippet events and writes them together
// when the stream moves on to the next query).

#ifndef SODA_CORE_SERVICE_H_
#define SODA_CORE_SERVICE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/lru_cache.h"
#include "common/metrics.h"
#include "core/pipeline.h"

namespace soda {

struct ChangeEvent;

/// Delivered once per (query_index, result_index) pair by
/// SnippetStream::Run(), after that result's snippet finished executing
/// (or was skipped because execution is disabled — check
/// result.executed). Invoked on the thread that calls Run(), in
/// first-occurrence query order, then result order, then occurrence
/// order. Exceptions thrown by the callback are caught, counted in Run()'s
/// summary, and never abort the stream.
using SnippetCallback = std::function<void(
    size_t query_index, size_t result_index, const SodaResult& result)>;

/// The deferred half of an async search: one run per unique query that
/// has results, ordered by the input index of that query's first
/// occurrence — whatever stripe count or pool thread translated it.
/// Run() executes them on the calling thread, delivering each snippet
/// through the search's SnippetCallback and caching each materialized
/// answer after its last snippet. Move-only; a stream
/// destroyed without Run() executes and caches nothing. The engine that
/// returned the stream must outlive Run().
class SnippetStream {
 public:
  /// What Run() reports (the fields of the streamed "done" event).
  struct Summary {
    size_t delivered = 0;  // callbacks made, throwing ones included
    size_t callback_exceptions = 0;
  };

  SnippetStream() = default;
  SnippetStream(SnippetStream&&) = default;
  SnippetStream& operator=(SnippetStream&&) = default;
  SnippetStream(const SnippetStream&) = delete;
  SnippetStream& operator=(const SnippetStream&) = delete;

  /// Runs every query's snippets on this thread, in order; once. A second
  /// call runs nothing and reports zeros. `between_runs`, when set, is
  /// called on this thread after each run but the last: every event of
  /// one unique query has been delivered, and the next query's have not.
  Summary Run(const std::function<void()>& between_runs = {}) {
    Summary total;
    std::vector<std::function<Summary()>> runs = std::move(runs_);
    runs_.clear();
    for (size_t i = 0; i < runs.size(); ++i) {
      if (i > 0 && between_runs) between_runs();
      Summary summary = runs[i]();
      total.delivered += summary.delivered;
      total.callback_exceptions += summary.callback_exceptions;
    }
    return total;
  }

 private:
  friend class SodaEngine;

  std::vector<std::function<Summary()>> runs_;  // first-occurrence order
};

/// SearchAllAsync's answer: the translated outputs, in input order, and
/// the snippet work still to run.
struct AsyncSearch {
  std::vector<Result<SearchOutput>> outputs;
  SnippetStream snippets;
};

/// One ranked interpretation as Steps 2-4 left it, kept to what Step 5
/// and FinalizeOutput need. The entry points, operator bindings and
/// explanation terms are re-derived from the plan's lookup through the
/// choice vector (MaterializeInterpretation), and the tables output
/// drops its per-entry groups, which only Step 3 reads: plans live
/// beside cached answers, so they stay small.
struct PlannedInterpretation {
  Interpretation interpretation;  // choice per term, score
  std::optional<TablesOutput> tables;
  std::vector<GeneratedFilter> filters;
  bool dropped = false;
};

/// The cached prefix of one question's translation: the parsed input and
/// Step-1 lookup (constraint-independent), plus the post-Filters
/// interpretations ranked under `bindings_fp`. Immutable once
/// captured and shared by pointer: a SodaSession holds one between its
/// calls, and a result-cache entry a session serve filled holds the one
/// its answer was translated from. SearchSession resumes from it —
/// pin/ban-only changes re-run Step 5 alone, binding changes re-rank from
/// Step 2 — with output byte-identical to a cold constrained translation.
///
/// The question it answers is NormalizedQueryKey(parsed.raw).
///
/// Freshness: a plan is resumable only while the change log's sequence
/// still equals `captured_at_sequence` — any base-data mutation voids it,
/// the same rule the deferred stream cache insert follows, and the next
/// Refine re-translates.
struct TranslationPlan {
  InputQuery parsed;
  LookupOutput lookup;
  std::string bindings_fp;  // BindingsFingerprint the states were ranked under
  std::vector<PlannedInterpretation> states;  // post-Filters, pre-Sql
  uint64_t captured_at_sequence = 0;
};

/// One result-cache entry: an unconstrained answer, its dependency record
/// (what the FreshnessManager reads) and, when a session serve filled the
/// entry, the plan the answer was translated from — plain searches
/// capture none.
struct CachedAnswer {
  SearchOutput output;
  /// Every folded token Step 1 probed (QueryContext::freshness_terms).
  std::vector<std::string> freshness_terms;
  /// FoldForMatch of every table the answer's statements read, sorted
  /// and unique, so an append's table is one binary search.
  std::vector<std::string> tables;
  std::shared_ptr<const TranslationPlan> plan;  // null: no session filled it
};

/// An InvalidateWhere predicate over one cached entry: its normalized
/// query key and the entry.
using CachePredicate =
    std::function<bool(const std::string& key, const CachedAnswer& entry)>;

class SodaService {
 public:
  virtual ~SodaService() = default;

  /// Unconstrained search — the classic entry point.
  Result<SearchOutput> Search(const std::string& query) const {
    return Search(query, SessionConstraints{});
  }

  /// Search under `constraints`: SearchSession without a plan slot.
  /// Empty constraints are the classic cached search; non-empty ones
  /// neither probe nor fill the result cache.
  Result<SearchOutput> Search(const std::string& query,
                              const SessionConstraints& constraints) const {
    return SearchSession(query, constraints, /*plan=*/nullptr);
  }

  /// Brace-list convenience: service.SearchAll({"a", "b"}). One shared
  /// helper — implementations only provide the span overload.
  std::vector<Result<SearchOutput>> SearchAll(
      std::initializer_list<std::string> queries) const {
    return SearchAll(
        std::span<const std::string>(queries.begin(), queries.size()));
  }

  /// Batched search: one dashboard refresh in, per-query outputs out, in
  /// input order, with in-batch dedup of identical normalized queries.
  virtual std::vector<Result<SearchOutput>> SearchAll(
      std::span<const std::string> queries) const = 0;

  /// Async batched search: the translated, ranked SQL returns at once,
  /// and the snippets run when the caller runs the returned stream.
  virtual AsyncSearch SearchAllAsync(std::span<const std::string> queries,
                                     SnippetCallback on_snippet) const = 0;

  /// The single-question entry point. Empty constraints are the classic
  /// cached search; non-empty ones neither probe nor fill the result
  /// cache. With `plan` null that is all (Search). Otherwise it
  /// additionally maintains `*plan` (which may be null), which
  /// afterwards holds the plan the answer was translated from:
  ///
  ///   * an unconstrained answer served from cache installs the plan
  ///     stored beside it (stages_skipped 5) — none when a plain search,
  ///     which captures no plan, filled the entry;
  ///   * otherwise the serve resumes from a fresh plan for `query` —
  ///     the held one, or, for a constrained serve the held one cannot
  ///     answer with Step 5 alone, the one cached beside the question's
  ///     unconstrained answer (peeked: no hit or miss is booked and
  ///     nothing is filled) — preferring a plan ranked under the same
  ///     bindings. Matching bindings skip lookup + rank + tables +
  ///     filters (4), changed ones skip lookup (1);
  ///   * with no fresh plan for `query` the serve translates cold.
  ///
  /// Any serve that could not reuse a plan's states as they are
  /// captures a new plan, which the cache entry an unconstrained answer
  /// fills keeps too. Books session.{refines,stages_skipped}. Output
  /// is byte-identical on every path.
  virtual Result<SearchOutput> SearchSession(
      const std::string& query, const SessionConstraints& constraints,
      std::shared_ptr<const TranslationPlan>* plan) const = 0;

  /// Cache observability.
  virtual CacheStats cache_stats() const = 0;

  /// Drops every cached answer: one InvalidateWhere that matches every
  /// entry, so a clear books cache.invalidated.
  void ClearCache() const {
    InvalidateWhere(
        [](const std::string&, const CachedAnswer&) { return true; });
  }

  /// Keyed cache invalidation: evicts every cached answer for which
  /// `pred(key, entry)` holds, plan included, and returns how many. Keys
  /// are normalized queries (NormalizedQueryKey). Constrained answers are
  /// never cached.
  virtual size_t InvalidateWhere(const CachePredicate& pred) const = 0;

  /// Incremental base-data maintenance: forwards one storage ChangeEvent
  /// to the inverted index. MUST run under the database change log's exclusive data lock (i.e.
  /// from a ChangeListener). Returns the number of new posting entries.
  virtual size_t ApplyBaseDataDelta(const ChangeEvent& event) = 0;

  /// Replaces the metrics sink on the engine. Install before serving
  /// traffic; nullptr restores the built-in in-memory sink.
  virtual void set_metrics_sink(std::shared_ptr<MetricsSink> sink) = 0;

  /// Snapshot of the built-in in-memory sink.
  virtual MetricsSnapshot metrics_snapshot() const = 0;

  /// Effective parallelism: the worker pool's width.
  virtual size_t num_threads() const = 0;

  /// Instantaneous backlog: tasks queued but not yet claimed in the
  /// engine's worker pool. Only batches queue tasks — a single query runs on
  /// its caller's thread and every snippet on the stream's runner — so
  /// single-query traffic reads 0 here. A load signal, not an exact
  /// count — sampled without a global lock, so concurrent submits/claims
  /// may skew it by a few.
  /// The HTTP front end's admission control sheds against this plus its
  /// own in-flight count (net/http_server.h).
  virtual size_t queue_depth() const = 0;
};

}  // namespace soda

#endif  // SODA_CORE_SERVICE_H_
