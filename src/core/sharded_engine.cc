#include "core/sharded_engine.h"

#include <algorithm>
#include <cstdint>
#include <exception>
#include <thread>
#include <utility>

#include "common/failpoint.h"
#include "common/strings.h"
#include "common/trace.h"

namespace soda {

namespace {

// Runs one shard dispatch behind the "shard.dispatch" failpoint (detail:
// the shard) and turns an escaped exception into an Unavailable failure.
// A per-query error Result inside `fn` is a query outcome, not a failure.
template <typename Fn>
Status DispatchContained(size_t shard, Fn&& fn) {
  try {
    SODA_RETURN_NOT_OK(
        SODA_FAILPOINT_STATUS("shard.dispatch", std::to_string(shard)));
    std::forward<Fn>(fn)();
    return Status::OK();
  } catch (const std::exception& e) {
    return Status::Unavailable(std::string("shard dispatch threw: ") +
                               e.what());
  } catch (...) {
    return Status::Unavailable("shard dispatch threw");
  }
}

}  // namespace

size_t ShardOfKey(const std::string& normalized_key, size_t num_shards) {
  if (num_shards <= 1) return 0;
  uint64_t hash = Fnv1a64(normalized_key);
  // Fold to 32 bits: FNV's low bits mix slowly for short keys, so xor
  // the halves before the modulo to keep small shard counts balanced.
  uint32_t folded = static_cast<uint32_t>(hash >> 32) ^
                    static_cast<uint32_t>(hash & 0xffffffffull);
  return static_cast<size_t>(folded % num_shards);
}

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

Result<std::unique_ptr<ShardedSodaEngine>> ShardedSodaEngine::Create(
    const Database* db, const MetadataGraph* graph, PatternLibrary patterns,
    SodaConfig config) {
  size_t num_shards = config.num_shards == 0 ? 1 : config.num_shards;
  // num_threads=0 means "use the hardware" — for a fleet that must mean
  // the hardware divided across shards, not multiplied by them (8 shards
  // on a 64-core box should build ~64 workers, not 512).
  if (config.num_threads == 0 && num_shards > 1) {
    size_t hw = std::thread::hardware_concurrency();
    if (hw == 0) hw = 1;
    config.num_threads = std::max<size_t>(1, hw / num_shards);
  }
  SODA_ASSIGN_OR_RETURN(std::unique_ptr<Soda> core,
                        Soda::Create(db, graph, std::move(patterns), config));
  // Not make_unique: the constructor is private.
  return std::unique_ptr<ShardedSodaEngine>(
      new ShardedSodaEngine(std::move(core), num_shards));
}

ShardedSodaEngine::ShardedSodaEngine(std::shared_ptr<Soda> core,
                                     size_t num_shards)
    : router_sink_(std::make_shared<InMemoryMetricsSink>()),
      dispatch_pool_(num_shards) {
  shards_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<SodaEngine>(core));
  }
  // Pre-register every router series: a first /metrics scrape exports
  // them even before any traffic.
  for (const char* counter :
       {"router.batches", "router.shard_queries", "router.session_queries",
        "router.invalidations"}) {
    router_sink_->IncrementCounter(counter, 0);
  }
  router_sink_->RegisterHistogram("router.shard_batch_size");
}

// ---------------------------------------------------------------------------
// Routed entry points
// ---------------------------------------------------------------------------

Result<SearchOutput> ShardedSodaEngine::SearchSession(
    const std::string& query, const SessionConstraints& constraints,
    std::shared_ptr<const TranslationPlan>* plan) const {
  if (plan != nullptr) {
    router_sink_->IncrementCounter("router.session_queries", 1);
  }
  router_sink_->IncrementCounter("router.shard_queries", 1);
  // Route by the normalized query alone: constrained variants of one
  // question share its shard (and therefore its plans).
  size_t shard = ShardOfKey(NormalizedQueryKey(query), shards_.size());
  // Inline on the caller thread, joined to the caller's trace; the
  // shard's engine.search parents under this span.
  Span span(CurrentTraceContext(), "router.route");
  if (span.active()) span.SetAttr("shard", static_cast<int64_t>(shard));
  ScopedTraceContext scoped(span.context());
  Result<SearchOutput> output = Status::Unavailable("no dispatch attempted");
  Status failure = DispatchContained(shard, [&] {
    output = shards_[shard]->SearchSession(query, constraints, plan);
  });
  if (!failure.ok()) {
    span.SetError(failure.message());
    return failure;
  }
  return output;
}

std::vector<Result<SearchOutput>> ShardedSodaEngine::SearchAll(
    std::span<const std::string> queries) const {
  return DispatchBatch(queries, nullptr, nullptr);
}

AsyncSearch ShardedSodaEngine::SearchAllAsync(
    std::span<const std::string> queries, SnippetCallback on_snippet) const {
  AsyncSearch search;
  search.outputs = DispatchBatch(queries, on_snippet, &search.snippets);
  return search;
}

std::vector<Result<SearchOutput>> ShardedSodaEngine::DispatchBatch(
    std::span<const std::string> queries, const SnippetCallback& on_snippet,
    SnippetStream* snippets) const {
  if (queries.empty()) return {};

  // Split the batch by routing key. Sub-batches keep input order, so a
  // shard sees its queries exactly as a single engine would have (dedup
  // keeps first-occurrence semantics).
  std::vector<std::vector<std::string>> sub_queries(shards_.size());
  std::vector<std::vector<size_t>> sub_indices(shards_.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    size_t shard = ShardOfKey(NormalizedQueryKey(queries[i]), shards_.size());
    sub_queries[shard].push_back(queries[i]);
    sub_indices[shard].push_back(i);
  }

  router_sink_->IncrementCounter("router.batches", 1);
  router_sink_->IncrementCounter("router.shard_queries", queries.size());
  std::vector<size_t> occupied;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (sub_queries[s].empty()) continue;
    occupied.push_back(s);
    router_sink_->Observe("router.shard_batch_size",
                          static_cast<double>(sub_queries[s].size()));
  }

  // Shards share only the immutable core (each has its own pool, cache
  // and sink), so this is pure fan-out. For the async path it covers the
  // translation phase only: each shard returns its snippet work as a
  // stream, and the merge below orders the runs after the join, so the
  // caller's Run() delivers in input order whichever dispatch thread
  // finished first. The trace context crosses onto the helper threads by
  // value, so every router.dispatch span parents under the caller's
  // trace.
  std::vector<Result<SearchOutput>> outputs(
      queries.size(), Result<SearchOutput>(Status::Internal("unrouted query")));
  std::vector<SnippetStream> sub_streams(occupied.size());
  TraceContext trace = CurrentTraceContext();
  dispatch_pool_.ParallelFor(occupied.size(), [&](size_t i) {
    const size_t shard = occupied[i];
    const std::vector<size_t>& indices = sub_indices[shard];
    Span span(trace, "router.dispatch");
    if (span.active()) {
      span.SetAttr("shard", static_cast<int64_t>(shard));
      span.SetAttr("queries", static_cast<int64_t>(indices.size()));
    }
    ScopedTraceContext scoped(span.context());
    std::vector<Result<SearchOutput>> sub_outputs;
    Status failure = DispatchContained(shard, [&] {
      std::span<const std::string> sub(sub_queries[shard]);
      if (snippets == nullptr) {
        sub_outputs = shards_[shard]->SearchAll(sub);
        return;
      }
      SnippetCallback callback;
      if (on_snippet) {
        // By value: snippets stream inside the caller's Run(), after
        // this call returns.
        callback = [to_global = indices, on_snippet](
                       size_t query_index, size_t result_index,
                       const SodaResult& result) {
          on_snippet(to_global[query_index], result_index, result);
        };
      }
      AsyncSearch async = shards_[shard]->SearchAllAsync(sub, callback);
      sub_outputs = std::move(async.outputs);
      sub_streams[i] = std::move(async.snippets);
    });
    if (!failure.ok()) {
      span.SetError(failure.message());
      sub_outputs.assign(indices.size(),
                         Result<SearchOutput>(Status::Unavailable(
                             "shard " + std::to_string(shard) + ": " +
                             std::string(failure.message()))));
    }
    // Re-merge into input order; every sub-batch writes its own slots.
    for (size_t k = 0; k < indices.size(); ++k) {
      outputs[indices[k]] = std::move(sub_outputs[k]);
    }
  });
  if (snippets == nullptr) return outputs;

  // Each run's first index is shard-local; map it to the batch position
  // and order the fleet's runs by it. A query lives on one shard, so the
  // indices are distinct and the order is total.
  std::vector<SnippetStream::QueryRun>& runs = snippets->runs_;
  for (size_t i = 0; i < occupied.size(); ++i) {
    const std::vector<size_t>& indices = sub_indices[occupied[i]];
    for (SnippetStream::QueryRun& run : sub_streams[i].runs_) {
      run.first_index = indices[run.first_index];
      runs.push_back(std::move(run));
    }
  }
  std::sort(runs.begin(), runs.end(),
            [](const SnippetStream::QueryRun& a,
               const SnippetStream::QueryRun& b) {
              return a.first_index < b.first_index;
            });
  return outputs;
}

// ---------------------------------------------------------------------------
// Aggregated surfaces
// ---------------------------------------------------------------------------

CacheStats ShardedSodaEngine::cache_stats() const {
  CacheStats total;
  for (const std::unique_ptr<SodaEngine>& shard : shards_) {
    total += shard->cache_stats();
  }
  return total;
}

size_t ShardedSodaEngine::InvalidateWhere(const CachePredicate& pred) const {
  size_t erased = 0;
  for (const std::unique_ptr<SodaEngine>& shard : shards_) {
    erased += shard->InvalidateWhere(pred);
  }
  router_sink_->IncrementCounter("router.invalidations", erased);
  return erased;
}

size_t ShardedSodaEngine::ApplyBaseDataDelta(const ChangeEvent& event) {
  // One core: any shard forwards to it, and every shard sees the result.
  return shards_.front()->ApplyBaseDataDelta(event);
}

void ShardedSodaEngine::set_metrics_sink(std::shared_ptr<MetricsSink> sink) {
  for (const std::unique_ptr<SodaEngine>& shard : shards_) {
    shard->set_metrics_sink(sink);
  }
}

size_t ShardedSodaEngine::queue_depth() const {
  size_t depth = dispatch_pool_.queue_depth();
  for (const std::unique_ptr<SodaEngine>& shard : shards_) {
    depth += shard->queue_depth();
  }
  return depth;
}

MetricsSnapshot ShardedSodaEngine::metrics_snapshot() const {
  MetricsSnapshot merged = router_sink_->Snapshot();
  for (const std::unique_ptr<SodaEngine>& shard : shards_) {
    merged.MergeFrom(shard->metrics_snapshot());
  }
  return merged;
}

}  // namespace soda
