#include "core/sharded_engine.h"

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <thread>
#include <utility>

#include "common/failpoint.h"
#include "common/trace.h"

namespace soda {

namespace {

// 64-bit FNV-1a over the key bytes. Deliberately not std::hash: the
// router's shard map must be identical across standard libraries and
// runs, so tests (and any external placement logic) can rely on it.
uint64_t Fnv1a64(const std::string& key) {
  uint64_t hash = 1469598103934665603ull;  // FNV offset basis
  for (unsigned char c : key) {
    hash ^= static_cast<uint64_t>(c);
    hash *= 1099511628211ull;  // FNV prime
  }
  return hash;
}

// AcquireTarget's "every shard quarantined and none due" verdict.
constexpr size_t kNoShard = static_cast<size_t>(-1);

void SleepMs(double ms) {
  if (ms <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

// Runs one shard dispatch behind the "shard.dispatch" failpoint (detail:
// the target shard) and turns an escaped exception into the attempt's
// failure. A per-query error Result inside `fn` is a query outcome, not
// a failure.
template <typename Fn>
Status DispatchContained(size_t target, Fn&& fn) {
  try {
    SODA_RETURN_NOT_OK(
        SODA_FAILPOINT_STATUS("shard.dispatch", std::to_string(target)));
    std::forward<Fn>(fn)();
    return Status::OK();
  } catch (const std::exception& e) {
    return Status::Unavailable(std::string("shard dispatch threw: ") +
                               e.what());
  } catch (...) {
    return Status::Unavailable("shard dispatch threw");
  }
}

enum class WaitOutcome {
  kDone,          // attempt finished (failure says how)
  kQueueTimeout,  // never started within the deadline: pool congestion
  kStallTimeout,  // started but did not finish: the shard stalled
};

}  // namespace

// One dispatch attempt of one sub-batch on one shard, shared between
// the pool task that executes it and the batch thread that waits on it.
// The batch thread may abandon a stalled attempt (the task keeps
// running to completion against this struct, whose shared_ptr — and the
// query vector's — outlive the batch), so `started`/`done`/`abandoned`
// make the handoff explicit.
struct ShardedSodaEngine::SubBatchAttempt {
  std::mutex mu;
  std::condition_variable cv;
  bool started = false;
  bool done = false;
  bool abandoned = false;
  Status failure;  // non-OK: the whole attempt failed (throw/failpoint)
  std::vector<Result<SearchOutput>> outputs;

  // Blocks until the attempt completes; with a positive deadline (sync
  // dispatch only) gives up after `deadline_ms`, marking the attempt
  // abandoned so a not-yet-started task skips execution entirely.
  WaitOutcome Wait(double deadline_ms) {
    std::unique_lock<std::mutex> lock(mu);
    if (deadline_ms <= 0.0) {
      cv.wait(lock, [&] { return done; });
      return WaitOutcome::kDone;
    }
    auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(deadline_ms));
    if (cv.wait_until(lock, deadline, [&] { return done; })) {
      return WaitOutcome::kDone;
    }
    abandoned = true;
    return started ? WaitOutcome::kStallTimeout : WaitOutcome::kQueueTimeout;
  }
};

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
  const SodaConfig& config = core->config();
  policy_.failure_threshold =
      std::max<size_t>(1, config.shard_failure_threshold);
  policy_.backoff_initial_ms = config.shard_backoff_initial_ms;
  policy_.backoff_max_ms = config.shard_backoff_max_ms;
  policy_.retry_limit = config.shard_retry_limit;
  policy_.retry_backoff_ms = config.shard_retry_backoff_ms;
  policy_.dispatch_deadline_ms = config.shard_dispatch_deadline_ms;
  breakers_.resize(shards_.size());
  // Pre-register every router series (PR 8 did the same for server.*):
  // a first /metrics scrape exports the full failure-isolation surface
  // even before any traffic — dashboards and alerts can be written
  // against series that exist from boot.
  for (const char* counter :
       {"router.batches", "router.shard_queries", "router.session_queries",
        "router.invalidations", "router.shard_failures", "router.retries",
        "router.quarantines", "router.readmissions",
        "router.rerouted_queries"}) {
    router_sink_->IncrementCounter(counter, 0);
  }
  router_sink_->RegisterHistogram("router.shard_batch_size");
}

// ---------------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------------

size_t ShardedSodaEngine::AcquireTarget(size_t start) const {
  auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(breaker_mu_);
  for (size_t k = 0; k < shards_.size(); ++k) {
    size_t s = (start + k) % shards_.size();
    ShardBreaker& b = breakers_[s];
    switch (b.state) {
      case BreakerState::kClosed:
      case BreakerState::kProbing:
        return s;
      case BreakerState::kQuarantined:
        if (now >= b.retry_at) {
          // Backoff elapsed: this dispatch is the probe.
          b.state = BreakerState::kProbing;
          return s;
        }
        break;
    }
  }
  return kNoShard;
}

void ShardedSodaEngine::ReportShardSuccess(size_t shard) const {
  std::lock_guard<std::mutex> lock(breaker_mu_);
  ShardBreaker& b = breakers_[shard];
  if (b.state == BreakerState::kProbing) {
    router_sink_->IncrementCounter("router.readmissions", 1);
  }
  b.state = BreakerState::kClosed;
  b.consecutive_failures = 0;
  b.backoff_ms = 0.0;
}

bool ShardedSodaEngine::ReportShardFailure(size_t shard) const {
  std::lock_guard<std::mutex> lock(breaker_mu_);
  ShardBreaker& b = breakers_[shard];
  ++b.consecutive_failures;
  ++b.total_failures;
  router_sink_->IncrementCounter("router.shard_failures", 1);
  // A failed probe re-quarantines immediately (the shard just proved it
  // is still sick); a closed shard crosses into quarantine at the
  // threshold. Backoff doubles per quarantine up to the cap.
  bool quarantine = b.state == BreakerState::kProbing ||
                    b.consecutive_failures >= policy_.failure_threshold;
  if (!quarantine) return false;
  b.backoff_ms = b.backoff_ms <= 0.0
                     ? policy_.backoff_initial_ms
                     : std::min(b.backoff_ms * 2.0, policy_.backoff_max_ms);
  b.retry_at = std::chrono::steady_clock::now() +
               std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double, std::milli>(b.backoff_ms));
  if (b.state != BreakerState::kQuarantined) {
    router_sink_->IncrementCounter("router.quarantines", 1);
  }
  b.state = BreakerState::kQuarantined;
  return true;
}

ServiceHealth ShardedSodaEngine::health() const {
  auto now = std::chrono::steady_clock::now();
  ServiceHealth health;
  std::lock_guard<std::mutex> lock(breaker_mu_);
  health.shards.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    const ShardBreaker& b = breakers_[s];
    ShardHealthInfo info;
    info.shard = s;
    switch (b.state) {
      case BreakerState::kClosed:
        info.state = "closed";
        break;
      case BreakerState::kQuarantined:
        info.state = "quarantined";
        break;
      case BreakerState::kProbing:
        info.state = "probing";
        break;
    }
    info.consecutive_failures = b.consecutive_failures;
    info.total_failures = b.total_failures;
    info.backoff_ms = b.backoff_ms;
    if (b.state == BreakerState::kQuarantined && b.retry_at > now) {
      info.retry_in_ms =
          std::chrono::duration<double, std::milli>(b.retry_at - now).count();
    }
    health.degraded = health.degraded || b.state != BreakerState::kClosed;
    health.shards.push_back(std::move(info));
  }
  return health;
}

// ---------------------------------------------------------------------------
// Routed entry points
// ---------------------------------------------------------------------------

Result<SearchOutput> ShardedSodaEngine::Search(
    const std::string& query, const SessionConstraints& constraints) const {
  // Route by the normalized query alone: constrained variants of one
  // question share its shard (and therefore its plans and cache locality).
  return RouteQuery(query, [&](const SodaEngine& engine) {
    return engine.Search(query, constraints);
  });
}

Result<SearchOutput> ShardedSodaEngine::SearchSession(
    const std::string& query, const SessionConstraints& constraints,
    std::shared_ptr<TranslationPlan>* plan) const {
  router_sink_->IncrementCounter("router.session_queries", 1);
  return RouteQuery(query, [&](const SodaEngine& engine) {
    return engine.SearchSession(query, constraints, plan);
  });
}

Result<SearchOutput> ShardedSodaEngine::SearchAsync(
    const std::string& query, SnippetCallback on_snippet,
    SnippetBarrier* barrier) const {
  return RouteQuery(query, [&](const SodaEngine& engine) {
    return engine.SearchAsync(query, on_snippet, barrier);
  });
}

Result<SearchOutput> ShardedSodaEngine::RouteQuery(
    const std::string& query,
    const std::function<Result<SearchOutput>(const SodaEngine&)>& call) const {
  router_sink_->IncrementCounter("router.shard_queries", 1);
  size_t home = ShardOfKey(NormalizedQueryKey(query), shards_.size());
  Result<SearchOutput> output = Status::Unavailable("no dispatch attempted");
  // Inline on the caller thread: the attempt runs under the router.route
  // span, so engine.search parents there.
  Status status = RunWithFailover(
      "router.route", home, /*weight=*/1, AcquireTarget(home),
      [&](size_t target) -> AttemptOutcome {
        return {DispatchContained(
            target, [&] { output = call(*shards_[target]); })};
      });
  if (!status.ok()) {
    return Status::Unavailable("query failed on every attempted replica: " +
                               status.ToString());
  }
  return output;
}

Status ShardedSodaEngine::RunWithFailover(const char* span_name, size_t home,
                                          size_t weight, size_t target,
                                          const Dispatch& dispatch) const {
  // Joins the caller's trace (usually the HTTP server's or the batch's);
  // retry, re-route, no-replica, failure and quarantine decisions land
  // here as span events, and every attempt runs under this span.
  Span span(CurrentTraceContext(), span_name);
  if (span.active()) {
    span.SetAttr("home", static_cast<int64_t>(home));
    span.SetAttr("queries", static_cast<int64_t>(weight));
  }
  ScopedTraceContext scoped(span.context());
  Status last = Status::Unavailable("no dispatch attempted");
  size_t start = home;  // where the next admission scan begins
  for (size_t attempt = 0;; ++attempt) {
    if (target == kNoShard) {
      last = Status::Unavailable("every shard replica is quarantined");
      span.AddEvent("no_replica", "every shard quarantined");
    } else {
      if (target != home) {
        router_sink_->IncrementCounter("router.rerouted_queries", weight);
        span.AddEvent("reroute", "shard " + std::to_string(target));
      }
      AttemptOutcome outcome = dispatch(target);
      if (outcome.failure.ok()) {
        ReportShardSuccess(target);
        if (span.active()) span.SetAttr("shard", static_cast<int64_t>(target));
        return Status::OK();
      }
      last = std::move(outcome.failure);
      if (outcome.charged) {
        span.AddEvent(outcome.event, "shard " + std::to_string(target) + ": " +
                                         std::string(last.message()));
        if (ReportShardFailure(target)) {
          span.AddEvent("quarantine", "shard " + std::to_string(target));
        }
      }
      // The next admission scan skips a charged shard; an attempt that
      // never ran may go to the same shard again.
      start = outcome.charged ? target + 1 : target;
    }
    if (attempt >= policy_.retry_limit) break;
    router_sink_->IncrementCounter("router.retries", 1);
    span.AddEvent("retry", "attempt " + std::to_string(attempt + 1));
    SleepMs(std::min(
        policy_.retry_backoff_ms * static_cast<double>(uint64_t{1} << attempt),
        policy_.backoff_max_ms));
    target = AcquireTarget(start);
  }
  span.SetError("failed on every attempted replica");
  return last;
}

std::vector<Result<SearchOutput>> ShardedSodaEngine::SearchAll(
    std::span<const std::string> queries) const {
  return DispatchBatch(queries, /*async=*/false, nullptr, nullptr);
}

std::vector<Result<SearchOutput>> ShardedSodaEngine::SearchAllAsync(
    std::span<const std::string> queries, SnippetCallback on_snippet,
    SnippetBarrier* barrier) const {
  return DispatchBatch(queries, /*async=*/true, std::move(on_snippet),
                       barrier);
}

std::shared_ptr<ShardedSodaEngine::SubBatchAttempt>
ShardedSodaEngine::LaunchAttempt(
    size_t target, std::shared_ptr<const std::vector<std::string>> queries,
    bool async, SnippetCallback on_snippet, SnippetBarrier* barrier) const {
  auto attempt = std::make_shared<SubBatchAttempt>();
  // Everything the task touches is captured by value / shared_ptr: if
  // the batch abandons a stalled attempt and returns, the task still
  // has live queries and a live attempt struct to finish against.
  // The trace context crosses onto the dispatch pool by value and is
  // re-installed inside the task, so the shard engine's spans parent
  // under the batch's trace even though they run on a pool thread.
  TraceContext trace = CurrentTraceContext();
  dispatch_pool_.Submit([this, attempt, queries, target, async, trace,
                         callback = std::move(on_snippet), barrier] {
    {
      std::lock_guard<std::mutex> lock(attempt->mu);
      if (attempt->abandoned) {
        // The batch gave up before we started: skip the work entirely.
        attempt->done = true;
        attempt->cv.notify_all();
        return;
      }
      attempt->started = true;
    }
    Span dispatch_span(trace, "router.dispatch");
    if (dispatch_span.active()) {
      dispatch_span.SetAttr("shard", static_cast<int64_t>(target));
      dispatch_span.SetAttr("queries", static_cast<int64_t>(queries->size()));
    }
    ScopedTraceContext scoped(dispatch_span.context());
    std::vector<Result<SearchOutput>> outputs;
    Status failure = DispatchContained(target, [&] {
      std::span<const std::string> sub(*queries);
      outputs = async ? shards_[target]->SearchAllAsync(sub, callback, barrier)
                      : shards_[target]->SearchAll(sub);
    });
    if (!failure.ok()) dispatch_span.SetStatus(failure.message());
    // End (and append) the span before publishing completion: the
    // waiting batch thread may finish the whole trace the moment done
    // flips, and a span recorded after that is an orphan the render
    // pass cannot attach.
    dispatch_span.End();
    {
      std::lock_guard<std::mutex> lock(attempt->mu);
      attempt->failure = std::move(failure);
      attempt->outputs = std::move(outputs);
      attempt->done = true;
    }
    attempt->cv.notify_all();
  });
  return attempt;
}

std::vector<Result<SearchOutput>> ShardedSodaEngine::DispatchBatch(
    std::span<const std::string> queries, bool async,
    SnippetCallback on_snippet, SnippetBarrier* barrier) const {
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

  // Launch every occupied home's first attempt before joining any of
  // them, so healthy sub-batches run concurrently on the dispatch pool
  // while a failing one walks its retry chain. Shards share only the
  // immutable core (each has its own pool, cache and sink), so this is
  // pure fan-out. With one shard the pool runs the attempt inline. For
  // the async path this covers the translation phase only — each shard
  // registers its callbacks on `barrier` before its SearchAll returns,
  // so by the time we return the barrier's expectation is complete and
  // snippets keep streaming from every shard's pool.
  struct Flight {
    size_t home = 0;
    size_t target = kNoShard;
    std::shared_ptr<const std::vector<std::string>> queries;
    SnippetCallback callback;
    std::shared_ptr<SubBatchAttempt> attempt;  // the pre-launched one
  };
  std::vector<Flight> flights;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (sub_queries[s].empty()) continue;
    router_sink_->Observe("router.shard_batch_size",
                          static_cast<double>(sub_queries[s].size()));
    Flight flight;
    flight.home = s;
    flight.queries = std::make_shared<const std::vector<std::string>>(
        std::move(sub_queries[s]));
    if (async && on_snippet) {
      // By value: the callback outlives this call — snippets stream
      // from the shard's pool long after the sub-batch vectors die.
      flight.callback = [to_global = sub_indices[s], callback = on_snippet](
                            size_t query_index, size_t result_index,
                            const SodaResult& result) {
        callback(to_global[query_index], result_index, result);
      };
    }
    flight.target = AcquireTarget(s);
    if (flight.target != kNoShard) {
      flight.attempt = LaunchAttempt(flight.target, flight.queries, async,
                                     flight.callback, barrier);
    }
    flights.push_back(std::move(flight));
  }

  // The stall deadline applies to sync dispatch only: an async sub-batch
  // registers its snippet callbacks on the caller's barrier, and an
  // abandoned half-registered attempt could deliver duplicates.
  double deadline_ms = async ? 0.0 : policy_.dispatch_deadline_ms;
  std::vector<Result<SearchOutput>> outputs(
      queries.size(), Result<SearchOutput>(Status::Internal("unrouted query")));
  for (Flight& flight : flights) {
    std::vector<Result<SearchOutput>> sub_outputs;
    Status status = RunWithFailover(
        "router.subbatch", flight.home, flight.queries->size(), flight.target,
        [&](size_t target) -> AttemptOutcome {
          // Retries launch under the sub-batch span (installed by the
          // loop), so their dispatch spans hang off it.
          std::shared_ptr<SubBatchAttempt> attempt =
              flight.attempt != nullptr
                  ? std::exchange(flight.attempt, nullptr)
                  : LaunchAttempt(target, flight.queries, async,
                                  flight.callback, barrier);
          WaitOutcome waited = attempt->Wait(deadline_ms);
          if (waited == WaitOutcome::kStallTimeout) {
            return {Status::Unavailable(
                        "stalled past the sub-batch deadline; abandoned"),
                    /*charged=*/true, "stall_abandoned"};
          }
          if (waited == WaitOutcome::kQueueTimeout) {
            // The attempt never ran — the dispatch queue is congested.
            // Not the shard's fault: retry without charging its breaker.
            return {Status::Unavailable(
                        "sub-batch not scheduled within the dispatch deadline"),
                    /*charged=*/false};
          }
          std::lock_guard<std::mutex> lock(attempt->mu);
          sub_outputs = std::move(attempt->outputs);
          return {std::move(attempt->failure)};
        });
    if (!status.ok()) {
      sub_outputs.assign(
          flight.queries->size(),
          Result<SearchOutput>(Status::Unavailable(
              "sub-batch for shard " + std::to_string(flight.home) +
              " failed after " + std::to_string(policy_.retry_limit + 1) +
              " attempts: " + status.ToString())));
    }
    // Re-merge into input order.
    const std::vector<size_t>& indices = sub_indices[flight.home];
    for (size_t k = 0; k < indices.size(); ++k) {
      outputs[indices[k]] = std::move(sub_outputs[k]);
    }
  }
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

void ShardedSodaEngine::ClearCache() const {
  for (const std::unique_ptr<SodaEngine>& shard : shards_) {
    shard->ClearCache();
  }
}

size_t ShardedSodaEngine::InvalidateWhere(
    const std::function<bool(const std::string&)>& pred) const {
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

void ShardedSodaEngine::set_freshness(FreshnessManager* freshness) {
  for (const std::unique_ptr<SodaEngine>& shard : shards_) {
    shard->set_freshness(freshness);
  }
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
  {
    // Point-in-time breaker state, so quarantines are visible on
    // /metrics while they are happening (router.quarantines only counts
    // transitions).
    std::lock_guard<std::mutex> lock(breaker_mu_);
    uint64_t open = 0;
    for (const ShardBreaker& b : breakers_) {
      if (b.state != BreakerState::kClosed) ++open;
    }
    merged.counters["router.shards_quarantined"] = open;
  }
  for (const std::unique_ptr<SodaEngine>& shard : shards_) {
    merged.MergeFrom(shard->metrics_snapshot());
  }
  return merged;
}

}  // namespace soda
