#include "core/freshness.h"

#include <utility>

#include "common/failpoint.h"
#include "common/strings.h"
#include "common/trace.h"
#include "core/service.h"

namespace soda {

FreshnessManager::FreshnessManager(ChangeLog* log,
                                   std::shared_ptr<MetricsSink> sink)
    : log_(log) {
  if (sink != nullptr) {
    sink_ = std::move(sink);
  } else {
    own_sink_ = std::make_shared<InMemoryMetricsSink>();
    sink_ = own_sink_;
  }
  sink_->IncrementCounter("freshness.delta_failures", 0);
  log_->Subscribe(this);
}

FreshnessManager::~FreshnessManager() {
  log_->Unsubscribe(this);
  // Detach every tracked engine: an engine that outlives its manager
  // must not report cache inserts into freed memory.
  std::lock_guard<std::mutex> lock(mu_);
  for (const Target& target : targets_) target.detach();
}

void FreshnessManager::Track(SodaService* service) {
  service->set_freshness(this);
  std::lock_guard<std::mutex> lock(mu_);
  targets_.push_back(Target{
      [service](const ChangeEvent& event) {
        return service->ApplyBaseDataDelta(event);
      },
      [service](const std::function<bool(const std::string&)>& pred) {
        return service->InvalidateWhere(pred);
      },
      [service] { service->set_freshness(nullptr); }});
}

void FreshnessManager::RecordQuery(const std::string& key,
                                   const SearchOutput& output) {
  Deps deps;
  deps.terms = output.freshness_terms;  // already folded + deduplicated
  for (const SodaResult& result : output.results) {
    for (const TableRef& ref : result.statement.from) {
      std::string folded = FoldForMatch(ref.table);
      bool duplicate = false;
      for (const std::string& existing : deps.tables) {
        if (existing == folded) {
          duplicate = true;
          break;
        }
      }
      if (!duplicate) deps.tables.push_back(std::move(folded));
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  ForgetLocked(key);  // re-recording replaces the old dependencies
  for (const std::string& term : deps.terms) {
    keys_by_term_[term].insert(key);
  }
  for (const std::string& table : deps.tables) {
    keys_by_table_[table].insert(key);
  }
  deps_by_key_[key] = std::move(deps);
  sink_->IncrementCounter("freshness.keys_tracked", 1);
}

void FreshnessManager::Forget(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  ForgetLocked(key);
}

void FreshnessManager::ForgetEvicted(
    const std::string& key,
    const std::function<bool(const std::string&)>& still_cached) {
  std::lock_guard<std::mutex> lock(mu_);
  // A concurrent serve may have re-inserted (and re-recorded) the key
  // after the eviction this call reports; RecordQuery runs under the
  // same mutex and Put precedes RecordQuery in every inserter, so a
  // fresh record is always visible as membership here.
  if (still_cached(key)) return;
  ForgetLocked(key);
}

void FreshnessManager::ForgetLocked(const std::string& key) {
  auto it = deps_by_key_.find(key);
  if (it == deps_by_key_.end()) return;
  for (const std::string& term : it->second.terms) {
    auto bucket = keys_by_term_.find(term);
    if (bucket == keys_by_term_.end()) continue;
    bucket->second.erase(key);
    if (bucket->second.empty()) keys_by_term_.erase(bucket);
  }
  for (const std::string& table : it->second.tables) {
    auto bucket = keys_by_table_.find(table);
    if (bucket == keys_by_table_.end()) continue;
    bucket->second.erase(key);
    if (bucket->second.empty()) keys_by_table_.erase(bucket);
  }
  deps_by_key_.erase(it);
}

void FreshnessManager::CollectAffectedLocked(
    const ChangeEvent& event, std::unordered_set<std::string>* affected) {
  // Table dependency: any cached answer whose SQL reads this table shows
  // different snippets once the table has more rows.
  auto table_bucket = keys_by_table_.find(FoldForMatch(event.table));
  if (table_bucket != keys_by_table_.end()) {
    affected->insert(table_bucket->second.begin(),
                     table_bucket->second.end());
  }
  // Term dependency: any cached answer whose lookup probed one of the
  // appended value's tokens can classify differently now (new base-data
  // entry point, previously ignored word that matches, shifted counts).
  // Events carry values pre-tokenized as interned ids (one Tokenize per
  // value at publication, however many listeners consume it); the
  // reverse map is keyed on spellings, so resolve each id through the
  // event's dictionary.
  for (const ColumnDelta& delta : event.deltas) {
    for (const std::vector<TokenId>& value_ids : delta.token_ids) {
      for (TokenId id : value_ids) {
        auto term_bucket = keys_by_term_.find(event.dict->Spelling(id));
        if (term_bucket == keys_by_term_.end()) continue;
        affected->insert(term_bucket->second.begin(),
                         term_bucket->second.end());
      }
    }
  }
}

void FreshnessManager::OnChange(const ChangeEvent& event) {
  // The manager's mutex only guards its own maps; it is NEVER held
  // across a target call — engines call back into Forget from
  // InvalidateWhere, which would self-deadlock otherwise. (No map race
  // opens up: OnChange runs under the change log's exclusive data lock,
  // and every RecordQuery/ForgetEvicted caller holds the shared side.)
  std::vector<Target> targets;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++events_seen_;
    targets = targets_;
  }
  sink_->IncrementCounter("freshness.events", 1);

  // Invalidation bursts get their own trace (they run on the mutator's
  // thread under the exclusive data lock, not inside any request): slow
  // or delta-failing bursts surface in /debug/traces next to the
  // requests they stalled.
  TraceContext burst_trace =
      TraceRecorder::Instance().enabled()
          ? TraceRecorder::Instance().StartTrace("freshness.change")
          : TraceContext{};
  Span burst_span(burst_trace, "freshness.change");
  if (burst_span.active()) {
    burst_span.SetAttr("table", event.table);
    burst_span.SetAttr("sequence", static_cast<int64_t>(event.sequence));
    burst_span.SetAttr("engines", static_cast<int64_t>(targets.size()));
  }

  // 1. Bring every tracked engine's inverted index up to date first, so
  // a query re-admitted right after the invalidation below already sees
  // the appended values. A failed delta (exception or armed failpoint)
  // must not leave that engine serving cached answers its index can no
  // longer back: fall back to evicting its whole cache, so every later
  // query re-translates against whatever the index does hold.
  size_t delta_postings = 0;
  for (const Target& target : targets) {
    bool applied = false;
    try {
      if (SODA_FAILPOINT_STATUS("freshness.apply_delta", "").ok()) {
        delta_postings += target.apply_delta(event);
        applied = true;
      }
    } catch (...) {
    }
    if (applied) continue;
    sink_->IncrementCounter("freshness.delta_failures", 1);
    burst_span.AddEvent("delta_failure", "full cache eviction");
    target.invalidate([](const std::string&) { return true; });
  }
  sink_->IncrementCounter("freshness.delta_postings", delta_postings);
  if (burst_span.active()) {
    burst_span.SetAttr("delta_postings",
                       static_cast<int64_t>(delta_postings));
  }

  // 2. Keyed invalidation for exactly the dependent answers.
  std::unordered_set<std::string> affected;
  {
    std::lock_guard<std::mutex> lock(mu_);
    CollectAffectedLocked(event, &affected);
  }
  size_t invalidated = 0;
  if (!affected.empty()) {
    auto pred = [&affected](const std::string& key) {
      return affected.count(key) > 0;
    };
    for (const Target& target : targets) {
      invalidated += target.invalidate(pred);
    }
    sink_->IncrementCounter("freshness.keys_invalidated", invalidated);
    std::lock_guard<std::mutex> lock(mu_);
    keys_invalidated_ += invalidated;
    for (const std::string& key : affected) {
      ForgetLocked(key);
    }
  }
  if (burst_span.active()) {
    burst_span.SetAttr("keys_invalidated", static_cast<int64_t>(invalidated));
  }
  burst_span.End();
  if (burst_trace.active()) {
    TraceRecorder::Instance().FinishTrace(burst_trace,
                                          burst_trace.data->ElapsedMs());
  }
}

uint64_t FreshnessManager::events_seen() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_seen_;
}

uint64_t FreshnessManager::keys_invalidated() const {
  std::lock_guard<std::mutex> lock(mu_);
  return keys_invalidated_;
}

size_t FreshnessManager::tracked_keys() const {
  std::lock_guard<std::mutex> lock(mu_);
  return deps_by_key_.size();
}

MetricsSnapshot FreshnessManager::metrics_snapshot() const {
  // Only the PRIVATE sink is snapshotted here: when the caller handed
  // in an external sink (possibly an engine's own), returning its full
  // contents would double-count every engine metric in a merged view.
  return own_sink_ != nullptr ? own_sink_->Snapshot() : MetricsSnapshot{};
}

}  // namespace soda
