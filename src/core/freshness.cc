#include "core/freshness.h"

#include <algorithm>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/strings.h"
#include "common/trace.h"
#include "core/service.h"

namespace soda {

namespace {

// The dependency rule: a cached answer is stale after an append to
// `table` (folded) when one of its statements reads that table (its
// snippets show different rows), or when its lookup probed one of the
// appended values' tokens (a new base-data entry point, a previously
// ignored word that now matches, shifted counts). Both of the entry's
// lists are folded, sorted and unique, and an event carries a handful of
// spellings, so the rule is a few binary searches per entry.
bool DependsOn(const CachedAnswer& entry, const std::string& table,
               const std::vector<std::string>& spellings) {
  if (std::binary_search(entry.tables.begin(), entry.tables.end(), table)) {
    return true;
  }
  const std::vector<std::string>& terms = entry.freshness_terms;
  for (const std::string& spelling : spellings) {
    if (std::binary_search(terms.begin(), terms.end(), spelling)) return true;
  }
  return false;
}

}  // namespace

FreshnessManager::FreshnessManager(ChangeLog* log) : log_(log) {
  sink_.IncrementCounter("freshness.delta_failures", 0);
  log_->Subscribe(this);
}

FreshnessManager::~FreshnessManager() { log_->Unsubscribe(this); }

void FreshnessManager::Track(SodaService* service) {
  std::lock_guard<std::mutex> lock(mu_);
  targets_.push_back(service);
}

void FreshnessManager::OnChange(const ChangeEvent& event) {
  std::vector<SodaService*> targets;
  {
    std::lock_guard<std::mutex> lock(mu_);
    targets = targets_;
  }
  sink_.IncrementCounter("freshness.events", 1);

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
  for (SodaService* target : targets) {
    bool applied = false;
    try {
      if (SODA_FAILPOINT_STATUS("freshness.apply_delta", event.table)
              .ok()) {
        delta_postings += target->ApplyBaseDataDelta(event);
        applied = true;
      }
    } catch (...) {
    }
    if (applied) continue;
    sink_.IncrementCounter("freshness.delta_failures", 1);
    burst_span.AddEvent("delta_failure", "full cache eviction");
    target->ClearCache();
  }
  sink_.IncrementCounter("freshness.delta_postings", delta_postings);
  if (burst_span.active()) {
    burst_span.SetAttr("delta_postings",
                       static_cast<int64_t>(delta_postings));
  }

  // 2. Keyed invalidation for exactly the dependent answers. Events
  // carry values pre-tokenized as interned ids; answers record
  // spellings, so resolve each id once through the event's dictionary.
  std::vector<std::string> spellings;
  for (const ColumnDelta& delta : event.deltas) {
    for (const std::vector<TokenId>& value_ids : delta.token_ids) {
      for (TokenId id : value_ids) {
        spellings.push_back(event.dict->Spelling(id));
      }
    }
  }
  std::sort(spellings.begin(), spellings.end());
  spellings.erase(std::unique(spellings.begin(), spellings.end()),
                  spellings.end());
  const std::string table = FoldForMatch(event.table);
  const CachePredicate stale = [&](const std::string&,
                                   const CachedAnswer& entry) {
    return DependsOn(entry, table, spellings);
  };
  size_t invalidated = 0;
  for (SodaService* target : targets) {
    invalidated += target->InvalidateWhere(stale);
  }
  sink_.IncrementCounter("freshness.keys_invalidated", invalidated);
  if (burst_span.active()) {
    burst_span.SetAttr("keys_invalidated", static_cast<int64_t>(invalidated));
  }
  burst_span.End();
  if (burst_trace.active()) {
    TraceRecorder::Instance().FinishTrace(burst_trace,
                                          burst_trace.data->ElapsedMs());
  }
}

}  // namespace soda
