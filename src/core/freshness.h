// FreshnessManager — automatic freshness propagation from storage
// mutations to live engines.
//
// The paper's warehouses are append-only with historization: base data
// moves under a fixed schema. Two pieces of engine state derive from the
// rows and go stale when they move — the inverted index (Step 1 probes
// it) and the LRU result cache (whole answers, snippets included). The
// FreshnessManager closes the loop:
//
//   Table::Append ──► ChangeLog ──► FreshnessManager::OnChange
//                                        │ (under the exclusive data lock)
//                                        ├─ 1. ApplyBaseDataDelta on every
//                                        │     tracked engine (incremental
//                                        │     postings, once per core)
//                                        └─ 2. InvalidateWhere over every
//                                              cached answer, in every
//                                              cache stripe, evicting the
//                                              dependent ones
//
// Each cached answer carries its own dependency record, and "dependent"
// is one rule over it: the answer
//
//   * has a freshness term — the folded token vocabulary Step 1 probed
//     (matched phrases, ignored words, aggregation / group-by arguments,
//     string comparison operands), recorded during lookup and kept in
//     the cached copy — among the appended values' tokens, which can
//     change the query's entry points, or
//   * has a generated statement that reads the appended table, whose
//     snippets show different rows once the table has more (the entry
//     keeps its tables folded and sorted for this check).
//
// Everything else survives: invalidation is keyed, not a cache clear.
// Because the rule reads the stored answers, an answer cached before
// Track is covered too, and eviction and re-insert are serialized by the
// cache's own lock. The schema side (metadata graph, join graph,
// closures) stays immutable — only base data moves, exactly the regime
// the paper assumes.
//
// Counters (booked into the manager's own sink, metrics_snapshot()):
// freshness.events, freshness.delta_postings, freshness.delta_failures,
// freshness.keys_invalidated. Plans are not tracked here: a
// TranslationPlan resumes only while the change log's sequence still
// equals the one it was captured at, and an evicted entry takes the plan
// cached beside it along.
//
// Lifetime: engines hold no pointer to the manager, so they may outlive
// it. The manager calls into its tracked services on every append until
// its destructor unsubscribes it from the change log (which waits for
// an in-flight OnChange), so destroy it before them.

#ifndef SODA_CORE_FRESHNESS_H_
#define SODA_CORE_FRESHNESS_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "common/metrics.h"
#include "storage/change_log.h"

namespace soda {

class SodaService;

class FreshnessManager : public ChangeListener {
 public:
  /// Subscribes to `log` (normally Database::change_log()).
  explicit FreshnessManager(ChangeLog* log);
  ~FreshnessManager() override;

  FreshnessManager(const FreshnessManager&) = delete;
  FreshnessManager& operator=(const FreshnessManager&) = delete;

  /// Tracks a service (any SodaService, e.g. a SodaEngine): its index
  /// receives every delta, its cache every keyed invalidation. The
  /// service must outlive this manager.
  void Track(SodaService* service);

  /// ChangeListener: applies the event's delta to every tracked engine's
  /// index, then invalidates exactly the dependent cached answers. Runs
  /// under the change log's exclusive data lock.
  void OnChange(const ChangeEvent& event) override;

  /// Lifetime books, read off the freshness.* counters.
  uint64_t events_seen() const {
    return metrics_snapshot().counter("freshness.events");
  }
  uint64_t keys_invalidated() const {
    return metrics_snapshot().counter("freshness.keys_invalidated");
  }

  /// Snapshot of the manager's sink.
  MetricsSnapshot metrics_snapshot() const { return sink_.Snapshot(); }

 private:
  ChangeLog* log_;
  InMemoryMetricsSink sink_;

  std::mutex mu_;  // guards targets_
  std::vector<SodaService*> targets_;
};

}  // namespace soda

#endif  // SODA_CORE_FRESHNESS_H_
