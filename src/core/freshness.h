// FreshnessManager — automatic freshness propagation from storage
// mutations to live engines.
//
// The paper's warehouses are append-only with historization: base data
// moves under a fixed schema. Two pieces of engine state derive from the
// rows and go stale when they move — the inverted index (Step 1 probes
// it) and the LRU result caches (whole answers, snippets included). The
// FreshnessManager closes the loop:
//
//   Table::Append ──► ChangeLog ──► FreshnessManager::OnChange
//                                        │ (under the exclusive data lock)
//                                        ├─ 1. ApplyBaseDataDelta on every
//                                        │     tracked engine (incremental
//                                        │     postings, once per core — a
//                                        │     router's shards share one)
//                                        └─ 2. InvalidateWhere for exactly
//                                              the affected cache keys
//
// "Affected" is resolved through a reverse dependency map the manager
// builds as answers are cached: engines report every cache insert via
// RecordQuery(key, output), and the manager indexes the key under
//
//   * each of the answer's freshness terms — the folded token vocabulary
//     Step 1 probed (matched phrases, ignored words, aggregation /
//     group-by arguments, string comparison operands), recorded cheaply
//     during lookup via QueryContext; an appended value whose tokens
//     intersect them can change the query's entry points, and
//   * each table referenced by the answer's generated statements; an
//     append to one changes what the snippets show.
//
// Everything else survives: invalidation is keyed, not a cache clear.
// The schema side (metadata graph, join graph, closures) stays immutable
// — only base data moves, exactly the regime the paper assumes.
//
// Counters (booked into the sink handed to the constructor):
// freshness.events, freshness.delta_postings, freshness.delta_failures,
// freshness.keys_invalidated, freshness.keys_tracked. Session plans are
// not tracked here: a TranslationPlan resumes only while the change
// log's sequence still equals the one it was captured at.
//
// Threading: OnChange runs under the change log's exclusive data lock;
// RecordQuery runs under engines' shared locks. The manager's own state
// has a private mutex, always acquired after the data lock and never
// while holding a cache lock, so the order data lock → manager → cache
// is global and deadlock-free.
//
// Lifetime: construct after the engines, destroy before them and before
// the database. The destructor unsubscribes from the change log and
// detaches every tracked engine, so the engines may keep serving (and
// caching) after the manager is gone — but QUIESCE serving traffic
// across the destruction itself: the detach is a plain pointer store,
// so a serve concurrent with the destructor races on the hook. Track
// engines before serving traffic — answers cached earlier have no
// recorded dependencies and would survive invalidation stale.

#ifndef SODA_CORE_FRESHNESS_H_
#define SODA_CORE_FRESHNESS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/metrics.h"
#include "core/pipeline.h"
#include "storage/change_log.h"

namespace soda {

class SodaService;

class FreshnessManager : public ChangeListener {
 public:
  /// Subscribes to `log` (normally Database::change_log()). Counters go
  /// to `sink` when given, else to a private in-memory sink readable via
  /// metrics_snapshot().
  explicit FreshnessManager(ChangeLog* log,
                            std::shared_ptr<MetricsSink> sink = nullptr);
  ~FreshnessManager() override;

  FreshnessManager(const FreshnessManager&) = delete;
  FreshnessManager& operator=(const FreshnessManager&) = delete;

  /// Tracks a service (serial engine or sharded router alike): its index
  /// receives every delta, its cache every keyed invalidation, and the
  /// service reports its cache inserts back here (set_freshness is
  /// called on it). The service must outlive this manager.
  void Track(SodaService* service);

  /// Records one cached answer's dependencies. Called by tracked engines
  /// under their shared data lock, next to the cache insert; re-recording
  /// a key replaces its dependencies.
  void RecordQuery(const std::string& key, const SearchOutput& output);

  /// Drops one key's recorded dependencies (e.g. after a manual
  /// InvalidateWhere evicted it), so the reverse maps track only keys
  /// that can still be invalidated (bounded by cache size instead of by
  /// every key ever served).
  void Forget(const std::string& key);

  /// Forget for capacity evictions, racing concurrent serves: drops the
  /// key's dependencies unless `still_cached(key)` reports the cache
  /// re-admitted it meanwhile. The check runs under the manager's
  /// mutex, serialized against RecordQuery, which closes the
  /// evict-vs-reinsert race (a re-inserted key must never lose the
  /// dependencies its re-insertion just recorded).
  void ForgetEvicted(const std::string& key,
                     const std::function<bool(const std::string&)>&
                         still_cached);

  /// ChangeListener: applies the event's delta to every tracked engine's
  /// index, then invalidates exactly the dependent cache keys. Runs under
  /// the change log's exclusive data lock.
  void OnChange(const ChangeEvent& event) override;

  /// Lifetime books (also exported as freshness.* counters).
  uint64_t events_seen() const;
  uint64_t keys_invalidated() const;

  /// Keys currently carrying recorded dependencies.
  size_t tracked_keys() const;

  /// Snapshot of the private sink (empty when an external sink was
  /// handed in — snapshot that one instead).
  MetricsSnapshot metrics_snapshot() const;

 private:
  struct Deps {
    std::vector<std::string> terms;   // folded tokens
    std::vector<std::string> tables;  // folded table names
  };

  /// Collects the keys dependent on `event` into `affected`.
  void CollectAffectedLocked(const ChangeEvent& event,
                             std::unordered_set<std::string>* affected);

  /// Drops `key` from the reverse maps using its recorded Deps.
  void ForgetLocked(const std::string& key);

  ChangeLog* log_;
  std::shared_ptr<InMemoryMetricsSink> own_sink_;  // null when external
  std::shared_ptr<MetricsSink> sink_;

  struct Target {
    std::function<size_t(const ChangeEvent&)> apply_delta;
    std::function<size_t(const std::function<bool(const std::string&)>&)>
        invalidate;
    std::function<void()> detach;  // clears the engine's freshness hook
  };

  mutable std::mutex mu_;
  std::vector<Target> targets_;
  std::unordered_map<std::string, Deps> deps_by_key_;
  std::unordered_map<std::string, std::unordered_set<std::string>>
      keys_by_term_;
  std::unordered_map<std::string, std::unordered_set<std::string>>
      keys_by_table_;
  uint64_t events_seen_ = 0;
  uint64_t keys_invalidated_ = 0;
};

}  // namespace soda

#endif  // SODA_CORE_FRESHNESS_H_
