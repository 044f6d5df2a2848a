// The storage change log: freshness propagation for live base data.
//
// The paper targets warehouses that are append-only with historization
// (Section 5.1): base data moves while the schema stays put. Everything
// above the storage layer — the inverted index, the engines' result
// caches — is derived state over the rows, so a mutation that nobody
// hears about silently serves stale answers. The ChangeLog is the
// subsystem that makes mutations audible:
//
//   Table::Append / AppendUnchecked
//        │  (exclusive data lock)
//        ▼
//   ChangeLog ── ChangeEvent{table, column→value deltas, row range, seq}
//        │
//        ▼
//   ChangeListener (e.g. core/freshness.h FreshnessManager)
//        ├── InvertedIndex::ApplyDelta   (incremental postings, no rebuild)
//        └── SodaEngine::InvalidateWhere (evicts the cached answers whose
//                                         own terms or tables the event
//                                         touches)
//
// Concurrency contract. The log owns one readers-writer data lock for
// the whole database: every search path holds it shared for the full
// serve (pipeline, snippet execution, cache insert); every mutation
// holds it exclusive across the row append AND the synchronous listener
// fan-out. A reader therefore always observes rows, index and caches in
// a consistent state — either entirely before or entirely after a
// mutation — and listeners run without extra locking of their own.
//
// Epochs. Bulk loads wrap their appends in BeginEpoch/EndEpoch (or the
// RAII EpochGuard): publication is deferred and coalesced so a load of N
// rows into T tables publishes T events, not N. Rows appended inside an
// open epoch are visible to readers immediately (the lock is per append,
// not per epoch — a bulk load must not starve the serving path), but
// derived state only catches up at epoch close; the coalesced events
// then invalidate exactly the answers the epoch could have touched.

#ifndef SODA_STORAGE_CHANGE_LOG_H_
#define SODA_STORAGE_CHANGE_LOG_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "text/token_dict.h"

namespace soda {

class Table;

/// The appended string values of one column, paired with the row index
/// each value landed in (rows with NULL in the column contribute no
/// entry, so `rows` carries the exact positions). Values arrive
/// pre-tokenized as interned TokenIds against the log's dictionary
/// (ChangeEvent::dict): the event is built once per mutation but
/// consumed by every listener — tokenizing AND interning at the source
/// keeps the exclusive-lock window (which stalls all serving) from
/// paying one Tokenize per consumer, and the inverted index, which
/// shares the dictionary, applies deltas without touching a token
/// string at all.
struct ColumnDelta {
  std::string column;
  uint32_t column_index = 0;
  std::vector<size_t> rows;
  std::vector<std::string> values;            // parallel to `rows`
  std::vector<std::vector<TokenId>> token_ids;  // ids of Tokenize(values[i])
};

/// One published mutation: rows [row_begin, row_end) appended to `table`,
/// with the per-string-column value deltas the text index needs. Events
/// carry a log-wide monotonically increasing sequence number; readers use
/// it to detect that data moved underneath a deferred write.
struct ChangeEvent {
  std::string table;
  /// The table appended to; its new rows are already in place.
  const Table* source = nullptr;
  size_t row_begin = 0;
  size_t row_end = 0;
  uint64_t sequence = 0;
  /// The dictionary the deltas' token_ids were interned against — the
  /// database's shared vocabulary. The index built over the database
  /// uses the ids verbatim; other consumers resolve them via Spelling().
  std::shared_ptr<const TokenDict> dict;
  std::vector<ColumnDelta> deltas;  // string columns only, in column order

  /// Total appended (row, column) string occurrences — the number of
  /// posting insertions an incremental index apply will perform.
  size_t NumValues() const {
    size_t n = 0;
    for (const ColumnDelta& d : deltas) n += d.values.size();
    return n;
  }
};

/// Receives published events. Called synchronously under the log's
/// exclusive data lock: implementations may mutate derived state (index,
/// caches) without further locking against readers, but must not block
/// on work that itself needs the data lock.
class ChangeListener {
 public:
  virtual ~ChangeListener() = default;
  virtual void OnChange(const ChangeEvent& event) = 0;
};

/// The per-database mutation hub. Owned by Database; every Table created
/// through Database::CreateTable publishes its appends here.
class ChangeLog {
 public:
  ChangeLog() = default;
  ChangeLog(const ChangeLog&) = delete;
  ChangeLog& operator=(const ChangeLog&) = delete;

  /// Shared data lock for readers. Search paths hold this for the whole
  /// serve; mutations (and listener fan-outs) are excluded meanwhile.
  std::shared_lock<std::shared_mutex> ReaderLock() const {
    return std::shared_lock<std::shared_mutex>(data_mu_);
  }

  /// Exclusive data lock for mutators. Table's append paths take this
  /// around the row push + RecordAppendLocked call.
  std::unique_lock<std::shared_mutex> WriterLock() const {
    return std::unique_lock<std::shared_mutex>(data_mu_);
  }

  /// Registers/removes a listener (exclusive lock taken internally; do
  /// not call while holding a lock from this log).
  void Subscribe(ChangeListener* listener);
  void Unsubscribe(ChangeListener* listener);

  /// The dictionary published events intern their token ids against:
  /// the database's shared vocabulary (Database::token_dict()).
  const std::shared_ptr<TokenDict>& token_dict() const { return dict_; }

  /// Opens/closes a batched epoch. Nestable; only the outermost EndEpoch
  /// publishes. While an epoch is open, RecordAppendLocked coalesces per
  /// table; EndEpoch publishes one event per touched table, in first-
  /// touch order (deterministic). Epochs are LOG-GLOBAL, not per
  /// thread: any thread's appends coalesce while one is open, and their
  /// derived-state catch-up is deferred to the close — epochs are for
  /// bulk loads on a quiesced mutation path, not for wrapping one
  /// writer among several concurrent ones.
  void BeginEpoch();
  void EndEpoch();

  /// RAII epoch for bulk loads: one event per table however many rows
  /// the scope appends.
  class EpochGuard {
   public:
    explicit EpochGuard(ChangeLog& log) : log_(&log) { log_->BeginEpoch(); }
    ~EpochGuard() { log_->EndEpoch(); }
    EpochGuard(const EpochGuard&) = delete;
    EpochGuard& operator=(const EpochGuard&) = delete;

   private:
    ChangeLog* log_;
  };

  /// Books rows [row_begin, row_end) just appended to `table`.
  /// PRECONDITION: the caller holds WriterLock() — Table's append paths
  /// do. Publishes immediately (building the event from the table's rows)
  /// unless an epoch is open, in which case the range is coalesced.
  void RecordAppendLocked(const Table& table, size_t row_begin,
                          size_t row_end);

  /// Sequence number of the last published event (0 before the first).
  /// Stable under ReaderLock(): writers only advance it exclusively, so a
  /// reader that sees the same value before and after a deferred write
  /// knows no mutation landed in between.
  uint64_t sequence() const { return sequence_; }

  /// Lifetime books, readable under either lock (or quiesced).
  uint64_t events_published() const { return events_published_; }
  uint64_t rows_recorded() const { return rows_recorded_; }
  size_t num_listeners() const { return listeners_.size(); }

 private:
  struct PendingRange {
    const Table* table = nullptr;
    size_t row_begin = 0;
    size_t row_end = 0;
  };

  /// Builds the event for [row_begin, row_end) of `table` and fans it out
  /// to every listener. Caller holds the writer lock.
  void PublishLocked(const Table& table, size_t row_begin, size_t row_end);

  mutable std::shared_mutex data_mu_;

  // All below guarded by data_mu_ (exclusive for writes).
  std::shared_ptr<TokenDict> dict_ = std::make_shared<TokenDict>();
  std::vector<ChangeListener*> listeners_;
  std::vector<PendingRange> pending_;  // first-touch order
  int epoch_depth_ = 0;
  uint64_t sequence_ = 0;
  uint64_t events_published_ = 0;
  uint64_t rows_recorded_ = 0;
};

}  // namespace soda

#endif  // SODA_STORAGE_CHANGE_LOG_H_
