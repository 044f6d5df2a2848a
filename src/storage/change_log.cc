#include "storage/change_log.h"

#include <algorithm>

#include "storage/table.h"

namespace soda {

void ChangeLog::Subscribe(ChangeListener* listener) {
  auto lock = WriterLock();
  if (std::find(listeners_.begin(), listeners_.end(), listener) ==
      listeners_.end()) {
    listeners_.push_back(listener);
  }
}

void ChangeLog::Unsubscribe(ChangeListener* listener) {
  auto lock = WriterLock();
  listeners_.erase(
      std::remove(listeners_.begin(), listeners_.end(), listener),
      listeners_.end());
}

void ChangeLog::BeginEpoch() {
  auto lock = WriterLock();
  ++epoch_depth_;
}

void ChangeLog::EndEpoch() {
  auto lock = WriterLock();
  if (epoch_depth_ == 0) return;  // unbalanced EndEpoch is a no-op
  if (--epoch_depth_ > 0) return;
  // Outermost close: publish one coalesced event per touched table, in
  // first-touch order so listener observation is deterministic.
  std::vector<PendingRange> pending = std::move(pending_);
  pending_.clear();
  for (const PendingRange& range : pending) {
    PublishLocked(*range.table, range.row_begin, range.row_end);
  }
}

void ChangeLog::RecordAppendLocked(const Table& table, size_t row_begin,
                                   size_t row_end) {
  rows_recorded_ += row_end - row_begin;
  if (epoch_depth_ > 0) {
    for (PendingRange& range : pending_) {
      if (range.table == &table) {
        // Appends only grow the row store, so ranges of one table inside
        // one epoch are contiguous — extend in place.
        range.row_end = row_end;
        return;
      }
    }
    pending_.push_back(PendingRange{&table, row_begin, row_end});
    return;
  }
  PublishLocked(table, row_begin, row_end);
}

void ChangeLog::PublishLocked(const Table& table, size_t row_begin,
                              size_t row_end) {
  ++sequence_;
  ++events_published_;
  // No subscribers: advance the sequence (deferred-write staleness
  // checks depend on it) but skip building an event nobody consumes —
  // dataset construction without a live listener stays copy-free.
  if (listeners_.empty()) return;
  // Interning happens here, under the exclusive data lock, so sharing
  // the dictionary with the inverted index is race-free.
  ChangeEvent event;
  event.table = table.name();
  event.source = &table;
  event.row_begin = row_begin;
  event.row_end = row_end;
  event.sequence = sequence_;
  event.dict = dict_;
  // Column-major over the new rows, exactly the scan order a from-scratch
  // index build uses, so incremental appliers stay rebuild-identical.
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (table.columns()[c].type != ValueType::kString) continue;
    ColumnDelta delta;
    delta.column = table.columns()[c].name;
    delta.column_index = static_cast<uint32_t>(c);
    for (size_t r = row_begin; r < row_end; ++r) {
      const Value& v = table.row(r)[c];
      if (v.is_null()) continue;
      const std::string& text = v.AsString();
      if (text.empty()) continue;  // the index skips empty values too
      delta.rows.push_back(r);
      delta.token_ids.emplace_back();
      dict_->InternText(text, &delta.token_ids.back());
      delta.values.push_back(text);
    }
    if (!delta.values.empty()) event.deltas.push_back(std::move(delta));
  }
  for (ChangeListener* listener : listeners_) {
    listener->OnChange(event);
  }
}

}  // namespace soda
