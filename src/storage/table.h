// Row-oriented in-memory tables and the database catalog.
//
// This is the "base data" substrate of the reproduction: the physical tables
// the warehouse schema compiles into, the rows the inverted index covers,
// and the storage the generated SQL executes against.

#ifndef SODA_STORAGE_TABLE_H_
#define SODA_STORAGE_TABLE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "sql/value.h"

namespace soda {

class ChangeLog;
class TokenDict;

/// One column of a physical table.
struct ColumnDef {
  std::string name;
  ValueType type = ValueType::kString;
};

using Row = std::vector<Value>;

/// Equality index over one column of a Table: each distinct non-NULL value
/// maps to the ascending ids of the rows holding it. Equality is
/// Value::Compare() == 0 with Value::Hash, the rule WHERE filters use, so
/// INT 3 and DOUBLE 3.0 share a group and nearby doubles never merge.
class EqualityIndex {
 public:
  /// Rows whose cell equals `key`, ascending; empty for NULL or no match.
  std::span<const size_t> Find(const Value& key) const {
    auto it = groups_.find(&key);
    if (it == groups_.end()) return {};
    return it->second;
  }

 private:
  friend class Table;

  struct CellHash {
    size_t operator()(const Value* v) const { return v->Hash(); }
  };
  struct CellEq {
    bool operator()(const Value* a, const Value* b) const {
      return a->Compare(*b) == 0;
    }
  };

  // NULL cells are skipped, so a NULL probe never finds a group.
  void Add(const Value& cell, size_t row) {
    if (!cell.is_null()) groups_[&cell].push_back(row);
  }

  // Keys point at the group's first cell in the table's row store: rows
  // are never modified, and a Row's buffer stays put when the row vector
  // grows, so the pointer outlives every later append.
  std::unordered_map<const Value*, std::vector<size_t>, CellHash, CellEq>
      groups_;
};

/// An in-memory table: schema plus a row store. Row ids are stable (no
/// deletes in this workload; warehouses are append-only with historization).
///
/// Each column can carry an EqualityIndex, built on first request and from
/// then on extended by every append, so the executor's joins and
/// `column = literal` scans probe instead of hashing the table per
/// statement. Concurrency follows the change log's data lock: readers
/// request and probe indexes under ReaderLock() (the first request builds
/// under a per-table mutex, so concurrent readers build once), and appends
/// extend the built indexes under the exclusive WriterLock(). A standalone
/// table has no lock, so it must not be appended to while read.
class Table {
 public:
  Table(std::string name, std::vector<ColumnDef> columns)
      : name_(std::move(name)),
        columns_(std::move(columns)),
        indexes_(columns_.size()) {}

  const std::string& name() const { return name_; }
  const std::vector<ColumnDef>& columns() const { return columns_; }
  size_t num_columns() const { return columns_.size(); }
  size_t num_rows() const { return rows_.size(); }

  /// Index of `column_name` or -1 when absent (case-insensitive match,
  /// mirroring SQL identifier resolution).
  int ColumnIndex(const std::string& column_name) const;

  /// True when the table has a column of that name.
  bool HasColumn(const std::string& column_name) const {
    return ColumnIndex(column_name) >= 0;
  }

  /// Appends a row; fails when arity or value types disagree with the
  /// schema (NULL is allowed in any column). When the table belongs to a
  /// Database, the append is published through its ChangeLog (under the
  /// log's exclusive data lock), so live indexes and caches hear about
  /// it; wrap bulk loads in ChangeLog::EpochGuard to coalesce events.
  Status Append(Row row);

  /// Appends without type validation — the generators' fast path after
  /// they have validated the recipe once. Arity still asserts in debug
  /// builds, and the append is routed through the same change-log
  /// publication as Append, so the fast path can never desync a live
  /// index.
  void AppendUnchecked(Row row);

  const Row& row(size_t i) const { return rows_[i]; }
  const std::vector<Row>& rows() const { return rows_; }

  /// Value at (row, column-name); NULL when the column does not exist.
  Value ValueAt(size_t row_index, const std::string& column_name) const;

  /// The equality index over column `column` (< num_columns()), built on
  /// the first request. Call under the change log's ReaderLock() when the
  /// table belongs to a Database; the reference stays valid and current
  /// for the table's lifetime. `built` (optional) is set to whether this
  /// call did the build.
  const EqualityIndex& IndexOn(size_t column, bool* built = nullptr) const;

  /// The change log this table publishes appends to; nullptr for
  /// standalone tables (constructed outside a Database). Set by
  /// Database::CreateTable.
  void set_change_log(ChangeLog* log) { change_log_ = log; }
  ChangeLog* change_log() const { return change_log_; }

 private:
  /// Shared append core: takes the change log's exclusive data lock (when
  /// attached), pushes the row, extends the built indexes, and records the
  /// append for publication.
  void PushRow(Row row);

  std::string name_;
  std::vector<ColumnDef> columns_;
  std::vector<Row> rows_;
  ChangeLog* change_log_ = nullptr;
  // One slot per column, null until first requested. Slots are filled
  // under index_mu_ and extended under the exclusive data lock.
  mutable std::mutex index_mu_;
  mutable std::vector<std::unique_ptr<EqualityIndex>> indexes_;
};

/// The catalog: owns tables, resolves case-insensitive table names.
class Database {
 public:
  // Out-of-line: the owned ChangeLog is an incomplete type here.
  Database();
  ~Database();
  Database(Database&&) noexcept;
  Database& operator=(Database&&) noexcept;

  /// Creates an empty table. Fails when the name is taken.
  Result<Table*> CreateTable(const std::string& name,
                             std::vector<ColumnDef> columns);

  /// Looks up a table; nullptr when absent.
  Table* FindTable(const std::string& name);
  const Table* FindTable(const std::string& name) const;

  /// All tables in creation order.
  std::vector<const Table*> tables() const;
  std::vector<Table*> mutable_tables();

  size_t num_tables() const { return tables_.size(); }

  /// Sum of rows over all tables (used by dataset sanity checks).
  size_t TotalRows() const;

  /// The database's mutation hub: every table created here publishes its
  /// appends through this log. Const access returns a mutable log —
  /// subscribing listeners and taking the data lock are not logical
  /// mutations of the catalog (the engines hold `const Database*`).
  ChangeLog& change_log() const { return *change_log_; }

  /// The database's shared token vocabulary: every InvertedIndex built
  /// over this catalog adopts it (so N shard replicas hold one copy, not
  /// N), and the change log interns published deltas against it. Appends
  /// happen under the change log's exclusive data lock only.
  const std::shared_ptr<TokenDict>& token_dict() const { return token_dict_; }

 private:
  // Creation order preserved for deterministic iteration.
  std::vector<std::unique_ptr<Table>> tables_;
  std::map<std::string, Table*> by_name_;  // folded-lowercase name -> table
  std::shared_ptr<TokenDict> token_dict_;
  std::unique_ptr<ChangeLog> change_log_;
};

}  // namespace soda

#endif  // SODA_STORAGE_TABLE_H_
