// Small helpers for navigating compiled warehouse graphs.

#ifndef SODA_CORE_GRAPH_UTILS_H_
#define SODA_CORE_GRAPH_UTILS_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "graph/metadata_graph.h"
#include "storage/table.h"

namespace soda {

/// Dense id of a physical table inside one compiled search session.
using TableId = uint32_t;
inline constexpr TableId kInvalidTableId = UINT32_MAX;

/// A physical column: names, and the table's catalog id and the column's
/// ordinal once resolved (names alone decide equality and rendering).
struct PhysicalColumnRef {
  std::string table;
  std::string column;
  TableId table_id = kInvalidTableId;
  int32_t index = -1;

  std::string ToString() const { return table + "." + column; }
  bool operator==(const PhysicalColumnRef& other) const {
    return table == other.table && column == other.column;
  }
};

/// Interner mapping folded table names <-> dense TableIds, built once by
/// JoinGraph::Build (the table set is immutable during a search session)
/// and read-only afterwards. Steps 3-5 and result dedup work on the ids;
/// names are rendered only into the SQL the generator emits.
class TableCatalog {
 public:
  /// Returns the id for `table` (folding it first), interning on first
  /// use; the first spelling seen becomes the table's name. Build-time
  /// only: not safe to call concurrently with Find.
  TableId Intern(const std::string& table);

  /// The id for `table`, or kInvalidTableId when it was never interned.
  TableId Find(std::string_view table) const;

  /// Find for a name that is already folded (FoldForMatch).
  TableId FindFolded(const std::string& folded) const;

  /// The name `id` was interned under. `id` must be valid.
  const std::string& name(TableId id) const { return names_[id]; }

  /// Number of interned tables (ids are 0..size()-1, dense).
  size_t size() const { return names_.size(); }

  /// Maps every id to the database table of its name and back (O(tables),
  /// once), so the query path resolves ids without folding a name.
  void Bind(const Database& db);

  /// The database table of `id` and its ordinal there; nullptr and -1
  /// when unbound or absent.
  const Table* table(TableId id) const {
    return id < tables_.size() ? tables_[id].table : nullptr;
  }
  int32_t ordinal(TableId id) const {
    return id < tables_.size() ? tables_[id].ordinal : -1;
  }
  /// The id of database table `table`, or kInvalidTableId.
  TableId IdOf(const Table* table) const {
    auto it = id_of_table_.find(table);
    return it == id_of_table_.end() ? kInvalidTableId : it->second;
  }

  /// Sets `ref`'s ids from its names (unset when unknown).
  void Resolve(PhysicalColumnRef* ref) const;

 private:
  struct Bound {
    const Table* table = nullptr;
    int32_t ordinal = -1;
  };
  std::unordered_map<std::string, TableId> id_of_;  // folded name -> id
  std::vector<std::string> names_;                  // id -> name
  std::vector<Bound> tables_;                       // id -> database table
  std::unordered_map<const Table*, TableId> id_of_table_;
};

/// Id-list helpers. Step 3-5 lists hold a handful of ids, where a linear
/// scan beats any set; AppendUnique keeps first-seen order.
template <typename Ids, typename Id>
bool ContainsId(const Ids& ids, Id id) {
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}
template <typename Id>
void AppendUnique(std::vector<Id>* ids, Id id) {
  if (!ContainsId(*ids, id)) ids->push_back(id);
}

/// The table name of a physical-table node (its `tablename` label).
std::optional<std::string> TableNameOf(const MetadataGraph& graph,
                                       NodeId table_node);

/// The (table, column) of a physical-column node, following the incoming
/// `column` edge to the owning table.
std::optional<PhysicalColumnRef> ColumnRefOf(const MetadataGraph& graph,
                                             NodeId column_node);

/// Resolves a metadata node to the physical column that realizes it:
///   physical column        -> itself
///   logical attribute      -> realized_by target
///   conceptual attribute   -> implemented_by -> realized_by
/// Returns nullopt for entities, tables, concepts, etc.
std::optional<PhysicalColumnRef> ResolvePhysicalColumn(
    const MetadataGraph& graph, NodeId node);

}  // namespace soda

#endif  // SODA_CORE_GRAPH_UTILS_H_
