#include "core/graph_utils.h"

#include "common/strings.h"
#include "graph/vocab.h"

namespace soda {

TableId TableCatalog::Intern(const std::string& table) {
  std::string key = FoldForMatch(table);
  auto it = id_of_.find(key);
  if (it != id_of_.end()) return it->second;
  TableId id = static_cast<TableId>(names_.size());
  id_of_.emplace(std::move(key), id);
  names_.push_back(table);
  return id;
}

TableId TableCatalog::Find(std::string_view table) const {
  return FindFolded(FoldForMatch(table));
}

TableId TableCatalog::FindFolded(const std::string& folded) const {
  auto it = id_of_.find(folded);
  return it == id_of_.end() ? kInvalidTableId : it->second;
}

void TableCatalog::Bind(const Database& db) {
  tables_.assign(names_.size(), Bound{});
  id_of_table_.clear();
  for (size_t i = 0; i < db.num_tables(); ++i) {
    const Table& table = db.table(i);
    TableId id = Find(table.name());
    if (id == kInvalidTableId || tables_[id].table != nullptr) continue;
    tables_[id] = Bound{&table, static_cast<int32_t>(i)};
    id_of_table_.emplace(&table, id);
  }
}

void TableCatalog::Resolve(PhysicalColumnRef* ref) const {
  TableId id = Find(ref->table);
  const Table* table = this->table(id);
  if (table == nullptr) return;
  ref->table_id = id;
  ref->index = table->ColumnIndex(ref->column);
}

std::optional<std::string> TableNameOf(const MetadataGraph& graph,
                                       NodeId table_node) {
  if (table_node == kInvalidNode) return std::nullopt;
  return graph.FirstText(table_node, vocab::kTablename);
}

std::optional<PhysicalColumnRef> ColumnRefOf(const MetadataGraph& graph,
                                             NodeId column_node) {
  if (column_node == kInvalidNode) return std::nullopt;
  auto column_name = graph.FirstText(column_node, vocab::kColumnname);
  if (!column_name.has_value()) return std::nullopt;
  auto owners = graph.Sources(column_node, vocab::kColumn);
  if (owners.empty()) return std::nullopt;
  auto table_name = TableNameOf(graph, owners[0]);
  if (!table_name.has_value()) return std::nullopt;
  return PhysicalColumnRef{*table_name, *column_name};
}

std::optional<PhysicalColumnRef> ResolvePhysicalColumn(
    const MetadataGraph& graph, NodeId node) {
  if (node == kInvalidNode) return std::nullopt;
  // Physical column?
  auto direct = ColumnRefOf(graph, node);
  if (direct.has_value()) return direct;
  // Logical attribute -> realized_by.
  NodeId realized = graph.FirstTarget(node, vocab::kRealizedBy);
  if (realized != kInvalidNode) return ColumnRefOf(graph, realized);
  // Conceptual attribute -> implemented_by (logical attr) -> realized_by.
  NodeId logical = graph.FirstTarget(node, vocab::kImplementedBy);
  if (logical != kInvalidNode) {
    NodeId column = graph.FirstTarget(logical, vocab::kRealizedBy);
    if (column != kInvalidNode) return ColumnRefOf(graph, column);
  }
  return std::nullopt;
}

}  // namespace soda
