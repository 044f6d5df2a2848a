// Entry points: where a keyword was found (paper Step 1 - Lookup).
//
// An entry point holds ids and references only, so later steps copy a few
// words per chosen entry. A base-data hit names its database table, its
// column by ordinal and its value by the first stored cell carrying it;
// rows are never modified and a row's buffer stays put when its table
// grows, so the cell outlives every append. A metadata hit's label views
// the graph's label text.
//
// Entry points therefore borrow from the Database and the MetadataGraph
// a Soda was built over, and so does everything holding them (plans,
// results' explanations): neither may be destroyed, nor the graph
// modified, while those are in use.

#ifndef SODA_CORE_ENTRY_POINT_H_
#define SODA_CORE_ENTRY_POINT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "graph/metadata_graph.h"
#include "storage/table.h"

namespace soda {

/// One location in the metadata graph or the base data where a keyword
/// phrase was found.
struct EntryPoint {
  enum class Kind {
    kMetadataNode,  // a node of the metadata graph
    kBaseData,      // a (table, column, value) hit of the inverted index
  };

  Kind kind = Kind::kMetadataNode;
  MetadataLayer layer = MetadataLayer::kOther;

  // kMetadataNode:
  NodeId node = kInvalidNode;

  // kBaseData (layer is kBaseData then):
  const Table* table = nullptr;  // the database table holding the cell
  uint32_t column = 0;           // the column's ordinal in `table`
  const Value* cell = nullptr;   // the first stored cell with the value
  int64_t row_count = 0;

  /// The label that matched: the graph's label text of a metadata node
  /// (the graph is immutable), the stored string of a base-data cell.
  std::string_view label;

  /// Base-data names, read through the ids.
  const std::string& table_name() const { return table->name(); }
  const std::string& column_name() const {
    return table->columns()[column].name;
  }
  const std::string& value() const { return cell->AsString(); }

  std::string ToString() const {
    return std::string(label) + " @ " + std::string(MetadataLayerName(layer));
  }
};

}  // namespace soda

#endif  // SODA_CORE_ENTRY_POINT_H_
