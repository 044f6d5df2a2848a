// Table-level join graph derived from the metadata-graph patterns.
//
// SODA's Step 3 discovers joins by matching the Foreign-Key /
// Join-Relationship patterns while traversing the metadata graph and then
// keeps "these which are on a direct path between the entry points"
// (Figure 9). Because the metadata graph is immutable during a search
// session, the discovered join conditions are the same for every query; we
// materialize them once into a table-level graph and run the per-query
// direct-path computation on it. Bridge tables (two outgoing foreign keys,
// Section 4.2.1) are detected with the bridge patterns.
//
// The same immutability argument is applied one level deeper: every
// physical table (each node the Table pattern matches) is interned into a
// dense TableId (TableCatalog), adjacency is a flat vector-of-EdgeId-vectors,
// and — since the warehouse has only a few hundred tables (paper: 472) —
// all-pairs shortest join paths are precomputed at Build time (one BFS per
// table, distance + parent-edge matrices). DirectPath then min-scans the
// distance matrix over the (source, target) id pairs and walks the stored
// parent chain. Each table's inheritance parents and siblings are read
// off the Inheritance-Child pattern here too, so Steps 3-5 run on ids with
// no pattern matching, name folding or node lookup at query time.
//
// Edge insertion order is the order in which PatternMatcher::MatchAll
// emits the Foreign-Key and Join-Relationship matches (its plan order;
// see pattern/matcher.h), first occurrence kept, and bridges likewise.
// It is not canonicalised: path search walks edges in insertion order,
// so that order breaks ties between equal-length join paths and decides
// the SQL of Table 2 queries. Sorting the edges by column reference
// changes "Credit Suisse"; sorting the bridges as well also changes "YEN
// trade order". tests/sql_golden_test.cc pins that SQL.

#ifndef SODA_CORE_JOIN_GRAPH_H_
#define SODA_CORE_JOIN_GRAPH_H_

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/graph_utils.h"
#include "pattern/matcher.h"

namespace soda {

/// One usable join condition between two physical tables.
struct JoinEdge {
  PhysicalColumnRef from;  // foreign-key side
  PhysicalColumnRef to;    // primary-key side
  bool ignored = false;    // annotated ignore_relationship (war stories)

  std::string ToString() const {
    return from.ToString() + " = " + to.ToString();
  }
  bool operator==(const JoinEdge&) const = default;
};

/// Dense id of a harvested join edge (index into all_edges()).
using EdgeId = uint32_t;
inline constexpr EdgeId kInvalidEdgeId = UINT32_MAX;

/// A bridge table with the two foreign keys that make it one; each key's
/// `to` end is the entity it points to.
struct BridgeInfo {
  TableId table = kInvalidTableId;  // the bridge table
  EdgeId left = kInvalidEdgeId;     // bridge -> first entity
  EdgeId right = kInvalidEdgeId;    // bridge -> second entity

  bool operator==(const BridgeInfo&) const = default;
};

class JoinGraph {
 public:
  /// Interns every physical table, harvests join conditions, bridge
  /// tables and inheritance with the patterns, then builds the all-pairs
  /// shortest-path closure DirectPath reads.
  Status Build(const PatternMatcher& matcher);

  /// Binds the catalog to the database statements run on and sets every
  /// edge's column ids (TableCatalog::Bind, then one column lookup per
  /// edge end), so Step 5 emits join conditions the executor reads by
  /// ordinal. O(tables + edges), once per Soda.
  void Bind(const Database& db);

  /// The edges touching `table`, in insertion order (a self join twice).
  const std::vector<EdgeId>& EdgesOf(TableId table) const {
    return adjacency_[table];
  }

  /// Shortest join path (fewest joins) between any table in `from_set` and
  /// any table in `to_set`; every id must come from catalog(). Ignored
  /// edges are not used. Appends the edges of the path to `path_edges`
  /// and the tables on it (including endpoints; the table itself when
  /// the sets overlap) to `path_tables`. Returns false when no path
  /// exists.
  ///
  /// Deterministic pair choice: among all (from, to) pairs the one with
  /// the fewest joins wins, ties broken by from_set order then to_set
  /// order; the path itself is the BFS tree chain of the winning source
  /// (fixed edge-insertion adjacency order), read from the precomputed
  /// APSP matrices.
  bool DirectPath(std::span<const TableId> from_set,
                  std::span<const TableId> to_set,
                  std::vector<EdgeId>* path_edges,
                  std::vector<TableId>* path_tables) const;

  /// The join condition of `edge` and the tables at its (from, to) ends.
  const JoinEdge& edge(EdgeId edge) const { return edges_[edge]; }
  const std::pair<TableId, TableId>& ends(EdgeId edge) const {
    return edge_ends_[edge];
  }

  /// The inheritance parents of `table` (the `p` of every
  /// Inheritance-Child match at its node, unique, in match order) and its
  /// siblings (the other children of the first match's inheritance node).
  const std::vector<TableId>& parents(TableId table) const {
    return parents_[table];
  }
  const std::vector<TableId>& siblings(TableId table) const {
    return siblings_[table];
  }

  const std::vector<BridgeInfo>& bridges() const { return bridges_; }
  const std::vector<JoinEdge>& all_edges() const { return edges_; }
  size_t num_edges() const { return edges_.size(); }

  /// The table interner populated by Build (folded name -> dense id).
  const TableCatalog& catalog() const { return catalog_; }

 private:
  /// Appends `edge` unless `seen` (unordered key -> EdgeId) already holds
  /// its unordered key.
  void AddEdge(JoinEdge edge, std::unordered_map<std::string, EdgeId>* seen);
  /// Fills the APSP matrices: one BFS per table.
  void BuildPathClosure();

  std::vector<JoinEdge> edges_;
  std::vector<std::pair<TableId, TableId>> edge_ends_;  // per EdgeId
  TableCatalog catalog_;
  std::vector<std::vector<EdgeId>> adjacency_;       // per TableId
  std::vector<std::vector<TableId>> parents_;        // per TableId
  std::vector<std::vector<TableId>> siblings_;       // per TableId
  std::vector<BridgeInfo> bridges_;

  // APSP closure (empty only for a graph without tables):
  // row-major [source * num_tables + target]. dist_ counts joins
  // (kUnreachable when disconnected); parent_edge_ is the edge that
  // discovered `target` in the BFS from `source`.
  static constexpr uint32_t kUnreachable = UINT32_MAX;
  std::vector<uint32_t> dist_;
  std::vector<EdgeId> parent_edge_;
};

}  // namespace soda

#endif  // SODA_CORE_JOIN_GRAPH_H_
