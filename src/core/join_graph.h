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
// The same immutability argument is applied one level deeper: tables are
// interned into dense TableIds (TableCatalog), adjacency is a flat
// vector-of-EdgeId-vectors instead of a string map, and — since the
// warehouse has only a few hundred tables (paper: 472) — all-pairs
// shortest join paths are precomputed at Build time (one BFS per table,
// distance + parent-edge matrices; O(T·E) build, O(path) reconstruct).
// DirectPath then needs no per-query BFS at all: it min-scans the
// distance matrix over the (source, target) pairs and walks the stored
// parent chain. The string-keyed API is preserved as a thin shim.
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
#include <string>
#include <unordered_set>
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

/// A bridge table with the two foreign keys that make it one.
struct BridgeInfo {
  std::string bridge_table;
  JoinEdge left;   // bridge -> first entity
  JoinEdge right;  // bridge -> second entity
};

class JoinGraph {
 public:
  /// Harvests all join conditions and bridge tables from the graph using
  /// the Foreign-Key, Join-Relationship and Bridge-Table patterns, then
  /// builds the all-pairs shortest-path closure DirectPath reads.
  Status Build(const PatternMatcher& matcher);

  /// All join edges touching `table`.
  const std::vector<JoinEdge>& EdgesOf(const std::string& table) const;

  /// Shortest join path (fewest joins) between any table in `from_set` and
  /// any table in `to_set`. Ignored edges are not used. Returns the edges
  /// of the path and appends tables on the path (including endpoints) to
  /// `path_tables`. Empty result + false when no path exists.
  ///
  /// Deterministic pair choice: among all (from, to) pairs the one with
  /// the fewest joins wins, ties broken by from_set order then to_set
  /// order; the path itself is the BFS tree chain of the winning source
  /// (fixed edge-insertion adjacency order), read from the precomputed
  /// APSP matrices.
  bool DirectPath(const std::vector<std::string>& from_set,
                  const std::vector<std::string>& to_set,
                  std::vector<JoinEdge>* path_edges,
                  std::vector<std::string>* path_tables) const;

  const std::vector<BridgeInfo>& bridges() const { return bridges_; }
  const std::vector<JoinEdge>& all_edges() const { return edges_; }
  size_t num_edges() const { return edges_.size(); }

  /// The table interner populated by Build (folded name -> dense id).
  const TableCatalog& catalog() const { return catalog_; }
  size_t num_tables() const { return catalog_.size(); }

 private:
  /// BFS from `source` over non-ignored edges in adjacency order,
  /// filling distances and the parent edge of every reached table.
  /// This single routine defines the path tie-breaking; the closure
  /// build runs it once per table.
  void BfsFrom(TableId source, std::vector<uint32_t>* dist,
               std::vector<EdgeId>* parent) const;

  /// Walks the parent chain target -> source, appending output exactly
  /// like the original backward walk did.
  void EmitPath(const EdgeId* parent, TableId source, TableId target,
                std::vector<JoinEdge>* path_edges,
                std::vector<std::string>* path_tables) const;

  /// Appends `edge` unless `seen` already holds its unordered key.
  void AddEdge(JoinEdge edge, std::unordered_set<std::string>* seen);
  void BuildPathClosure();

  std::vector<JoinEdge> edges_;
  std::vector<std::pair<TableId, TableId>> edge_ends_;  // per EdgeId
  TableCatalog catalog_;
  std::vector<std::vector<EdgeId>> adjacency_;       // per TableId
  std::vector<std::vector<JoinEdge>> edges_of_;      // EdgesOf() shim
  std::vector<BridgeInfo> bridges_;

  // APSP closure (empty only for a graph without tables):
  // row-major [source * num_tables + target]. dist_ counts joins
  // (kUnreachable when disconnected); parent_edge_ is the edge that
  // discovered `target` in BfsFrom(source).
  static constexpr uint32_t kUnreachable = UINT32_MAX;
  std::vector<uint32_t> dist_;
  std::vector<EdgeId> parent_edge_;

  static const std::vector<JoinEdge> kEmpty;
};

}  // namespace soda

#endif  // SODA_CORE_JOIN_GRAPH_H_
