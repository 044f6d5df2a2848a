#include "core/join_graph.h"

#include <algorithm>
#include <deque>
#include <utility>

#include "graph/vocab.h"

namespace soda {

namespace {

std::string RefKey(const PhysicalColumnRef& ref) {
  return ref.table + '\0' + ref.column;
}

// Both orientations of a join condition get the same key.
std::string UnorderedKey(const JoinEdge& edge) {
  std::string a = RefKey(edge.from);
  std::string b = RefKey(edge.to);
  if (b < a) std::swap(a, b);
  return a + '\1' + b;
}

}  // namespace

void JoinGraph::Bind(const Database& db) {
  catalog_.Bind(db);
  for (EdgeId e = 0; e < edges_.size(); ++e) {
    const auto& [from, to] = edge_ends_[e];
    for (auto [ref, id] : {std::pair{&edges_[e].from, from},
                           std::pair{&edges_[e].to, to}}) {
      const Table* table = catalog_.table(id);
      if (table == nullptr) continue;
      ref->table_id = id;
      ref->index = table->ColumnIndex(ref->column);
    }
  }
}

void JoinGraph::AddEdge(JoinEdge edge,
                        std::unordered_map<std::string, EdgeId>* seen) {
  // Deduplicate (both orientations describe the same condition).
  EdgeId id = static_cast<EdgeId>(edges_.size());
  if (!seen->emplace(UnorderedKey(edge), id).second) return;
  TableId from_id = catalog_.Intern(edge.from.table);
  TableId to_id = catalog_.Intern(edge.to.table);
  if (adjacency_.size() < catalog_.size()) adjacency_.resize(catalog_.size());
  // Registered on both endpoints (twice on the same list for a self
  // join), in insertion order — the order every path search iterates.
  adjacency_[from_id].push_back(id);
  adjacency_[to_id].push_back(id);
  edge_ends_.emplace_back(from_id, to_id);
  edges_.push_back(std::move(edge));
}

Status JoinGraph::Build(const PatternMatcher& matcher) {
  const MetadataGraph& graph = *matcher.graph();
  std::unordered_map<std::string, EdgeId> seen_edges;

  // Every physical table, whether or not a join touches it: x is the
  // table node. The node is kept for the inheritance pass below.
  SODA_ASSIGN_OR_RETURN(
      std::vector<MatchBinding> table_matches,
      matcher.MatchAll(patterns::kTable, /*max_matches=*/100000));
  std::vector<NodeId> table_nodes;
  for (const MatchBinding& m : table_matches) {
    auto name = TableNameOf(graph, m.node("x"));
    if (!name.has_value()) continue;
    TableId id = catalog_.Intern(*name);
    if (id == table_nodes.size()) table_nodes.push_back(m.node("x"));
  }
  adjacency_.resize(catalog_.size());

  // Join conditions: `from` binds the foreign-key column, `to` the
  // primary-key column and `annotated` the node an ignore annotation
  // sits on. Direct foreign_key edges bind x -> y; explicit
  // join-relationship nodes bind x (the join node), f and p.
  auto harvest_edges = [&](const char* pattern, const char* from_var,
                           const char* to_var,
                           const char* annotated) -> Status {
    SODA_ASSIGN_OR_RETURN(std::vector<MatchBinding> matches,
                          matcher.MatchAll(pattern, /*max_matches=*/100000));
    for (const MatchBinding& m : matches) {
      auto from = ColumnRefOf(graph, m.node(from_var));
      auto to = ColumnRefOf(graph, m.node(to_var));
      if (!from.has_value() || !to.has_value()) continue;
      auto annotation = graph.FirstText(m.node(annotated), vocab::kAnnotation);
      AddEdge(JoinEdge{*from, *to,
                       annotation.has_value() &&
                           *annotation == vocab::kIgnoreRelationship},
              &seen_edges);
    }
    return Status::OK();
  };
  SODA_RETURN_NOT_OK(harvest_edges(patterns::kForeignKey, "x", "y", "x"));
  SODA_RETURN_NOT_OK(
      harvest_edges(patterns::kJoinRelationship, "f", "p", "x"));

  // Bridge tables, in both foreign-key representations. A bridge's
  // foreign keys are join edges harvested above; one whose keys were not
  // (a malformed column the join patterns reject) is skipped, and so is
  // one with a key annotated ignore_relationship: the paper's Section
  // 5.3.1 adjustment takes the annotated bridge out of Step 3's bridge
  // joins as well as out of join paths.
  auto harvest_bridges = [&](const char* pattern) -> Status {
    SODA_ASSIGN_OR_RETURN(std::vector<MatchBinding> matches,
                          matcher.MatchAll(pattern, /*max_matches=*/100000));
    for (const MatchBinding& m : matches) {
      auto bridge_name = TableNameOf(graph, m.node("x"));
      auto from1 = ColumnRefOf(graph, m.node("c1"));
      auto to1 = ColumnRefOf(graph, m.node("p1"));
      auto from2 = ColumnRefOf(graph, m.node("c2"));
      auto to2 = ColumnRefOf(graph, m.node("p2"));
      if (!bridge_name || !from1 || !to1 || !from2 || !to2) continue;
      // Each unordered {left,right} pair appears twice (c1/c2 swapped);
      // keep one orientation deterministically.
      if (to1->ToString() > to2->ToString()) continue;
      auto left = seen_edges.find(UnorderedKey(JoinEdge{*from1, *to1}));
      auto right = seen_edges.find(UnorderedKey(JoinEdge{*from2, *to2}));
      TableId table = catalog_.Find(*bridge_name);
      if (left == seen_edges.end() || right == seen_edges.end() ||
          table == kInvalidTableId || edges_[left->second].ignored ||
          edges_[right->second].ignored) {
        continue;
      }
      BridgeInfo bridge{table, left->second, right->second};
      if (std::find(bridges_.begin(), bridges_.end(), bridge) ==
          bridges_.end()) {
        bridges_.push_back(bridge);
      }
    }
    return Status::OK();
  };
  SODA_RETURN_NOT_OK(harvest_bridges(patterns::kBridgeTable));
  SODA_RETURN_NOT_OK(harvest_bridges(patterns::kBridgeTableJoin));

  // Inheritance, one Inheritance-Child match per table node: y is the
  // inheritance node, p its parent table.
  parents_.resize(catalog_.size());
  siblings_.resize(catalog_.size());
  for (TableId table = 0; table < table_nodes.size(); ++table) {
    SODA_ASSIGN_OR_RETURN(
        std::vector<MatchBinding> matches,
        matcher.MatchAt(patterns::kInheritanceChild, table_nodes[table]));
    for (const MatchBinding& m : matches) {
      auto parent = TableNameOf(graph, m.node("p"));
      TableId id = parent ? catalog_.Find(*parent) : kInvalidTableId;
      if (id != kInvalidTableId) AppendUnique(&parents_[table], id);
    }
    if (matches.empty()) continue;
    for (NodeId sibling :
         graph.Targets(matches.front().node("y"), vocab::kInheritanceChild)) {
      auto name = TableNameOf(graph, sibling);
      TableId id = name ? catalog_.Find(*name) : kInvalidTableId;
      if (sibling != table_nodes[table] && id != kInvalidTableId) {
        siblings_[table].push_back(id);
      }
    }
  }

  BuildPathClosure();
  return Status::OK();
}

void JoinGraph::BuildPathClosure() {
  const size_t tables = catalog_.size();
  dist_.assign(tables * tables, kUnreachable);
  parent_edge_.assign(tables * tables, kInvalidEdgeId);
  std::deque<TableId> queue;
  for (TableId source = 0; source < tables; ++source) {
    // One BFS per source over non-ignored edges in adjacency order: this
    // single loop defines the path tie-breaking.
    uint32_t* dist = dist_.data() + source * tables;
    EdgeId* parent = parent_edge_.data() + source * tables;
    dist[source] = 0;
    queue.push_back(source);
    while (!queue.empty()) {
      TableId current = queue.front();
      queue.pop_front();
      for (EdgeId edge_id : adjacency_[current]) {
        if (edges_[edge_id].ignored) continue;
        const auto& [from_id, to_id] = edge_ends_[edge_id];
        TableId other = from_id == current ? to_id : from_id;
        if (dist[other] != kUnreachable) continue;
        dist[other] = dist[current] + 1;
        parent[other] = edge_id;
        queue.push_back(other);
      }
    }
  }
}

bool JoinGraph::DirectPath(std::span<const TableId> from_set,
                           std::span<const TableId> to_set,
                           std::vector<EdgeId>* path_edges,
                           std::vector<TableId>* path_tables) const {
  const size_t tables = catalog_.size();
  uint32_t best_dist = kUnreachable;
  TableId source = kInvalidTableId;
  TableId target = kInvalidTableId;

  // Min-scan over the precomputed distance matrix: strict improvement
  // keeps the first (source, target) pair in set order on ties, and an
  // overlap (distance 0) wins outright.
  for (TableId from : from_set) {
    const uint32_t* row = dist_.data() + static_cast<size_t>(from) * tables;
    for (TableId to : to_set) {
      if (row[to] < best_dist) {
        best_dist = row[to];
        source = from;
        target = to;
      }
    }
    if (best_dist == 0) break;
  }
  if (best_dist == kUnreachable) return false;

  // A table is joined to itself by the empty path.
  if (source == target && path_tables != nullptr) {
    path_tables->push_back(source);
  }
  // Walk the parent chain back from the target: edges are emitted
  // target-first and reversed afterwards, tables are not.
  const EdgeId* parent =
      parent_edge_.data() + static_cast<size_t>(source) * tables;
  const size_t first_edge = path_edges != nullptr ? path_edges->size() : 0;
  for (TableId cursor = target; cursor != source;) {
    EdgeId edge_id = parent[cursor];
    const auto& [from_id, to_id] = edge_ends_[edge_id];
    if (path_edges != nullptr) path_edges->push_back(edge_id);
    if (path_tables != nullptr) {
      path_tables->push_back(from_id);
      path_tables->push_back(to_id);
    }
    cursor = from_id == cursor ? to_id : from_id;
  }
  if (path_edges != nullptr) {
    std::reverse(path_edges->begin() + static_cast<long>(first_edge),
                 path_edges->end());
  }
  return true;
}

}  // namespace soda
