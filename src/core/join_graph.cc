#include "core/join_graph.h"

#include <algorithm>
#include <deque>
#include <unordered_set>
#include <utility>

#include "common/strings.h"
#include "graph/vocab.h"

namespace soda {

const std::vector<JoinEdge> JoinGraph::kEmpty;

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

void JoinGraph::AddEdge(JoinEdge edge,
                        std::unordered_set<std::string>* seen) {
  // Deduplicate (both orientations describe the same condition).
  if (!seen->insert(UnorderedKey(edge)).second) return;
  EdgeId id = static_cast<EdgeId>(edges_.size());
  TableId from_id = catalog_.Intern(edge.from.table);
  TableId to_id = catalog_.Intern(edge.to.table);
  size_t tables = catalog_.size();
  if (adjacency_.size() < tables) {
    adjacency_.resize(tables);
    edges_of_.resize(tables);
  }
  // Registered on both endpoints (twice on the same list for a self
  // join), in insertion order — the order every path search iterates.
  adjacency_[from_id].push_back(id);
  adjacency_[to_id].push_back(id);
  edges_of_[from_id].push_back(edge);
  edges_of_[to_id].push_back(edge);
  edge_ends_.emplace_back(from_id, to_id);
  edges_.push_back(std::move(edge));
}

Status JoinGraph::Build(const PatternMatcher& matcher) {
  const MetadataGraph& graph = *matcher.graph();
  std::unordered_set<std::string> seen_edges;
  std::unordered_set<std::string> seen_bridges;

  // Direct foreign_key edges: pattern "foreign_key" binds x (fk column)
  // and y (pk column).
  SODA_ASSIGN_OR_RETURN(
      std::vector<MatchBinding> fk_matches,
      matcher.MatchAll(patterns::kForeignKey, /*max_matches=*/100000));
  for (const MatchBinding& m : fk_matches) {
    auto from = ColumnRefOf(graph, m.node("x"));
    auto to = ColumnRefOf(graph, m.node("y"));
    if (!from.has_value() || !to.has_value()) continue;
    JoinEdge edge{*from, *to, /*ignored=*/false};
    auto annotation = graph.FirstText(m.node("x"), vocab::kAnnotation);
    edge.ignored = annotation.has_value() &&
                   *annotation == vocab::kIgnoreRelationship;
    AddEdge(std::move(edge), &seen_edges);
  }

  // Explicit join-relationship nodes: x join node, f fk column, p pk col.
  SODA_ASSIGN_OR_RETURN(
      std::vector<MatchBinding> join_matches,
      matcher.MatchAll(patterns::kJoinRelationship, /*max_matches=*/100000));
  for (const MatchBinding& m : join_matches) {
    auto from = ColumnRefOf(graph, m.node("f"));
    auto to = ColumnRefOf(graph, m.node("p"));
    if (!from.has_value() || !to.has_value()) continue;
    JoinEdge edge{*from, *to, /*ignored=*/false};
    auto annotation = graph.FirstText(m.node("x"), vocab::kAnnotation);
    edge.ignored = annotation.has_value() &&
                   *annotation == vocab::kIgnoreRelationship;
    AddEdge(std::move(edge), &seen_edges);
  }

  // Bridge tables, in both foreign-key representations.
  auto harvest_bridges = [&](const char* pattern, const char* c1,
                             const char* p1, const char* c2,
                             const char* p2) -> Status {
    SODA_ASSIGN_OR_RETURN(std::vector<MatchBinding> matches,
                          matcher.MatchAll(pattern, /*max_matches=*/100000));
    for (const MatchBinding& m : matches) {
      auto bridge_name = TableNameOf(graph, m.node("x"));
      auto from1 = ColumnRefOf(graph, m.node(c1));
      auto to1 = ColumnRefOf(graph, m.node(p1));
      auto from2 = ColumnRefOf(graph, m.node(c2));
      auto to2 = ColumnRefOf(graph, m.node(p2));
      if (!bridge_name || !from1 || !to1 || !from2 || !to2) continue;
      // Each unordered {left,right} pair appears twice (c1/c2 swapped);
      // keep one orientation deterministically.
      if (to1->ToString() > to2->ToString()) continue;
      BridgeInfo info;
      info.bridge_table = *bridge_name;
      info.left = JoinEdge{*from1, *to1, false};
      info.right = JoinEdge{*from2, *to2, false};
      std::string key = info.bridge_table + '\1' + RefKey(info.left.from) +
                        '\1' + RefKey(info.left.to) + '\1' +
                        RefKey(info.right.from) + '\1' +
                        RefKey(info.right.to);
      if (seen_bridges.insert(std::move(key)).second) {
        bridges_.push_back(std::move(info));
      }
    }
    return Status::OK();
  };
  SODA_RETURN_NOT_OK(harvest_bridges(patterns::kBridgeTable, "c1", "p1",
                                     "c2", "p2"));
  SODA_RETURN_NOT_OK(harvest_bridges(patterns::kBridgeTableJoin, "c1", "p1",
                                     "c2", "p2"));

  BuildPathClosure();
  return Status::OK();
}

const std::vector<JoinEdge>& JoinGraph::EdgesOf(
    const std::string& table) const {
  TableId id = catalog_.Find(table);
  return id == kInvalidTableId ? kEmpty : edges_of_[id];
}

void JoinGraph::BfsFrom(TableId source, std::vector<uint32_t>* dist,
                        std::vector<EdgeId>* parent) const {
  dist->assign(catalog_.size(), kUnreachable);
  parent->assign(catalog_.size(), kInvalidEdgeId);
  (*dist)[source] = 0;
  std::deque<TableId> queue;
  queue.push_back(source);
  while (!queue.empty()) {
    TableId current = queue.front();
    queue.pop_front();
    for (EdgeId edge_id : adjacency_[current]) {
      if (edges_[edge_id].ignored) continue;
      const auto& [from_id, to_id] = edge_ends_[edge_id];
      TableId other = from_id == current ? to_id : from_id;
      if ((*dist)[other] != kUnreachable) continue;
      (*dist)[other] = (*dist)[current] + 1;
      (*parent)[other] = edge_id;
      queue.push_back(other);
    }
  }
}

void JoinGraph::BuildPathClosure() {
  size_t tables = catalog_.size();
  if (tables == 0) return;
  dist_.assign(tables * tables, kUnreachable);
  parent_edge_.assign(tables * tables, kInvalidEdgeId);
  std::vector<uint32_t> dist;
  std::vector<EdgeId> parent;
  for (TableId source = 0; source < tables; ++source) {
    BfsFrom(source, &dist, &parent);
    std::copy(dist.begin(), dist.end(), dist_.begin() + source * tables);
    std::copy(parent.begin(), parent.end(),
              parent_edge_.begin() + source * tables);
  }
}

void JoinGraph::EmitPath(const EdgeId* parent, TableId source, TableId target,
                         std::vector<JoinEdge>* path_edges,
                         std::vector<std::string>* path_tables) const {
  // Walk back to the source, emitting in the backward order the original
  // BFS walk produced (edges are reversed afterwards, tables are not).
  TableId cursor = target;
  while (cursor != source) {
    EdgeId edge_id = parent[cursor];
    const JoinEdge& edge = edges_[edge_id];
    if (path_edges != nullptr) path_edges->push_back(edge);
    if (path_tables != nullptr) {
      path_tables->push_back(edge.from.table);
      path_tables->push_back(edge.to.table);
    }
    const auto& [from_id, to_id] = edge_ends_[edge_id];
    cursor = from_id == cursor ? to_id : from_id;
  }
  if (path_edges != nullptr) {
    std::reverse(path_edges->begin(), path_edges->end());
  }
}

bool JoinGraph::DirectPath(const std::vector<std::string>& from_set,
                           const std::vector<std::string>& to_set,
                           std::vector<JoinEdge>* path_edges,
                           std::vector<std::string>* path_tables) const {
  // Overlapping sets: already connected, nothing to add. Compared on
  // folded names (not ids) so tables the catalog never saw still match.
  std::vector<std::string> target_keys;
  target_keys.reserve(to_set.size());
  for (const auto& t : to_set) target_keys.push_back(FoldForMatch(t));
  for (const auto& t : from_set) {
    std::string key = FoldForMatch(t);
    for (const auto& target : target_keys) {
      if (key == target) {
        if (path_tables != nullptr) path_tables->push_back(t);
        return true;
      }
    }
  }

  const size_t tables = catalog_.size();
  uint32_t best_dist = kUnreachable;
  TableId best_source = kInvalidTableId;
  TableId best_target = kInvalidTableId;

  // Min-scan over the precomputed distance matrix: strict improvement
  // keeps the first (source, target) pair in set order on ties.
  for (const auto& from : from_set) {
    TableId source = catalog_.Find(from);
    if (source == kInvalidTableId) continue;
    const uint32_t* row = dist_.data() + source * tables;
    for (const auto& to : to_set) {
      TableId target = catalog_.Find(to);
      if (target == kInvalidTableId) continue;
      if (row[target] < best_dist) {
        best_dist = row[target];
        best_source = source;
        best_target = target;
      }
    }
  }
  if (best_dist == kUnreachable) return false;
  EmitPath(parent_edge_.data() + best_source * tables, best_source,
           best_target, path_edges, path_tables);
  return true;
}

}  // namespace soda
