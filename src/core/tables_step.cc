#include "core/tables_step.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <set>
#include <utility>

#include "common/metrics.h"
#include "common/strings.h"
#include "core/closure.h"
#include "graph/vocab.h"
#include "schema/warehouse_model.h"

namespace soda {

namespace {

// Predicates the Step-3 traversal follows. These are the "downward" edges
// from business vocabulary to physical schema: classification, layer
// implementation, attribute realization, containment, and inheritance.
// Free exploration edges (related_via / rel_from / rel_to) are
// deliberately excluded — the paper's tables step maps entry points to
// *their* tables; connections between different entry points come from
// join discovery, not from wandering across relationships.
// Note: "child_of" (child table -> inheritance node) is deliberately NOT
// followed: an entry point on an inheritance child must collect its parent
// (the Inheritance-Child pattern does that at the child node) but not its
// siblings. "parent_of" IS followed so that an entry on the parent expands
// to all mutually exclusive children (paper Figure 6: the Customers entry
// point yields parties, individuals and organizations).
// "subconcept_of" (up the ontology) is also excluded: specializations must
// not inherit the full scope of their generalization ("private customers"
// would otherwise expand through "customers" to organizations too). The
// downward direction is covered by the classifies edge the ontology
// compiler adds from parent to child concept.
const char* kTraversalPredicates[] = {
    vocab::kClassifies,       vocab::kImplementedBy,
    vocab::kRealizedBy,       vocab::kAttribute,
    vocab::kColumn,           vocab::kSynonymOf,
    vocab::kFilterColumn,     vocab::kAggColumn,
    "parent_of",              vocab::kInheritanceChild,
    vocab::kInheritanceParent,
};

void PushUnique(std::vector<std::string>* vec, const std::string& value) {
  for (const auto& existing : *vec) {
    if (EqualsFolded(existing, value)) return;
  }
  vec->push_back(value);
}

void PushUniqueJoin(std::vector<JoinEdge>* joins, const JoinEdge& edge) {
  for (const auto& existing : *joins) {
    if ((existing.from == edge.from && existing.to == edge.to) ||
        (existing.from == edge.to && existing.to == edge.from)) {
      return;
    }
  }
  joins->push_back(edge);
}

// Maximum depth of the metadata-graph traversal from one entry point.
constexpr size_t kMaxTraversalDepth = 8;

}  // namespace

void TablesStep::Traverse(NodeId start, TraverseClosure* out) const {
  const MetadataGraph& graph = *matcher_->graph();
  std::vector<std::string>* tables = &out->tables;

  std::set<NodeId> visited;
  std::deque<std::pair<NodeId, size_t>> queue;  // (node, depth)
  queue.emplace_back(start, 0);
  visited.insert(start);

  while (!queue.empty()) {
    auto [node, depth] = queue.front();
    queue.pop_front();

    // Test the Table pattern: collect the table name.
    if (matcher_->Matches(patterns::kTable, node)) {
      auto name = TableNameOf(graph, node);
      if (name.has_value()) PushUnique(tables, *name);

      // Test the Inheritance-Child pattern at the table: collect the
      // parent table ("we need to collect the table name of the
      // inheritance parent because this table is needed to produce
      // correct SQL statements").
      auto inh = matcher_->MatchAt(patterns::kInheritanceChild, node);
      if (inh.ok()) {
        for (const MatchBinding& m : *inh) {
          auto parent = TableNameOf(graph, m.node("p"));
          if (parent.has_value()) PushUnique(tables, *parent);
        }
      }
    }

    // Test the Column pattern: collect the owning table.
    if (matcher_->Matches(patterns::kColumn, node)) {
      auto column = ColumnRefOf(graph, node);
      if (column.has_value()) PushUnique(tables, column->table);
    }

    // Test the Metadata-Filter pattern: harvest the stored predicate.
    {
      auto filter_matches = matcher_->MatchAt(patterns::kMetadataFilter, node);
      if (filter_matches.ok()) {
        for (const MatchBinding& m : *filter_matches) {
          auto column = ColumnRefOf(graph, m.node("c"));
          if (!column.has_value()) continue;
          DiscoveredFilter filter;
          filter.column = *column;
          filter.op = m.text("op");
          filter.value = m.text("v");
          out->filters.push_back(std::move(filter));
          PushUnique(tables, column->table);
        }
      }
    }

    // Metadata-defined aggregations ("trading volume").
    if (graph.HasType(node, vocab::kMetadataAggregation)) {
      NodeId column_node = graph.FirstTarget(node, vocab::kAggColumn);
      auto column = ColumnRefOf(graph, column_node);
      auto func_text = graph.FirstText(node, vocab::kAggFunc);
      if (column.has_value() && func_text.has_value()) {
        DiscoveredAggregation aggregation;
        aggregation.column = *column;
        if (*func_text == "sum") aggregation.func = AggFunc::kSum;
        if (*func_text == "count") aggregation.func = AggFunc::kCount;
        if (*func_text == "avg") aggregation.func = AggFunc::kAvg;
        if (*func_text == "min") aggregation.func = AggFunc::kMin;
        if (*func_text == "max") aggregation.func = AggFunc::kMax;
        out->aggregations.push_back(std::move(aggregation));
        PushUnique(tables, column->table);
      }
    }

    if (depth >= kMaxTraversalDepth) continue;
    for (const char* predicate : kTraversalPredicates) {
      for (NodeId next : graph.Targets(node, predicate)) {
        if (visited.insert(next).second) {
          queue.emplace_back(next, depth + 1);
        }
      }
    }
  }
}

void TablesStep::PruneUnconstrainedSiblings(
    TablesOutput* tables,
    const std::vector<PhysicalColumnRef>& constrained_columns,
    const std::vector<std::string>* protected_tables) const {
  const MetadataGraph& graph = *matcher_->graph();

  auto in_tables = [&](const std::string& name) {
    for (const auto& t : tables->tables) {
      if (EqualsFolded(t, name)) return true;
    }
    return false;
  };

  // Candidate children: tables that match the Inheritance-Child pattern
  // and have a sibling child among the tables.
  std::vector<std::string> droppable_candidates;
  for (const std::string& table : tables->tables) {
    NodeId node = graph.FindNode(TableUri(table));
    if (node == kInvalidNode) continue;
    auto matches = matcher_->MatchAt(patterns::kInheritanceChild, node);
    if (!matches.ok() || matches->empty()) continue;
    const MatchBinding& m = matches->front();
    bool sibling_present = false;
    for (NodeId sibling :
         graph.Targets(m.node("y"), vocab::kInheritanceChild)) {
      if (sibling == node) continue;
      auto sibling_name = TableNameOf(graph, sibling);
      if (sibling_name.has_value() && in_tables(*sibling_name)) {
        sibling_present = true;
        break;
      }
    }
    if (sibling_present) droppable_candidates.push_back(table);
  }

  for (const std::string& child : droppable_candidates) {
    bool constrained = false;
    for (const auto& column : constrained_columns) {
      if (EqualsFolded(column.table, child)) {
        constrained = true;
        break;
      }
    }
    if (!constrained && protected_tables != nullptr) {
      for (const std::string& protected_table : *protected_tables) {
        if (EqualsFolded(protected_table, child)) {
          constrained = true;
          break;
        }
      }
    }
    if (constrained) continue;
    // Droppable only when every join touching the child leads to one and
    // the same neighbor (a pure leaf of the join graph).
    std::string neighbor;
    bool droppable = true;
    std::vector<size_t> touching;
    for (size_t j = 0; j < tables->joins.size(); ++j) {
      const JoinEdge& edge = tables->joins[j];
      bool from_child = EqualsFolded(edge.from.table, child);
      bool to_child = EqualsFolded(edge.to.table, child);
      if (!from_child && !to_child) continue;
      const std::string& other = from_child ? edge.to.table : edge.from.table;
      if (neighbor.empty()) {
        neighbor = other;
      } else if (!EqualsFolded(neighbor, other)) {
        droppable = false;
        break;
      }
      touching.push_back(j);
    }
    if (!droppable || touching.empty()) continue;
    for (auto it = touching.rbegin(); it != touching.rend(); ++it) {
      tables->joins.erase(tables->joins.begin() + static_cast<long>(*it));
    }
    for (auto it = tables->tables.begin(); it != tables->tables.end(); ++it) {
      if (EqualsFolded(*it, child)) {
        tables->tables.erase(it);
        break;
      }
    }
  }
}

const TraverseClosure* TablesStep::ClosureFor(NodeId start, bool* hit) const {
  *hit = false;
  if (start < 0 || static_cast<size_t>(start) >= closure_->num_nodes()) {
    return nullptr;
  }
  if (const TraverseClosure* cached = closure_->Find(start)) {
    *hit = true;
    return cached;
  }
  auto fresh = std::make_unique<TraverseClosure>();
  Traverse(start, fresh.get());
  return closure_->Publish(start, std::move(fresh));
}

std::vector<std::string> TablesStep::TablesFromNode(NodeId node) const {
  bool hit = false;
  const TraverseClosure* cached = ClosureFor(node, &hit);
  return cached != nullptr ? cached->tables : std::vector<std::string>();
}

Result<TablesOutput> TablesStep::Run(const std::vector<EntryPoint>& entries,
                                     MetricsSink* metrics) const {
  const MetadataGraph& graph = *matcher_->graph();
  TablesOutput out;
  uint64_t traverse_hits = 0;
  uint64_t traverse_misses = 0;
  uint64_t path_lookups = 0;

  // ---- Part 1: tables per entry point -----------------------------------
  for (const EntryPoint& entry : entries) {
    std::vector<std::string> tables;
    std::optional<PhysicalColumnRef> column;
    if (entry.kind == EntryPoint::Kind::kBaseData) {
      tables.push_back(entry.table);
      column = PhysicalColumnRef{entry.table, entry.column};
      // Base-data hits on inheritance children still need the parent; the
      // Inheritance-Child pattern fires on the table node.
      NodeId table_node = graph.FindNode(TableUri(entry.table));
      if (table_node != kInvalidNode) {
        auto inh = matcher_->MatchAt(patterns::kInheritanceChild, table_node);
        if (inh.ok()) {
          for (const MatchBinding& m : *inh) {
            auto parent = TableNameOf(graph, m.node("p"));
            if (parent.has_value()) PushUnique(&tables, *parent);
          }
        }
      }
    } else {
      bool hit = false;
      if (const TraverseClosure* cached = ClosureFor(entry.node, &hit)) {
        // Splice the memoized traversal in.
        tables = cached->tables;
        out.filters.insert(out.filters.end(), cached->filters.begin(),
                           cached->filters.end());
        out.aggregations.insert(out.aggregations.end(),
                                cached->aggregations.begin(),
                                cached->aggregations.end());
        ++(hit ? traverse_hits : traverse_misses);
      }
      column = ResolvePhysicalColumn(graph, entry.node);
    }
    out.entry_columns.push_back(column);
    out.tables_per_entry.push_back(std::move(tables));
  }

  // ---- Part 2: joins on direct paths between entry points ---------------
  for (const auto& tables : out.tables_per_entry) {
    for (const auto& table : tables) PushUnique(&out.tables, table);
  }

  if (config_->direct_path_only) {
    for (size_t i = 0; i < out.tables_per_entry.size(); ++i) {
      for (size_t j = i + 1; j < out.tables_per_entry.size(); ++j) {
        if (out.tables_per_entry[i].empty() ||
            out.tables_per_entry[j].empty()) {
          continue;
        }
        std::vector<JoinEdge> path;
        std::vector<std::string> path_tables;
        ++path_lookups;
        if (join_graph_->DirectPath(out.tables_per_entry[i],
                                    out.tables_per_entry[j], &path,
                                    &path_tables)) {
          for (const JoinEdge& edge : path) PushUniqueJoin(&out.joins, edge);
          for (const auto& table : path_tables) {
            PushUnique(&out.tables, table);
          }
        } else {
          out.fully_connected = false;
        }
      }
    }
  } else {
    // Ablation: keep every join condition attached to a collected table
    // (what Figure 9 warns against — "attached" joins blow up results).
    for (const auto& table : out.tables) {
      for (const JoinEdge& edge : join_graph_->EdgesOf(table)) {
        if (edge.ignored) continue;
        PushUniqueJoin(&out.joins, edge);
        PushUnique(&out.tables, edge.from.table);
        PushUnique(&out.tables, edge.to.table);
      }
    }
  }

  // Within one entry-point group, sibling tables still need connecting
  // (e.g. a table plus its inheritance parent). Use direct paths between
  // every pair of tables inside a group.
  for (const auto& group : out.tables_per_entry) {
    for (size_t a = 0; a < group.size(); ++a) {
      for (size_t b = a + 1; b < group.size(); ++b) {
        std::vector<JoinEdge> path;
        std::vector<std::string> path_tables;
        ++path_lookups;
        if (join_graph_->DirectPath({group[a]}, {group[b]}, &path,
                                    &path_tables)) {
          for (const JoinEdge& edge : path) PushUniqueJoin(&out.joins, edge);
          for (const auto& table : path_tables) {
            PushUnique(&out.tables, table);
          }
        }
      }
    }
  }

  // ---- Part 3: bridge tables between entry points ------------------------
  std::vector<std::string> entry_tables;
  for (const auto& group : out.tables_per_entry) {
    for (const auto& table : group) PushUnique(&entry_tables, table);
  }
  auto in_entry = [&](const std::string& table) {
    for (const auto& t : entry_tables) {
      if (EqualsFolded(t, table)) return true;
    }
    return false;
  };
  for (const BridgeInfo& bridge : join_graph_->bridges()) {
    if (bridge.left.ignored || bridge.right.ignored) continue;
    // "If we find a bridge table between two of our entry points, we
    // use it to add additional join conditions." This also fires for
    // bridges between inheritance siblings that are both entry tables —
    // the war story behind the low precision of paper queries Q5.0/Q9.0.
    if (in_entry(bridge.left.to.table) && in_entry(bridge.right.to.table) &&
        !EqualsFolded(bridge.left.to.table, bridge.right.to.table)) {
      PushUnique(&out.tables, bridge.bridge_table);
      PushUniqueJoin(&out.joins, bridge.left);
      PushUniqueJoin(&out.joins, bridge.right);
    }
  }

  if (metrics != nullptr) {
    if (traverse_hits > 0) {
      metrics->IncrementCounter("closure.traverse_hits", traverse_hits);
    }
    if (traverse_misses > 0) {
      metrics->IncrementCounter("closure.traverse_misses", traverse_misses);
    }
    if (path_lookups > 0) {
      metrics->IncrementCounter("closure.path_lookups", path_lookups);
    }
  }
  return out;
}

}  // namespace soda
