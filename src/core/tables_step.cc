#include "core/tables_step.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <set>
#include <utility>

#include "common/metrics.h"
#include "core/closure.h"
#include "graph/vocab.h"

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

// Maximum depth of the metadata-graph traversal from one entry point.
constexpr size_t kMaxTraversalDepth = 8;

}  // namespace

void TablesStep::Traverse(NodeId start, TraverseClosure* out) const {
  const MetadataGraph& graph = *matcher_->graph();
  const TableCatalog& catalog = join_graph_->catalog();
  std::vector<TableId>* tables = &out->tables;
  out->column = ResolvePhysicalColumn(graph, start);
  if (out->column.has_value()) catalog.Resolve(&*out->column);
  // Every physical table is interned at Build, so a name the catalog
  // lacks belongs to no table node.
  auto add_table = [&](const std::string& name) {
    TableId id = catalog.Find(name);
    if (id != kInvalidTableId) AppendUnique(tables, id);
    return id;
  };

  std::set<NodeId> visited;
  std::deque<std::pair<NodeId, size_t>> queue;  // (node, depth)
  queue.emplace_back(start, 0);
  visited.insert(start);

  while (!queue.empty()) {
    auto [node, depth] = queue.front();
    queue.pop_front();

    // Test the Table pattern: collect the table, then its inheritance
    // parents ("we need to collect the table name of the inheritance
    // parent because this table is needed to produce correct SQL
    // statements"), which the JoinGraph read off the Inheritance-Child
    // pattern at Build.
    if (matcher_->Matches(patterns::kTable, node)) {
      auto name = TableNameOf(graph, node);
      TableId id = name.has_value() ? add_table(*name) : kInvalidTableId;
      if (id != kInvalidTableId) {
        for (TableId parent : join_graph_->parents(id)) {
          AppendUnique(tables, parent);
        }
      }
    }

    // Test the Column pattern: collect the owning table.
    if (matcher_->Matches(patterns::kColumn, node)) {
      auto column = ColumnRefOf(graph, node);
      if (column.has_value()) add_table(column->table);
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
          catalog.Resolve(&filter.column);
          filter.op = m.text("op");
          filter.value = m.text("v");
          out->filters.push_back(std::move(filter));
          add_table(column->table);
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
        catalog.Resolve(&aggregation.column);
        if (*func_text == "sum") aggregation.func = AggFunc::kSum;
        if (*func_text == "count") aggregation.func = AggFunc::kCount;
        if (*func_text == "avg") aggregation.func = AggFunc::kAvg;
        if (*func_text == "min") aggregation.func = AggFunc::kMin;
        if (*func_text == "max") aggregation.func = AggFunc::kMax;
        out->aggregations.push_back(std::move(aggregation));
        add_table(column->table);
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

Result<TablesOutput> TablesStep::Run(const std::vector<EntryPoint>& entries,
                                     MetricsSink* metrics) const {
  // Step-3 lists hold a handful of ids: one allocation each up front
  // instead of one per doubling.
  constexpr size_t kIdsReserved = 16;
  TablesOutput out;
  out.tables_per_entry.reserve(entries.size());
  out.entry_columns.reserve(entries.size());
  out.tables.reserve(kIdsReserved);
  out.joins.reserve(kIdsReserved);
  uint64_t traverse_hits = 0;
  uint64_t traverse_misses = 0;
  uint64_t path_lookups = 0;

  // ---- Part 1: tables per entry point -----------------------------------
  for (const EntryPoint& entry : entries) {
    std::vector<TableId> tables;
    std::optional<PhysicalColumnRef> column;
    if (entry.kind == EntryPoint::Kind::kBaseData) {
      const TableId table = join_graph_->catalog().IdOf(entry.table);
      if (table == kInvalidTableId) {
        return Status::NotFound("base-data table '" + entry.table_name() +
                                "' is no physical table of the metadata");
      }
      // Base-data hits on inheritance children still need the parent.
      tables.push_back(table);
      for (TableId parent : join_graph_->parents(table)) {
        AppendUnique(&tables, parent);
      }
      column = PhysicalColumnRef{entry.table_name(), entry.column_name(), table,
                                 static_cast<int32_t>(entry.column)};
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
        column = cached->column;
        ++(hit ? traverse_hits : traverse_misses);
      }
    }
    out.entry_columns.push_back(column);
    out.tables_per_entry.push_back(std::move(tables));
  }

  // ---- Part 2: joins on direct paths between entry points ---------------
  for (const auto& tables : out.tables_per_entry) {
    for (TableId table : tables) AppendUnique(&out.tables, table);
  }

  std::vector<EdgeId> path;
  std::vector<TableId> path_tables;
  path.reserve(kIdsReserved);
  path_tables.reserve(kIdsReserved);
  // Adds one direct path between two table sets; false when none exists.
  auto connect = [&](std::span<const TableId> from_set,
                     std::span<const TableId> to_set) {
    path.clear();
    path_tables.clear();
    ++path_lookups;
    if (!join_graph_->DirectPath(from_set, to_set, &path, &path_tables)) {
      return false;
    }
    for (EdgeId edge : path) AppendUnique(&out.joins, edge);
    for (TableId table : path_tables) AppendUnique(&out.tables, table);
    return true;
  };

  if (config_->direct_path_only) {
    for (size_t i = 0; i < out.tables_per_entry.size(); ++i) {
      for (size_t j = i + 1; j < out.tables_per_entry.size(); ++j) {
        if (out.tables_per_entry[i].empty() ||
            out.tables_per_entry[j].empty()) {
          continue;
        }
        if (!connect(out.tables_per_entry[i], out.tables_per_entry[j])) {
          out.fully_connected = false;
        }
      }
    }
  } else {
    // Ablation: keep every join condition attached to a collected table
    // (what Figure 9 warns against — "attached" joins blow up results).
    const size_t collected = out.tables.size();
    for (size_t t = 0; t < collected; ++t) {
      for (EdgeId edge : join_graph_->EdgesOf(out.tables[t])) {
        if (join_graph_->edge(edge).ignored) continue;
        AppendUnique(&out.joins, edge);
        const auto& [from, to] = join_graph_->ends(edge);
        AppendUnique(&out.tables, from);
        AppendUnique(&out.tables, to);
      }
    }
  }

  // Within one entry-point group, sibling tables still need connecting
  // (e.g. a table plus its inheritance parent). Use direct paths between
  // every pair of tables inside a group.
  for (const auto& group : out.tables_per_entry) {
    for (size_t a = 0; a < group.size(); ++a) {
      for (size_t b = a + 1; b < group.size(); ++b) {
        connect({&group[a], 1}, {&group[b], 1});
      }
    }
  }

  // ---- Part 3: bridge tables between entry points ------------------------
  std::vector<TableId>& entry_tables = path_tables;  // reused as scratch
  entry_tables.clear();
  for (const auto& group : out.tables_per_entry) {
    for (TableId table : group) AppendUnique(&entry_tables, table);
  }
  for (const BridgeInfo& bridge : join_graph_->bridges()) {
    // "If we find a bridge table between two of our entry points, we
    // use it to add additional join conditions." This also fires for
    // bridges between inheritance siblings that are both entry tables —
    // the war story behind the low precision of paper queries Q5.0/Q9.0.
    TableId left = join_graph_->ends(bridge.left).second;
    TableId right = join_graph_->ends(bridge.right).second;
    if (left != right && ContainsId(entry_tables, left) &&
        ContainsId(entry_tables, right)) {
      AppendUnique(&out.tables, bridge.table);
      AppendUnique(&out.joins, bridge.left);
      AppendUnique(&out.joins, bridge.right);
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
