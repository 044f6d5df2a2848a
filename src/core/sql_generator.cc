#include "core/sql_generator.h"

#include <algorithm>

#include "common/metrics.h"
#include "common/strings.h"
#include "graph/vocab.h"

namespace soda {

namespace {

// Same rendered SQL: structural equality plus a literal's type (Value
// equality holds across numeric types, 3 == 3.0; their SQL differs).
bool SameExpr(const Expr& a, const Expr& b) {
  return a == b && (a.kind != Expr::Kind::kLiteral ||
                    a.literal.type() == b.literal.type());
}

bool SameConjunct(const Predicate& a, const Predicate& b) {
  if (a.op != b.op) return false;
  if (SameExpr(a.lhs, b.lhs) && SameExpr(a.rhs, b.rhs)) return true;
  return a.op == CompareOp::kEq && SameExpr(a.lhs, b.rhs) &&
         SameExpr(a.rhs, b.lhs);
}

}  // namespace

bool SameStatement(const StatementKey& key_a, const SelectStatement& a,
                   const StatementKey& key_b, const SelectStatement& b) {
  if (key_a.tables != key_b.tables || key_a.joins != key_b.joins ||
      a.where.size() != b.where.size() || a.items.size() != b.items.size() ||
      a.group_by != b.group_by || a.limit != b.limit) {
    return false;
  }
  // Generate puts the key's joins first in WHERE and the filters after.
  auto filters_a = a.where.begin() + key_a.joins.size();
  auto filters_b = b.where.begin() + key_b.joins.size();
  return std::is_permutation(filters_a, a.where.end(), filters_b,
                             SameConjunct) &&
         std::is_permutation(a.items.begin(), a.items.end(), b.items.begin(),
                             [](const SelectItem& x, const SelectItem& y) {
                               return x.alias == y.alias &&
                                      SameExpr(x.expr, y.expr);
                             });
}

Result<SqlGenerator::ResolvedArgument> SqlGenerator::ResolveArgument(
    const std::string& phrase) const {
  const MetadataGraph& graph = *matcher_->graph();
  std::vector<EntryPoint> candidates = classification_->Lookup(phrase);
  if (candidates.empty()) {
    return Status::NotFound("operator argument '" + phrase +
                            "' matches nothing in the metadata");
  }
  // Prefer the candidate that resolves to a column; weight by layer so
  // domain-ontology terms win over raw physical names.
  std::stable_sort(candidates.begin(), candidates.end(),
                   [&](const EntryPoint& a, const EntryPoint& b) {
                     return LayerWeight(a.layer) > LayerWeight(b.layer);
                   });
  for (const EntryPoint& candidate : candidates) {
    if (candidate.kind != EntryPoint::Kind::kMetadataNode) continue;
    auto column = ResolvePhysicalColumn(graph, candidate.node);
    if (column.has_value()) {
      join_graph_->catalog().Resolve(&*column);
      ResolvedArgument out;
      out.column = column;
      return out;
    }
  }
  // Entity arguments: count(transactions). Resolve to the entity's first
  // physical table.
  for (const EntryPoint& candidate : candidates) {
    if (candidate.kind != EntryPoint::Kind::kMetadataNode) continue;
    // Walk down: entity -> (implemented_by)* -> table.
    NodeId node = candidate.node;
    for (int hops = 0; hops < 4 && node != kInvalidNode; ++hops) {
      if (graph.HasType(node, vocab::kPhysicalTable)) {
        auto name = TableNameOf(graph, node);
        if (name.has_value()) {
          ResolvedArgument out;
          out.table = name;
          return out;
        }
      }
      node = graph.FirstTarget(node, vocab::kImplementedBy);
    }
  }
  return Status::NotFound("operator argument '" + phrase +
                          "' does not resolve to a column or table");
}

void SqlGenerator::EnsureTable(TableId table, std::vector<TableId>* tables,
                               std::vector<EdgeId>* joins,
                               uint64_t* path_lookups) const {
  if (ContainsId(*tables, table)) return;
  // Connect the new table to the existing FROM set via a direct path.
  if (!tables->empty()) {
    ++*path_lookups;
    std::vector<EdgeId> path;
    std::vector<TableId> path_tables;
    if (join_graph_->DirectPath(*tables, {&table, 1}, &path, &path_tables)) {
      for (EdgeId edge : path) AppendUnique(joins, edge);
      for (TableId t : path_tables) AppendUnique(tables, t);
    }
  }
  AppendUnique(tables, table);
}

void SqlGenerator::PruneUnconstrainedSiblings(
    TablesOutput* tables, const std::vector<GeneratedFilter>& filters,
    std::span<const TableId> protected_tables) const {
  // Candidate children: inheritance children with a sibling child among
  // the tables.
  std::vector<TableId> droppable_candidates;
  for (TableId table : tables->tables) {
    for (TableId sibling : join_graph_->siblings(table)) {
      if (ContainsId(tables->tables, sibling)) {
        droppable_candidates.push_back(table);
        break;
      }
    }
  }

  for (TableId child : droppable_candidates) {
    // Pinned, or named by a filter, an entry column or an aggregation.
    const std::string& name = join_graph_->catalog().name(child);
    bool constrained = ContainsId(protected_tables, child);
    for (const GeneratedFilter& filter : filters) {
      constrained |= EqualsFolded(filter.column.table, name);
    }
    for (const auto& column : tables->entry_columns) {
      constrained |= column.has_value() && EqualsFolded(column->table, name);
    }
    for (const DiscoveredAggregation& aggregation : tables->aggregations) {
      constrained |= EqualsFolded(aggregation.column.table, name);
    }
    if (constrained) continue;
    // Droppable only when every join touching the child leads to one and
    // the same neighbor (a pure leaf of the join graph).
    auto touches_child = [&](EdgeId edge) {
      const auto& [from, to] = join_graph_->ends(edge);
      return from == child || to == child;
    };
    TableId neighbor = kInvalidTableId;
    bool droppable = true;
    for (EdgeId edge : tables->joins) {
      if (!touches_child(edge)) continue;
      const auto& [from, to] = join_graph_->ends(edge);
      TableId other = from == child ? to : from;
      if (neighbor == kInvalidTableId) neighbor = other;
      droppable = droppable && neighbor == other;
    }
    if (!droppable || neighbor == kInvalidTableId) continue;
    std::erase_if(tables->joins, touches_child);
    std::erase(tables->tables, child);
  }
}

Result<SelectStatement> SqlGenerator::Generate(
    const InputQuery& query, const TablesOutput& tables,
    const std::vector<GeneratedFilter>& filters, StatementKey* key,
    std::vector<const JoinEdge*>* emitted_joins, MetricsSink* metrics) const {
  SelectStatement stmt;
  uint64_t path_lookups = 0;

  const TableCatalog& catalog = join_graph_->catalog();
  std::vector<TableId> from_tables = tables.tables;
  std::vector<EdgeId> joins = tables.joins;
  // Adds the table an argument, aggregation or filter column reads (by
  // its id when Step 3 or the argument resolution already set it).
  auto ensure = [&](const PhysicalColumnRef& column) -> Status {
    TableId id = column.table_id != kInvalidTableId
                     ? column.table_id
                     : catalog.Find(column.table);
    if (id == kInvalidTableId) {
      return Status::NotFound("table '" + column.table +
                              "' is no physical table of the metadata");
    }
    EnsureTable(id, &from_tables, &joins, &path_lookups);
    return Status::OK();
  };

  // ---- aggregates --------------------------------------------------------
  struct PlannedAggregate {
    AggFunc func;
    std::optional<PhysicalColumnRef> column;  // nullopt = COUNT(*)
    bool over_entity = false;                 // count(<entity key>)
  };
  std::vector<PlannedAggregate> aggregates;

  for (const InputElement& element : query.elements) {
    if (element.kind != InputElement::Kind::kAggregation) continue;
    PlannedAggregate planned;
    planned.func = element.agg;
    if (element.agg_argument.empty()) {
      // count() — plain row count.
      planned.column = std::nullopt;
    } else {
      SODA_ASSIGN_OR_RETURN(ResolvedArgument arg,
                            ResolveArgument(element.agg_argument));
      if (arg.column.has_value()) {
        planned.column = arg.column;
        SODA_RETURN_NOT_OK(ensure(*arg.column));
      } else if (arg.table.has_value()) {
        // count(<entity>) — count the entity's key column (the paper's
        // Query 4 emits count(fi_transactions.id)).
        PhysicalColumnRef key{*arg.table, "id"};
        catalog.Resolve(&key);
        SODA_RETURN_NOT_OK(ensure(key));
        planned.column = std::move(key);
        planned.over_entity = true;
      }
    }
    aggregates.push_back(std::move(planned));
  }

  // Metadata-defined aggregations discovered in Step 3 ("trading volume").
  for (const DiscoveredAggregation& discovered : tables.aggregations) {
    PlannedAggregate planned;
    planned.func = discovered.func;
    planned.column = discovered.column;
    SODA_RETURN_NOT_OK(ensure(discovered.column));
    aggregates.push_back(std::move(planned));
  }

  // ---- group by ----------------------------------------------------------
  std::vector<PhysicalColumnRef> group_columns;
  for (const InputElement& element : query.elements) {
    if (element.kind != InputElement::Kind::kGroupBy) continue;
    for (const std::string& phrase : element.group_by_phrases) {
      SODA_ASSIGN_OR_RETURN(ResolvedArgument arg, ResolveArgument(phrase));
      if (!arg.column.has_value()) {
        return Status::InvalidArgument("group by attribute '" + phrase +
                                       "' does not resolve to a column");
      }
      group_columns.push_back(*arg.column);
      SODA_RETURN_NOT_OK(ensure(*arg.column));
    }
  }

  // ---- top N -------------------------------------------------------------
  std::optional<int64_t> top_n;
  for (const InputElement& element : query.elements) {
    if (element.kind == InputElement::Kind::kTopN) top_n = element.integer;
  }

  if (from_tables.empty()) {
    return Status::InvalidArgument(
        "no tables discovered for this interpretation");
  }

  // A filter on a table that never made it into FROM would be invalid
  // SQL; pull those tables in (connected via join paths when possible)
  // before assembling the statement.
  for (const GeneratedFilter& filter : filters) {
    SODA_RETURN_NOT_OK(ensure(filter.column));
  }

  // ---- assemble -----------------------------------------------------------
  // Every reference carries the ids the executor reads: a table's
  // database ordinal, a column's FROM entry and ordinal. A reference
  // whose ids are unknown stays unresolved, and the executor then
  // resolves the statement by name.
  stmt.from.reserve(from_tables.size());
  for (TableId table : from_tables) {
    stmt.from.push_back(
        TableRef{catalog.name(table), "", catalog.ordinal(table)});
  }
  auto column_ref = [&](const PhysicalColumnRef& column) {
    ColumnRef ref{column.table, column.column};
    auto it = std::find(from_tables.begin(), from_tables.end(),
                        column.table_id);
    if (it != from_tables.end() && column.index >= 0 &&
        stmt.from[it - from_tables.begin()].ordinal >= 0) {
      ref.from = static_cast<int32_t>(it - from_tables.begin());
      ref.index = column.index;
    }
    return ref;
  };
  // Joins first, then filters: SameStatement reads WHERE in this layout.
  emitted_joins->clear();
  for (EdgeId edge : joins) {
    const JoinEdge& join = join_graph_->edge(edge);
    emitted_joins->push_back(&join);
    stmt.where.push_back(Predicate{Expr::MakeColumn(column_ref(join.from)),
                                   CompareOp::kEq,
                                   Expr::MakeColumn(column_ref(join.to))});
  }
  for (const GeneratedFilter& filter : filters) {
    stmt.where.push_back(Predicate{Expr::MakeColumn(column_ref(filter.column)),
                                   filter.op, Expr::MakeLiteral(filter.value)});
  }

  if (!aggregates.empty()) {
    bool count_over_entity = false;
    for (const PlannedAggregate& agg : aggregates) {
      Expr e;
      if (agg.column.has_value()) {
        e = Expr::MakeAggregate(agg.func, column_ref(*agg.column));
      } else {
        e = Expr::MakeCountStar();
      }
      stmt.items.push_back(SelectItem{std::move(e), ""});
      if (agg.over_entity && agg.func == AggFunc::kCount) {
        count_over_entity = true;
      }
    }
    for (const PhysicalColumnRef& column : group_columns) {
      stmt.items.push_back(
          SelectItem{Expr::MakeColumn(column_ref(column)), ""});
      stmt.group_by.push_back(column_ref(column));
    }
    // Ranking semantics: top-N requests and entity counts order by the
    // first aggregate, descending (paper Query 4 adds ORDER BY count()
    // DESC when ranking organizations by trading volume).
    if ((top_n.has_value() || count_over_entity) && !group_columns.empty()) {
      OrderItem order;
      order.expr = stmt.items[0].expr;
      order.descending = true;
      stmt.order_by.push_back(std::move(order));
    }
  } else {
    stmt.items.push_back(SelectItem{Expr::MakeStar(), ""});
  }
  // A top-N request always limits output rows: "top 10 sum(x)" without
  // grouping too. Without an aggregate there is nothing to rank by; the
  // paper resolves "top 10 trading volume" through the metadata
  // aggregation, which lands in the aggregate branch above.
  if (top_n.has_value()) stmt.limit = top_n;

  key->tables = std::move(from_tables);
  std::sort(key->tables.begin(), key->tables.end());
  key->joins = std::move(joins);
  std::sort(key->joins.begin(), key->joins.end());

  if (metrics != nullptr && path_lookups > 0) {
    metrics->IncrementCounter("closure.path_lookups", path_lookups);
  }
  return stmt;
}

}  // namespace soda
