#include "core/sql_generator.h"

#include <algorithm>

#include "common/metrics.h"
#include "common/strings.h"
#include "graph/vocab.h"

namespace soda {

namespace {

bool ContainsTable(const std::vector<std::string>& tables,
                   const std::string& table) {
  for (const auto& t : tables) {
    if (EqualsFolded(t, table)) return true;
  }
  return false;
}

}  // namespace

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

void SqlGenerator::EnsureTable(const std::string& table,
                               std::vector<std::string>* tables,
                               std::vector<JoinEdge>* joins,
                               uint64_t* path_lookups) const {
  if (ContainsTable(*tables, table)) return;
  // Connect the new table to the existing FROM set via a direct path.
  std::vector<JoinEdge> path;
  std::vector<std::string> path_tables;
  if (!tables->empty()) ++*path_lookups;
  if (!tables->empty() &&
      join_graph_->DirectPath(*tables, {table}, &path, &path_tables)) {
    for (const JoinEdge& edge : path) {
      bool duplicate = false;
      for (const JoinEdge& existing : *joins) {
        if ((existing.from == edge.from && existing.to == edge.to) ||
            (existing.from == edge.to && existing.to == edge.from)) {
          duplicate = true;
          break;
        }
      }
      if (!duplicate) joins->push_back(edge);
    }
    for (const auto& t : path_tables) {
      if (!ContainsTable(*tables, t)) tables->push_back(t);
    }
  }
  if (!ContainsTable(*tables, table)) tables->push_back(table);
}

Result<SelectStatement> SqlGenerator::Generate(
    const InputQuery& query, const TablesOutput& tables,
    const std::vector<GeneratedFilter>& filters,
    MetricsSink* metrics) const {
  SelectStatement stmt;
  uint64_t path_lookups = 0;

  std::vector<std::string> from_tables = tables.tables;
  std::vector<JoinEdge> joins = tables.joins;

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
        EnsureTable(arg.column->table, &from_tables, &joins, &path_lookups);
      } else if (arg.table.has_value()) {
        // count(<entity>) — count the entity's key column (the paper's
        // Query 4 emits count(fi_transactions.id)).
        EnsureTable(*arg.table, &from_tables, &joins, &path_lookups);
        planned.column = PhysicalColumnRef{*arg.table, "id"};
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
    EnsureTable(discovered.column.table, &from_tables, &joins,
                &path_lookups);
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
      EnsureTable(arg.column->table, &from_tables, &joins, &path_lookups);
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
    EnsureTable(filter.column.table, &from_tables, &joins, &path_lookups);
  }

  // ---- assemble -----------------------------------------------------------
  stmt.from.reserve(from_tables.size());
  for (const auto& table : from_tables) {
    stmt.from.push_back(TableRef{table, ""});
  }
  for (const JoinEdge& join : joins) {
    Predicate p;
    p.lhs = Expr::MakeColumn(join.from.table, join.from.column);
    p.op = CompareOp::kEq;
    p.rhs = Expr::MakeColumn(join.to.table, join.to.column);
    stmt.where.push_back(std::move(p));
  }
  for (const GeneratedFilter& filter : filters) {
    stmt.where.push_back(filter.ToPredicate());
  }

  if (!aggregates.empty()) {
    bool count_over_entity = false;
    for (const PlannedAggregate& agg : aggregates) {
      Expr e;
      if (agg.column.has_value()) {
        e = Expr::MakeAggregate(
            agg.func, ColumnRef{agg.column->table, agg.column->column});
      } else {
        e = Expr::MakeCountStar();
      }
      stmt.items.push_back(SelectItem{std::move(e), ""});
      if (agg.over_entity && agg.func == AggFunc::kCount) {
        count_over_entity = true;
      }
    }
    for (const PhysicalColumnRef& column : group_columns) {
      stmt.items.push_back(SelectItem{
          Expr::MakeColumn(column.table, column.column), ""});
      stmt.group_by.push_back(ColumnRef{column.table, column.column});
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

  if (metrics != nullptr && path_lookups > 0) {
    metrics->IncrementCounter("closure.path_lookups", path_lookups);
  }
  return stmt;
}

}  // namespace soda
