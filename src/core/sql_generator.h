// Step 5 - SQL: combine tables, joins, filters, aggregations and group-by
// into reasonable, executable SQL statements (paper Section 3, Step 5).

#ifndef SODA_CORE_SQL_GENERATOR_H_
#define SODA_CORE_SQL_GENERATOR_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/classification.h"
#include "core/filters_step.h"
#include "core/input_query.h"
#include "core/join_graph.h"
#include "core/tables_step.h"
#include "pattern/matcher.h"

namespace soda {

/// The sorted ids a generated statement was built from, which result
/// dedup (SameStatement) compares; Generate lists these joins first in
/// the WHERE clause, then the filters.
struct StatementKey {
  std::vector<TableId> tables;  // the FROM list
  std::vector<EdgeId> joins;    // the join conjuncts
};

/// Result dedup: true when statements `a` and `b` (with the keys Generate
/// filled) are one logical statement, whatever their FROM, conjunct, `=`
/// operand and select-item order. Tables and joins compare by id, filters
/// and items by what they render; GROUP BY and LIMIT discriminate,
/// DISTINCT and ORDER BY are not compared.
bool SameStatement(const StatementKey& key_a, const SelectStatement& a,
                   const StatementKey& key_b, const SelectStatement& b);

class SqlGenerator {
 public:
  SqlGenerator(const PatternMatcher* matcher, const JoinGraph* join_graph,
               const ClassificationIndex* classification)
      : matcher_(matcher),
        join_graph_(join_graph),
        classification_(classification) {}

  /// Step 5 keeps statements "reasonable ... considering foreign keys and
  /// inheritance patterns in the schema": when two mutually exclusive
  /// inheritance children would be joined through the same parent row the
  /// statement is unsatisfiable, so an inheritance child is dropped from
  /// `tables` when (a) a sibling child is also among the tables, (b) no
  /// filter, entry column or aggregation constrains it, and (c) all its
  /// joins lead to one single neighbor (it is a pure leaf).
  /// `protected_tables` are treated as constrained no matter what — the
  /// session layer passes its pinned tables so a pin can keep an
  /// otherwise-droppable inheritance child.
  void PruneUnconstrainedSiblings(
      TablesOutput* tables, const std::vector<GeneratedFilter>& filters,
      std::span<const TableId> protected_tables) const;

  /// Builds the statement for one interpretation, fills `key` with its
  /// ids and sets `joins` to the join conditions it emitted, in WHERE
  /// order: Step 3's, then those connecting the tables operator
  /// arguments, metadata aggregations and filters pulled in. `query`
  /// carries the aggregation / group-by / top-N operators; `tables` and
  /// `filters` are the Step 3/4 outputs. Table and join ids become names
  /// only here, in the emitted statement. When `metrics` is set,
  /// join-path lookups made while connecting those tables are booked as
  /// closure.path_lookups.
  Result<SelectStatement> Generate(const InputQuery& query,
                                   const TablesOutput& tables,
                                   const std::vector<GeneratedFilter>& filters,
                                   StatementKey* key,
                                   std::vector<JoinEdge>* joins,
                                   MetricsSink* metrics = nullptr) const;

  const JoinGraph& join_graph() const { return *join_graph_; }

 private:
  /// Resolves an operator argument phrase ("amount", "transaction date",
  /// "transactions") to a physical column, or to a table (entities
  /// aggregate as COUNT over their key).
  struct ResolvedArgument {
    std::optional<PhysicalColumnRef> column;
    std::optional<std::string> table;  // entity argument
  };
  Result<ResolvedArgument> ResolveArgument(const std::string& phrase) const;

  /// Adds `table` to `tables`, joined to them by a direct path if any.
  void EnsureTable(TableId table, std::vector<TableId>* tables,
                   std::vector<EdgeId>* joins, uint64_t* path_lookups) const;

  const PatternMatcher* matcher_;
  const JoinGraph* join_graph_;
  const ClassificationIndex* classification_;
};

}  // namespace soda

#endif  // SODA_CORE_SQL_GENERATOR_H_
