// Step 5 - SQL: combine tables, joins, filters, aggregations and group-by
// into reasonable, executable SQL statements (paper Section 3, Step 5).

#ifndef SODA_CORE_SQL_GENERATOR_H_
#define SODA_CORE_SQL_GENERATOR_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "core/classification.h"
#include "core/filters_step.h"
#include "core/input_query.h"
#include "core/join_graph.h"
#include "core/tables_step.h"
#include "pattern/matcher.h"

namespace soda {

class SqlGenerator {
 public:
  SqlGenerator(const PatternMatcher* matcher, const JoinGraph* join_graph,
               const ClassificationIndex* classification)
      : matcher_(matcher),
        join_graph_(join_graph),
        classification_(classification) {}

  /// Builds the statement for one interpretation. `query` carries the
  /// aggregation / group-by / top-N operators; `tables` and `filters` are
  /// the Step 3/4 outputs. When `metrics` is set, join-path lookups made
  /// while connecting operator argument tables are booked as
  /// closure.path_lookups.
  Result<SelectStatement> Generate(const InputQuery& query,
                                   const TablesOutput& tables,
                                   const std::vector<GeneratedFilter>& filters,
                                   MetricsSink* metrics = nullptr) const;

 private:
  /// Resolves an operator argument phrase ("amount", "transaction date",
  /// "transactions") to a physical column, or to a table (entities
  /// aggregate as COUNT over their key). Adds the owning table (and a
  /// connecting join path) to `stmt_tables`/`joins` when missing.
  struct ResolvedArgument {
    std::optional<PhysicalColumnRef> column;
    std::optional<std::string> table;  // entity argument
  };
  Result<ResolvedArgument> ResolveArgument(const std::string& phrase) const;

  void EnsureTable(const std::string& table,
                   std::vector<std::string>* tables,
                   std::vector<JoinEdge>* joins,
                   uint64_t* path_lookups) const;

  const PatternMatcher* matcher_;
  const JoinGraph* join_graph_;
  const ClassificationIndex* classification_;
};

}  // namespace soda

#endif  // SODA_CORE_SQL_GENERATOR_H_
