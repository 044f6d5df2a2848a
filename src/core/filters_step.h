// Step 4 - Filters: collect filter conditions for one interpretation.
//
// "Filters can be found in two ways: a) by parsing the input query or
//  b) by looking for filter conditions while traversing the metadata
//  graph." (paper Section 3, Step 4)
//
// Three sources:
//   1. base-data entry points — equality filters column = 'value'
//      (connecting "Zürich" to the city column of the addresses table),
//   2. comparison / between operators from the input, bound to the column
//      their keyword resolves to,
//   3. metadata-defined filters discovered in Step 3 ("wealthy customers").

#ifndef SODA_CORE_FILTERS_STEP_H_
#define SODA_CORE_FILTERS_STEP_H_

#include <vector>

#include "core/entry_point.h"
#include "core/graph_utils.h"
#include "core/lookup.h"
#include "core/tables_step.h"
#include "sql/ast.h"
#include "storage/table.h"

namespace soda {

/// One generated filter predicate.
struct GeneratedFilter {
  PhysicalColumnRef column;
  CompareOp op = CompareOp::kEq;
  Value value;
};

class FiltersStep {
 public:
  /// `db` (non-null) types literals against the columns' declared types.
  explicit FiltersStep(const Database* db) : db_(db) {}

  /// Produces the filters for one interpretation.
  /// `entries` are the chosen entry points (one per term), parallel to
  /// `tables.entry_columns`.
  Result<std::vector<GeneratedFilter>> Run(
      const std::vector<EntryPoint>& entries,
      const std::vector<OperatorBinding>& operators,
      const TablesOutput& tables) const;

  /// Types a textual literal against the column's declared type
  /// (metadata-stored filter values are text). Exposed for tests.
  Value TypeValue(const PhysicalColumnRef& column,
                  const std::string& text) const;

 private:
  const Database* db_;
};

/// Parses the textual operator of a metadata filter ('>' '>=' '=' '<='
/// '<' 'like'). Unknown text falls back to equality.
CompareOp ParseCompareOp(const std::string& text);

}  // namespace soda

#endif  // SODA_CORE_FILTERS_STEP_H_
