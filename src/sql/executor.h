// Execution of the SODA SQL subset against the in-memory catalog.
//
// The executor is a pipelined relational evaluator:
//   1. FROM resolution (tables + aliases);
//   2. a static left-deep join plan over the WHERE conjuncts: the first
//      FROM table seeds it, then each step adds the next table in FROM
//      order that an equi-join edge connects to the tables already placed
//      (an index join on all such edges, keys compared with Value::Compare
//      as WHERE compares them), else the first unplaced table as a cross
//      product;
//   3. predicate pushdown: literal-only predicates are decided once,
//      single-table predicates filter the seed rows and each step's
//      candidates (or cross-product row list), and multi-table predicates
//      run at the first step that binds all their tables (NULL-rejecting
//      comparison semantics throughout);
//   4. depth-first enumeration: one tuple of row ids is extended step by
//      step. A join step probes the table's persistent equality index on
//      its first key column (Table::IndexOn) and checks the other keys and
//      the pushed predicates per candidate; the seed step reads the index
//      group of its first pushed `column = literal` predicate instead of
//      scanning, when it has one. Index groups are ascending row ids, so
//      the order is the nested-loop order of a plain scan;
//   5. grouping and aggregation (COUNT/SUM/AVG/MIN/MAX), ORDER BY,
//      DISTINCT, LIMIT and projection.
//
// Enumeration order is the nested-loop order of the plan, so a flat
// SELECT with a LIMIT and no ORDER BY, DISTINCT or aggregate stops as soon
// as LIMIT rows exist: the rows it returns are exactly the first LIMIT
// rows of the same statement without the LIMIT. The other shapes still
// enumerate every qualifying tuple (with pushdown): aggregates fold each
// tuple into its group as it is produced, ORDER BY materializes the tuple
// ids to sort them, and DISTINCT materializes the projected rows.
//
// Its role in the reproduction is the role Oracle played in the paper: run
// the generated statements and the gold standard and hand back tuple sets.

#ifndef SODA_SQL_EXECUTOR_H_
#define SODA_SQL_EXECUTOR_H_

#include "common/status.h"
#include "sql/ast.h"
#include "sql/result_set.h"
#include "storage/table.h"

namespace soda {

/// Per-statement execution statistics. The engine's snippet path feeds
/// these into its MetricsSink ("executor.rows" / "executor.tables" /
/// "executor.tuples" distributions) to make runaway generated statements —
/// the paper's cross-product candidates — visible at the fleet level.
struct ExecStats {
  size_t rows_output = 0;  // result rows returned, after LIMIT
  size_t tables = 0;       // FROM entries the statement touched
  // Join-pipeline work: rows bound at any step (seed scan included) after
  // single-table pushdown, counting partial tuples a later step rejects.
  size_t tuples_enumerated = 0;
  // Column equality indexes this statement built for the first time (the
  // tables keep them, so a warm workload builds none).
  size_t index_builds = 0;
};

/// Query executor bound to a catalog. Execute/ExecuteSql are const and keep
/// per-statement state on the stack; the only shared state is the tables'
/// equality indexes, which a table builds once under its own mutex and
/// extends under the change log's exclusive data lock. One Executor is
/// therefore safe to share across threads as long as every caller holds
/// the database's ReaderLock() while executing (the SodaEngine's serve
/// path does), or no thread appends meanwhile.
class Executor {
 public:
  explicit Executor(const Database* db) : db_(db) {}

  /// Runs `stmt` and returns its result (at most LIMIT rows). `stats`
  /// (optional) receives execution statistics on success.
  Result<ResultSet> Execute(const SelectStatement& stmt,
                            ExecStats* stats = nullptr) const;

  /// Convenience: parse + execute.
  Result<ResultSet> ExecuteSql(std::string_view sql) const;

 private:
  const Database* db_;
};

/// SQL LIKE pattern matching ('%' multi-char wildcard, '_' single char).
/// Exposed for tests.
bool SqlLikeMatch(const std::string& text, const std::string& pattern);

}  // namespace soda

#endif  // SODA_SQL_EXECUTOR_H_
