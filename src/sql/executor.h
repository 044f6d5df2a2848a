// Execution of the SODA SQL subset against the in-memory catalog.
//
// The executor is a pipelined relational evaluator over resolved
// statements (sql/ast.h): a generated statement carries the ids Step 5
// holds, and parsed SQL gets them from one resolve pass
// (ResolveStatement), so evaluation never looks up a name:
//   1. FROM entries (tables by ordinal);
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
//      scanning, when it has one. Before that, a semi-join reduction may
//      narrow the seed: the other FROM entry whose pushed `column =
//      literal` has the smallest index group, when that group is smaller
//      than the seed's candidates, is carried to the seed along a path of
//      join edges (each hop through the next table's index, filtered by
//      its pushed predicates), and the seed skips every row the reduction
//      proves has no extension. A hop that grows past the seed's
//      candidates abandons it. Index groups and reduced rows are ascending
//      row ids, so the order is the nested-loop order of a plain scan;
//   5. grouping and aggregation (COUNT/SUM/AVG/MIN/MAX), ORDER BY,
//      DISTINCT, LIMIT and projection. Groups are keyed by value
//      (Value::Compare, as WHERE compares) and, without ORDER BY, come out
//      sorted by the SQL-literal rendering of their keys, ties in order of
//      first appearance.
//
// Enumeration order is the nested-loop order of the plan, so a flat
// SELECT with a LIMIT and no ORDER BY, DISTINCT or aggregate stops as soon
// as LIMIT rows exist: the rows it returns are exactly the first LIMIT
// rows of the same statement without the LIMIT. ORDER BY sorts stably and
// DISTINCT keeps first occurrences, so both keep that order among equals,
// and every shape's output is fully determined. The other shapes still
// enumerate every qualifying tuple (with pushdown): aggregates fold each
// tuple into its group as it is produced, ORDER BY materializes the tuple
// ids to sort them, and DISTINCT materializes the projected rows.
//
// Its role in the reproduction is the role Oracle played in the paper: run
// the generated statements and the gold standard and hand back tuple sets.

#ifndef SODA_SQL_EXECUTOR_H_
#define SODA_SQL_EXECUTOR_H_

#include <cstdint>
#include <optional>

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
  // Join-pipeline work: rows bound at any step (seed included) after
  // single-table pushdown, counting partial tuples a later step rejects.
  // Seed rows the semi-join reduction proves empty are never bound.
  size_t tuples_enumerated = 0;
  // Column equality indexes this statement built for the first time (the
  // tables keep them, so a warm workload builds none).
  size_t index_builds = 0;
  // Whether the semi-join reduction narrowed the seed's candidates (step 4
  // above).
  bool seed_reduced = false;
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

  /// Runs `stmt` and returns its result (at most LIMIT rows, and at most
  /// `max_rows`). `stats` (optional) receives execution statistics on
  /// success. `stmt` must be IsResolved (generated statements are;
  /// parsed or hand-built ones go through ResolveStatement once), else
  /// InvalidArgument.
  Result<ResultSet> Execute(const SelectStatement& stmt,
                            ExecStats* stats = nullptr,
                            std::optional<int64_t> max_rows = {}) const;

  /// Convenience: parse + resolve + execute.
  Result<ResultSet> ExecuteSql(std::string_view sql) const;

 private:
  const Database* db_;
};

/// True when every table and column reference of `stmt` carries ids for
/// `db` that name what its names spell, matched as ResolveStatement
/// matches them (EqualsFolded; a qualifier is the entry's alias or table
/// name): such a statement runs without resolving a name.
bool IsResolved(const Database& db, const SelectStatement& stmt);

/// The resolve pass: sets every reference's ids from its names, as SQL
/// resolves identifiers (case-insensitive; an unqualified column must
/// name exactly one FROM table).
Status ResolveStatement(const Database& db, SelectStatement* stmt);

/// SQL LIKE pattern matching ('%' multi-char wildcard, '_' single char).
/// Exposed for tests.
bool SqlLikeMatch(const std::string& text, const std::string& pattern);

}  // namespace soda

#endif  // SODA_SQL_EXECUTOR_H_
