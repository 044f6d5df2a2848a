// Abstract syntax for the SQL subset SODA generates and executes.
//
// The paper's generated statements are flat SELECT-PROJECT-JOIN queries with
// comma-separated FROM lists, conjunctive WHERE clauses (join conditions and
// filters), GROUP BY with COUNT/SUM-style aggregates, ORDER BY and an
// implicit snippet LIMIT. The AST mirrors exactly that shape: it is a value
// type (copyable) so ranked query candidates can be freely duplicated and
// mutated by the generator.
//
// References also carry their ids in the database, which is all the
// executor reads: set by the SQL generator from Step 5's ids, or by
// ResolveStatement (sql/executor.h) from the names. Names alone decide
// equality and rendering.

#ifndef SODA_SQL_AST_H_
#define SODA_SQL_AST_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sql/value.h"

namespace soda {

/// Aggregate functions supported by the generator and executor.
enum class AggFunc { kCount, kSum, kAvg, kMin, kMax };

const char* AggFuncName(AggFunc f);

/// Reference to a column, optionally qualified with a table name or alias.
struct ColumnRef {
  std::string table;   // empty = unqualified
  std::string column;
  int32_t from = -1;   // resolved FROM entry, -1 while unresolved
  int32_t index = -1;  // resolved column ordinal in that entry's table

  std::string ToString() const {
    return table.empty() ? column : table + "." + column;
  }
  bool operator==(const ColumnRef& other) const {
    return table == other.table && column == other.column;
  }
};

/// Scalar or aggregate expression. A closed sum type kept flat (no
/// pointers) because the SODA subset never nests expressions.
struct Expr {
  enum class Kind { kColumn, kLiteral, kAggregate, kStar };

  Kind kind = Kind::kStar;
  ColumnRef column;        // kColumn, or the argument of kAggregate
  Value literal;           // kLiteral
  AggFunc agg = AggFunc::kCount;
  bool agg_star = false;      // kAggregate with COUNT(*)
  bool agg_distinct = false;  // kAggregate over DISTINCT values

  static Expr MakeColumn(std::string table, std::string column) {
    Expr e;
    e.kind = Kind::kColumn;
    e.column = {std::move(table), std::move(column)};
    return e;
  }
  static Expr MakeColumn(ColumnRef ref) {
    Expr e;
    e.kind = Kind::kColumn;
    e.column = std::move(ref);
    return e;
  }
  static Expr MakeLiteral(Value v) {
    Expr e;
    e.kind = Kind::kLiteral;
    e.literal = std::move(v);
    return e;
  }
  static Expr MakeAggregate(AggFunc f, ColumnRef arg) {
    Expr e;
    e.kind = Kind::kAggregate;
    e.agg = f;
    e.column = std::move(arg);
    return e;
  }
  static Expr MakeCountStar() {
    Expr e;
    e.kind = Kind::kAggregate;
    e.agg = AggFunc::kCount;
    e.agg_star = true;
    return e;
  }
  static Expr MakeStar() {
    Expr e;
    e.kind = Kind::kStar;
    return e;
  }

  bool is_aggregate() const { return kind == Kind::kAggregate; }

  /// SQL rendering of the expression.
  std::string ToString() const;

  bool operator==(const Expr&) const = default;
};

/// Comparison operators of SODA's input pattern language plus SQL LIKE.
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe, kLike };

const char* CompareOpSymbol(CompareOp op);

/// One conjunct of the WHERE clause: `lhs op rhs`.
struct Predicate {
  Expr lhs;
  CompareOp op = CompareOp::kEq;
  Expr rhs;

  /// True when this is an equality between columns of two different
  /// qualified tables — i.e. a join condition, not a filter.
  bool IsJoinCondition() const {
    return op == CompareOp::kEq && lhs.kind == Expr::Kind::kColumn &&
           rhs.kind == Expr::Kind::kColumn && lhs.column.table != rhs.column.table;
  }

  std::string ToString() const;

  bool operator==(const Predicate&) const = default;
};

/// Entry of the FROM list.
struct TableRef {
  std::string table;
  std::string alias;  // empty = table name used as qualifier
  int32_t ordinal = -1;  // resolved Database::table ordinal, or -1

  const std::string& qualifier() const {
    return alias.empty() ? table : alias;
  }
  std::string ToString() const {
    return alias.empty() ? table : table + " " + alias;
  }
  bool operator==(const TableRef& other) const {
    return table == other.table && alias == other.alias;
  }
};

/// Projected item.
struct SelectItem {
  Expr expr;
  std::string alias;  // optional AS alias

  std::string ToString() const {
    return alias.empty() ? expr.ToString() : expr.ToString() + " AS " + alias;
  }
  bool operator==(const SelectItem&) const = default;
};

/// ORDER BY entry.
struct OrderItem {
  Expr expr;
  bool descending = false;

  std::string ToString() const {
    return expr.ToString() + (descending ? " DESC" : "");
  }
  bool operator==(const OrderItem&) const = default;
};

/// A complete statement in the SODA SQL subset.
struct SelectStatement {
  bool distinct = false;
  std::vector<SelectItem> items;  // empty + star==true means SELECT *
  std::vector<TableRef> from;
  std::vector<Predicate> where;   // conjunction
  std::vector<ColumnRef> group_by;
  std::vector<OrderItem> order_by;
  std::optional<int64_t> limit;

  bool select_star() const {
    return items.size() == 1 && items[0].expr.kind == Expr::Kind::kStar;
  }

  /// True when any select item or order key aggregates.
  bool HasAggregates() const;

  /// Renders executable SQL text (see render.cc for the exact style, which
  /// follows the paper's examples).
  std::string ToSql() const;

  bool operator==(const SelectStatement&) const = default;
};

}  // namespace soda

#endif  // SODA_SQL_AST_H_
