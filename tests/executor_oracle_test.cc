// Differential oracle for the SQL executor: the pipelined Executor is
// checked against a deliberately naive reference evaluator (full cross
// product of the FROM tables, then WHERE, then the aggregate / ORDER BY /
// DISTINCT / LIMIT tail) on seeded random small schemas. The prefix
// property its early stop relies on is also checked on the enterprise
// warehouse, in enterprise_eval_test, which already builds its index.
// A second oracle checks the tables' append-maintained equality indexes
// against indexes built from scratch over the same rows.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "storage/table.h"

namespace soda {
namespace {

// ---- reference evaluator ----------------------------------------------------

// Naive evaluation of `stmt`: every column reference must be qualified
// with its FROM entry's qualifier (the generator below guarantees it).
class Reference {
 public:
  Reference(const Database& db, const SelectStatement& stmt)
      : stmt_(stmt) {
    for (const TableRef& ref : stmt.from) {
      qualifiers_.push_back(ref.qualifier());
      tables_.push_back(db.FindTable(ref.table));
    }
  }

  ResultSet Run() {
    // Full cross product in FROM order, first table outermost.
    std::vector<std::vector<size_t>> tuples;
    std::vector<size_t> tuple(tables_.size(), 0);
    bool empty = false;
    for (const Table* t : tables_) empty = empty || t->num_rows() == 0;
    while (!empty) {
      if (Where(tuple)) tuples.push_back(tuple);
      size_t i = tables_.size();
      while (i > 0 && ++tuple[i - 1] == tables_[i - 1]->num_rows()) {
        tuple[--i] = 0;
      }
      if (i == 0) break;
    }
    ResultSet rs = Aggregated() ? Aggregate(tuples) : Project(tuples);
    if (stmt_.distinct) {
      std::vector<std::vector<Value>> unique;
      std::vector<std::string> seen;
      for (auto& row : rs.rows) {
        std::string key = ResultSet::RowKey(row);
        if (std::find(seen.begin(), seen.end(), key) != seen.end()) continue;
        seen.push_back(key);
        unique.push_back(std::move(row));
      }
      rs.rows = std::move(unique);
    }
    if (stmt_.limit && *stmt_.limit >= 0 &&
        rs.rows.size() > static_cast<size_t>(*stmt_.limit)) {
      rs.rows.resize(static_cast<size_t>(*stmt_.limit));
    }
    return rs;
  }

 private:
  bool Aggregated() const {
    return !stmt_.group_by.empty() || stmt_.HasAggregates();
  }

  Value Get(const std::vector<size_t>& tuple, const ColumnRef& ref) const {
    for (size_t i = 0; i < tables_.size(); ++i) {
      if (qualifiers_[i] == ref.table) {
        return tables_[i]->row(tuple[i])[tables_[i]->ColumnIndex(ref.column)];
      }
    }
    ADD_FAILURE() << "unresolved column " << ref.ToString();
    return Value::Null();
  }

  Value Operand(const std::vector<size_t>& tuple, const Expr& e) const {
    return e.kind == Expr::Kind::kColumn ? Get(tuple, e.column) : e.literal;
  }

  bool Where(const std::vector<size_t>& tuple) const {
    for (const Predicate& p : stmt_.where) {
      Value a = Operand(tuple, p.lhs);
      Value b = Operand(tuple, p.rhs);
      bool holds = false;
      if (p.op == CompareOp::kLike) {
        holds = a.type() == ValueType::kString &&
                b.type() == ValueType::kString &&
                SqlLikeMatch(a.AsString(), b.AsString());
      } else if (!a.is_null() && !b.is_null()) {
        int c = a.Compare(b);
        holds = (p.op == CompareOp::kEq && c == 0) ||
                (p.op == CompareOp::kNe && c != 0) ||
                (p.op == CompareOp::kLt && c < 0) ||
                (p.op == CompareOp::kLe && c <= 0) ||
                (p.op == CompareOp::kGt && c > 0) ||
                (p.op == CompareOp::kGe && c >= 0);
      }
      if (!holds) return false;
    }
    return true;
  }

  // Stable sort of `items` by `keys(item)` under the ORDER BY directions.
  template <typename T, typename Keys>
  void OrderBy(std::vector<T>* items, const Keys& keys) const {
    std::stable_sort(items->begin(), items->end(),
                     [&](const T& a, const T& b) {
                       std::vector<Value> ka = keys(a), kb = keys(b);
                       for (size_t k = 0; k < ka.size(); ++k) {
                         int c = ka[k].Compare(kb[k]);
                         if (c != 0) {
                           return stmt_.order_by[k].descending ? c > 0 : c < 0;
                         }
                       }
                       return false;
                     });
  }

  ResultSet Project(std::vector<std::vector<size_t>> tuples) const {
    OrderBy(&tuples, [&](const std::vector<size_t>& t) {
      std::vector<Value> keys;
      for (const OrderItem& o : stmt_.order_by) {
        keys.push_back(Operand(t, o.expr));
      }
      return keys;
    });
    ResultSet rs;
    for (const auto& t : tuples) {
      std::vector<Value> row;
      if (stmt_.select_star()) {
        for (size_t i = 0; i < tables_.size(); ++i) {
          for (const Value& v : tables_[i]->row(t[i])) row.push_back(v);
        }
      } else {
        for (const SelectItem& item : stmt_.items) {
          row.push_back(Operand(t, item.expr));
        }
      }
      rs.rows.push_back(std::move(row));
    }
    return rs;
  }

  Value Fold(const Expr& agg, const std::vector<std::vector<size_t>>& members)
      const {
    if (agg.agg_star) return Value::Int(static_cast<int64_t>(members.size()));
    std::vector<Value> values;
    for (const auto& t : members) {
      Value v = Get(t, agg.column);
      if (v.is_null()) continue;
      bool seen = false;
      for (const Value& w : values) seen = seen || w.Compare(v) == 0;
      if (agg.agg_distinct && seen) continue;
      values.push_back(v);
    }
    double sum = 0.0;
    bool numeric = false;
    Value min, max;
    for (const Value& v : values) {
      if (v.IsNumeric()) {
        sum += v.NumericValue();
        numeric = true;
      }
      if (min.is_null() || v.Compare(min) < 0) min = v;
      if (max.is_null() || v.Compare(max) > 0) max = v;
    }
    double n = static_cast<double>(values.size());
    switch (agg.agg) {
      case AggFunc::kCount:
        return Value::Int(static_cast<int64_t>(values.size()));
      case AggFunc::kSum:
        return values.empty() || !numeric ? Value::Null() : Value::Real(sum);
      case AggFunc::kAvg:
        return values.empty() || !numeric ? Value::Null()
                                          : Value::Real(sum / n);
      case AggFunc::kMin:
        return min;
      case AggFunc::kMax:
        return max;
    }
    return Value::Null();
  }

  ResultSet Aggregate(const std::vector<std::vector<size_t>>& tuples) const {
    // Groups keyed by the rendered group values, like the executor.
    std::map<std::string, std::vector<std::vector<size_t>>> groups;
    for (const auto& t : tuples) {
      std::vector<Value> key;
      for (const ColumnRef& g : stmt_.group_by) key.push_back(Get(t, g));
      groups[ResultSet::RowKey(key)].push_back(t);
    }
    if (groups.empty() && stmt_.group_by.empty()) groups[""];
    using Members = std::vector<std::vector<size_t>>;
    std::vector<const Members*> ordered;
    for (const auto& [key, members] : groups) ordered.push_back(&members);
    auto eval = [&](const Members& members, const Expr& e) {
      if (e.is_aggregate()) return Fold(e, members);
      return members.empty() ? Value::Null() : Get(members[0], e.column);
    };
    OrderBy(&ordered, [&](const Members* members) {
      std::vector<Value> keys;
      for (const OrderItem& o : stmt_.order_by) {
        keys.push_back(eval(*members, o.expr));
      }
      return keys;
    });
    ResultSet rs;
    for (const Members* members : ordered) {
      std::vector<Value> row;
      for (const SelectItem& item : stmt_.items) {
        row.push_back(eval(*members, item.expr));
      }
      rs.rows.push_back(std::move(row));
    }
    return rs;
  }

  const SelectStatement& stmt_;
  std::vector<std::string> qualifiers_;
  std::vector<const Table*> tables_;
};

// ---- random schemas and statements ------------------------------------------

// Cell domains are small so keys repeat and joins fan out. The doubles are
// exact binary fractions with distinct renderings, so sums do not depend on
// the order they are added in and group keys stay unambiguous; 1.0 and 3.0
// equal INT cells across a join.
Value RandomCell(Rng* rng, ValueType type) {
  if (rng->Chance(0.15)) return Value::Null();
  static const std::vector<double> kReals = {0.5, 1.0, 2.25, -3.5, 3.0};
  static const std::vector<std::string> kStrings = {"a", "ab", "b", "ba", "A"};
  switch (type) {
    case ValueType::kInt64:
      return Value::Int(rng->Range(0, 3));
    case ValueType::kDouble:
      return Value::Real(rng->Pick(kReals));
    default:
      return Value::Str(rng->Pick(kStrings));
  }
}

std::string Literal(Rng* rng, ValueType type) {
  Value v = RandomCell(rng, type);
  if (v.is_null()) v = RandomCell(rng, type);
  if (v.is_null()) v = Value::Int(1);
  return v.ToSqlLiteral();
}

struct RandomCase {
  Database db;
  std::vector<std::vector<ValueType>> types;  // per table, per column
};

// Up to 4 tables t0..t3 of up to 6 rows over columns c0..c3.
std::unique_ptr<RandomCase> RandomSchema(Rng* rng) {
  auto rc = std::make_unique<RandomCase>();
  static const std::vector<ValueType> kTypes = {
      ValueType::kInt64, ValueType::kDouble, ValueType::kString};
  size_t num_tables = static_cast<size_t>(rng->Range(1, 4));
  for (size_t t = 0; t < num_tables; ++t) {
    std::vector<ColumnDef> columns;
    std::vector<ValueType> types = {ValueType::kInt64};  // c0: a join key
    size_t num_columns = static_cast<size_t>(rng->Range(2, 4));
    while (types.size() < num_columns) types.push_back(rng->Pick(kTypes));
    for (size_t c = 0; c < types.size(); ++c) {
      columns.push_back({"c" + std::to_string(c), types[c]});
    }
    Table* table = *rc->db.CreateTable("t" + std::to_string(t), columns);
    size_t num_rows = static_cast<size_t>(rng->Range(0, 6));
    for (size_t r = 0; r < num_rows; ++r) {
      Row row;
      for (ValueType type : types) row.push_back(RandomCell(rng, type));
      table->AppendUnchecked(std::move(row));
    }
    rc->types.push_back(std::move(types));
  }
  return rc;
}

struct RandomStatement {
  std::string sql;
  // Whether the full output order is defined: aggregates, or ORDER BY
  // over every projected column.
  bool ordered = false;
};

RandomStatement RandomSql(Rng* rng, const RandomCase& rc) {
  // FROM: 1-4 entries drawn with replacement, aliased q0..q3.
  size_t num_from = static_cast<size_t>(rng->Range(1, 4));
  std::vector<size_t> from;
  std::string sql_from;
  for (size_t i = 0; i < num_from; ++i) {
    from.push_back(rng->Below(rc.types.size()));
    sql_from += (i ? ", t" : "t") + std::to_string(from.back()) + " q" +
                std::to_string(i);
  }
  struct Col {
    std::string ref;
    ValueType type;
  };
  auto column = [&](size_t entry) {
    const auto& types = rc.types[from[entry]];
    size_t c = rng->Chance(0.5) ? 0 : rng->Below(types.size());
    return Col{"q" + std::to_string(entry) + ".c" + std::to_string(c),
               types[c]};
  };
  auto any_column = [&]() { return column(rng->Below(num_from)); };
  auto numeric_column = [&](size_t entry) {
    Col col = column(entry);
    return col.type == ValueType::kString
               ? Col{"q" + std::to_string(entry) + ".c0", ValueType::kInt64}
               : col;
  };

  static const std::vector<std::string> kOps = {"=", "<>", "<", "<=", ">",
                                                ">="};
  std::vector<std::string> where;
  size_t num_preds = static_cast<size_t>(rng->Range(0, 5));
  for (size_t p = 0; p < num_preds; ++p) {
    size_t kind = rng->Below(6);
    size_t a = rng->Below(num_from), b = rng->Below(num_from);
    if (kind <= 1 && num_from > 1) {
      // Join edge (two in a row can connect the same pair twice).
      while (b == a) b = rng->Below(num_from);
      where.push_back(numeric_column(a).ref + " = " + numeric_column(b).ref);
    } else if (kind == 2) {
      Col col = any_column();
      if (col.type == ValueType::kString && rng->Chance(0.5)) {
        static const std::vector<std::string> kPatterns = {"'a%'", "'%b'",
                                                           "'_'", "'%'"};
        where.push_back(col.ref + " LIKE " + rng->Pick(kPatterns));
      } else {
        where.push_back(col.ref + " " + rng->Pick(kOps) + " " +
                        Literal(rng, col.type));
      }
    } else if (kind == 3) {
      // Non-equi predicate, usually across two tables.
      where.push_back(numeric_column(a).ref + " " + rng->Pick(kOps) + " " +
                      numeric_column(b).ref);
    } else if (kind == 4) {
      static const std::vector<std::string> kConstants = {
          "1 = 1", "1 = 2", "'a' < 'b'", "2 >= 2.5"};
      where.push_back(rng->Pick(kConstants));
    } else {
      Col col = column(a);
      where.push_back(col.ref + " = " + Literal(rng, col.type));
    }
  }

  RandomStatement out;
  std::string select, tail;
  size_t shape = rng->Below(4);
  if (shape == 0) {
    select = "*";
  } else if (shape == 1 || shape == 2) {
    // Explicit projection; shape 2 orders by every projected column.
    size_t num_items = static_cast<size_t>(rng->Range(1, 3));
    std::vector<std::string> items, keys;
    for (size_t i = 0; i < num_items; ++i) {
      items.push_back(any_column().ref);
      keys.push_back(items.back() + (rng->Chance(0.5) ? " DESC" : ""));
    }
    if (rng->Chance(0.3)) select = "DISTINCT ";
    for (size_t i = 0; i < items.size(); ++i) {
      select += (i ? ", " : "") + items[i];
    }
    if (shape == 2) {
      for (size_t i = keys.size(); i > 1; --i) {
        std::swap(keys[i - 1], keys[rng->Below(i)]);
      }
      tail += " ORDER BY ";
      for (size_t i = 0; i < keys.size(); ++i) {
        tail += (i ? ", " : "") + keys[i];
      }
      out.ordered = true;
    }
  } else {
    static const std::vector<std::string> kAggs = {"count", "sum", "avg",
                                                   "min", "max"};
    std::vector<std::string> aggs = {"count(*)"};
    size_t num_aggs = static_cast<size_t>(rng->Range(0, 2));
    for (size_t i = 0; i < num_aggs; ++i) {
      aggs.push_back(rng->Pick(kAggs) + "(" +
                     (rng->Chance(0.3) ? "DISTINCT " : "") + any_column().ref +
                     ")");
    }
    std::string group = rng->Chance(0.6) ? any_column().ref : "";
    select = group.empty() ? "" : group + ", ";
    for (size_t i = 0; i < aggs.size(); ++i) {
      select += (i ? ", " : "") + aggs[i];
    }
    if (!group.empty()) tail += " GROUP BY " + group;
    if (rng->Chance(0.5)) {
      tail += " ORDER BY " + rng->Pick(aggs) + " DESC";
      if (!group.empty()) tail += ", " + group;
    }
    out.ordered = true;
  }
  size_t limit_kind = rng->Below(4);
  if (limit_kind == 1) tail += " LIMIT 0";
  if (limit_kind == 2) tail += " LIMIT 1";
  if (limit_kind == 3) tail += " LIMIT " + std::to_string(rng->Range(2, 8));

  out.sql = "SELECT " + select + " FROM " + sql_from;
  for (size_t i = 0; i < where.size(); ++i) {
    out.sql += (i ? " AND " : " WHERE ") + where[i];
  }
  out.sql += tail;
  return out;
}

std::vector<std::string> RowKeys(const ResultSet& rs) {
  std::vector<std::string> keys;
  for (const auto& row : rs.rows) keys.push_back(ResultSet::RowKey(row));
  return keys;
}

// Compares an executor result with the reference's. Where the order is
// defined the rows must match exactly; elsewhere the executor's rows must
// be a sub-multiset of the reference's with the right count.
void ExpectMatches(const ResultSet& got, const ResultSet& want,
                   const SelectStatement& stmt, bool ordered,
                   const std::string& sql) {
  std::vector<std::string> got_keys = RowKeys(got);
  if (ordered) {
    EXPECT_EQ(got_keys, RowKeys(want)) << sql;
    return;
  }
  std::vector<std::string> want_keys = RowKeys(want);
  std::sort(got_keys.begin(), got_keys.end());
  std::sort(want_keys.begin(), want_keys.end());
  if (!stmt.limit.has_value()) {
    EXPECT_EQ(got_keys, want_keys) << sql;
    return;
  }
  EXPECT_EQ(got_keys.size(),
            std::min(want_keys.size(), static_cast<size_t>(*stmt.limit)))
      << sql;
  EXPECT_TRUE(std::includes(want_keys.begin(), want_keys.end(),
                            got_keys.begin(), got_keys.end()))
      << sql;
}

// Checks `got` (the executor's result for `stmt`) against the reference
// evaluator over `db`. Unordered shapes are checked against the reference
// without LIMIT, so the sub-multiset check sees every row the executor may
// return.
void ExpectMatchesReference(const Database& db, const SelectStatement& stmt,
                            const RandomStatement& rs, const ResultSet& got) {
  SelectStatement unlimited = stmt;
  unlimited.limit.reset();
  ResultSet want = Reference(db, rs.ordered ? stmt : unlimited).Run();
  ExpectMatches(got, want, stmt, rs.ordered, rs.sql);
}

TEST(ExecutorOracleTest, MatchesNaiveReferenceOnRandomSchemas) {
  Rng rng(20120827);
  size_t statements = 0, nonempty = 0;
  for (int schema = 0; schema < 300; ++schema) {
    std::unique_ptr<RandomCase> rc = RandomSchema(&rng);
    Executor executor(&rc->db);
    for (int q = 0; q < 12; ++q) {
      RandomStatement rs = RandomSql(&rng, *rc);
      auto stmt = ParseSql(rs.sql);
      ASSERT_TRUE(stmt.ok()) << rs.sql << " -> " << stmt.status();
      ExecStats stats;
      auto got = executor.Execute(*stmt, &stats);
      ASSERT_TRUE(got.ok()) << rs.sql << " -> " << got.status();
      EXPECT_EQ(stats.rows_output, got->rows.size()) << rs.sql;
      ExpectMatchesReference(rc->db, *stmt, rs, *got);

      // Prefix property: the limited result is the head of the unlimited.
      SelectStatement unlimited = *stmt;
      unlimited.limit.reset();
      auto all = executor.Execute(unlimited);
      ASSERT_TRUE(all.ok()) << rs.sql;
      std::vector<std::string> head = RowKeys(*all);
      if (stmt->limit && head.size() > static_cast<size_t>(*stmt->limit)) {
        head.resize(static_cast<size_t>(*stmt->limit));
      }
      EXPECT_EQ(RowKeys(*got), head) << rs.sql;

      ++statements;
      if (!got->rows.empty()) ++nonempty;
    }
  }
  // Guard against a generator that only produces empty results.
  EXPECT_EQ(statements, 3600u);
  EXPECT_GT(nonempty, statements / 4);
}

// A row for a table whose indexes are live: NULL keys, cells repeating one
// already in the column, and INT/DOUBLE cells that compare equal (1 and 3
// lie in both domains) are all likely.
Row AppendedRow(Rng* rng, const Table& table,
                const std::vector<ValueType>& types) {
  Row row;
  for (size_t c = 0; c < types.size(); ++c) {
    size_t kind = rng->Below(4);
    if (kind == 0) {
      row.push_back(Value::Null());
    } else if (kind == 1 && table.num_rows() > 0) {
      row.push_back(table.row(rng->Below(table.num_rows()))[c]);
    } else if (kind == 2 && types[c] != ValueType::kString) {
      int64_t k = rng->Chance(0.5) ? 1 : 3;
      row.push_back(types[c] == ValueType::kInt64
                        ? Value::Int(k)
                        : Value::Real(static_cast<double>(k)));
    } else {
      row.push_back(RandomCell(rng, types[c]));
    }
  }
  return row;
}

// Incremental vs. rebuild: statements run (building the tables' indexes),
// rows are appended through the checked path, and the statements re-run
// over the maintained indexes must equal the same statements over a fresh
// database loaded with the final rows — rows, order and join work alike —
// and the naive reference.
TEST(ExecutorOracleTest, AppendMaintainedIndexesMatchRebuild) {
  constexpr size_t kSchemas = 120;
  Rng rng(20120828);
  size_t builds = 0, nonempty = 0;
  for (size_t schema = 0; schema < kSchemas; ++schema) {
    std::unique_ptr<RandomCase> rc = RandomSchema(&rng);
    Executor executor(&rc->db);
    std::vector<RandomStatement> sqls;
    std::vector<SelectStatement> stmts;
    for (int q = 0; q < 12; ++q) {
      sqls.push_back(RandomSql(&rng, *rc));
      auto stmt = ParseSql(sqls.back().sql);
      ASSERT_TRUE(stmt.ok()) << sqls.back().sql << " -> " << stmt.status();
      stmts.push_back(*stmt);
      ExecStats stats;
      ASSERT_TRUE(executor.Execute(stmts.back(), &stats).ok());
      builds += stats.index_builds;
    }

    for (size_t t = 0; t < rc->types.size(); ++t) {
      Table* table = rc->db.FindTable("t" + std::to_string(t));
      for (int64_t n = rng.Range(1, 3); n > 0; --n) {
        ASSERT_TRUE(
            table->Append(AppendedRow(&rng, *table, rc->types[t])).ok());
      }
    }
    Database fresh;
    for (const Table* table : rc->db.tables()) {
      Table* copy = *fresh.CreateTable(table->name(), table->columns());
      for (const Row& row : table->rows()) copy->AppendUnchecked(row);
    }
    Executor rebuilt(&fresh);

    for (size_t q = 0; q < stmts.size(); ++q) {
      ExecStats got_stats, want_stats;
      auto got = executor.Execute(stmts[q], &got_stats);
      auto want = rebuilt.Execute(stmts[q], &want_stats);
      ASSERT_TRUE(got.ok() && want.ok()) << sqls[q].sql;
      EXPECT_EQ(got->column_names, want->column_names) << sqls[q].sql;
      EXPECT_EQ(got->rows, want->rows) << sqls[q].sql;
      EXPECT_EQ(got_stats.tuples_enumerated, want_stats.tuples_enumerated)
          << sqls[q].sql;
      ExpectMatchesReference(rc->db, stmts[q], sqls[q], *got);
      if (!got->rows.empty()) ++nonempty;
    }
  }
  // Guards against a run where no index existed before the appends, or
  // every statement came back empty.
  EXPECT_GT(builds, kSchemas);
  EXPECT_GT(nonempty, kSchemas * 12 / 4);
}

}  // namespace
}  // namespace soda
