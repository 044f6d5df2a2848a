#include "sql/executor.h"

#include <algorithm>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "sql/parser.h"

namespace soda {

namespace {

// Result rows reserved up front for a limit up to this (snippets: 20).
constexpr size_t kReservedRows = 64;

// A tuple in flight: one row index per FROM entry (kUnset = not bound yet).
// Values are read in place from the base tables, so wide tuples stay cheap.
using TupleIds = std::vector<size_t>;
constexpr size_t kUnset = static_cast<size_t>(-1);

// FROM entry: its reference (for the qualifier) and its table.
struct FromEntry {
  const TableRef* ref = nullptr;
  const Table* table = nullptr;
};

// Resolved column: which FROM entry, which column index.
struct ResolvedColumn {
  size_t from_index = 0;
  size_t column_index = 0;
};

// Calls `fn` on every column reference the evaluation reads: WHERE
// operands, GROUP BY keys, and the columns and aggregate arguments of
// select items and ORDER BY keys. An aggregate in WHERE is an error.
template <typename Stmt, typename Fn>
Status ForEachColumnRef(Stmt& stmt, const Fn& fn) {
  auto expr = [&fn](auto& e) {
    bool reads = e.kind == Expr::Kind::kColumn ||
                 (e.kind == Expr::Kind::kAggregate && !e.agg_star);
    return reads ? fn(e.column) : Status::OK();
  };
  for (auto& pred : stmt.where) {
    if (pred.lhs.is_aggregate() || pred.rhs.is_aggregate()) {
      return Status::InvalidArgument("aggregates not allowed in WHERE");
    }
    SODA_RETURN_NOT_OK(expr(pred.lhs));
    SODA_RETURN_NOT_OK(expr(pred.rhs));
  }
  for (auto& item : stmt.items) SODA_RETURN_NOT_OK(expr(item.expr));
  for (auto& column : stmt.group_by) SODA_RETURN_NOT_OK(fn(column));
  for (auto& order : stmt.order_by) SODA_RETURN_NOT_OK(expr(order.expr));
  return Status::OK();
}

}  // namespace

bool IsResolved(const Database& db, const SelectStatement& stmt) {
  if (stmt.from.empty()) return false;
  for (const TableRef& ref : stmt.from) {
    if (ref.ordinal < 0 || size_t(ref.ordinal) >= db.num_tables() ||
        !EqualsFolded(db.table(ref.ordinal).name(), ref.table)) {
      return false;
    }
  }
  Status names_match = ForEachColumnRef(stmt, [&](const ColumnRef& ref) {
    if (ref.from < 0 || size_t(ref.from) >= stmt.from.size() ||
        ref.index < 0) {
      return Status::NotFound("");
    }
    const TableRef& entry = stmt.from[ref.from];
    const auto& columns = db.table(entry.ordinal).columns();
    bool ok = (ref.table.empty() ||
               EqualsFolded(ref.table, entry.qualifier()) ||
               EqualsFolded(ref.table, entry.table)) &&
              size_t(ref.index) < columns.size() &&
              EqualsFolded(columns[ref.index].name, ref.column);
    return ok ? Status::OK() : Status::NotFound("");
  });
  return names_match.ok();
}

namespace {

size_t HashCombine(size_t h, size_t v) {
  return h ^ (v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2));
}

// Row hash and equality for DISTINCT: cells compare with Value::Compare,
// as WHERE does, not through their %.6g literal rendering.
struct RowHash {
  size_t operator()(const std::vector<Value>* row) const {
    size_t h = 0;
    for (const Value& v : *row) h = HashCombine(h, v.Hash());
    return h;
  }
};

struct RowEq {
  bool operator()(const std::vector<Value>* a,
                  const std::vector<Value>* b) const {
    if (a->size() != b->size()) return false;
    for (size_t i = 0; i < a->size(); ++i) {
      if ((*a)[i].Compare((*b)[i]) != 0) return false;
    }
    return true;
  }
};

// Evaluates a resolved statement (IsResolved): it compares no names.
class Evaluation {
 public:
  Evaluation(const Database* db, const SelectStatement& stmt,
             std::optional<int64_t> max_rows)
      : db_(db), stmt_(stmt), limit_(stmt.limit) {
    if (max_rows.has_value() && (!limit_ || *limit_ > *max_rows)) {
      limit_ = max_rows;
    }
  }

  Result<ResultSet> Run() {
    ResolveFrom();
    PartitionPredicates();
    PlanJoins();
    if (!stmt_.group_by.empty() || stmt_.HasAggregates()) {
      return ProduceAggregated();
    }
    return ProduceProjected();
  }

  size_t tuples_enumerated() const { return tuples_enumerated_; }
  size_t index_builds() const { return index_builds_; }
  bool seed_reduced() const { return seed_reduced_; }

 private:
  // ---- resolution -------------------------------------------------------

  void ResolveFrom() {
    for (const TableRef& ref : stmt_.from) {
      from_.push_back(
          FromEntry{&ref, &db_->table(static_cast<size_t>(ref.ordinal))});
    }
  }

  static ResolvedColumn ResolveColumn(const ColumnRef& ref) {
    return ResolvedColumn{static_cast<size_t>(ref.from),
                          static_cast<size_t>(ref.index)};
  }

  // The cell `rc` names in `tuple`; NULL when its table is not bound.
  const Value& Cell(const TupleIds& tuple, const ResolvedColumn& rc) const {
    static const Value kNull;
    size_t row = tuple[rc.from_index];
    if (row == kUnset) return kNull;
    return from_[rc.from_index].table->row(row)[rc.column_index];
  }

  // ---- predicate partitioning -------------------------------------------

  struct JoinCondition {
    ResolvedColumn left;
    ResolvedColumn right;
  };
  struct Filter {
    const Predicate* pred;
    // Resolved operands when the side is a column.
    std::optional<ResolvedColumn> lhs_col;
    std::optional<ResolvedColumn> rhs_col;
  };

  // A pushed `column = literal` filter: its column and its literal.
  struct LiteralEq {
    size_t column;
    const Value* literal;
  };
  static std::optional<LiteralEq> AsLiteralEq(const Filter& f) {
    if (f.pred->op != CompareOp::kEq || (f.lhs_col && f.rhs_col)) {
      return std::nullopt;
    }
    if (f.lhs_col) {
      return LiteralEq{f.lhs_col->column_index, &f.pred->rhs.literal};
    }
    return LiteralEq{f.rhs_col->column_index, &f.pred->lhs.literal};
  }

  void PartitionPredicates() {
    for (const auto& pred : stmt_.where) {
      bool both_columns = pred.lhs.kind == Expr::Kind::kColumn &&
                          pred.rhs.kind == Expr::Kind::kColumn;
      if (both_columns && pred.op == CompareOp::kEq) {
        ResolvedColumn l = ResolveColumn(pred.lhs.column);
        ResolvedColumn r = ResolveColumn(pred.rhs.column);
        if (l.from_index != r.from_index) {
          joins_.push_back(JoinCondition{l, r});
          continue;
        }
      }
      Filter f;
      f.pred = &pred;
      if (pred.lhs.kind == Expr::Kind::kColumn) {
        f.lhs_col = ResolveColumn(pred.lhs.column);
      }
      if (pred.rhs.kind == Expr::Kind::kColumn) {
        f.rhs_col = ResolveColumn(pred.rhs.column);
      }
      filters_.push_back(std::move(f));
    }
  }

  // ---- planning ----------------------------------------------------------

  // One level of the left-deep pipeline: binds a row of `table` to the
  // tuple built by the steps before it.
  struct Step {
    size_t table = 0;
    // Hash step: columns of `table` that must equal already-bound cells.
    // Empty for the seed scan and for cross products.
    std::vector<size_t> key_cols;
    std::vector<ResolvedColumn> probe_cols;
    std::vector<const Filter*> pushed;  // predicates on `table` alone
    std::vector<const Filter*> late;    // multi-table, all bound here
    // Seed step only: the literal of a pushed `lookup_col = literal`,
    // whose index group replaces the scan (nullptr = scan every row).
    const Value* lookup = nullptr;
    size_t lookup_col = 0;
    // The table's index over key_cols[0] (hash step; ChooseProbeKey moves
    // the most selective key there) or lookup_col (seed), fetched on first
    // use so an empty prefix never asks for it.
    const EqualityIndex* index = nullptr;
    // Cross product: rows passing `pushed`, filtered on first use.
    bool built = false;
    std::vector<size_t> rows;
  };

  // Join order: the first FROM table, then repeatedly the next table in
  // FROM order that a join edge connects to the tables already placed
  // (every such edge becomes part of its hash key), else a cross product
  // with the first table not yet placed. Each edge is consumed when its
  // second table is placed, so none is left for a residual pass.
  void PlanJoins() {
    std::vector<bool> placed(from_.size(), false);
    position_.assign(from_.size(), 0);
    steps_.resize(from_.size());
    placed[0] = true;
    std::vector<size_t> applicable;  // indexes into joins_
    for (size_t s = 1; s < from_.size(); ++s) {
      size_t next = kUnset;
      for (size_t candidate = 0; candidate < from_.size() && next == kUnset;
           ++candidate) {
        if (placed[candidate]) continue;
        applicable.clear();
        for (size_t j = 0; j < joins_.size(); ++j) {
          const auto& jc = joins_[j];
          if ((jc.left.from_index == candidate &&
               placed[jc.right.from_index]) ||
              (jc.right.from_index == candidate &&
               placed[jc.left.from_index])) {
            applicable.push_back(j);
          }
        }
        if (!applicable.empty()) next = candidate;
      }
      Step& step = steps_[s];
      if (next == kUnset) {
        next = static_cast<size_t>(
            std::find(placed.begin(), placed.end(), false) - placed.begin());
      } else {
        for (size_t j : applicable) {
          const auto& jc = joins_[j];
          bool left_is_new = jc.left.from_index == next;
          step.key_cols.push_back(left_is_new ? jc.left.column_index
                                              : jc.right.column_index);
          step.probe_cols.push_back(left_is_new ? jc.right : jc.left);
        }
      }
      step.table = next;
      placed[next] = true;
      position_[next] = s;
    }

    // Pushdown: a predicate runs at the step that binds the last of its
    // tables; one over a single table filters that table's seed rows or
    // join candidates.
    for (const Filter& f : filters_) {
      if (!f.lhs_col.has_value() && !f.rhs_col.has_value()) {
        constant_filters_.push_back(&f);
        continue;
      }
      size_t a = f.lhs_col ? position_[f.lhs_col->from_index] : 0;
      size_t b = f.rhs_col ? position_[f.rhs_col->from_index] : 0;
      bool single = !f.lhs_col || !f.rhs_col ||
                    f.lhs_col->from_index == f.rhs_col->from_index;
      Step& step = steps_[std::max(a, b)];
      (single ? step.pushed : step.late).push_back(&f);
    }
    // The seed reads the index group of its first pushed
    // `column = literal` instead of scanning.
    Step& seed = steps_[0];
    for (const Filter* f : seed.pushed) {
      if (std::optional<LiteralEq> eq = AsLiteralEq(*f)) {
        seed.lookup = eq->literal;
        seed.lookup_col = eq->column;
        break;
      }
    }
  }

  // ---- filtering -----------------------------------------------------------

  static bool EvalCompare(const Value& a, CompareOp op, const Value& b) {
    if (op == CompareOp::kLike) {
      if (a.type() != ValueType::kString || b.type() != ValueType::kString) {
        return false;
      }
      return SqlLikeMatch(a.AsString(), b.AsString());
    }
    if (a.is_null() || b.is_null()) return false;  // SQL: NULL compares UNKNOWN
    int c = a.Compare(b);
    switch (op) {
      case CompareOp::kEq:
        return c == 0;
      case CompareOp::kNe:
        return c != 0;
      case CompareOp::kLt:
        return c < 0;
      case CompareOp::kLe:
        return c <= 0;
      case CompareOp::kGt:
        return c > 0;
      case CompareOp::kGe:
        return c >= 0;
      case CompareOp::kLike:
        return false;  // handled above
    }
    return false;
  }

  // True when every filter holds on the current tuple.
  bool Passes(const std::vector<const Filter*>& filters) const {
    for (const Filter* f : filters) {
      const Value& lhs =
          f->lhs_col ? Cell(tuple_, *f->lhs_col) : f->pred->lhs.literal;
      const Value& rhs =
          f->rhs_col ? Cell(tuple_, *f->rhs_col) : f->pred->rhs.literal;
      if (!EvalCompare(lhs, f->pred->op, rhs)) return false;
    }
    return true;
  }

  // ---- enumeration ---------------------------------------------------------

  // Feeds every tuple satisfying the WHERE clause to `emit`, in the
  // nested-loop order of the plan, until `emit` returns false.
  template <typename Emit>
  void Enumerate(const Emit& emit) {
    if (!Passes(constant_filters_)) return;
    tuple_.assign(from_.size(), kUnset);
    ReduceSeed();
    Extend(0, emit);
  }

  // The seed's candidates without the reduction: its lookup group, or
  // every row (nullopt).
  std::optional<std::span<const size_t>> SeedGroup() {
    Step& seed = steps_[0];
    if (seed.lookup == nullptr) return std::nullopt;
    if (seed.index == nullptr) {
      seed.index = &Index(from_[seed.table].table, seed.lookup_col);
    }
    return seed.index->Find(*seed.lookup);
  }

  // Semi-join reduction of the seed. The reached FROM entry whose pushed
  // `column = literal` has the smallest index group, when that group is
  // smaller than the seed's candidates, is carried back to the seed along
  // a join-edge path: each hop maps the rows through the next entry's
  // index on the edge's column and keeps those passing that entry's
  // pushed predicates. A seed row outside the result has no extension
  // (every qualifying tuple's rows satisfy those edges and predicates), so
  // visiting only the result, still ascending, drops no output row and
  // keeps the enumeration order. A hop that outgrows the seed's candidates
  // abandons the reduction.
  void ReduceSeed() {
    if (joins_.empty()) return;
    std::optional<std::span<const size_t>> group = SeedGroup();
    const size_t seed_count =
        group ? group->size() : from_[steps_[0].table].table->num_rows();
    // Breadth-first over the join edges; via[e] = the edge that reached e.
    std::vector<size_t> via(from_.size(), kUnset);
    std::vector<size_t> queue = {steps_[0].table};
    for (size_t q = 0; q < queue.size(); ++q) {
      for (size_t j = 0; j < joins_.size(); ++j) {
        const JoinCondition& jc = joins_[j];
        size_t other = kUnset;
        if (jc.left.from_index == queue[q]) other = jc.right.from_index;
        if (jc.right.from_index == queue[q]) other = jc.left.from_index;
        if (other == kUnset || other == queue[0] || via[other] != kUnset) {
          continue;
        }
        via[other] = j;
        queue.push_back(other);
      }
    }
    size_t start = kUnset;
    std::span<const size_t> best;
    for (size_t q = 1; q < queue.size(); ++q) {
      const size_t e = queue[q];
      for (const Filter* f : steps_[position_[e]].pushed) {
        std::optional<LiteralEq> eq = AsLiteralEq(*f);
        if (!eq) continue;
        std::span<const size_t> rows =
            Index(from_[e].table, eq->column).Find(*eq->literal);
        if (start == kUnset || rows.size() < best.size()) {
          start = e;
          best = rows;
        }
      }
    }
    if (start == kUnset || best.size() >= seed_count) return;
    std::vector<size_t> rows(best.begin(), best.end());
    KeepPassing(start, &rows);
    for (size_t e = start; e != queue[0];) {
      const JoinCondition& jc = joins_[via[e]];
      const bool left_here = jc.left.from_index == e;
      const ResolvedColumn& here = left_here ? jc.left : jc.right;
      const ResolvedColumn& next = left_here ? jc.right : jc.left;
      const EqualityIndex& index =
          Index(from_[next.from_index].table, next.column_index);
      std::vector<size_t> reached;
      for (size_t r : rows) {
        const Value& key = from_[e].table->row(r)[here.column_index];
        for (size_t n : index.Find(key)) reached.push_back(n);
      }
      e = next.from_index;
      KeepPassing(e, &reached);
      if (reached.size() > seed_count) return;
      rows = std::move(reached);
    }
    seed_rows_ = std::move(rows);
    seed_reduced_ = true;
  }

  // Keeps the rows of FROM entry `entry` that pass its pushed predicates,
  // sorted and without duplicates.
  void KeepPassing(size_t entry, std::vector<size_t>* rows) {
    const auto& pushed = steps_[position_[entry]].pushed;
    std::sort(rows->begin(), rows->end());
    rows->erase(std::unique(rows->begin(), rows->end()), rows->end());
    std::erase_if(*rows, [&](size_t r) {
      tuple_[entry] = r;
      return !Passes(pushed);
    });
    tuple_[entry] = kUnset;
  }

  // Binds step `s` and everything after it depth-first; false = stop.
  template <typename Emit>
  bool Extend(size_t s, const Emit& emit) {
    if (s == steps_.size()) return emit(tuple_);
    Step& step = steps_[s];
    const Table* t = from_[step.table].table;
    if (s == 0) {
      // The seed streams its candidates in row order, so an early stop
      // leaves the rest unread: the reduced rows, else the rows equal to
      // the lookup literal, else every row.
      auto visit = [&](size_t r) {
        tuple_[step.table] = r;
        return !Passes(step.pushed) || Bind(s, emit);
      };
      if (seed_reduced_) {
        for (size_t r : seed_rows_) {
          if (!visit(r)) return false;
        }
      } else if (std::optional<std::span<const size_t>> group = SeedGroup()) {
        for (size_t r : *group) {
          if (!visit(r)) return false;
        }
      } else {
        for (size_t r = 0; r < t->num_rows(); ++r) {
          if (!visit(r)) return false;
        }
      }
      return true;
    }
    if (step.key_cols.empty()) {
      if (!step.built) {
        step.built = true;
        for (size_t r = 0; r < t->num_rows(); ++r) {
          tuple_[step.table] = r;
          if (Passes(step.pushed)) step.rows.push_back(r);
        }
      }
      for (size_t r : step.rows) {
        tuple_[step.table] = r;
        if (!Bind(s, emit)) return false;
      }
      return true;
    }
    // Hash step: the group matching the first key, then the other keys
    // and the pushed predicates per candidate. NULL never joins: the index
    // holds no NULL cells, and the further keys are compared as WHERE is.
    if (step.index == nullptr) ChooseProbeKey(t, &step);
    for (size_t r : step.index->Find(Cell(tuple_, step.probe_cols[0]))) {
      tuple_[step.table] = r;
      if (KeysMatch(step, t->row(r)) && Passes(step.pushed) &&
          !Bind(s, emit)) {
        return false;
      }
    }
    return true;
  }

  template <typename Emit>
  bool Bind(size_t s, const Emit& emit) {
    ++tuples_enumerated_;
    if (!Passes(steps_[s].late)) return true;
    return Extend(s + 1, emit);
  }

  // Fetches the step's probe index: the one, over all its keys, with the
  // most distinct values, whose key moves to the front. The rows matching
  // every key are the same ascending row ids whichever key is probed
  // (Value::Hash agrees with Compare), so only the work per probe moves.
  // Ties keep WHERE order.
  void ChooseProbeKey(const Table* t, Step* step) {
    size_t best = 0;
    step->index = &Index(t, step->key_cols[0]);
    for (size_t k = 1; k < step->key_cols.size(); ++k) {
      const EqualityIndex& index = Index(t, step->key_cols[k]);
      if (index.distinct_keys() > step->index->distinct_keys()) {
        best = k;
        step->index = &index;
      }
    }
    std::swap(step->key_cols[0], step->key_cols[best]);
    std::swap(step->probe_cols[0], step->probe_cols[best]);
  }

  // True when `row` matches the bound cells on every key after the first.
  bool KeysMatch(const Step& step, const Row& row) const {
    for (size_t k = 1; k < step.key_cols.size(); ++k) {
      if (!EvalCompare(row[step.key_cols[k]], CompareOp::kEq,
                       Cell(tuple_, step.probe_cols[k]))) {
        return false;
      }
    }
    return true;
  }

  const EqualityIndex& Index(const Table* table, size_t column) {
    bool built = false;
    const EqualityIndex& index = table->IndexOn(column, &built);
    if (built) ++index_builds_;
    return index;
  }

  // ---- output: flat projection ---------------------------------------------

  struct OutputSpec {
    std::vector<std::string> names;
    // Per output column: the column it reads; nullopt means the select
    // item at that position is a literal.
    std::vector<std::optional<ResolvedColumn>> resolved;
  };

  Result<OutputSpec> BuildFlatOutput() {
    OutputSpec spec;
    if (stmt_.select_star()) {
      size_t width = 0;
      for (const FromEntry& entry : from_) width += entry.table->num_columns();
      spec.names.reserve(width);
      spec.resolved.reserve(width);
      for (size_t i = 0; i < from_.size(); ++i) {
        const Table* t = from_[i].table;
        const std::string& qualifier = from_[i].ref->qualifier();
        for (size_t c = 0; c < t->num_columns(); ++c) {
          std::string& name = spec.names.emplace_back();
          name.reserve(qualifier.size() + 1 + t->columns()[c].name.size());
          name += qualifier;
          name += '.';
          name += t->columns()[c].name;
          spec.resolved.push_back(ResolvedColumn{i, c});
        }
      }
      return spec;
    }
    for (const auto& item : stmt_.items) {
      if (item.expr.kind == Expr::Kind::kStar) {
        return Status::InvalidArgument("'*' must be the only select item");
      }
      spec.names.push_back(item.alias.empty() ? item.expr.ToString()
                                              : item.alias);
      if (item.expr.kind == Expr::Kind::kColumn) {
        spec.resolved.push_back(ResolveColumn(item.expr.column));
      } else {
        spec.resolved.push_back(std::nullopt);
      }
    }
    return spec;
  }

  Result<ResultSet> ProduceProjected() {
    SODA_ASSIGN_OR_RETURN(OutputSpec spec, BuildFlatOutput());

    // Resolve order keys.
    std::vector<std::optional<ResolvedColumn>> order_cols;
    for (const auto& o : stmt_.order_by) {
      if (o.expr.kind == Expr::Kind::kColumn) {
        order_cols.push_back(ResolveColumn(o.expr.column));
      } else if (o.expr.kind == Expr::Kind::kLiteral) {
        order_cols.push_back(std::nullopt);
      } else {
        return Status::InvalidArgument(
            "aggregate in ORDER BY requires GROUP BY");
      }
    }

    ResultSet rs;
    rs.column_names = std::move(spec.names);
    auto project = [&](const TupleIds& tuple) {
      std::vector<Value> row;
      row.reserve(spec.resolved.size());
      for (size_t c = 0; c < spec.resolved.size(); ++c) {
        row.push_back(spec.resolved[c] ? Cell(tuple, *spec.resolved[c])
                                       : stmt_.items[c].expr.literal);
      }
      return row;
    };
    // Without DISTINCT the first LIMIT rows are final.
    size_t limit = kUnset;
    if (limit_ && !stmt_.distinct) {
      limit = static_cast<size_t>(*limit_);
    }

    if (stmt_.order_by.empty()) {
      // Rows stream out in enumeration order and stop at the limit.
      if (limit <= kReservedRows) rs.rows.reserve(limit);
      if (limit > 0) {
        Enumerate([&](const TupleIds& tuple) {
          rs.rows.push_back(project(tuple));
          return rs.rows.size() < limit;
        });
      }
      ApplyDistinctAndLimit(&rs);
      return rs;
    }

    // Sort tuple ids first, then project only the rows that survive.
    std::vector<TupleIds> tuples;
    Enumerate([&](const TupleIds& tuple) {
      tuples.push_back(tuple);
      return true;
    });
    std::stable_sort(
        tuples.begin(), tuples.end(),
        [&](const TupleIds& a, const TupleIds& b) {
          for (size_t k = 0; k < order_cols.size(); ++k) {
            if (!order_cols[k]) continue;  // a literal key never decides
            int c = Cell(a, *order_cols[k]).Compare(Cell(b, *order_cols[k]));
            if (c != 0) return stmt_.order_by[k].descending ? c > 0 : c < 0;
          }
          return false;
        });
    if (tuples.size() > limit) tuples.resize(limit);
    rs.rows.reserve(tuples.size());
    for (const auto& tuple : tuples) rs.rows.push_back(project(tuple));
    ApplyDistinctAndLimit(&rs);
    return rs;
  }

  // ---- output: aggregation --------------------------------------------------

  struct AggState {
    int64_t count = 0;
    double sum = 0.0;
    bool sum_valid = false;
    Value min, max;
    // DISTINCT aggregates only; equality is Value::Compare() == 0.
    std::unordered_set<Value, ValueHash> distinct_seen;
  };

  Result<ResultSet> ProduceAggregated() {
    // Resolve group-by keys.
    std::vector<ResolvedColumn> group_cols;
    for (const auto& g : stmt_.group_by) {
      group_cols.push_back(ResolveColumn(g));
    }

    // Collect every aggregate expression mentioned in SELECT or ORDER BY.
    std::vector<Expr> aggs;
    auto intern_agg = [&](const Expr& e) -> size_t {
      for (size_t i = 0; i < aggs.size(); ++i) {
        if (aggs[i] == e) return i;
      }
      aggs.push_back(e);
      return aggs.size() - 1;
    };
    // Validate select items: each is an aggregate or a grouped column.
    struct OutCol {
      bool is_agg;
      size_t agg_index = 0;          // when is_agg
      ResolvedColumn group_col{};    // when !is_agg
      std::string name;
    };
    std::vector<OutCol> out_cols;
    if (stmt_.select_star()) {
      return Status::InvalidArgument("SELECT * cannot be combined with "
                                     "GROUP BY / aggregates");
    }
    for (const auto& item : stmt_.items) {
      OutCol oc;
      oc.name = item.alias.empty() ? item.expr.ToString() : item.alias;
      if (item.expr.is_aggregate()) {
        oc.is_agg = true;
        oc.agg_index = intern_agg(item.expr);
      } else if (item.expr.kind == Expr::Kind::kColumn) {
        ResolvedColumn rc = ResolveColumn(item.expr.column);
        bool grouped = false;
        for (const auto& gc : group_cols) {
          if (gc.from_index == rc.from_index &&
              gc.column_index == rc.column_index) {
            grouped = true;
            break;
          }
        }
        if (!grouped) {
          return Status::InvalidArgument(
              "column '" + item.expr.column.ToString() +
              "' must appear in GROUP BY");
        }
        oc.is_agg = false;
        oc.group_col = rc;
      } else {
        return Status::InvalidArgument(
            "literal select items not supported with GROUP BY");
      }
      out_cols.push_back(std::move(oc));
    }

    struct OrderKey {
      bool is_agg;
      size_t agg_index = 0;
      ResolvedColumn group_col{};
      bool descending;
    };
    std::vector<OrderKey> order_keys;
    for (const auto& o : stmt_.order_by) {
      OrderKey k;
      k.descending = o.descending;
      if (o.expr.is_aggregate()) {
        k.is_agg = true;
        k.agg_index = intern_agg(o.expr);
      } else if (o.expr.kind == Expr::Kind::kColumn) {
        k.is_agg = false;
        k.group_col = ResolveColumn(o.expr.column);
      } else {
        return Status::InvalidArgument("unsupported ORDER BY expression");
      }
      order_keys.push_back(k);
    }

    // Resolve aggregate arguments.
    std::vector<std::optional<ResolvedColumn>> agg_args(aggs.size());
    for (size_t i = 0; i < aggs.size(); ++i) {
      if (!aggs[i].agg_star) agg_args[i] = ResolveColumn(aggs[i].column);
    }

    // Group, folding each tuple in as the pipeline produces it. Groups
    // are kept in first-appearance order and found through the hash of
    // their key cells; two keys are equal when every cell compares equal
    // (Value::Compare), as WHERE compares them.
    struct Group {
      TupleIds representative;
      std::vector<AggState> states;
    };
    std::vector<Group> groups;
    std::unordered_multimap<size_t, size_t> by_hash;  // key hash -> group
    Enumerate([&](const TupleIds& tuple) {
      size_t hash = 0;
      for (const auto& gc : group_cols) {
        hash = HashCombine(hash, Cell(tuple, gc).Hash());
      }
      Group* g = nullptr;
      auto [lo, hi] = by_hash.equal_range(hash);
      for (auto it = lo; it != hi && g == nullptr; ++it) {
        const TupleIds& rep = groups[it->second].representative;
        bool same = true;
        for (const auto& gc : group_cols) {
          same = same && Cell(rep, gc).Compare(Cell(tuple, gc)) == 0;
        }
        if (same) g = &groups[it->second];
      }
      if (g == nullptr) {
        by_hash.emplace(hash, groups.size());
        g = &groups.emplace_back();
        g->representative = tuple;
        g->states.resize(aggs.size());
      }
      for (size_t i = 0; i < aggs.size(); ++i) {
        AggState& st = g->states[i];
        if (aggs[i].agg_star) {
          ++st.count;
          continue;
        }
        const Value& v = Cell(tuple, *agg_args[i]);
        if (v.is_null()) continue;
        if (aggs[i].agg_distinct && !st.distinct_seen.insert(v).second) {
          continue;  // DISTINCT: this value was already aggregated
        }
        ++st.count;
        if (v.IsNumeric()) {
          st.sum += v.NumericValue();
          st.sum_valid = true;
        }
        if (st.min.is_null() || v.Compare(st.min) < 0) st.min = v;
        if (st.max.is_null() || v.Compare(st.max) > 0) st.max = v;
      }
      return true;
    });
    // Aggregate query with no GROUP BY over an empty input still yields one
    // row (COUNT(*) = 0), per SQL semantics.
    if (groups.empty() && group_cols.empty()) {
      Group& g = groups.emplace_back();
      g.states.resize(aggs.size());
      g.representative.assign(from_.size(), kUnset);
    }

    // Groups come out sorted by their rendered key cells, the order of the
    // string-keyed map this replaces; first appearance breaks the ties
    // between distinct values that render alike (nearby doubles under
    // %.6g), which that map merged into one group.
    std::vector<std::pair<std::string, size_t>> order;
    order.reserve(groups.size());
    for (size_t i = 0; i < groups.size(); ++i) {
      std::string key;
      for (const auto& gc : group_cols) {
        key += Cell(groups[i].representative, gc).ToSqlLiteral();
        key += '\x1f';
      }
      order.emplace_back(std::move(key), i);
    }
    std::sort(order.begin(), order.end());

    auto finalize = [](const Expr& agg, const AggState& st) -> Value {
      switch (agg.agg) {
        case AggFunc::kCount:
          return Value::Int(st.count);
        case AggFunc::kSum:
          if (st.count == 0 || !st.sum_valid) return Value::Null();
          return Value::Real(st.sum);
        case AggFunc::kAvg:
          if (st.count == 0 || !st.sum_valid) return Value::Null();
          return Value::Real(st.sum / static_cast<double>(st.count));
        case AggFunc::kMin:
          return st.min;
        case AggFunc::kMax:
          return st.max;
      }
      return Value::Null();
    };

    // Produce one output row per group plus its order keys.
    struct OutRow {
      std::vector<Value> cells;
      std::vector<Value> order_values;
    };
    std::vector<OutRow> out_rows;
    out_rows.reserve(groups.size());
    for (const auto& [key, index] : order) {
      const Group& g = groups[index];
      OutRow row;
      for (const auto& oc : out_cols) {
        if (oc.is_agg) {
          row.cells.push_back(finalize(aggs[oc.agg_index],
                                       g.states[oc.agg_index]));
        } else {
          row.cells.push_back(Cell(g.representative, oc.group_col));
        }
      }
      for (const auto& k : order_keys) {
        if (k.is_agg) {
          row.order_values.push_back(
              finalize(aggs[k.agg_index], g.states[k.agg_index]));
        } else {
          row.order_values.push_back(Cell(g.representative, k.group_col));
        }
      }
      out_rows.push_back(std::move(row));
    }

    if (!order_keys.empty()) {
      std::stable_sort(out_rows.begin(), out_rows.end(),
                       [&](const OutRow& a, const OutRow& b) {
                         for (size_t k = 0; k < order_keys.size(); ++k) {
                           int c = a.order_values[k].Compare(b.order_values[k]);
                           if (c != 0) {
                             return order_keys[k].descending ? c > 0 : c < 0;
                           }
                         }
                         return false;
                       });
    }

    ResultSet rs;
    for (const auto& oc : out_cols) rs.column_names.push_back(oc.name);
    rs.rows.reserve(out_rows.size());
    for (auto& r : out_rows) rs.rows.push_back(std::move(r.cells));
    ApplyDistinctAndLimit(&rs);
    return rs;
  }

  void ApplyDistinctAndLimit(ResultSet* rs) const {
    if (stmt_.distinct) {
      // Mark first occurrences before moving any row: the set points into
      // rs->rows.
      std::unordered_set<const std::vector<Value>*, RowHash, RowEq> seen;
      std::vector<bool> first(rs->rows.size());
      for (size_t i = 0; i < rs->rows.size(); ++i) {
        first[i] = seen.insert(&rs->rows[i]).second;
      }
      size_t kept = 0;
      for (size_t i = 0; i < rs->rows.size(); ++i) {
        if (!first[i]) continue;
        if (kept != i) rs->rows[kept] = std::move(rs->rows[i]);
        ++kept;
      }
      rs->rows.resize(kept);
    }
    if (limit_.has_value() && rs->rows.size() > static_cast<size_t>(*limit_)) {
      rs->rows.resize(static_cast<size_t>(*limit_));
    }
  }

  const Database* db_;
  const SelectStatement& stmt_;
  std::optional<int64_t> limit_;  // min(LIMIT, the caller's row cap)
  std::vector<FromEntry> from_;
  std::vector<JoinCondition> joins_;
  std::vector<Filter> filters_;
  std::vector<const Filter*> constant_filters_;  // literal-only predicates
  std::vector<Step> steps_;
  std::vector<size_t> position_;  // FROM entry -> the step that binds it
  TupleIds tuple_;  // the tuple being extended
  // The seed rows left by ReduceSeed, when it applied.
  std::vector<size_t> seed_rows_;
  bool seed_reduced_ = false;
  size_t tuples_enumerated_ = 0;
  size_t index_builds_ = 0;
};

}  // namespace

bool SqlLikeMatch(const std::string& text, const std::string& pattern) {
  // Iterative wildcard match with backtracking over the last '%'.
  size_t t = 0, p = 0;
  size_t star_p = std::string::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

Status ResolveStatement(const Database& db, SelectStatement* stmt) {
  if (stmt->from.empty()) {
    return Status::InvalidArgument("FROM list is empty");
  }
  struct Scope {
    const Table* table;
    std::string folded_qualifier;
    std::string folded_table;
  };
  std::vector<Scope> scopes;
  for (TableRef& ref : stmt->from) {
    const Table* t = db.FindTable(ref.table);
    if (t == nullptr) {
      return Status::NotFound("unknown table '" + ref.table + "'");
    }
    std::string folded = FoldForMatch(ref.qualifier());
    for (const Scope& existing : scopes) {
      if (existing.folded_qualifier == folded) {
        return Status::InvalidArgument("duplicate table qualifier '" +
                                       ref.qualifier() + "'");
      }
    }
    for (size_t i = 0; i < db.num_tables(); ++i) {
      if (&db.table(i) == t) ref.ordinal = static_cast<int32_t>(i);
    }
    scopes.push_back(Scope{t, std::move(folded), FoldForMatch(t->name())});
  }
  return ForEachColumnRef(*stmt, [&scopes](ColumnRef& ref) -> Status {
    if (!ref.table.empty()) {
      const std::string folded = FoldForMatch(ref.table);
      for (size_t i = 0; i < scopes.size(); ++i) {
        if (scopes[i].folded_qualifier != folded &&
            scopes[i].folded_table != folded) {
          continue;
        }
        int col = scopes[i].table->ColumnIndex(ref.column);
        if (col < 0) {
          return Status::NotFound("table '" + ref.table +
                                  "' has no column '" + ref.column + "'");
        }
        ref.from = static_cast<int32_t>(i);
        ref.index = col;
        return Status::OK();
      }
      return Status::NotFound("unknown table qualifier '" + ref.table + "'");
    }
    // Unqualified: must resolve to exactly one table in scope.
    int hits = 0;
    for (size_t i = 0; i < scopes.size(); ++i) {
      int col = scopes[i].table->ColumnIndex(ref.column);
      if (col >= 0) {
        ref.from = static_cast<int32_t>(i);
        ref.index = col;
        ++hits;
      }
    }
    if (hits == 0) {
      return Status::NotFound("unknown column '" + ref.column + "'");
    }
    if (hits > 1) {
      return Status::InvalidArgument("ambiguous column '" + ref.column + "'");
    }
    return Status::OK();
  });
}

Result<ResultSet> Executor::Execute(const SelectStatement& stmt,
                                    ExecStats* stats,
                                    std::optional<int64_t> max_rows) const {
  if (!IsResolved(*db_, stmt)) {
    return Status::InvalidArgument(
        "statement is not resolved against this database "
        "(ResolveStatement): " + stmt.ToSql());
  }
  Evaluation eval(db_, stmt, max_rows);
  Result<ResultSet> rs = eval.Run();
  if (stats != nullptr && rs.ok()) {
    stats->rows_output = rs->rows.size();
    stats->tables = stmt.from.size();
    stats->tuples_enumerated = eval.tuples_enumerated();
    stats->index_builds = eval.index_builds();
    stats->seed_reduced = eval.seed_reduced();
  }
  return rs;
}

Result<ResultSet> Executor::ExecuteSql(std::string_view sql) const {
  SODA_ASSIGN_OR_RETURN(SelectStatement stmt, ParseSql(sql));
  SODA_RETURN_NOT_OK(ResolveStatement(*db_, &stmt));
  return Execute(stmt);
}

}  // namespace soda
