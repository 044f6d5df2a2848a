#include "sql/executor.h"

#include <algorithm>
#include <map>
#include <unordered_set>
#include <vector>

#include "common/strings.h"
#include "sql/parser.h"

namespace soda {

namespace {

// A tuple in flight: one row index per FROM entry (kUnset = not bound yet).
// Values are read in place from the base tables, so wide tuples stay cheap.
using TupleIds = std::vector<size_t>;
constexpr size_t kUnset = static_cast<size_t>(-1);

// Resolved FROM entry.
struct FromEntry {
  std::string qualifier;  // alias or table name (original case)
  const Table* table = nullptr;
};

// Resolved column: which FROM entry, which column index.
struct ResolvedColumn {
  size_t from_index = 0;
  size_t column_index = 0;
};

// Row hash and equality for DISTINCT: cells compare with Value::Compare,
// as WHERE does, not through their %.6g literal rendering.
struct RowHash {
  size_t operator()(const std::vector<Value>* row) const {
    size_t h = 0;
    for (const Value& v : *row) {
      h ^= v.Hash() + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    }
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

class Evaluation {
 public:
  Evaluation(const Database* db, const SelectStatement& stmt)
      : db_(db), stmt_(stmt) {}

  Result<ResultSet> Run() {
    SODA_RETURN_NOT_OK(ResolveFrom());
    SODA_RETURN_NOT_OK(PartitionPredicates());
    PlanJoins();
    if (!stmt_.group_by.empty() || stmt_.HasAggregates()) {
      return ProduceAggregated();
    }
    return ProduceProjected();
  }

  size_t tuples_enumerated() const { return tuples_enumerated_; }
  size_t index_builds() const { return index_builds_; }

 private:
  // ---- resolution -------------------------------------------------------

  Status ResolveFrom() {
    if (stmt_.from.empty()) {
      return Status::InvalidArgument("FROM list is empty");
    }
    for (const auto& ref : stmt_.from) {
      const Table* t = db_->FindTable(ref.table);
      if (t == nullptr) {
        return Status::NotFound("unknown table '" + ref.table + "'");
      }
      std::string qualifier = ref.qualifier();
      for (const auto& existing : from_) {
        if (EqualsFolded(existing.qualifier, qualifier)) {
          return Status::InvalidArgument("duplicate table qualifier '" +
                                         qualifier + "'");
        }
      }
      from_.push_back(FromEntry{qualifier, t});
    }
    return Status::OK();
  }

  Result<ResolvedColumn> ResolveColumn(const ColumnRef& ref) const {
    if (!ref.table.empty()) {
      for (size_t i = 0; i < from_.size(); ++i) {
        if (EqualsFolded(from_[i].qualifier, ref.table) ||
            EqualsFolded(from_[i].table->name(), ref.table)) {
          int col = from_[i].table->ColumnIndex(ref.column);
          if (col < 0) {
            return Status::NotFound("table '" + ref.table +
                                    "' has no column '" + ref.column + "'");
          }
          return ResolvedColumn{i, static_cast<size_t>(col)};
        }
      }
      return Status::NotFound("unknown table qualifier '" + ref.table + "'");
    }
    // Unqualified: must resolve to exactly one table in scope.
    ResolvedColumn found;
    int hits = 0;
    for (size_t i = 0; i < from_.size(); ++i) {
      int col = from_[i].table->ColumnIndex(ref.column);
      if (col >= 0) {
        found = ResolvedColumn{i, static_cast<size_t>(col)};
        ++hits;
      }
    }
    if (hits == 0) {
      return Status::NotFound("unknown column '" + ref.column + "'");
    }
    if (hits > 1) {
      return Status::InvalidArgument("ambiguous column '" + ref.column + "'");
    }
    return found;
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

  Status PartitionPredicates() {
    for (const auto& pred : stmt_.where) {
      bool both_columns = pred.lhs.kind == Expr::Kind::kColumn &&
                          pred.rhs.kind == Expr::Kind::kColumn;
      if (both_columns && pred.op == CompareOp::kEq) {
        SODA_ASSIGN_OR_RETURN(ResolvedColumn l, ResolveColumn(pred.lhs.column));
        SODA_ASSIGN_OR_RETURN(ResolvedColumn r, ResolveColumn(pred.rhs.column));
        if (l.from_index != r.from_index) {
          joins_.push_back(JoinCondition{l, r});
          continue;
        }
      }
      Filter f;
      f.pred = &pred;
      if (pred.lhs.kind == Expr::Kind::kColumn) {
        SODA_ASSIGN_OR_RETURN(ResolvedColumn rc, ResolveColumn(pred.lhs.column));
        f.lhs_col = rc;
      } else if (pred.lhs.kind == Expr::Kind::kAggregate) {
        return Status::InvalidArgument("aggregates not allowed in WHERE");
      }
      if (pred.rhs.kind == Expr::Kind::kColumn) {
        SODA_ASSIGN_OR_RETURN(ResolvedColumn rc, ResolveColumn(pred.rhs.column));
        f.rhs_col = rc;
      } else if (pred.rhs.kind == Expr::Kind::kAggregate) {
        return Status::InvalidArgument("aggregates not allowed in WHERE");
      }
      filters_.push_back(std::move(f));
    }
    return Status::OK();
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
    // The table's index over key_cols[0] (hash step) or lookup_col (seed),
    // fetched on first use so an empty prefix never asks for it.
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
    std::vector<size_t> position(from_.size(), 0);
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
      position[next] = s;
    }

    // Pushdown: a predicate runs at the step that binds the last of its
    // tables; one over a single table filters that table's seed rows or
    // join candidates.
    for (const Filter& f : filters_) {
      if (!f.lhs_col.has_value() && !f.rhs_col.has_value()) {
        constant_filters_.push_back(&f);
        continue;
      }
      size_t a = f.lhs_col ? position[f.lhs_col->from_index] : 0;
      size_t b = f.rhs_col ? position[f.rhs_col->from_index] : 0;
      bool single = !f.lhs_col || !f.rhs_col ||
                    f.lhs_col->from_index == f.rhs_col->from_index;
      Step& step = steps_[std::max(a, b)];
      (single ? step.pushed : step.late).push_back(&f);
    }
    // The seed reads the index group of its first pushed
    // `column = literal` instead of scanning.
    Step& seed = steps_[0];
    for (const Filter* f : seed.pushed) {
      if (f->pred->op != CompareOp::kEq || (f->lhs_col && f->rhs_col)) {
        continue;
      }
      seed.lookup = f->lhs_col ? &f->pred->rhs.literal : &f->pred->lhs.literal;
      seed.lookup_col = (f->lhs_col ? *f->lhs_col : *f->rhs_col).column_index;
      break;
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
    Extend(0, emit);
  }

  // Binds step `s` and everything after it depth-first; false = stop.
  template <typename Emit>
  bool Extend(size_t s, const Emit& emit) {
    if (s == steps_.size()) return emit(tuple_);
    Step& step = steps_[s];
    const Table* t = from_[step.table].table;
    if (s == 0 && step.lookup == nullptr) {
      // The seed scan streams, so an early stop leaves the rest unread.
      for (size_t r = 0; r < t->num_rows(); ++r) {
        tuple_[step.table] = r;
        if (Passes(step.pushed) && !Bind(s, emit)) return false;
      }
      return true;
    }
    if (s == 0) {
      // Seed lookup: only the rows equal to the literal, in row order.
      if (step.index == nullptr) step.index = &Index(t, step.lookup_col);
      for (size_t r : step.index->Find(*step.lookup)) {
        tuple_[step.table] = r;
        if (Passes(step.pushed) && !Bind(s, emit)) return false;
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
    if (step.index == nullptr) step.index = &Index(t, step.key_cols[0]);
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
    // One evaluator per output column; nullopt means literal.
    std::vector<Expr> exprs;
    std::vector<std::optional<ResolvedColumn>> resolved;
  };

  Result<OutputSpec> BuildFlatOutput() {
    OutputSpec spec;
    if (stmt_.select_star()) {
      for (size_t i = 0; i < from_.size(); ++i) {
        const Table* t = from_[i].table;
        for (size_t c = 0; c < t->num_columns(); ++c) {
          spec.names.push_back(from_[i].qualifier + "." +
                               t->columns()[c].name);
          spec.exprs.push_back(Expr::MakeColumn(from_[i].qualifier,
                                                t->columns()[c].name));
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
      spec.exprs.push_back(item.expr);
      if (item.expr.kind == Expr::Kind::kColumn) {
        SODA_ASSIGN_OR_RETURN(ResolvedColumn rc,
                              ResolveColumn(item.expr.column));
        spec.resolved.push_back(rc);
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
        SODA_ASSIGN_OR_RETURN(ResolvedColumn rc, ResolveColumn(o.expr.column));
        order_cols.push_back(rc);
      } else if (o.expr.kind == Expr::Kind::kLiteral) {
        order_cols.push_back(std::nullopt);
      } else {
        return Status::InvalidArgument(
            "aggregate in ORDER BY requires GROUP BY");
      }
    }

    ResultSet rs;
    rs.column_names = spec.names;
    auto project = [&](const TupleIds& tuple) {
      std::vector<Value> row;
      row.reserve(spec.exprs.size());
      for (size_t c = 0; c < spec.exprs.size(); ++c) {
        row.push_back(spec.resolved[c] ? Cell(tuple, *spec.resolved[c])
                                       : spec.exprs[c].literal);
      }
      return row;
    };
    // Without DISTINCT the first LIMIT rows are final.
    size_t limit = kUnset;
    if (stmt_.limit && !stmt_.distinct) {
      limit = static_cast<size_t>(*stmt_.limit);
    }

    if (stmt_.order_by.empty()) {
      // Rows stream out in enumeration order and stop at the limit.
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
      SODA_ASSIGN_OR_RETURN(ResolvedColumn rc, ResolveColumn(g));
      group_cols.push_back(rc);
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
        SODA_ASSIGN_OR_RETURN(ResolvedColumn rc,
                              ResolveColumn(item.expr.column));
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
        SODA_ASSIGN_OR_RETURN(ResolvedColumn rc, ResolveColumn(o.expr.column));
        k.is_agg = false;
        k.group_col = rc;
      } else {
        return Status::InvalidArgument("unsupported ORDER BY expression");
      }
      order_keys.push_back(k);
    }

    // Resolve aggregate arguments.
    std::vector<std::optional<ResolvedColumn>> agg_args(aggs.size());
    for (size_t i = 0; i < aggs.size(); ++i) {
      if (!aggs[i].agg_star) {
        SODA_ASSIGN_OR_RETURN(ResolvedColumn rc,
                              ResolveColumn(aggs[i].column));
        agg_args[i] = rc;
      }
    }

    // Group, folding each tuple in as the pipeline produces it. The
    // string-keyed map fixes the output order of GROUP BY without ORDER BY.
    struct Group {
      TupleIds representative;
      std::vector<AggState> states;
    };
    std::map<std::string, Group> groups;
    Enumerate([&](const TupleIds& tuple) {
      std::string key;
      for (const auto& gc : group_cols) {
        key += Cell(tuple, gc).ToSqlLiteral();
        key += '\x1f';
      }
      auto [it, inserted] = groups.try_emplace(std::move(key));
      Group& g = it->second;
      if (inserted) {
        g.representative = tuple;
        g.states.resize(aggs.size());
      }
      for (size_t i = 0; i < aggs.size(); ++i) {
        AggState& st = g.states[i];
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
      Group g;
      g.states.resize(aggs.size());
      g.representative.assign(from_.size(), kUnset);
      groups.emplace("", std::move(g));
    }

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
    for (auto& [key, g] : groups) {
      (void)key;
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
    if (stmt_.limit.has_value() &&
        rs->rows.size() > static_cast<size_t>(*stmt_.limit)) {
      rs->rows.resize(static_cast<size_t>(*stmt_.limit));
    }
  }

  const Database* db_;
  const SelectStatement& stmt_;
  std::vector<FromEntry> from_;
  std::vector<JoinCondition> joins_;
  std::vector<Filter> filters_;
  std::vector<const Filter*> constant_filters_;  // literal-only predicates
  std::vector<Step> steps_;
  TupleIds tuple_;  // the tuple being extended
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

Result<ResultSet> Executor::Execute(const SelectStatement& stmt,
                                    ExecStats* stats) const {
  Evaluation eval(db_, stmt);
  Result<ResultSet> rs = eval.Run();
  if (stats != nullptr && rs.ok()) {
    stats->rows_output = rs->rows.size();
    stats->tables = stmt.from.size();
    stats->tuples_enumerated = eval.tuples_enumerated();
    stats->index_builds = eval.index_builds();
  }
  return rs;
}

Result<ResultSet> Executor::ExecuteSql(std::string_view sql) const {
  SODA_ASSIGN_OR_RETURN(SelectStatement stmt, ParseSql(sql));
  return Execute(stmt);
}

}  // namespace soda
