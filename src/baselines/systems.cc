// The five baseline systems (see baselines/baseline.h).

#include <algorithm>

#include "baselines/baseline.h"
#include "common/strings.h"
#include "core/input_query.h"
#include "text/tokenizer.h"

namespace soda {

namespace {

// ---------------------------------------------------------------------------
// shared translation helpers
// ---------------------------------------------------------------------------

// A matched keyword: either a base-data value hit or a schema object.
struct Match {
  bool is_value = false;
  std::string table;
  std::string column;  // for value hits
  std::string value;
};

// Greedy longest-phrase segmentation against the inverted index only.
std::vector<std::string> SegmentAgainstBaseData(
    const InvertedIndex& index, const std::vector<std::string>& words) {
  std::vector<std::string> phrases;
  size_t i = 0;
  while (i < words.size()) {
    bool matched = false;
    for (size_t len = words.size() - i; len >= 1; --len) {
      std::string phrase;
      for (size_t k = 0; k < len; ++k) {
        if (k > 0) phrase += ' ';
        phrase += words[i + k];
      }
      if (!index.LookupPhrase(phrase).empty()) {
        phrases.push_back(phrase);
        i += len;
        matched = true;
        break;
      }
    }
    if (!matched) ++i;  // unmatched word: all of these systems drop it
  }
  return phrases;
}

SelectStatement BuildSelectStar(const std::vector<std::string>& tables,
                                const std::vector<JoinEdge>& joins,
                                const std::vector<Match>& value_matches) {
  SelectStatement stmt;
  stmt.items.push_back(SelectItem{Expr::MakeStar(), ""});
  for (const auto& table : tables) {
    stmt.from.push_back(TableRef{table, ""});
  }
  for (const JoinEdge& join : joins) {
    stmt.where.push_back(
        Predicate{Expr::MakeColumn(join.from.table, join.from.column),
                  CompareOp::kEq,
                  Expr::MakeColumn(join.to.table, join.to.column)});
  }
  for (const Match& match : value_matches) {
    if (!match.is_value) continue;
    stmt.where.push_back(
        Predicate{Expr::MakeColumn(match.table, match.column),
                  CompareOp::kEq,
                  Expr::MakeLiteral(Value::Str(match.value))});
  }
  return stmt;
}

// ---------------------------------------------------------------------------
// DBExplorer (Agrawal et al., ICDE 2002)
// ---------------------------------------------------------------------------

class DbExplorer : public KeywordSearchSystem {
 public:
  explicit DbExplorer(const BaselineContext* context) : context_(context) {}

  std::string name() const override { return "DBExplorer"; }

  SupportLevel DeclaredSupport(QueryType type) const override {
    switch (type) {
      case QueryType::kBaseData:
        return SupportLevel::kPartial;  // "(X)": breaks on schema cycles
      default:
        return SupportLevel::kNo;
    }
  }

  Result<BaselineAnswer> Translate(const std::string& query) const override {
    BaselineAnswer answer;
    std::vector<std::string> phrases = SegmentAgainstBaseData(
        *context_->inverted_index, Tokenize(query));
    if (phrases.empty()) {
      answer.failure_reason =
          "no keyword occurs in the base data (DBExplorer has no schema "
          "matching, ontology, predicate or aggregate support)";
      return answer;
    }
    std::vector<Match> matches;
    std::vector<std::string> tables;
    for (const auto& phrase : phrases) {
      auto postings = context_->inverted_index->LookupPhrase(phrase);
      const ValuePosting& posting = postings.front();
      matches.push_back(
          Match{true, posting.table, posting.column, posting.value});
      tables.push_back(posting.table);
    }
    // The published join-tree enumeration assumes an acyclic schema graph.
    for (const auto& table : tables) {
      if (ForeignKeyComponentHasCycle(context_->foreign_keys, table)) {
        answer.failure_reason =
            "foreign-key graph around '" + table +
            "' contains cycles; DBExplorer's join trees are undefined";
        return answer;
      }
    }
    std::vector<JoinEdge> joins;
    std::vector<std::string> all_tables;
    if (!ConnectByForeignKeys(context_->foreign_keys, tables,
                              /*directed=*/false, &joins, &all_tables)) {
      answer.failure_reason = "keyword tables cannot be connected";
      return answer;
    }
    answer.answered = true;
    answer.statements.push_back(BuildSelectStar(all_tables, joins, matches));
    return answer;
  }

 private:
  const BaselineContext* context_;
};

// ---------------------------------------------------------------------------
// DISCOVER (Hristidis & Papakonstantinou, VLDB 2002)
// ---------------------------------------------------------------------------

class Discover : public KeywordSearchSystem {
 public:
  explicit Discover(const BaselineContext* context) : context_(context) {}

  std::string name() const override { return "DISCOVER"; }

  SupportLevel DeclaredSupport(QueryType type) const override {
    switch (type) {
      case QueryType::kBaseData:
        return SupportLevel::kPartial;  // same cycle caveat as DBExplorer
      default:
        return SupportLevel::kNo;
    }
  }

  Result<BaselineAnswer> Translate(const std::string& query) const override {
    BaselineAnswer answer;
    std::vector<std::string> phrases = SegmentAgainstBaseData(
        *context_->inverted_index, Tokenize(query));
    if (phrases.empty()) {
      answer.failure_reason = "no keyword occurs in the base data";
      return answer;
    }
    // Candidate networks: one statement per combination of value hits,
    // capped. Cycles invalidate the candidate-network enumeration.
    std::vector<std::vector<ValuePosting>> hits;
    for (const auto& phrase : phrases) {
      hits.push_back(context_->inverted_index->LookupPhrase(phrase));
    }
    constexpr size_t kMaxNetworks = 8;
    std::vector<size_t> cursor(hits.size(), 0);
    while (answer.statements.size() < kMaxNetworks) {
      std::vector<Match> matches;
      std::vector<std::string> tables;
      for (size_t i = 0; i < hits.size(); ++i) {
        const ValuePosting& posting = hits[i][cursor[i]];
        matches.push_back(
            Match{true, posting.table, posting.column, posting.value});
        tables.push_back(posting.table);
      }
      bool cyclic = false;
      for (const auto& table : tables) {
        if (ForeignKeyComponentHasCycle(context_->foreign_keys, table)) {
          cyclic = true;
          break;
        }
      }
      if (cyclic) {
        answer.failure_reason =
            "candidate network touches a cyclic schema region";
        return answer;
      }
      std::vector<JoinEdge> joins;
      std::vector<std::string> all_tables;
      if (ConnectByForeignKeys(context_->foreign_keys, tables,
                               /*directed=*/false, &joins, &all_tables)) {
        answer.statements.push_back(
            BuildSelectStar(all_tables, joins, matches));
      }
      size_t k = 0;
      while (k < cursor.size() && ++cursor[k] == hits[k].size()) {
        cursor[k] = 0;
        ++k;
      }
      if (k == cursor.size()) break;
    }
    answer.answered = !answer.statements.empty();
    if (!answer.answered) {
      answer.failure_reason = "no connected candidate network";
    }
    return answer;
  }

 private:
  const BaselineContext* context_;
};

// ---------------------------------------------------------------------------
// BANKS (Bhalotia et al., ICDE 2002)
// ---------------------------------------------------------------------------

class Banks : public KeywordSearchSystem {
 public:
  explicit Banks(const BaselineContext* context) : context_(context) {}

  std::string name() const override { return "BANKS"; }

  SupportLevel DeclaredSupport(QueryType type) const override {
    switch (type) {
      case QueryType::kBaseData:
      case QueryType::kSchema:
        return SupportLevel::kYes;
      default:
        return SupportLevel::kNo;
    }
  }

  Result<BaselineAnswer> Translate(const std::string& query) const override {
    BaselineAnswer answer;
    // BANKS matches base data and relation/attribute names, nothing else.
    std::vector<std::string> ignored;
    std::vector<LookupTerm> phrases =
        context_->classification->SegmentKeywords(Tokenize(query), &ignored);
    std::vector<Match> matches;
    std::vector<std::string> tables;
    for (const LookupTerm& phrase : phrases) {
      bool found = false;
      for (const EntryPoint& candidate : phrase.candidates) {
        if (candidate.kind == EntryPoint::Kind::kBaseData) {
          matches.push_back(Match{true, candidate.table_name(),
                                  candidate.column_name(), candidate.value()});
          tables.push_back(candidate.table_name());
          found = true;
          break;
        }
        // Physical schema names only — BANKS knows nothing of conceptual
        // models or ontologies.
        if (candidate.layer == MetadataLayer::kPhysicalSchema) {
          std::string table(candidate.label);
          if (context_->db->FindTable(table) != nullptr) {
            matches.push_back(Match{false, table, "", ""});
            tables.push_back(table);
            found = true;
            break;
          }
        }
      }
      (void)found;
    }
    if (tables.empty()) {
      answer.failure_reason =
          "no keyword matches base data or physical schema names";
      return answer;
    }
    // Steiner-tree style connection; cycles are no problem for BANKS.
    std::vector<JoinEdge> joins;
    std::vector<std::string> all_tables;
    if (!ConnectByForeignKeys(context_->foreign_keys, tables,
                              /*directed=*/false, &joins, &all_tables)) {
      answer.failure_reason = "keyword nodes lie in disconnected components";
      return answer;
    }
    answer.answered = true;
    answer.statements.push_back(BuildSelectStar(all_tables, joins, matches));
    return answer;
  }

 private:
  const BaselineContext* context_;
};

// ---------------------------------------------------------------------------
// SQAK (Tata & Lohman, SIGMOD 2008)
// ---------------------------------------------------------------------------

class Sqak : public KeywordSearchSystem {
 public:
  explicit Sqak(const BaselineContext* context) : context_(context) {}

  std::string name() const override { return "SQAK"; }

  SupportLevel DeclaredSupport(QueryType type) const override {
    switch (type) {
      case QueryType::kAggregates:
        return SupportLevel::kYes;
      default:
        return SupportLevel::kNo;  // including simple keyword queries
    }
  }

  Result<BaselineAnswer> Translate(const std::string& query) const override {
    BaselineAnswer answer;
    SODA_ASSIGN_OR_RETURN(InputQuery parsed, ParseInputQuery(query));
    if (!parsed.HasAggregation()) {
      answer.failure_reason =
          "query does not match SQAK's SELECT-PROJECT-JOIN-GROUP-BY "
          "pattern (no aggregation function)";
      return answer;
    }
    SelectStatement stmt;
    std::vector<std::string> tables;
    auto resolve_column =
        [&](const std::string& phrase) -> std::optional<PhysicalColumnRef> {
      for (const EntryPoint& candidate :
           context_->metadata_only_classification->Lookup(phrase)) {
        // SQAK matches schema terms (table/column names) directly.
        if (candidate.layer != MetadataLayer::kPhysicalSchema &&
            candidate.layer != MetadataLayer::kLogicalSchema) {
          continue;
        }
        auto column =
            ResolvePhysicalColumn(*context_->graph_for_resolution, candidate.node);
        if (column.has_value()) return column;
      }
      return std::nullopt;
    };
    for (const InputElement& element : parsed.elements) {
      if (element.kind == InputElement::Kind::kAggregation) {
        if (element.agg_argument.empty()) {
          stmt.items.push_back(SelectItem{Expr::MakeCountStar(), ""});
          continue;
        }
        auto column = resolve_column(element.agg_argument);
        if (!column.has_value()) {
          answer.failure_reason = "aggregation attribute '" +
                                  element.agg_argument +
                                  "' does not match a schema term";
          return answer;
        }
        stmt.items.push_back(SelectItem{
            Expr::MakeAggregate(element.agg,
                                ColumnRef{column->table, column->column}),
            ""});
        tables.push_back(column->table);
      } else if (element.kind == InputElement::Kind::kGroupBy) {
        for (const auto& phrase : element.group_by_phrases) {
          auto column = resolve_column(phrase);
          if (!column.has_value()) {
            answer.failure_reason = "group-by attribute '" + phrase +
                                    "' does not match a schema term";
            return answer;
          }
          stmt.items.push_back(SelectItem{
              Expr::MakeColumn(column->table, column->column), ""});
          stmt.group_by.push_back(ColumnRef{column->table, column->column});
          tables.push_back(column->table);
        }
      }
      // Plain keywords: SQAK maps them to schema terms only; base-data
      // values and business terms are out of scope — ignored here.
    }
    if (tables.empty()) {
      answer.failure_reason = "no aggregation attribute resolved";
      return answer;
    }
    std::vector<JoinEdge> joins;
    std::vector<std::string> all_tables;
    // SQAK computes join paths that respect foreign-key direction.
    if (!ConnectByForeignKeys(context_->foreign_keys, tables,
                              /*directed=*/true, &joins, &all_tables)) {
      answer.failure_reason =
          "tables cannot be connected respecting foreign-key direction";
      return answer;
    }
    for (const auto& table : all_tables) {
      bool present = false;
      for (const auto& ref : stmt.from) {
        if (EqualsFolded(ref.table, table)) present = true;
      }
      if (!present) stmt.from.push_back(TableRef{table, ""});
    }
    for (const JoinEdge& join : joins) {
      stmt.where.push_back(
          Predicate{Expr::MakeColumn(join.from.table, join.from.column),
                    CompareOp::kEq,
                    Expr::MakeColumn(join.to.table, join.to.column)});
    }
    answer.answered = true;
    answer.statements.push_back(std::move(stmt));
    return answer;
  }

 private:
  const BaselineContext* context_;
};

// ---------------------------------------------------------------------------
// Keymantic (Bergamaschi et al., SIGMOD 2011)
// ---------------------------------------------------------------------------

class Keymantic : public KeywordSearchSystem {
 public:
  explicit Keymantic(const BaselineContext* context) : context_(context) {}

  std::string name() const override { return "Keymantic"; }

  SupportLevel DeclaredSupport(QueryType type) const override {
    switch (type) {
      case QueryType::kBaseData:
        // "(NO)": in principle metadata-based matching could route value
        // keywords, but with thousands of columns it cannot pick the
        // right one.
        return SupportLevel::kNoInPractice;
      case QueryType::kSchema:
        return SupportLevel::kYes;
      case QueryType::kDomainOntology:
        return SupportLevel::kPartial;  // synonym/homonym handling
      default:
        return SupportLevel::kNo;
    }
  }

  Result<BaselineAnswer> Translate(const std::string& query) const override {
    BaselineAnswer answer;
    // Hidden-Web setting: only metadata is available.
    const ClassificationIndex& metadata =
        *context_->metadata_only_classification;
    std::vector<std::string> ignored;
    std::vector<LookupTerm> phrases =
        metadata.SegmentKeywords(Tokenize(query), &ignored);

    const MetadataGraph& graph = *context_->graph_for_resolution;
    std::vector<std::string> tables;
    for (const LookupTerm& phrase : phrases) {
      for (const EntryPoint& candidate : phrase.candidates) {
        auto column = ResolvePhysicalColumn(graph, candidate.node);
        if (column.has_value()) {
          tables.push_back(column->table);
          break;
        }
        // Entity terms: walk the layer mapping down to a physical table
        // (Keymantic matches schema terms at any abstraction level).
        NodeId node = candidate.node;
        bool resolved = false;
        for (int hops = 0; hops < 4 && node != kInvalidNode; ++hops) {
          auto table_name = TableNameOf(graph, node);
          if (table_name.has_value()) {
            tables.push_back(*table_name);
            resolved = true;
            break;
          }
          node = graph.FirstTarget(node, "implemented_by");
        }
        if (resolved) break;
      }
    }
    if (!ignored.empty()) {
      // Unmatched keywords must be data values; Keymantic would have to
      // guess the column. Beyond a few hundred columns the assignment
      // problem has no usable signal (the paper's observation on the
      // Credit Suisse schema).
      if (context_->schema_columns > 500) {
        answer.failure_reason =
            "value keyword(s) '" + Join(ignored, " ") +
            "' cannot be assigned to a column among " +
            std::to_string(context_->schema_columns) + " candidates";
        return answer;
      }
    }
    if (tables.empty()) {
      answer.failure_reason = "no keyword matches the schema metadata";
      return answer;
    }
    std::vector<JoinEdge> joins;
    std::vector<std::string> all_tables;
    if (!ConnectByForeignKeys(context_->foreign_keys, tables,
                              /*directed=*/false, &joins, &all_tables)) {
      answer.failure_reason = "matched tables cannot be connected";
      return answer;
    }
    answer.answered = true;
    answer.statements.push_back(BuildSelectStar(all_tables, joins, {}));
    return answer;
  }

 private:
  const BaselineContext* context_;
};

}  // namespace

std::vector<std::unique_ptr<KeywordSearchSystem>> MakeBaselines(
    const BaselineContext* context) {
  std::vector<std::unique_ptr<KeywordSearchSystem>> systems;
  systems.push_back(std::make_unique<DbExplorer>(context));
  systems.push_back(std::make_unique<Discover>(context));
  systems.push_back(std::make_unique<Banks>(context));
  systems.push_back(std::make_unique<Sqak>(context));
  systems.push_back(std::make_unique<Keymantic>(context));
  return systems;
}

}  // namespace soda
