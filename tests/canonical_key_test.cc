// Deduplication semantics of SameStatement (core/pipeline.h): different
// entry-point choices that collapse to the same logical statement must be
// one result, while genuinely different statements must stay distinct.
//
// CanonicalKey below renders a statement to a normalized string; it is
// the reference SameStatement must agree with. Every case asserts that
// the two make the same decision, and so does every pair of statements
// the seeded benchmark pool generates on the enterprise warehouse.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "core/pipeline.h"
#include "core/soda.h"
#include "datasets/enterprise.h"
#include "inputs.h"
#include "pattern/library.h"
#include "sql/parser.h"

namespace soda {
namespace {

// FROM order (folded names), the operand order of symmetric `=`
// predicates, and conjunct/item order are normalized; GROUP BY and LIMIT
// stay discriminating.
std::string CanonicalKey(const SelectStatement& stmt) {
  std::vector<std::string> tables;
  for (const auto& t : stmt.from) tables.push_back(FoldForMatch(t.table));
  std::sort(tables.begin(), tables.end());
  std::vector<std::string> conjuncts;
  for (const auto& p : stmt.where) {
    std::string a = p.lhs.ToString(), b = p.rhs.ToString();
    if (p.op == CompareOp::kEq && b < a) std::swap(a, b);
    conjuncts.push_back(a + CompareOpSymbol(p.op) + b);
  }
  std::sort(conjuncts.begin(), conjuncts.end());
  std::vector<std::string> items;
  for (const auto& item : stmt.items) items.push_back(item.ToString());
  std::sort(items.begin(), items.end());
  std::string key = Join(tables, ",") + "|" + Join(conjuncts, "&") + "|" +
                    Join(items, ",");
  for (const auto& g : stmt.group_by) key += "#" + g.ToString();
  if (stmt.limit.has_value()) key += "^" + std::to_string(*stmt.limit);
  return key;
}

std::string KeyOf(const char* sql) {
  auto stmt = ParseSql(sql);
  EXPECT_TRUE(stmt.ok()) << stmt.status() << " for: " << sql;
  return CanonicalKey(*stmt);
}

// Gives parsed statements the ids the generator would: FROM tables from
// one catalog, each column-to-column equality between two tables as a
// join edge (either operand order is the same edge), the joins first in
// WHERE.
class KeyMaker {
 public:
  std::pair<StatementKey, SelectStatement> Make(const char* sql) {
    SelectStatement stmt = ParseSql(sql).value();
    StatementKey key;
    for (const TableRef& ref : stmt.from) {
      key.tables.push_back(catalog_.Intern(ref.table));
    }
    std::vector<Predicate> joins;
    std::vector<Predicate> filters;
    for (Predicate& p : stmt.where) {
      if (!p.IsJoinCondition()) {
        filters.push_back(std::move(p));
        continue;
      }
      std::string a = p.lhs.ToString(), b = p.rhs.ToString();
      if (b < a) std::swap(a, b);
      auto [it, inserted] = edges_.emplace(a + "=" + b, edges_.size());
      key.joins.push_back(it->second);
      joins.push_back(std::move(p));
    }
    stmt.where = std::move(joins);
    stmt.where.insert(stmt.where.end(), filters.begin(), filters.end());
    std::sort(key.tables.begin(), key.tables.end());
    std::sort(key.joins.begin(), key.joins.end());
    return {std::move(key), std::move(stmt)};
  }

 private:
  TableCatalog catalog_;
  std::map<std::string, EdgeId> edges_;
};

// Asserts that CanonicalKey and SameStatement both call `a` and `b` one
// statement (`same`) or two.
void ExpectSame(const char* a, const char* b, bool same) {
  EXPECT_EQ(KeyOf(a) == KeyOf(b), same) << a << " vs " << b;
  KeyMaker maker;
  auto [key_a, stmt_a] = maker.Make(a);
  auto [key_b, stmt_b] = maker.Make(b);
  EXPECT_EQ(SameStatement(key_a, stmt_a, key_b, stmt_b), same)
      << a << " vs " << b;
}

TEST(CanonicalKeyTest, FromOrderInvariant) {
  ExpectSame("SELECT a.x FROM a, b WHERE a.id = b.id",
             "SELECT a.x FROM b, a WHERE a.id = b.id", true);
}

TEST(CanonicalKeyTest, FromTableCaseInvariant) {
  // SQL identifiers compare case-insensitively; the FROM list is folded.
  ExpectSame("SELECT a.x FROM Accounts a", "SELECT a.x FROM accounts a",
             true);
}

TEST(CanonicalKeyTest, SymmetricEqualityPredicates) {
  ExpectSame("SELECT a.x FROM a, b WHERE a.id = b.id",
             "SELECT a.x FROM a, b WHERE b.id = a.id", true);
}

TEST(CanonicalKeyTest, AsymmetricComparisonIsDirectional) {
  ExpectSame("SELECT a.x FROM a WHERE a.v > 10",
             "SELECT a.x FROM a WHERE a.v < 10", false);
}

TEST(CanonicalKeyTest, ConjunctOrderInvariant) {
  ExpectSame("SELECT a.x FROM a WHERE a.v > 1 AND a.w < 2",
             "SELECT a.x FROM a WHERE a.w < 2 AND a.v > 1", true);
}

TEST(CanonicalKeyTest, SelectItemOrderInvariant) {
  ExpectSame("SELECT a.x, a.y FROM a", "SELECT a.y, a.x FROM a", true);
}

TEST(CanonicalKeyTest, DifferentFiltersDiffer) {
  ExpectSame("SELECT a.x FROM a WHERE a.v = 1",
             "SELECT a.x FROM a WHERE a.v = 2", false);
}

TEST(CanonicalKeyTest, GroupByDiscriminates) {
  ExpectSame("SELECT sum(a.v), a.g FROM a GROUP BY a.g",
             "SELECT sum(a.v), a.g FROM a", false);
}

TEST(CanonicalKeyTest, LimitDiscriminates) {
  ExpectSame("SELECT a.x FROM a LIMIT 5", "SELECT a.x FROM a LIMIT 6",
             false);
  ExpectSame("SELECT a.x FROM a LIMIT 5", "SELECT a.x FROM a", false);
}

TEST(CanonicalKeyTest, ExtraTableDiffers) {
  ExpectSame("SELECT a.x FROM a", "SELECT a.x FROM a, b", false);
}

// Every pair of statements one pool query's interpretations generate,
// before dedup: SameStatement must agree with CanonicalKey on each.
TEST(CanonicalKeyTest, SameStatementAgreesOnEveryPoolStatementPair) {
  auto warehouse = BuildEnterpriseWarehouse().value();
  SodaConfig config;
  config.execute_snippets = false;
  auto soda = Soda::Create(&warehouse->db, &warehouse->graph,
                           CreditSuissePatternLibrary(), config)
                  .value();
  perfbench::Rng rng(7);
  std::vector<std::string> pool = perfbench::DistinctPool(
      perfbench::ExtractVocab(warehouse->db), 1500, &rng);

  size_t pairs = 0;
  size_t same = 0;
  for (const std::string& query : pool) {
    QueryContext ctx(query);
    ctx.config = &soda->config();
    if (!RunPipeline(soda->stages(), &ctx).ok()) continue;
    std::vector<const InterpretationState*> states;
    std::vector<std::string> keys;
    for (const InterpretationState& state : ctx.states) {
      if (state.dropped || !state.statement.has_value()) continue;
      states.push_back(&state);
      keys.push_back(CanonicalKey(*state.statement));
    }
    for (size_t i = 0; i < states.size(); ++i) {
      for (size_t j = i + 1; j < states.size(); ++j) {
        bool want = keys[i] == keys[j];
        ASSERT_EQ(SameStatement(states[i]->key, *states[i]->statement,
                                states[j]->key, *states[j]->statement),
                  want)
            << query << "\n  " << states[i]->statement->ToSql() << "\n  "
            << states[j]->statement->ToSql();
        ++pairs;
        if (want) ++same;
      }
    }
  }
  // The pool exercises both decisions.
  EXPECT_GT(pairs, 1000u);
  EXPECT_GT(same, 100u);
  EXPECT_GT(pairs - same, 100u);
}

}  // namespace
}  // namespace soda
