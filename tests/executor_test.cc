// Unit tests for the SQL executor.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "sql/executor.h"
#include "sql/parser.h"
#include "storage/change_log.h"
#include "storage/table.h"

namespace soda {
namespace {

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Table* parties = *db_.CreateTable(
        "parties", {{"id", ValueType::kInt64}, {"type", ValueType::kString}});
    Table* individuals = *db_.CreateTable(
        "individuals", {{"id", ValueType::kInt64},
                        {"name", ValueType::kString},
                        {"salary", ValueType::kInt64},
                        {"birthday", ValueType::kDate}});
    Table* orders = *db_.CreateTable(
        "orders", {{"id", ValueType::kInt64},
                   {"party", ValueType::kInt64},
                   {"amount", ValueType::kDouble},
                   {"currency", ValueType::kString}});
    struct P {
      int64_t id;
      const char* name;
      int64_t salary;
      const char* birthday;
    };
    for (const P& p : std::initializer_list<P>{
             {1, "Sara", 900, "1981-04-23"},
             {2, "Bruno", 500, "1975-01-15"},
             {3, "Carla", 1200, "1990-07-30"}}) {
      ASSERT_TRUE(parties->Append({Value::Int(p.id),
                                   Value::Str("individual")}).ok());
      ASSERT_TRUE(individuals
                      ->Append({Value::Int(p.id), Value::Str(p.name),
                                Value::Int(p.salary),
                                Value::DateV(*Date::Parse(p.birthday))})
                      .ok());
    }
    struct O {
      int64_t id, party;
      double amount;
      const char* currency;
    };
    for (const O& o : std::initializer_list<O>{{10, 1, 100.0, "CHF"},
                                               {11, 1, 250.0, "YEN"},
                                               {12, 2, 75.0, "CHF"},
                                               {13, 3, 300.0, "YEN"},
                                               {14, 3, 125.0, "YEN"}}) {
      ASSERT_TRUE(orders
                      ->Append({Value::Int(o.id), Value::Int(o.party),
                                Value::Real(o.amount),
                                Value::Str(o.currency)})
                      .ok());
    }
    executor_ = std::make_unique<Executor>(&db_);
  }

  ResultSet Run(const std::string& sql) {
    auto rs = executor_->ExecuteSql(sql);
    EXPECT_TRUE(rs.ok()) << sql << " -> " << rs.status();
    return rs.ok() ? *rs : ResultSet{};
  }

  // Parse + resolve, as ExecuteSql does, for tests that read ExecStats.
  Result<SelectStatement> ParseResolved(const std::string& sql) {
    SODA_ASSIGN_OR_RETURN(SelectStatement stmt, ParseSql(sql));
    SODA_RETURN_NOT_OK(ResolveStatement(db_, &stmt));
    return stmt;
  }

  Database db_;
  std::unique_ptr<Executor> executor_;
};

TEST_F(ExecutorTest, FullScan) {
  ResultSet rs = Run("SELECT * FROM individuals");
  EXPECT_EQ(rs.num_rows(), 3u);
  EXPECT_EQ(rs.num_columns(), 4u);
  EXPECT_EQ(rs.column_names[1], "individuals.name");
}

TEST_F(ExecutorTest, FilterEquality) {
  ResultSet rs = Run("SELECT * FROM individuals WHERE name = 'Sara'");
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value::Int(1));
}

TEST_F(ExecutorTest, FilterRange) {
  ResultSet rs = Run("SELECT * FROM individuals WHERE salary >= 900");
  EXPECT_EQ(rs.num_rows(), 2u);
}

TEST_F(ExecutorTest, FilterDate) {
  ResultSet rs = Run(
      "SELECT * FROM individuals WHERE birthday > DATE '1980-01-01'");
  EXPECT_EQ(rs.num_rows(), 2u);  // Sara and Carla
}

TEST_F(ExecutorTest, HashJoin) {
  ResultSet rs = Run(
      "SELECT individuals.name, orders.amount FROM individuals, orders "
      "WHERE orders.party = individuals.id");
  EXPECT_EQ(rs.num_rows(), 5u);
}

TEST_F(ExecutorTest, ThreeWayJoin) {
  ResultSet rs = Run(
      "SELECT * FROM parties, individuals, orders "
      "WHERE individuals.id = parties.id "
      "AND orders.party = individuals.id "
      "AND orders.currency = 'YEN'");
  EXPECT_EQ(rs.num_rows(), 3u);
}

TEST_F(ExecutorTest, CrossProductWhenNoJoinCondition) {
  ResultSet rs = Run("SELECT * FROM parties, orders");
  EXPECT_EQ(rs.num_rows(), 15u);  // 3 x 5
}

TEST_F(ExecutorTest, GroupByWithAggregates) {
  ResultSet rs = Run(
      "SELECT sum(orders.amount), count(*), orders.currency FROM orders "
      "GROUP BY orders.currency ORDER BY orders.currency");
  ASSERT_EQ(rs.num_rows(), 2u);
  EXPECT_EQ(rs.rows[0][2], Value::Str("CHF"));
  EXPECT_EQ(rs.rows[0][0], Value::Real(175.0));
  EXPECT_EQ(rs.rows[0][1], Value::Int(2));
  EXPECT_EQ(rs.rows[1][0], Value::Real(675.0));
}

TEST_F(ExecutorTest, AggregateWithoutGroupBy) {
  ResultSet rs = Run("SELECT count(*), sum(amount), avg(amount), "
                     "min(amount), max(amount) FROM orders");
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value::Int(5));
  EXPECT_EQ(rs.rows[0][1], Value::Real(850.0));
  EXPECT_EQ(rs.rows[0][2], Value::Real(170.0));
  EXPECT_EQ(rs.rows[0][3], Value::Real(75.0));
  EXPECT_EQ(rs.rows[0][4], Value::Real(300.0));
}

TEST_F(ExecutorTest, CountDistinct) {
  ResultSet rs = Run("SELECT count(DISTINCT orders.party) FROM orders");
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value::Int(3));
}

TEST_F(ExecutorTest, CountStarOnEmptyInputIsZero) {
  ResultSet rs = Run("SELECT count(*) FROM orders WHERE amount > 99999");
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value::Int(0));
}

TEST_F(ExecutorTest, SumOfEmptyIsNull) {
  ResultSet rs = Run("SELECT sum(amount) FROM orders WHERE amount > 99999");
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_TRUE(rs.rows[0][0].is_null());
}

TEST_F(ExecutorTest, OrderByDescWithLimit) {
  ResultSet rs = Run(
      "SELECT orders.id, orders.amount FROM orders "
      "ORDER BY orders.amount DESC LIMIT 2");
  ASSERT_EQ(rs.num_rows(), 2u);
  EXPECT_EQ(rs.rows[0][1], Value::Real(300.0));
  EXPECT_EQ(rs.rows[1][1], Value::Real(250.0));
}

TEST_F(ExecutorTest, OrderByAggregate) {
  ResultSet rs = Run(
      "SELECT count(*), orders.party FROM orders GROUP BY orders.party "
      "ORDER BY count(*) DESC, orders.party");
  ASSERT_EQ(rs.num_rows(), 3u);
  EXPECT_EQ(rs.rows[0][1], Value::Int(1));  // parties 1 and 3 tie at 2
  EXPECT_EQ(rs.rows[1][1], Value::Int(3));
}

TEST_F(ExecutorTest, Distinct) {
  ResultSet rs = Run("SELECT DISTINCT orders.currency FROM orders");
  EXPECT_EQ(rs.num_rows(), 2u);
}

TEST_F(ExecutorTest, LikeFilter) {
  ResultSet rs = Run("SELECT * FROM individuals WHERE name LIKE 'S%'");
  EXPECT_EQ(rs.num_rows(), 1u);
}

TEST_F(ExecutorTest, UnknownTableFails) {
  auto rs = executor_->ExecuteSql("SELECT * FROM missing");
  EXPECT_EQ(rs.status().code(), StatusCode::kNotFound);
}

TEST_F(ExecutorTest, UnknownColumnFails) {
  auto rs = executor_->ExecuteSql("SELECT nope FROM orders");
  EXPECT_EQ(rs.status().code(), StatusCode::kNotFound);
}

TEST_F(ExecutorTest, AmbiguousColumnFails) {
  auto rs = executor_->ExecuteSql(
      "SELECT id FROM parties, individuals "
      "WHERE parties.id = individuals.id");
  EXPECT_EQ(rs.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ExecutorTest, UngroupedColumnWithAggregateFails) {
  auto rs = executor_->ExecuteSql(
      "SELECT orders.currency, count(*) FROM orders");
  EXPECT_EQ(rs.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ExecutorTest, DuplicateQualifierFails) {
  auto rs = executor_->ExecuteSql("SELECT * FROM orders, orders");
  EXPECT_EQ(rs.status().code(), StatusCode::kInvalidArgument);
}

// Names resolve case-insensitively, and a column may be qualified by the
// table name under an alias; the resolved statement runs as is.
TEST_F(ExecutorTest, MixedCaseNamesAndTableQualifierUnderAlias) {
  EXPECT_EQ(Run("SELECT ID FROM ORDERS").num_rows(), 5u);
  EXPECT_EQ(Run("SELECT Orders.Amount FROM orders "
                "WHERE ORDERS.Currency = 'CHF'").num_rows(), 2u);
  ResultSet rs = Run("SELECT o.id FROM Orders o, individuals i "
                     "WHERE orders.party = I.ID AND individuals.name = 'Sara'");
  EXPECT_EQ(rs.num_rows(), 2u);
  for (const char* sql : {"SELECT ID FROM ORDERS",
                          "SELECT o.id FROM orders o WHERE orders.id = 10"}) {
    auto stmt = ParseResolved(sql);
    ASSERT_TRUE(stmt.ok()) << sql << " -> " << stmt.status();
    EXPECT_TRUE(IsResolved(db_, *stmt)) << sql;
  }
}

// Execute evaluates resolved statements only: a parsed statement without
// ids is refused, not resolved behind the caller's back.
TEST_F(ExecutorTest, UnresolvedStatementIsRefused) {
  auto stmt = ParseSql("SELECT id FROM orders");
  ASSERT_TRUE(stmt.ok());
  EXPECT_FALSE(IsResolved(db_, *stmt));
  EXPECT_EQ(executor_->Execute(*stmt).status().code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(ResolveStatement(db_, &*stmt).ok());
  // Ids that no longer name what the names spell are refused too.
  stmt->from[0].table = "parties";
  EXPECT_FALSE(IsResolved(db_, *stmt));
  EXPECT_EQ(executor_->Execute(*stmt).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ExecutorTest, NullNeverJoins) {
  Table* t = *db_.CreateTable("with_nulls", {{"ref", ValueType::kInt64}});
  t->AppendUnchecked({Value::Null()});
  t->AppendUnchecked({Value::Int(1)});
  ResultSet rs = Run(
      "SELECT * FROM with_nulls, individuals "
      "WHERE with_nulls.ref = individuals.id");
  EXPECT_EQ(rs.num_rows(), 1u);
}

TEST_F(ExecutorTest, FlatLimitStopsEnumerating) {
  auto stmt = ParseResolved("SELECT * FROM parties, orders LIMIT 2");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  ExecStats stats;
  auto rs = executor_->Execute(*stmt, &stats);
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->num_rows(), 2u);
  EXPECT_EQ(stats.rows_output, 2u);
  // One seed row plus the two orders rows paired with it.
  EXPECT_EQ(stats.tuples_enumerated, 3u);
}

TEST_F(ExecutorTest, PushdownEmptiesPrefixBeforeJoining) {
  auto stmt = ParseResolved(
      "SELECT * FROM individuals, orders "
      "WHERE orders.party = individuals.id AND individuals.salary > 5000");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  ExecStats stats;
  auto rs = executor_->Execute(*stmt, &stats);
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->num_rows(), 0u);
  EXPECT_EQ(stats.tuples_enumerated, 0u);
}

// individuals seeds the plan; orders' `currency = 'CHF'` group (orders 10
// and 12) is smaller than its three rows, so only Sara and Bruno are
// visited.
TEST_F(ExecutorTest, SeedReductionSkipsRowsWithoutExtension) {
  auto stmt = ParseResolved(
      "SELECT individuals.name, orders.id FROM individuals, orders "
      "WHERE orders.party = individuals.id AND orders.currency = 'CHF'");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  ExecStats stats;
  auto rs = executor_->Execute(*stmt, &stats);
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_EQ(rs->num_rows(), 2u);
  EXPECT_EQ(rs->rows[0][0], Value::Str("Sara"));
  EXPECT_EQ(rs->rows[0][1], Value::Int(10));
  EXPECT_EQ(rs->rows[1][0], Value::Str("Bruno"));
  EXPECT_EQ(rs->rows[1][1], Value::Int(12));
  EXPECT_TRUE(stats.seed_reduced);
  // Two seed rows and one order each; Carla is never bound.
  EXPECT_EQ(stats.tuples_enumerated, 4u);
}

// The reduction follows a join path of two hops: orders -> individuals ->
// parties. A group as large as the seed's candidates is not used.
TEST_F(ExecutorTest, SeedReductionFollowsAJoinPath) {
  auto stmt = ParseResolved(
      "SELECT parties.id FROM parties, individuals, orders "
      "WHERE individuals.id = parties.id AND orders.party = individuals.id "
      "AND orders.amount = 300.0");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  ExecStats stats;
  auto rs = executor_->Execute(*stmt, &stats);
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_EQ(rs->num_rows(), 1u);
  EXPECT_EQ(rs->rows[0][0], Value::Int(3));
  EXPECT_TRUE(stats.seed_reduced);
  EXPECT_EQ(stats.tuples_enumerated, 3u);

  stmt = ParseResolved(
      "SELECT * FROM individuals, orders "
      "WHERE orders.party = individuals.id AND orders.currency = 'YEN'");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  rs = executor_->Execute(*stmt, &stats);
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->num_rows(), 3u);
  EXPECT_FALSE(stats.seed_reduced);
}

// A hop whose row set outgrows the seed's candidates abandons the
// reduction, and the seed is scanned as without it.
TEST_F(ExecutorTest, SeedReductionGivesUpWhenAHopOutgrowsTheSeed) {
  Table* fan = *db_.CreateTable("fan", {{"party", ValueType::kInt64}});
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(fan->Append({Value::Int(1)}).ok());
  auto stmt = ParseResolved(
      "SELECT individuals.name FROM individuals, fan, orders "
      "WHERE fan.party = individuals.id AND orders.party = fan.party "
      "AND orders.id = 10");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  ExecStats stats;
  auto rs = executor_->Execute(*stmt, &stats);
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->num_rows(), 4u);
  EXPECT_FALSE(stats.seed_reduced);
}

// Join keys, GROUP BY keys, DISTINCT and COUNT(DISTINCT) compare values
// the way WHERE filters do (Value::Compare), not through their %.6g
// literal rendering.
class ExecutorValueEqualityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Table* reals = *db_.CreateTable("reals", {{"x", ValueType::kDouble}});
    Table* others = *db_.CreateTable("others", {{"y", ValueType::kDouble}});
    Table* ints = *db_.CreateTable("ints", {{"z", ValueType::kInt64}});
    reals->AppendUnchecked({Value::Real(1.0000001)});
    reals->AppendUnchecked({Value::Real(1234567.0)});
    others->AppendUnchecked({Value::Real(1.0000002)});
    ints->AppendUnchecked({Value::Int(1234567)});
    executor_ = std::make_unique<Executor>(&db_);
  }

  ResultSet Run(const std::string& sql) {
    auto rs = executor_->ExecuteSql(sql);
    EXPECT_TRUE(rs.ok()) << sql << " -> " << rs.status();
    return rs.ok() ? *rs : ResultSet{};
  }

  Database db_;
  std::unique_ptr<Executor> executor_;
};

TEST_F(ExecutorValueEqualityTest, NearbyDoublesDoNotJoin) {
  ResultSet rs = Run("SELECT * FROM reals, others WHERE reals.x = others.y");
  EXPECT_EQ(rs.num_rows(), 0u);
}

TEST_F(ExecutorValueEqualityTest, DoubleJoinsEqualInt) {
  ResultSet rs = Run("SELECT * FROM reals, ints WHERE reals.x = ints.z");
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value::Real(1234567.0));
}

TEST_F(ExecutorValueEqualityTest, CountDistinctSeparatesNearbyDoubles) {
  ASSERT_TRUE(db_.FindTable("reals")->Append({Value::Real(1.0000002)}).ok());
  ResultSet rs = Run("SELECT count(DISTINCT reals.x) FROM reals");
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value::Int(3));
}

TEST_F(ExecutorValueEqualityTest, DistinctSeparatesNearbyDoubles) {
  Table* reals = db_.FindTable("reals");
  ASSERT_TRUE(reals->Append({Value::Real(1.0000002)}).ok());
  ASSERT_TRUE(reals->Append({Value::Real(1.0000001)}).ok());
  ResultSet rs = Run("SELECT DISTINCT reals.x FROM reals");
  // First occurrences, in order: 1.0000001 and 1.0000002 print alike under
  // %.6g but are different values.
  ASSERT_EQ(rs.num_rows(), 3u);
  EXPECT_EQ(rs.rows[0][0], Value::Real(1.0000001));
  EXPECT_EQ(rs.rows[1][0], Value::Real(1234567.0));
  EXPECT_EQ(rs.rows[2][0], Value::Real(1.0000002));
}

TEST_F(ExecutorValueEqualityTest, GroupByKeepsNearbyDoublesApart) {
  Table* reals = db_.FindTable("reals");
  ASSERT_TRUE(reals->Append({Value::Real(1.0000002)}).ok());
  ASSERT_TRUE(reals->Append({Value::Real(1.0000001)}).ok());
  ResultSet rs = Run("SELECT reals.x, count(*) FROM reals GROUP BY reals.x");
  // Groups sort by their rendered key; 1.0000001 and 1.0000002 both render
  // as 1 and keep their order of first appearance.
  ASSERT_EQ(rs.num_rows(), 3u);
  EXPECT_EQ(rs.rows[0][0], Value::Real(1.0000001));
  EXPECT_EQ(rs.rows[0][1], Value::Int(2));
  EXPECT_EQ(rs.rows[1][0], Value::Real(1.0000002));
  EXPECT_EQ(rs.rows[1][1], Value::Int(1));
  EXPECT_EQ(rs.rows[2][0], Value::Real(1234567.0));
  EXPECT_EQ(rs.rows[2][1], Value::Int(1));
}

// Readers that race to build the same column index, under the change
// log's reader lock, see the same results as a serial run; appends
// between rounds extend the indexes already built.
TEST(ExecutorConcurrencyTest, ConcurrentFirstIndexBuildsMatchSerialRun) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 4;
  constexpr int64_t kRowsPerRound = 40;
  // `shared` is read concurrently; `serial` receives the same appends and
  // is only read from this thread.
  Database shared, serial;
  std::vector<ColumnDef> columns;
  for (int c = 0; c < kRounds; ++c) {
    columns.push_back({"k" + std::to_string(c), ValueType::kInt64});
  }
  for (Database* db : {&shared, &serial}) {
    ASSERT_TRUE(db->CreateTable("facts", columns).ok());
    ASSERT_TRUE(db->CreateTable("dims", columns).ok());
  }
  auto append_round = [&](int round) {
    for (Database* db : {&shared, &serial}) {
      for (int64_t i = 0; i < kRowsPerRound; ++i) {
        int64_t id = round * kRowsPerRound + i;
        Row fact, dim;
        for (int c = 0; c < kRounds; ++c) {
          fact.push_back(i % 7 == 0 ? Value::Null() : Value::Int(id % (5 + c)));
          dim.push_back(Value::Int(id % (3 + c)));
        }
        db->FindTable("facts")->AppendUnchecked(std::move(fact));
        db->FindTable("dims")->AppendUnchecked(std::move(dim));
      }
    }
  };

  Executor shared_executor(&shared), serial_executor(&serial);
  for (int round = 0; round < kRounds; ++round) {
    append_round(round);
    // Round r joins on k<r>, which no earlier round indexed, and repeats
    // the earlier rounds' joins over the indexes the appends extended.
    std::vector<std::string> sqls;
    for (int c = round; c >= 0; --c) {
      std::string k = "k" + std::to_string(c);
      sqls.push_back("SELECT * FROM facts, dims WHERE facts." + k +
                     " = dims." + k + " LIMIT 50");
      sqls.push_back("SELECT count(*) FROM facts, dims WHERE facts." + k +
                     " = dims." + k + " AND dims.k0 = 1");
      sqls.push_back("SELECT * FROM facts WHERE facts." + k + " = 2");
    }
    std::vector<std::string> want;
    for (const std::string& sql : sqls) {
      auto rs = serial_executor.ExecuteSql(sql);
      ASSERT_TRUE(rs.ok()) << sql << " -> " << rs.status();
      want.push_back(rs->ToAsciiTable(1000));
    }

    std::atomic<int> ready{0};
    std::vector<std::vector<std::string>> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) std::this_thread::yield();
        auto lock = shared.change_log().ReaderLock();
        for (const std::string& sql : sqls) {
          auto rs = shared_executor.ExecuteSql(sql);
          got[t].push_back(rs.ok() ? rs->ToAsciiTable(1000)
                                   : rs.status().ToString());
        }
      });
    }
    for (auto& thread : threads) thread.join();
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(got[t], want) << "round " << round << " thread " << t;
    }
  }
}

// SQL LIKE semantics.
struct LikeCase {
  const char* text;
  const char* pattern;
  bool expected;
};

class SqlLikeTest : public ::testing::TestWithParam<LikeCase> {};

TEST_P(SqlLikeTest, Matches) {
  const LikeCase& c = GetParam();
  EXPECT_EQ(SqlLikeMatch(c.text, c.pattern), c.expected)
      << c.text << " LIKE " << c.pattern;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SqlLikeTest,
    ::testing::Values(LikeCase{"Credit Suisse", "%Suisse%", true},
                      LikeCase{"Credit Suisse", "Credit%", true},
                      LikeCase{"Credit Suisse", "%Credit", false},
                      LikeCase{"Sara", "S_ra", true},
                      LikeCase{"Sara", "S_r", false},
                      LikeCase{"", "%", true},
                      LikeCase{"", "_", false},
                      LikeCase{"abc", "abc", true},
                      LikeCase{"abc", "ABC", false},  // case-sensitive
                      LikeCase{"a%b", "a%b", true},
                      LikeCase{"xyz", "%%%", true},
                      LikeCase{"mississippi", "%iss%ppi", true}));

}  // namespace
}  // namespace soda
