// Unit tests for the storage catalog and tables.

#include <gtest/gtest.h>

#include <vector>

#include "storage/change_log.h"
#include "storage/table.h"

namespace soda {
namespace {

std::vector<ColumnDef> PersonColumns() {
  return {{"id", ValueType::kInt64},
          {"name", ValueType::kString},
          {"birthday", ValueType::kDate}};
}

TEST(TableTest, ColumnIndexIsCaseInsensitive) {
  Table t("persons", PersonColumns());
  EXPECT_EQ(t.ColumnIndex("id"), 0);
  EXPECT_EQ(t.ColumnIndex("NAME"), 1);
  EXPECT_EQ(t.ColumnIndex("Birthday"), 2);
  EXPECT_EQ(t.ColumnIndex("missing"), -1);
  EXPECT_TRUE(t.HasColumn("name"));
  EXPECT_FALSE(t.HasColumn("salary"));
}

TEST(TableTest, AppendValidatesArity) {
  Table t("persons", PersonColumns());
  Status st = t.Append({Value::Int(1), Value::Str("Sara")});
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(t.num_rows(), 0u);
}

TEST(TableTest, AppendValidatesTypes) {
  Table t("persons", PersonColumns());
  Status st = t.Append({Value::Str("one"), Value::Str("Sara"),
                        Value::DateV(Date())});
  EXPECT_EQ(st.code(), StatusCode::kTypeError);
}

TEST(TableTest, NullAllowedInAnyColumn) {
  Table t("persons", PersonColumns());
  EXPECT_TRUE(t.Append({Value::Null(), Value::Null(), Value::Null()}).ok());
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(TableTest, ValueAtResolvesByName) {
  Table t("persons", PersonColumns());
  ASSERT_TRUE(t.Append({Value::Int(7), Value::Str("Sara"),
                        Value::DateV(Date::FromYmd(1981, 4, 23))})
                  .ok());
  EXPECT_EQ(t.ValueAt(0, "name"), Value::Str("Sara"));
  EXPECT_TRUE(t.ValueAt(0, "missing").is_null());
  EXPECT_TRUE(t.ValueAt(5, "name").is_null());  // row out of range
}

TEST(DatabaseTest, CreateAndFind) {
  Database db;
  auto created = db.CreateTable("persons", PersonColumns());
  ASSERT_TRUE(created.ok());
  EXPECT_EQ(db.FindTable("persons"), *created);
  EXPECT_EQ(db.FindTable("PERSONS"), *created);  // case-insensitive
  EXPECT_EQ(db.FindTable("missing"), nullptr);
}

TEST(DatabaseTest, DuplicateNameRejected) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t", {{"a", ValueType::kInt64}}).ok());
  auto dup = db.CreateTable("T", {{"b", ValueType::kInt64}});
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
}

TEST(DatabaseTest, TablesPreserveCreationOrder) {
  Database db;
  ASSERT_TRUE(db.CreateTable("zeta", {{"a", ValueType::kInt64}}).ok());
  ASSERT_TRUE(db.CreateTable("alpha", {{"a", ValueType::kInt64}}).ok());
  auto tables = db.tables();
  ASSERT_EQ(tables.size(), 2u);
  EXPECT_EQ(tables[0]->name(), "zeta");
  EXPECT_EQ(tables[1]->name(), "alpha");
}

TEST(DatabaseTest, TotalRows) {
  Database db;
  Table* a = *db.CreateTable("a", {{"x", ValueType::kInt64}});
  Table* b = *db.CreateTable("b", {{"x", ValueType::kInt64}});
  for (int i = 0; i < 3; ++i) a->AppendUnchecked({Value::Int(i)});
  for (int i = 0; i < 5; ++i) b->AppendUnchecked({Value::Int(i)});
  EXPECT_EQ(db.TotalRows(), 8u);
}

std::vector<size_t> Group(const EqualityIndex& index, const Value& key) {
  std::span<const size_t> rows = index.Find(key);
  return {rows.begin(), rows.end()};
}

TEST(EqualityIndexTest, GroupsAscendingRowsByValue) {
  Table t("keys", {{"k", ValueType::kInt64}, {"v", ValueType::kDouble}});
  for (int64_t k : {2, 1, 2, 3, 2}) {
    t.AppendUnchecked({Value::Int(k), Value::Real(static_cast<double>(k))});
  }
  bool built = false;
  const EqualityIndex& index = t.IndexOn(0, &built);
  EXPECT_TRUE(built);
  EXPECT_EQ(Group(index, Value::Int(2)), (std::vector<size_t>{0, 2, 4}));
  EXPECT_EQ(Group(index, Value::Int(9)), std::vector<size_t>{});
  // Equality is Value::Compare: INT 3 finds DOUBLE 3.0 and vice versa.
  EXPECT_EQ(Group(index, Value::Real(3.0)), std::vector<size_t>{3});
  EXPECT_EQ(Group(t.IndexOn(1), Value::Int(1)), std::vector<size_t>{1});
  // The second request returns the same index without building.
  EXPECT_EQ(&t.IndexOn(0, &built), &index);
  EXPECT_FALSE(built);
}

TEST(EqualityIndexTest, NullCellsAreLeftOut) {
  Table t("keys", {{"k", ValueType::kInt64}});
  t.AppendUnchecked({Value::Null()});
  t.AppendUnchecked({Value::Int(1)});
  t.AppendUnchecked({Value::Null()});
  const EqualityIndex& index = t.IndexOn(0);
  EXPECT_EQ(Group(index, Value::Null()), std::vector<size_t>{});
  EXPECT_EQ(Group(index, Value::Int(1)), std::vector<size_t>{1});
}

TEST(EqualityIndexTest, AppendsExtendBuiltIndexes) {
  // Both a standalone table and a Database-owned one (whose appends go
  // through the change log's writer lock) keep built indexes current.
  Database db;
  Table standalone("s", {{"k", ValueType::kString}});
  Table* owned = *db.CreateTable("o", {{"k", ValueType::kString}});
  for (Table* t : {&standalone, owned}) {
    ASSERT_TRUE(t->Append({Value::Str("a")}).ok());
    const EqualityIndex& index = t->IndexOn(0);
    ASSERT_TRUE(t->Append({Value::Str("b")}).ok());
    t->AppendUnchecked({Value::Str("a")});
    for (int i = 0; i < 100; ++i) t->AppendUnchecked({Value::Str("c")});
    EXPECT_EQ(Group(index, Value::Str("a")), (std::vector<size_t>{0, 2}));
    EXPECT_EQ(Group(index, Value::Str("b")), std::vector<size_t>{1});
    EXPECT_EQ(index.Find(Value::Str("c")).size(), 100u);
    // A rebuilt index agrees with the maintained one.
    Table fresh("f", {{"k", ValueType::kString}});
    for (const Row& row : t->rows()) fresh.AppendUnchecked(row);
    for (const char* key : {"a", "b", "c", "d"}) {
      EXPECT_EQ(Group(index, Value::Str(key)),
                Group(fresh.IndexOn(0), Value::Str(key)))
          << key;
    }
  }
  EXPECT_EQ(db.change_log().rows_recorded(), owned->num_rows());
}

}  // namespace
}  // namespace soda
