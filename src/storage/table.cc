#include "storage/table.h"

#include <cassert>

#include "common/strings.h"
#include "storage/change_log.h"
#include "text/token_dict.h"

namespace soda {

Table::Table(std::string name, std::vector<ColumnDef> columns)
    : name_(std::move(name)),
      columns_(std::move(columns)),
      indexes_(columns_.size()) {
  for (const ColumnDef& c : columns_) {
    folded_columns_.push_back(FoldForMatch(c.name));
  }
}

int Table::ColumnIndex(const std::string& column_name) const {
  const std::string probe = FoldForMatch(column_name);
  for (size_t i = 0; i < folded_columns_.size(); ++i) {
    if (folded_columns_[i] == probe) return static_cast<int>(i);
  }
  return -1;
}

Status Table::Append(Row row) {
  if (row.size() != columns_.size()) {
    return Status::InvalidArgument(
        StrFormat("table %s expects %zu columns, got %zu", name_.c_str(),
                  columns_.size(), row.size()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (row[i].is_null()) continue;
    if (row[i].type() != columns_[i].type) {
      return Status::TypeError(StrFormat(
          "table %s column %s expects %s, got %s", name_.c_str(),
          columns_[i].name.c_str(), ValueTypeName(columns_[i].type),
          ValueTypeName(row[i].type())));
    }
  }
  PushRow(std::move(row));
  return Status::OK();
}

void Table::AppendUnchecked(Row row) {
  assert(row.size() == columns_.size() &&
         "AppendUnchecked: row arity disagrees with the table schema");
  PushRow(std::move(row));
}

void Table::PushRow(Row row) {
  // Exclusive data lock across the row push, the index extension AND the
  // publication, so no reader ever sees the new row with stale derived
  // state.
  std::unique_lock<std::shared_mutex> lock;
  if (change_log_ != nullptr) lock = change_log_->WriterLock();
  rows_.push_back(std::move(row));
  const size_t id = rows_.size() - 1;
  for (size_t c = 0; c < indexes_.size(); ++c) {
    if (indexes_[c] != nullptr) indexes_[c]->Add(rows_[id][c], id);
  }
  if (change_log_ != nullptr) {
    change_log_->RecordAppendLocked(*this, id, rows_.size());
  }
}

const EqualityIndex& Table::IndexOn(size_t column, bool* built) const {
  assert(column < indexes_.size());
  std::lock_guard<std::mutex> guard(index_mu_);
  std::unique_ptr<EqualityIndex>& slot = indexes_[column];
  if (built != nullptr) *built = slot == nullptr;
  if (slot == nullptr) {
    auto index = std::make_unique<EqualityIndex>();
    for (size_t r = 0; r < rows_.size(); ++r) index->Add(rows_[r][column], r);
    slot = std::move(index);
  }
  return *slot;
}

Value Table::ValueAt(size_t row_index, const std::string& column_name) const {
  int col = ColumnIndex(column_name);
  if (col < 0 || row_index >= rows_.size()) return Value::Null();
  return rows_[row_index][static_cast<size_t>(col)];
}

Database::Database() : change_log_(std::make_unique<ChangeLog>()) {}
Database::~Database() = default;
Database::Database(Database&&) noexcept = default;
Database& Database::operator=(Database&&) noexcept = default;

const std::shared_ptr<TokenDict>& Database::token_dict() const {
  return change_log_->token_dict();
}

Result<Table*> Database::CreateTable(const std::string& name,
                                     std::vector<ColumnDef> columns) {
  std::string key = FoldForMatch(name);
  if (by_name_.count(key) > 0) {
    return Status::AlreadyExists("table '" + name + "' already exists");
  }
  tables_.push_back(std::make_unique<Table>(name, std::move(columns)));
  Table* t = tables_.back().get();
  t->set_change_log(change_log_.get());
  by_name_[key] = t;
  return t;
}

Table* Database::FindTable(const std::string& name) {
  auto it = by_name_.find(FoldForMatch(name));
  return it == by_name_.end() ? nullptr : it->second;
}

const Table* Database::FindTable(const std::string& name) const {
  auto it = by_name_.find(FoldForMatch(name));
  return it == by_name_.end() ? nullptr : it->second;
}

std::vector<const Table*> Database::tables() const {
  std::vector<const Table*> out;
  out.reserve(tables_.size());
  for (const auto& t : tables_) out.push_back(t.get());
  return out;
}

std::vector<Table*> Database::mutable_tables() {
  std::vector<Table*> out;
  out.reserve(tables_.size());
  for (const auto& t : tables_) out.push_back(t.get());
  return out;
}

size_t Database::TotalRows() const {
  size_t n = 0;
  for (const auto& t : tables_) n += t->num_rows();
  return n;
}

}  // namespace soda
