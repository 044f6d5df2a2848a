#include "core/filters_step.h"

namespace soda {

CompareOp ParseCompareOp(const std::string& text) {
  if (text == ">") return CompareOp::kGt;
  if (text == ">=") return CompareOp::kGe;
  if (text == "<") return CompareOp::kLt;
  if (text == "<=") return CompareOp::kLe;
  if (text == "<>" || text == "!=") return CompareOp::kNe;
  if (text == "like") return CompareOp::kLike;
  return CompareOp::kEq;
}

Value FiltersStep::TypeValue(const PhysicalColumnRef& column,
                             const std::string& text) const {
  ValueType type = ValueType::kString;
  const Table* table = db_->FindTable(column.table);
  if (table != nullptr) {
    int index = table->ColumnIndex(column.column);
    if (index >= 0) type = table->columns()[static_cast<size_t>(index)].type;
  }
  switch (type) {
    case ValueType::kInt64:
      try {
        return Value::Int(std::stoll(text));
      } catch (...) {
        return Value::Str(text);
      }
    case ValueType::kDouble:
      try {
        return Value::Real(std::stod(text));
      } catch (...) {
        return Value::Str(text);
      }
    case ValueType::kDate: {
      auto date = Date::Parse(text);
      if (date.ok()) return Value::DateV(*date);
      return Value::Str(text);
    }
    case ValueType::kBool:
      return Value::Bool(text == "true" || text == "1");
    default:
      return Value::Str(text);
  }
}

Result<std::vector<GeneratedFilter>> FiltersStep::Run(
    const std::vector<EntryPoint>& entries,
    const std::vector<OperatorBinding>& operators,
    const TablesOutput& tables) const {
  std::vector<GeneratedFilter> filters;

  // Which terms carry an operator (they filter with that operator instead
  // of the plain base-data equality).
  std::vector<bool> has_operator(entries.size(), false);
  for (const OperatorBinding& binding : operators) {
    if (binding.term_index < has_operator.size()) {
      has_operator[binding.term_index] = true;
    }
  }

  // 1. Base-data entry points become equality filters.
  for (size_t i = 0; i < entries.size(); ++i) {
    const EntryPoint& entry = entries[i];
    if (entry.kind != EntryPoint::Kind::kBaseData) continue;
    if (has_operator[i]) continue;  // the operator binding covers it
    if (i >= tables.entry_columns.size() || !tables.entry_columns[i]) {
      continue;  // Step 3 maps every base-data entry to its column
    }
    GeneratedFilter filter;
    filter.column = *tables.entry_columns[i];
    filter.op = CompareOp::kEq;
    filter.value = *entry.cell;
    filters.push_back(std::move(filter));
  }

  // 2. Input operators attach to the column their keyword resolves to.
  for (const OperatorBinding& binding : operators) {
    if (binding.term_index >= tables.entry_columns.size()) continue;
    const auto& column = tables.entry_columns[binding.term_index];
    if (!column.has_value()) {
      return Status::InvalidArgument(
          "comparison operator bound to a keyword that does not resolve "
          "to a column");
    }
    if (binding.is_between) {
      GeneratedFilter low;
      low.column = *column;
      low.op = CompareOp::kGe;
      low.value = binding.literal;
      filters.push_back(std::move(low));
      GeneratedFilter high;
      high.column = *column;
      high.op = CompareOp::kLe;
      high.value = binding.literal_high;
      filters.push_back(std::move(high));
    } else {
      GeneratedFilter filter;
      filter.column = *column;
      filter.op = binding.op;
      filter.value = binding.literal;
      filters.push_back(std::move(filter));
    }
  }

  // 3. Metadata-defined filters discovered during the traversal.
  for (const DiscoveredFilter& discovered : tables.filters) {
    GeneratedFilter filter;
    filter.column = discovered.column;
    filter.op = ParseCompareOp(discovered.op);
    filter.value = TypeValue(discovered.column, discovered.value);
    filters.push_back(std::move(filter));
  }

  return filters;
}

}  // namespace soda
