#include "text/inverted_index.h"

#include <algorithm>

#include "text/tokenizer.h"

namespace soda {

namespace {

// FNV-1a accumulation over one field plus a separator, so ("ab", "c")
// and ("a", "bc") hash differently.
uint64_t HashField(uint64_t hash, std::string_view field) {
  for (unsigned char c : field) {
    hash ^= static_cast<uint64_t>(c);
    hash *= 1099511628211ull;
  }
  hash ^= 0x1f;  // field separator
  hash *= 1099511628211ull;
  return hash;
}

uint64_t HashTriple(std::string_view table, std::string_view column,
                    std::string_view value) {
  uint64_t hash = 1469598103934665603ull;
  hash = HashField(hash, table);
  hash = HashField(hash, column);
  hash = HashField(hash, value);
  return hash;
}

}  // namespace

size_t InvertedIndex::ValueKeyHash::operator()(const ValueKeyView& key) const {
  return static_cast<size_t>(HashTriple(key.table, key.column, key.value));
}

size_t InvertedIndex::ValueKeyHash::operator()(uint32_t index) const {
  const StoredValue& sv = (*values)[index];
  return static_cast<size_t>(HashTriple(sv.table->name(),
                                        sv.table->columns()[sv.column].name,
                                        sv.cell->AsString()));
}

bool InvertedIndex::ValueKeyEq::operator()(const ValueKeyView& a,
                                           uint32_t b) const {
  const StoredValue& sv = (*values)[b];
  return a.table == sv.table->name() &&
         a.column == sv.table->columns()[sv.column].name &&
         a.value == sv.cell->AsString();
}

bool InvertedIndex::ValueKeyEq::operator()(uint32_t a,
                                           const ValueKeyView& b) const {
  return (*this)(b, a);
}

void InvertedIndex::Build(const Database& db) {
  // Adopt the database's shared vocabulary, so change-log events arrive
  // interned against this index's own dictionary.
  dict_ = db.token_dict();
  // The build appends to the shared dictionary; exclude readers.
  auto lock = db.change_log().WriterLock();
  for (const Table* table : db.tables()) {
    IndexTable(*table);
  }
}

void InvertedIndex::IndexTable(const Table& table) {
  uint32_t table_ord = TableOrdinal(table.name());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (table.columns()[c].type != ValueType::kString) continue;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      const Value& v = table.row(r)[c];
      if (v.is_null() || v.AsString().empty()) continue;
      AddOccurrence(table_ord, static_cast<uint32_t>(c), r, table, v);
    }
  }
}

size_t InvertedIndex::ApplyDelta(const ChangeEvent& event) {
  uint32_t table_ord = TableOrdinal(event.table);
  size_t inserted = 0;
  for (const ColumnDelta& delta : event.deltas) {
    for (size_t i = 0; i < delta.values.size(); ++i) {
      // Events carry each value pre-tokenized as ids interned against
      // the database's dictionary, which Build adopted: they are ours.
      inserted += AddOccurrence(
          table_ord, delta.column_index, delta.rows[i], *event.source,
          event.source->row(delta.rows[i])[delta.column_index],
          &delta.token_ids[i]);
    }
  }
  return inserted;
}

uint32_t InvertedIndex::TableOrdinal(const std::string& table) {
  auto [it, unused] =
      table_ordinals_.emplace(table,
                              static_cast<uint32_t>(table_ordinals_.size()));
  return it->second;
}

size_t InvertedIndex::AddOccurrence(uint32_t table_ord, uint32_t column_index,
                                    size_t row_index, const Table& table,
                                    const Value& cell,
                                    const std::vector<TokenId>* token_ids) {
  ++num_records_;

  const std::string& text = cell.AsString();
  ValueKeyView key{table.name(), table.columns()[column_index].name, text};
  auto it = value_keys_.find(key);
  if (it != value_keys_.end()) {
    ++values_[*it].row_count;
    return 0;
  }
  const std::vector<TokenId>* ids = token_ids;
  if (ids == nullptr) {
    if (dict_ == nullptr) dict_ = std::make_shared<TokenDict>();
    intern_scratch_.clear();
    dict_->InternText(text, &intern_scratch_);
    ids = &intern_scratch_;
  }
  if (ids->empty()) return 0;
  StoredValue sv;
  sv.table = &table;
  sv.column = column_index;
  sv.cell = &cell;
  sv.token_begin = static_cast<uint32_t>(token_arena_.size());
  sv.token_count = static_cast<uint32_t>(ids->size());
  sv.row_count = 1;
  sv.order_key = (static_cast<uint64_t>(table_ord) << 48) |
                 (static_cast<uint64_t>(column_index) << 32) |
                 static_cast<uint64_t>(row_index);
  token_arena_.insert(token_arena_.end(), ids->begin(), ids->end());
  uint32_t index = static_cast<uint32_t>(values_.size());
  size_t inserted = 0;
  // Register under each distinct token of the value, keeping the
  // postings list ordered by first-occurrence scan position. During a
  // from-scratch Build positions arrive ascending (push_back); a delta
  // apply splices into the middle wherever a rebuild would have put it.
  // Distinctness via sort+unique on the interned ids: O(k log k), not
  // the O(k^2) string scan the string-keyed index paid per value.
  dedupe_scratch_.assign(ids->begin(), ids->end());
  std::sort(dedupe_scratch_.begin(), dedupe_scratch_.end());
  dedupe_scratch_.erase(
      std::unique(dedupe_scratch_.begin(), dedupe_scratch_.end()),
      dedupe_scratch_.end());
  if (dedupe_scratch_.back() >= postings_.size()) {
    postings_.resize(dedupe_scratch_.back() + 1);
  }
  for (TokenId id : dedupe_scratch_) {
    std::vector<uint32_t>& list = postings_[id];
    if (list.empty()) ++num_tokens_;
    if (list.empty() || values_[list.back()].order_key < sv.order_key) {
      list.push_back(index);
    } else {
      auto pos = std::upper_bound(
          list.begin(), list.end(), sv.order_key,
          [this](uint64_t order_key, uint32_t existing) {
            return order_key < values_[existing].order_key;
          });
      list.insert(pos, index);
    }
    ++inserted;
  }
  values_.push_back(std::move(sv));
  value_keys_.insert(index);
  return inserted;
}

template <typename Fn>
void InvertedIndex::ForEachPhraseMatch(const std::string& phrase,
                                       Fn&& fn) const {
  if (dict_ == nullptr) return;  // nothing was ever indexed
  // Read-only token resolution: a token the dictionary has never seen
  // cannot occur in any stored value.
  std::vector<TokenId> query_ids;
  if (!dict_->FindText(phrase, &query_ids) || query_ids.empty()) return;

  // Collect the distinct tokens' postings lists; every token must occur
  // somewhere or the phrase cannot match.
  std::vector<const std::vector<uint32_t>*> lists;
  for (size_t k = 0; k < query_ids.size(); ++k) {
    TokenId id = query_ids[k];
    bool duplicate = false;
    for (size_t j = 0; j < k; ++j) {
      if (query_ids[j] == id) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) continue;
    if (id >= postings_.size() || postings_[id].empty()) return;
    lists.push_back(&postings_[id]);
  }

  // Enumerate candidates from the RAREST token's postings — order_key
  // order is shared by all lists, so emission order is identical to a
  // first-token scan (order_key is unique per stored value).
  size_t rarest = 0;
  for (size_t j = 1; j < lists.size(); ++j) {
    if (lists[j]->size() < lists[rarest]->size()) rarest = j;
  }
  const std::vector<uint32_t>& base = *lists[rarest];

  if (query_ids.size() == 1) {
    // Single-token phrase: every posting of the token is a match.
    for (uint32_t index : base) fn(index);
    return;
  }

  // Sorted-merge intersection: one forward cursor per other list, each
  // advanced monotonically as the base candidates ascend.
  std::vector<size_t> cursors(lists.size(), 0);
  for (uint32_t index : base) {
    const StoredValue& sv = values_[index];
    bool in_all = true;
    for (size_t j = 0; j < lists.size(); ++j) {
      if (j == rarest) continue;
      const std::vector<uint32_t>& list = *lists[j];
      auto pos = std::lower_bound(
          list.begin() + static_cast<ptrdiff_t>(cursors[j]), list.end(),
          sv.order_key, [this](uint32_t existing, uint64_t order_key) {
            return values_[existing].order_key < order_key;
          });
      cursors[j] = static_cast<size_t>(pos - list.begin());
      // This token's list is exhausted below every remaining candidate:
      // no later candidate can match either.
      if (pos == list.end()) return;
      if (*pos != index) {
        in_all = false;
        break;
      }
    }
    if (!in_all) continue;
    // Verify adjacency on the interned sequence (integer compare).
    const TokenId* hay = token_arena_.data() + sv.token_begin;
    const TokenId* hay_end = hay + sv.token_count;
    if (std::search(hay, hay_end, query_ids.begin(), query_ids.end()) !=
        hay_end) {
      fn(index);
    }
  }
}

std::vector<ValuePosting> InvertedIndex::LookupPhrase(
    const std::string& phrase) const {
  std::vector<ValuePosting> result;
  for (const ValueRef& ref : LookupPhraseRefs(phrase)) {
    result.push_back(ValuePosting{ref.table->name(),
                                  ref.table->columns()[ref.column].name,
                                  ref.cell->AsString(), ref.row_count});
  }
  return result;
}

std::vector<ValueRef> InvertedIndex::LookupPhraseRefs(
    const std::string& phrase) const {
  std::vector<ValueRef> result;
  ForEachPhraseMatch(phrase, [&](uint32_t index) {
    const StoredValue& sv = values_[index];
    result.push_back(ValueRef{sv.table, sv.column, sv.cell, sv.row_count});
  });
  return result;
}

size_t InvertedIndex::CountPhrase(const std::string& phrase) const {
  size_t count = 0;
  ForEachPhraseMatch(phrase, [&](uint32_t) { ++count; });
  return count;
}

bool InvertedIndex::ContainsToken(const std::string& token) const {
  if (dict_ == nullptr) return false;
  TokenId id = dict_->Find(NormalizeToken(token));
  return id != kNoToken && id < postings_.size() && !postings_[id].empty();
}

size_t InvertedIndex::ApproxMemoryBytes() const {
  size_t bytes = sizeof(*this);
  bytes += values_.capacity() * sizeof(StoredValue);
  bytes += token_arena_.capacity() * sizeof(TokenId);
  bytes += postings_.capacity() * sizeof(std::vector<uint32_t>);
  for (const std::vector<uint32_t>& list : postings_) {
    bytes += list.capacity() * sizeof(uint32_t);
  }
  // value_keys_ / table_ordinals_: bucket arrays plus per-node overhead.
  bytes += value_keys_.bucket_count() * sizeof(void*);
  bytes += value_keys_.size() * (sizeof(uint32_t) + 2 * sizeof(void*));
  bytes += table_ordinals_.bucket_count() * sizeof(void*);
  for (const auto& [name, ordinal] : table_ordinals_) {
    bytes += sizeof(std::string) + name.capacity() + sizeof(ordinal) +
             2 * sizeof(void*);
  }
  return bytes;
}

}  // namespace soda
