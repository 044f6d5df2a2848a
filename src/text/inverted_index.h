// Inverted index over the text columns of the base data.
//
// The paper builds an inverted index over all 472 base tables, restricted
// to columns of type "text" (Section 5.1.2). SODA's lookup step probes the
// index with keyword phrases; a hit identifies (table, column, stored
// value) triples that become base-data entry points with equality filters.
//
// Postings are kept at value granularity: token -> set of distinct
// (table, column, value) occurrences with row counts. Phrase queries
// ("credit suisse") require the tokens to appear consecutively in the
// stored value.
//
// Representation. Tokens are interned through a shared TokenDict
// (text/token_dict.h): each stored value keeps an (offset, len) slice
// into one flat TokenId arena instead of a vector of strings, postings_
// is a plain vector indexed by TokenId instead of a string-keyed hash
// map, and phrase verification is an integer subsequence search. A
// multi-token probe walks the postings of the RAREST phrase token and
// prunes candidates against the other tokens' lists by sorted merge
// before verifying adjacency. When the index is built over a Database it
// adopts the database's dictionary, so the index and the change log's
// events share one vocabulary; probes only ever read the dictionary
// (Find), never extend it — appends happen under the change log's
// exclusive data lock.

#ifndef SODA_TEXT_INVERTED_INDEX_H_
#define SODA_TEXT_INVERTED_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "storage/change_log.h"
#include "storage/table.h"
#include "text/token_dict.h"

namespace soda {

/// One distinct (table, column, value) occurrence.
struct ValuePosting {
  std::string table;
  std::string column;
  std::string value;      // the stored value, original spelling
  int64_t row_count = 0;  // number of base rows carrying this value
};

/// The same occurrence by reference: the table, the column's ordinal in
/// it and the first stored cell with the value. Rows are never modified
/// and a row's buffer stays put when its table grows, so the pointers
/// stay valid for the table's lifetime.
struct ValueRef {
  const Table* table = nullptr;
  uint32_t column = 0;
  const Value* cell = nullptr;
  int64_t row_count = 0;
};

class InvertedIndex {
 public:
  InvertedIndex() = default;
  // The value-key interner hashes through a pointer to values_; copying
  // or moving the index would leave it aimed at the source instance.
  InvertedIndex(const InvertedIndex&) = delete;
  InvertedIndex& operator=(const InvertedIndex&) = delete;

  /// Indexes every string column of every table in `db`, under the
  /// database change log's exclusive data lock (the build appends to the
  /// shared dictionary). Adopts db.token_dict().
  void Build(const Database& db);

  /// Indexes one table (incremental build). Callers on a live database
  /// hold the change log's exclusive data lock; standalone/test callers
  /// run quiesced.
  void IndexTable(const Table& table);

  /// The dictionary tokens are interned through: the database's after
  /// Build; a plain IndexTable build without a database creates one
  /// lazily.
  const std::shared_ptr<TokenDict>& token_dict() const { return dict_; }

  /// Incremental index maintenance: inserts the appended (table, column,
  /// value) occurrences of one ChangeEvent in place — append-only
  /// matches the paper's historization model, so no rebuild is ever
  /// needed. REQUIRES an index built (Build) over the event's database:
  /// the event's TokenIds are interned against that database's
  /// dictionary, which this index then shares, and apply verbatim; the
  /// event's source table holds the cells the postings point at. Postings
  /// are kept ordered by the value's first-occurrence scan position
  /// (table creation order, column, row), so every probe (LookupPhrase /
  /// CountPhrase / ContainsToken) returns results
  /// identical to a from-scratch Build over the mutated database —
  /// ordering included. Returns the number of new posting entries
  /// inserted (0 when every value was already indexed and only row
  /// counts moved). Not internally synchronized: callers run under the
  /// change log's exclusive data lock (see storage/change_log.h).
  size_t ApplyDelta(const ChangeEvent& event);

  /// All distinct values whose token sequence contains `phrase` (a
  /// space-separated token phrase) as a consecutive subsequence.
  /// An empty result means the phrase does not occur in the base data.
  std::vector<ValuePosting> LookupPhrase(const std::string& phrase) const;

  /// LookupPhrase by reference: the same occurrences in the same order,
  /// naming no table, column or value.
  std::vector<ValueRef> LookupPhraseRefs(const std::string& phrase) const;

  /// LookupPhrase(phrase).size() without materializing the postings —
  /// the probe the lookup step's complexity accounting wants.
  size_t CountPhrase(const std::string& phrase) const;

  /// True when the single token occurs anywhere.
  bool ContainsToken(const std::string& token) const;

  size_t num_tokens() const { return num_tokens_; }
  size_t num_values() const { return values_.size(); }
  size_t num_records() const { return num_records_; }

  /// Approximate heap footprint of the index structures (stored values,
  /// token arena, postings, value-key interner). EXCLUDES the token
  /// dictionary — it is the database's, shared with its change log;
  /// account for it via token_dict()->ApproxMemoryBytes().
  size_t ApproxMemoryBytes() const;

 private:
  /// Names are read through the table: its name, the column's name and
  /// the cell's string.
  struct StoredValue {
    const Table* table = nullptr;
    uint32_t column = 0;
    const Value* cell = nullptr;  // the first occurrence's cell
    /// The value's normalized token sequence, as a slice of the shared
    /// token arena (ids into *dict_).
    uint32_t token_begin = 0;
    uint32_t token_count = 0;
    int64_t row_count = 0;
    /// First-occurrence scan position, (table ordinal << 48) |
    /// (column << 32) | row: the order a from-scratch Build encounters
    /// values in. Postings lists stay sorted by this key, which is what
    /// makes ApplyDelta rebuild-identical.
    uint64_t order_key = 0;
  };

  /// Heterogeneous hash/equality over (table, column, value): stored
  /// keys are indexes into values_ (no duplicate string storage), build
  /// probes are string_view triples — no concatenated key string and no
  /// O(log n) string compares on the indexing hot loop.
  struct ValueKeyView {
    std::string_view table;
    std::string_view column;
    std::string_view value;
  };
  struct ValueKeyHash {
    using is_transparent = void;
    const std::vector<StoredValue>* values;
    size_t operator()(const ValueKeyView& key) const;
    size_t operator()(uint32_t index) const;
  };
  struct ValueKeyEq {
    using is_transparent = void;
    const std::vector<StoredValue>* values;
    bool operator()(uint32_t a, uint32_t b) const { return a == b; }
    bool operator()(const ValueKeyView& a, uint32_t b) const;
    bool operator()(uint32_t a, const ValueKeyView& b) const;
  };

  /// Shared phrase scan: calls `fn(index)` for every stored value whose
  /// token sequence contains the phrase.
  /// Candidates are enumerated from the rarest phrase token's postings,
  /// in order-key order (== the order a first-token scan yields).
  template <typename Fn>
  void ForEachPhraseMatch(const std::string& phrase, Fn&& fn) const;

  /// Shared indexing core of Build/IndexTable and ApplyDelta: registers
  /// the non-empty string occurrence `cell` of `table` at scan position
  /// (table_ord, column_index, row_index). `token_ids`, when non-null, is the
  /// value's pre-interned token sequence AGAINST THIS INDEX'S dictionary
  /// (ChangeEvents from the database's log ship it); null means tokenize
  /// and intern here. Returns the number of posting entries inserted (0 for
  /// an already-known value).
  size_t AddOccurrence(uint32_t table_ord, uint32_t column_index,
                       size_t row_index, const Table& table,
                       const Value& cell,
                       const std::vector<TokenId>* token_ids = nullptr);

  /// The table's position in from-scratch scan order, assigned on first
  /// encounter (Build walks creation order, so ordinals match it).
  uint32_t TableOrdinal(const std::string& table);

  std::shared_ptr<TokenDict> dict_;
  /// Concatenated token sequences of all stored values; each StoredValue
  /// owns the [token_begin, token_begin + token_count) slice.
  std::vector<TokenId> token_arena_;
  // TokenId -> indexes into values_ (deduplicated, sorted by order_key).
  // Dense by id; slots for dictionary tokens this index never saw stay
  // empty (the dictionary is the database's, shared with its log).
  std::vector<std::vector<uint32_t>> postings_;
  size_t num_tokens_ = 0;  // non-empty postings lists
  std::vector<StoredValue> values_;
  // (table, column, value) -> index into values_, for row_count merging.
  std::unordered_set<uint32_t, ValueKeyHash, ValueKeyEq> value_keys_{
      0, ValueKeyHash{&values_}, ValueKeyEq{&values_}};
  // table name -> scan ordinal (the high bits of order_key).
  std::unordered_map<std::string, uint32_t> table_ordinals_;
  size_t num_records_ = 0;
  // Mutation-path scratch (builds and delta applies are serialized by
  // the exclusive data lock; probes never touch these).
  std::vector<TokenId> intern_scratch_;
  std::vector<TokenId> dedupe_scratch_;
};

}  // namespace soda

#endif  // SODA_TEXT_INVERTED_INDEX_H_
