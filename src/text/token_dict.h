// The interned token vocabulary shared by the text-index stack.
//
// Every folded token the indexes ever see is registered here once and
// addressed by a dense uint32 TokenId from then on: stored-value token
// sequences, postings lists and phrase probes all operate on ids, so
// phrase verification is an integer-sequence search instead of a
// string-compare scan, and a database's index and change log share ONE
// vocabulary, so published deltas apply without re-tokenizing.
//
// Concurrency contract. The dictionary is append-only and NOT internally
// synchronized; it inherits the change log's readers-writer discipline
// (storage/change_log.h): every Intern/InternText call runs under the
// log's exclusive data lock (index builds, delta publication), every
// Find/FindText/Spelling call under the shared lock (query probes) or on
// a quiesced dictionary. Probes therefore never observe a dictionary
// mid-append, and the read side must never intern — an unknown token on
// a probe simply means "no match".

#ifndef SODA_TEXT_TOKEN_DICT_H_
#define SODA_TEXT_TOKEN_DICT_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace soda {

/// Dense handle of one folded token. Ids are assigned in first-intern
/// order and never reused or reordered.
using TokenId = uint32_t;

/// Sentinel for "token not in the dictionary" on the read-only path.
inline constexpr TokenId kNoToken = 0xFFFFFFFFu;

class TokenDict {
 public:
  TokenDict() = default;
  // The id map holds string_views into spellings_; copying or moving
  // would leave them aimed at the source instance.
  TokenDict(const TokenDict&) = delete;
  TokenDict& operator=(const TokenDict&) = delete;

  /// Id of `token` (an already-folded token), interning it when new.
  /// Mutating: callers hold the exclusive data lock.
  TokenId Intern(std::string_view token);

  /// Id of `token` or kNoToken when it was never interned. Read-only.
  TokenId Find(std::string_view token) const;

  /// The folded spelling behind an id. `id` must be < size().
  const std::string& Spelling(TokenId id) const { return spellings_[id]; }

  /// Folds `text` and appends the id of every token to `out`, interning
  /// new ones — the single-pass indexing form of Tokenize + Intern (no
  /// per-token string materialization for already-known tokens).
  /// Mutating: callers hold the exclusive data lock.
  void InternText(std::string_view text, std::vector<TokenId>* out);

  /// Folds `text` and appends the id of every token to `out`. Returns
  /// false as soon as one token is unknown (out is then partial) — for a
  /// phrase probe an unknown token already means "no match". Read-only.
  bool FindText(std::string_view text, std::vector<TokenId>* out) const;

  size_t size() const { return spellings_.size(); }

  /// Approximate heap footprint (spelling storage + id map), for the
  /// shared-vocabulary accounting in service_demo. Approximate: small
  /// strings below the SSO threshold are charged their capacity anyway.
  size_t ApproxMemoryBytes() const;

 private:
  // Deque, not vector: the id map's keys are views into the stored
  // spellings, so their addresses must survive appends.
  std::deque<std::string> spellings_;
  std::unordered_map<std::string_view, TokenId> ids_;
};

}  // namespace soda

#endif  // SODA_TEXT_TOKEN_DICT_H_
