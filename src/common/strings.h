// String utilities shared across the SODA library.
//
// Keyword matching in SODA is case-insensitive and diacritic-insensitive:
// the paper's running example matches the query keyword "Zurich" against the
// base-data value "Zürich". FoldForMatch implements exactly that
// normalization (ASCII lowercase + folding of the Latin-1 diacritics that
// occur in the banking datasets).

#ifndef SODA_COMMON_STRINGS_H_
#define SODA_COMMON_STRINGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace soda {

/// ASCII lowercase copy of `s` (bytes >= 0x80 are passed through).
std::string ToLower(std::string_view s);

/// ASCII uppercase copy of `s`.
std::string ToUpper(std::string_view s);

/// Lowercases and folds common Latin-1/UTF-8 diacritics to their ASCII base
/// letter: "Zürich" -> "zurich", "Müller" -> "muller", "Génève" -> "geneve".
/// Also folds the German sharp s to "ss".
std::string FoldForMatch(std::string_view s);

/// Splits on `sep`, dropping empty pieces when `keep_empty` is false.
std::vector<std::string> Split(std::string_view s, char sep,
                               bool keep_empty = false);

/// Splits on any ASCII whitespace run.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// True when `s` and `t` are equal after FoldForMatch normalization.
/// Allocates nothing unless a non-ASCII byte is met before they differ.
bool EqualsFolded(std::string_view s, std::string_view t);

/// True when FoldForMatch(haystack) contains FoldForMatch(needle).
bool ContainsFolded(std::string_view haystack, std::string_view needle);

/// Replaces every occurrence of `from` with `to`.
std::string ReplaceAll(std::string_view s, std::string_view from,
                       std::string_view to);

/// 64-bit FNV-1a over the bytes of `s`: unlike std::hash, identical
/// across standard libraries and runs (cache stripes, committed digests).
uint64_t Fnv1a64(std::string_view s);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace soda

#endif  // SODA_COMMON_STRINGS_H_
