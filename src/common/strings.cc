#include "common/strings.h"

#include <algorithm>
#include <cctype>
#include <cstdarg>
#include <cstdio>

namespace soda {

std::string ToLower(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    out.push_back(static_cast<char>(std::tolower(c)));
  }
  return out;
}

std::string ToUpper(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    out.push_back(static_cast<char>(std::toupper(c)));
  }
  return out;
}

namespace {

// Folds one UTF-8 encoded Latin-1 supplement character (two bytes,
// 0xC3 0x80..0xBF) to its ASCII base letter(s). Returns true when folded.
bool FoldUtf8Latin1(unsigned char second, std::string* out) {
  // 0xC3 0x80 is U+00C0. Map the accented ranges onto base letters.
  const unsigned cp = 0xC0u + (second - 0x80u);
  auto push = [out](const char* s) { out->append(s); };
  if ((cp >= 0xC0 && cp <= 0xC5) || (cp >= 0xE0 && cp <= 0xE5)) {
    push("a");
  } else if (cp == 0xC7 || cp == 0xE7) {
    push("c");
  } else if ((cp >= 0xC8 && cp <= 0xCB) || (cp >= 0xE8 && cp <= 0xEB)) {
    push("e");
  } else if ((cp >= 0xCC && cp <= 0xCF) || (cp >= 0xEC && cp <= 0xEF)) {
    push("i");
  } else if (cp == 0xD1 || cp == 0xF1) {
    push("n");
  } else if ((cp >= 0xD2 && cp <= 0xD6) || cp == 0xD8 ||
             (cp >= 0xF2 && cp <= 0xF6) || cp == 0xF8) {
    push("o");
  } else if ((cp >= 0xD9 && cp <= 0xDC) || (cp >= 0xF9 && cp <= 0xFC)) {
    push("u");
  } else if (cp == 0xDD || cp == 0xFD || cp == 0xFF) {
    push("y");
  } else if (cp == 0xDF) {
    push("ss");
  } else {
    return false;
  }
  return true;
}

}  // namespace

std::string FoldForMatch(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    unsigned char c = static_cast<unsigned char>(s[i]);
    if (c < 0x80) {
      out.push_back(static_cast<char>(std::tolower(c)));
    } else if (c == 0xC3 && i + 1 < s.size()) {
      unsigned char second = static_cast<unsigned char>(s[i + 1]);
      if (FoldUtf8Latin1(second, &out)) {
        ++i;
      } else {
        out.push_back(static_cast<char>(c));
      }
    } else {
      // Latin-1 single-byte fallback (e.g. files written as ISO-8859-1).
      switch (c) {
        case 0xFC: case 0xDC: out.push_back('u'); break;
        case 0xF6: case 0xD6: out.push_back('o'); break;
        case 0xE4: case 0xC4: out.push_back('a'); break;
        case 0xE9: case 0xC9: case 0xE8: case 0xC8: out.push_back('e'); break;
        default: out.push_back(static_cast<char>(c));
      }
    }
  }
  return out;
}

std::vector<std::string> Split(std::string_view s, char sep, bool keep_empty) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (start <= s.size()) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) pos = s.size();
    std::string_view piece = s.substr(start, pos - start);
    if (keep_empty || !piece.empty()) parts.emplace_back(piece);
    if (pos == s.size()) break;
    start = pos + 1;
  }
  return parts;
}

std::vector<std::string> SplitWhitespace(std::string_view s) {
  std::vector<std::string> parts;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
    }
    if (i > start) parts.emplace_back(s.substr(start, i - start));
  }
  return parts;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() &&
         std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  size_t end = s.size();
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

uint64_t Fnv1a64(std::string_view s) {
  uint64_t hash = 1469598103934665603ull;  // FNV offset basis
  for (unsigned char c : s) {
    hash ^= static_cast<uint64_t>(c);
    hash *= 1099511628211ull;  // FNV prime
  }
  return hash;
}

bool EqualsFolded(std::string_view s, std::string_view t) {
  // FoldForMatch maps an ASCII byte to its tolower at the same output
  // position and looks ahead at most one byte, so identical bytes fold
  // identically, the first differing byte decides when both are ASCII,
  // and a longer string folds to a longer result. Only a differing
  // non-ASCII byte needs the full fold.
  const size_t n = std::min(s.size(), t.size());
  for (size_t i = 0; i < n; ++i) {
    unsigned char a = static_cast<unsigned char>(s[i]);
    unsigned char b = static_cast<unsigned char>(t[i]);
    if (a == b) continue;
    if (a >= 0x80 || b >= 0x80) return FoldForMatch(s) == FoldForMatch(t);
    if (std::tolower(a) != std::tolower(b)) return false;
  }
  return s.size() == t.size();
}

bool ContainsFolded(std::string_view haystack, std::string_view needle) {
  return FoldForMatch(haystack).find(FoldForMatch(needle)) !=
         std::string::npos;
}

std::string ReplaceAll(std::string_view s, std::string_view from,
                       std::string_view to) {
  if (from.empty()) return std::string(s);
  std::string out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(from, start);
    if (pos == std::string_view::npos) break;
    out.append(s.substr(start, pos - start));
    out.append(to);
    start = pos + from.size();
  }
  out.append(s.substr(start));
  return out;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace soda
