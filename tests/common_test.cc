// Unit tests for the common substrate: Status/Result, strings, dates, RNG.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/date.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"

namespace soda {
namespace {

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::NotFound("table 'x'");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(st.ToString(), "not_found: table 'x'");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kOutOfRange,
        StatusCode::kParseError, StatusCode::kTypeError,
        StatusCode::kUnsupported, StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeName(code), "unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::InvalidArgument("bad");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(7), 7);
}

Result<int> Doubler(Result<int> in) {
  SODA_ASSIGN_OR_RETURN(int v, in);
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubler(21), 42);
  EXPECT_FALSE(Doubler(Status::Internal("boom")).ok());
}

// ---------------------------------------------------------------------------
// strings
// ---------------------------------------------------------------------------

TEST(StringsTest, CaseConversion) {
  EXPECT_EQ(ToLower("Credit SUISSE"), "credit suisse");
  EXPECT_EQ(ToUpper("yen"), "YEN");
}

TEST(StringsTest, DiacriticFolding) {
  EXPECT_EQ(FoldForMatch("Zürich"), "zurich");
  EXPECT_EQ(FoldForMatch("Müller"), "muller");
  EXPECT_EQ(FoldForMatch("Génève"), "geneve");
  EXPECT_EQ(FoldForMatch("Straße"), "strasse");
  EXPECT_EQ(FoldForMatch("Nestlé"), "nestle");
  EXPECT_EQ(FoldForMatch("plain"), "plain");
}

TEST(StringsTest, EqualsFoldedMatchesAccentVariants) {
  EXPECT_TRUE(EqualsFolded("Zurich", "Zürich"));
  EXPECT_TRUE(EqualsFolded("ZÜRICH", "zurich"));
  EXPECT_FALSE(EqualsFolded("Zurich", "Geneva"));
}

// The allocation-free EqualsFolded agrees with comparing FoldForMatch
// results, on ASCII and on UTF-8 and raw Latin-1 diacritics alike.
TEST(StringsTest, EqualsFoldedMatchesFoldForMatchOnRandomPairs) {
  // Pieces in one class fold alike; "\xFC" and "\xE9" are raw Latin-1.
  const std::vector<std::vector<std::string>> classes = {
      {"a", "A"},
      {"z", "Z"},
      {"u", "U", "\xC3\xBC", "\xC3\x9C", "\xFC"},
      {"e", "E", "\xC3\xA9", "\xE9"},
      {"ss", "\xC3\x9F"},
      {"\xC3"},  // a lead byte with no Latin-1 continuation
      {"0"},
      {"9"},
      {"_"},
  };
  Rng rng(4242);
  size_t equal = 0;
  for (int i = 0; i < 20000; ++i) {
    std::vector<size_t> shape(rng.Below(7));
    for (size_t& c : shape) c = rng.Below(classes.size());
    auto spell = [&](const std::vector<size_t>& cs) {
      std::string out;
      for (size_t c : cs) out += rng.Pick(classes[c]);
      return out;
    };
    std::string a = spell(shape);
    if (rng.Chance(0.3) && !shape.empty()) {
      shape[rng.Below(shape.size())] = rng.Below(classes.size());
    }
    if (rng.Chance(0.2)) {
      if (!shape.empty() && rng.Chance(0.5)) {
        shape.pop_back();
      } else {
        shape.push_back(rng.Below(classes.size()));
      }
    }
    std::string b = spell(shape);
    bool want = FoldForMatch(a) == FoldForMatch(b);
    EXPECT_EQ(EqualsFolded(a, b), want) << "'" << a << "' vs '" << b << "'";
    EXPECT_EQ(EqualsFolded(b, a), want) << "'" << b << "' vs '" << a << "'";
    if (want) ++equal;
  }
  // Both outcomes are well represented.
  EXPECT_GT(equal, 5000u);
  EXPECT_LT(equal, 15000u);
}

TEST(StringsTest, ContainsFolded) {
  EXPECT_TRUE(ContainsFolded("Zürich Insurance", "zurich"));
  EXPECT_FALSE(ContainsFolded("Geneva", "zurich"));
}

TEST(StringsTest, SplitAndJoin) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(Join(parts, "-"), "a-b-c");
  auto kept = Split("a,b,,c", ',', /*keep_empty=*/true);
  EXPECT_EQ(kept.size(), 4u);
}

TEST(StringsTest, SplitWhitespace) {
  auto parts = SplitWhitespace("  Sara   Guttinger\t1981 ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "Sara");
  EXPECT_EQ(parts[2], "1981");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("matches-column", "matches-"));
  EXPECT_FALSE(StartsWith("col", "column"));
  EXPECT_TRUE(EndsWith("indvl_td", "_td"));
  EXPECT_FALSE(EndsWith("td", "_td"));
}

TEST(StringsTest, ReplaceAll) {
  EXPECT_EQ(ReplaceAll("a_b_c", "_", " "), "a b c");
  EXPECT_EQ(ReplaceAll("aaa", "aa", "b"), "ba");
  EXPECT_EQ(ReplaceAll("x", "", "y"), "x");
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%05d", 42), "00042");
}

// ---------------------------------------------------------------------------
// dates
// ---------------------------------------------------------------------------

TEST(DateTest, EpochIsZero) {
  Date epoch = Date::FromYmd(1970, 1, 1);
  EXPECT_EQ(epoch.days_since_epoch(), 0);
  EXPECT_EQ(epoch.ToString(), "1970-01-01");
}

TEST(DateTest, RoundTripParseFormat) {
  for (const char* text : {"1981-04-23", "2011-09-01", "9999-12-31",
                           "2000-02-29", "1900-03-01"}) {
    auto date = Date::Parse(text);
    ASSERT_TRUE(date.ok()) << text;
    EXPECT_EQ(date->ToString(), text);
  }
}

TEST(DateTest, RejectsMalformed) {
  EXPECT_FALSE(Date::Parse("2011-9-1").ok());    // missing zero padding
  EXPECT_FALSE(Date::Parse("2011/09/01").ok());  // wrong separator
  EXPECT_FALSE(Date::Parse("2011-13-01").ok());  // month out of range
  EXPECT_FALSE(Date::Parse("2011-02-30").ok());  // day out of range
  EXPECT_FALSE(Date::Parse("1900-02-29").ok());  // 1900 is not leap
  EXPECT_FALSE(Date::Parse("").ok());
  EXPECT_FALSE(Date::Parse("abcd-ef-gh").ok());
}

TEST(DateTest, LeapYearHandling) {
  EXPECT_TRUE(Date::Parse("2000-02-29").ok());   // 400-rule leap
  EXPECT_TRUE(Date::Parse("2012-02-29").ok());
  EXPECT_FALSE(Date::Parse("2100-02-29").ok());  // 100-rule non-leap
}

TEST(DateTest, OrderingAndArithmetic) {
  Date a = Date::FromYmd(2011, 9, 1);
  Date b = Date::FromYmd(2011, 9, 2);
  EXPECT_LT(a, b);
  EXPECT_EQ(a.AddDays(1), b);
  EXPECT_EQ(b.AddDays(-1), a);
}

TEST(DateTest, ComponentExtraction) {
  Date d = Date::FromYmd(1981, 4, 23);
  EXPECT_EQ(d.year(), 1981);
  EXPECT_EQ(d.month(), 4);
  EXPECT_EQ(d.day(), 23);
}

// Property sweep: FromYmd/components round-trip across a broad range.
class DateRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(DateRoundTripTest, YmdRoundTrips) {
  int year = GetParam();
  for (int month : {1, 2, 6, 12}) {
    for (int day : {1, 15, 28}) {
      Date d = Date::FromYmd(year, month, day);
      EXPECT_EQ(d.year(), year);
      EXPECT_EQ(d.month(), month);
      EXPECT_EQ(d.day(), day);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Years, DateRoundTripTest,
                         ::testing::Values(1900, 1950, 1970, 1999, 2000,
                                           2012, 2038, 2100, 9999));

// ---------------------------------------------------------------------------
// rng
// ---------------------------------------------------------------------------

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, RangeIsInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Range(1, 3);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 3);
    saw_lo |= v == 1;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

}  // namespace
}  // namespace soda
