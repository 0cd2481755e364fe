#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/json.h"
#include "common/numeric.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"

namespace uctr {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::ParseError("bad token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.ToString(), "ParseError: bad token");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
}

// ---------------------------------------------------------------- Result

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  UCTR_ASSIGN_OR_RETURN(int h, Half(x));
  return Half(h);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = Half(10);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 5);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Half(3);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.ValueOr(-1), -1);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_TRUE(Quarter(8).ok());
  EXPECT_EQ(*Quarter(8), 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2 = 3 is odd
}

// ------------------------------------------------------------ StringUtil

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(StringUtilTest, SplitWhitespaceDropsEmpties) {
  auto parts = SplitWhitespace("  a \t b\nc  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[2], "c");
}

TEST(StringUtilTest, TrimAndCase) {
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_EQ(ToLower("AbC"), "abc");
  EXPECT_EQ(ToUpper("AbC"), "ABC");
  EXPECT_EQ(Capitalize("hello"), "Hello");
}

TEST(StringUtilTest, PrefixSuffixContains) {
  EXPECT_TRUE(StartsWith("filter_eq", "filter_"));
  EXPECT_TRUE(EqualsIgnoreCase("Total", "tOtAl"));
  EXPECT_TRUE(ContainsIgnoreCase("Gross Profit Margin", "profit"));
  EXPECT_FALSE(ContainsIgnoreCase("abc", "abcd"));
}

TEST(StringUtilTest, ReplaceAll) {
  EXPECT_EQ(ReplaceAll("a.b.c", ".", "::"), "a::b::c");
  EXPECT_EQ(ReplaceAll("aaa", "aa", "b"), "ba");
}

TEST(StringUtilTest, WordTokensKeepsNumbersTogether) {
  auto toks = WordTokens("Revenue was $1,234.5 (up 12.5%) in 2019.");
  // "$1,234.5" and "12.5%" should each survive as single tokens.
  std::set<std::string> set(toks.begin(), toks.end());
  EXPECT_TRUE(set.count("$1,234.5"));
  EXPECT_TRUE(set.count("12.5%"));
  EXPECT_TRUE(set.count("revenue"));
  EXPECT_TRUE(set.count("2019"));
}

// --------------------------------------------------------------- Numeric

TEST(NumericTest, ParsesPlainNumbers) {
  EXPECT_DOUBLE_EQ(*ParseNumber("42"), 42.0);
  EXPECT_DOUBLE_EQ(*ParseNumber("-3.5"), -3.5);
  EXPECT_DOUBLE_EQ(*ParseNumber("1e3"), 1000.0);
}

TEST(NumericTest, ParsesMessyFinancialText) {
  EXPECT_DOUBLE_EQ(*ParseNumber("$1,234.50"), 1234.50);
  EXPECT_DOUBLE_EQ(*ParseNumber("US$3"), 3.0);
  EXPECT_DOUBLE_EQ(*ParseNumber("12.5%"), 12.5);
  EXPECT_DOUBLE_EQ(*ParseNumber("(1,234)"), -1234.0);
}

// Regression test: the sign used to be stripped by strtod AFTER the
// currency/percent strips, so signed currency and percent forms were
// rejected outright.
TEST(NumericTest, ParsesSignedCurrencyAndPercent) {
  EXPECT_DOUBLE_EQ(*ParseNumber("-$5"), -5.0);
  EXPECT_DOUBLE_EQ(*ParseNumber("-€1,200"), -1200.0);
  EXPECT_DOUBLE_EQ(*ParseNumber("+3%"), 3.0);
  EXPECT_DOUBLE_EQ(*ParseNumber("- $7.25"), -7.25);
  EXPECT_DOUBLE_EQ(*ParseNumber("+US$40"), 40.0);
  // The sign composes with the accounting parentheses exactly as the
  // pre-fix strtod path did: "(-5)" is (-1) * (-5) = +5.
  EXPECT_DOUBLE_EQ(*ParseNumber("(-5)"), 5.0);
  EXPECT_DOUBLE_EQ(*ParseNumber("($1,000)"), -1000.0);
}

TEST(NumericTest, RejectsNonNumbers) {
  EXPECT_FALSE(ParseNumber("hello").has_value());
  EXPECT_FALSE(ParseNumber("").has_value());
  EXPECT_FALSE(ParseNumber("12abc").has_value());
  EXPECT_FALSE(ParseNumber(",12").has_value());  // comma without digit before
  EXPECT_FALSE(ParseNumber("--5").has_value());  // at most one explicit sign
  EXPECT_FALSE(ParseNumber("+-5").has_value());
  EXPECT_FALSE(ParseNumber("-").has_value());
  EXPECT_FALSE(ParseNumber("-$").has_value());
}

// Cells are numbers only in the decimal shapes above and in FormatNumber's
// own spellings of the non-finite values; strtod's hex, infinity and
// nan-payload forms are text.
TEST(NumericTest, AcceptsOnlyDecimalAndFormattedNonFiniteSpellings) {
  EXPECT_DOUBLE_EQ(*ParseNumber(".5"), 0.5);
  EXPECT_DOUBLE_EQ(*ParseNumber("3."), 3.0);
  EXPECT_DOUBLE_EQ(*ParseNumber("2.5E-2"), 0.025);
  EXPECT_DOUBLE_EQ(*ParseNumber("-1e+2"), -100.0);
  EXPECT_DOUBLE_EQ(*ParseNumber("$1.5e3"), 1500.0);
  EXPECT_EQ(*ParseNumber("inf"), std::numeric_limits<double>::infinity());
  EXPECT_EQ(*ParseNumber("-inf"), -std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isnan(*ParseNumber("nan")));
  EXPECT_TRUE(std::isnan(*ParseNumber(FormatNumber(std::nan("")))));
  for (const char* text :
       {"0x10", "0X1F", "0x1p3", "nan(123)", "Nan", "NaN", "NAN", "-nan",
        "Infinity", "infinity", "-Infinity", "Inf", "INF", "+inf", "$inf",
        "inf%", "(inf)", "e5", "1e", "1e+", ".", "-.", "1.2.3", "1,2e3x"}) {
    EXPECT_FALSE(ParseNumber(text).has_value()) << text;
  }
}

TEST(NumericTest, FormatNumberCompact) {
  EXPECT_EQ(FormatNumber(42.0), "42");
  EXPECT_EQ(FormatNumber(3.14159, 2), "3.14");
  EXPECT_EQ(FormatNumber(-1200.5), "-1200.5");
}

TEST(NumericTest, NearlyEqual) {
  EXPECT_TRUE(NearlyEqual(1.0, 1.0 + 1e-9));
  EXPECT_FALSE(NearlyEqual(1.0, 1.1));
  EXPECT_TRUE(NearlyEqual(1e12, 1e12 + 1.0));  // relative tolerance
}

// Equal operands are equal, infinities included; otherwise a non-finite
// operand equals nothing. Past that test inf - inf would be NaN, and a
// tolerance scaled by inf would admit every finite number.
TEST(NumericTest, NearlyEqualInfinityOnlyToItself) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(NearlyEqual(inf, inf));
  EXPECT_TRUE(NearlyEqual(-inf, -inf));
  EXPECT_FALSE(NearlyEqual(inf, -inf));
  EXPECT_FALSE(NearlyEqual(1.0, inf));
  EXPECT_FALSE(NearlyEqual(-inf, -1e300));
  EXPECT_FALSE(NearlyEqual(inf, 1.0, 0.51, 0.01));  // round_eq's tolerance
  EXPECT_FALSE(NearlyEqual(inf, nan));
  EXPECT_FALSE(NearlyEqual(nan, nan));
}

// What FormatDouble-style "%.17g" writes reads back; anything else, and
// every non-finite value, is an error rather than a silent guess.
TEST(NumericTest, ParseDoubleStrictTakesDecimalsOnly) {
  EXPECT_DOUBLE_EQ(*ParseDoubleStrict("0.3"), 0.3);
  EXPECT_DOUBLE_EQ(*ParseDoubleStrict("-2"), -2.0);
  EXPECT_DOUBLE_EQ(*ParseDoubleStrict("1e-05"), 1e-5);
  EXPECT_DOUBLE_EQ(*ParseDoubleStrict("1.5E+3"), 1500.0);
  for (const char* text : {"", " 1", "1 ", "+1", "--1", "0x1p3", "inf",
                           "-inf", "nan", "1e400", "-1e400", "1,5", "e5"}) {
    EXPECT_EQ(ParseDoubleStrict(text).status().code(),
              StatusCode::kParseError)
        << text;
  }
}

// ------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, BernoulliRespectsProbability) {
  Rng rng(11);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.03);
}

TEST(RngTest, SampleIndicesWithoutReplacement) {
  Rng rng(5);
  auto idx = rng.SampleIndices(10, 4);
  EXPECT_EQ(idx.size(), 4u);
  std::set<size_t> uniq(idx.begin(), idx.end());
  EXPECT_EQ(uniq.size(), 4u);
  for (size_t i : idx) EXPECT_LT(i, 10u);
}

TEST(RngTest, SampleIndicesCappedAtN) {
  Rng rng(5);
  auto idx = rng.SampleIndices(3, 10);
  EXPECT_EQ(idx.size(), 3u);
}

TEST(RngTest, WeightedIndexFollowsWeights) {
  Rng rng(13);
  std::map<size_t, int> counts;
  for (int i = 0; i < 10000; ++i) {
    counts[rng.WeightedIndex({1.0, 0.0, 3.0})]++;
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_GT(counts[2], counts[0] * 2);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> v = {1, 2, 3, 4, 5, 6};
  auto sorted = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}


// ------------------------------------------------------------------ JSON

TEST(JsonTest, ParsesScalarsObjectsAndArrays) {
  json::Value v =
      json::Parse(R"({"name":"t1","n":3.5,"rows":[1,2],"meta":{"k":"v"}})")
          .ValueOrDie();
  ASSERT_TRUE(v.is_object());
  const json::Value::Object& obj = v.as_object();
  EXPECT_EQ(json::GetStringOr(obj, "name", ""), "t1");
  EXPECT_DOUBLE_EQ(json::GetNumberOr(obj, "n", 0.0), 3.5);
  EXPECT_EQ(json::GetNumberOr(obj, "missing", -1.0), -1.0);
  auto rows = obj.find("rows");
  ASSERT_NE(rows, obj.end());
  ASSERT_TRUE(rows->second.is_array());
  EXPECT_EQ(rows->second.as_array().size(), 2u);
}

TEST(JsonTest, ParsesEscapesAndUnicode) {
  json::Value v =
      json::Parse(R"({"s":"a\"b\n\u0041"})").ValueOrDie();
  EXPECT_EQ(json::GetStringOr(v.as_object(), "s", ""), "a\"b\nA");
}

TEST(JsonTest, ParsesBooleansAndNull) {
  json::Value v =
      json::Parse(R"({"a":true,"b":false,"c":null,"d":[true,null]})")
          .ValueOrDie();
  const json::Value::Object& obj = v.as_object();
  ASSERT_TRUE(obj.at("a").is_bool());
  EXPECT_TRUE(obj.at("a").as_bool());
  ASSERT_TRUE(obj.at("b").is_bool());
  EXPECT_FALSE(obj.at("b").as_bool());
  EXPECT_TRUE(obj.at("c").is_null());
  const json::Value::Array& d = obj.at("d").as_array();
  ASSERT_EQ(d.size(), 2u);
  EXPECT_TRUE(d[0].is_bool() && d[0].as_bool());
  EXPECT_TRUE(d[1].is_null());
  EXPECT_TRUE(json::Parse(" null ").ValueOrDie().is_null());
  // A literal is not a string or number to the typed getters.
  EXPECT_EQ(json::GetStringOr(obj, "a", "fallback"), "fallback");
  EXPECT_EQ(json::GetNumberOr(obj, "c", -1.0), -1.0);
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(json::Parse("").ok());
  EXPECT_FALSE(json::Parse("{").ok());
  EXPECT_FALSE(json::Parse("{\"a\":}").ok());
  EXPECT_FALSE(json::Parse("[1,2,]").ok());
  EXPECT_FALSE(json::Parse("{} trailing").ok());
  // Literals are case-sensitive and must be complete words.
  EXPECT_FALSE(json::Parse("tru").ok());
  EXPECT_FALSE(json::Parse("nul").ok());
  EXPECT_FALSE(json::Parse("True").ok());
  EXPECT_FALSE(json::Parse("{\"a\":falsey}").ok());
  EXPECT_FALSE(json::Parse("[true false]").ok());
  // Nesting beyond the depth limit is an error, not a stack overflow.
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(json::Parse(deep).ok());
}

TEST(JsonTest, QuoteEscapesControlCharacters) {
  EXPECT_EQ(json::Quote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(json::Quote("line\nbreak"), "\"line\\nbreak\"");
  // Round trip: Quote then Parse restores the original string.
  json::Value v = json::Parse("{" + json::Quote("k") + ":" +
                              json::Quote("v\t\x01z") + "}")
                      .ValueOrDie();
  EXPECT_EQ(json::GetStringOr(v.as_object(), "k", ""), "v\t\x01z");
}

// ----------------------------------------------------------------- Flags

struct Parsed {
  Status status;
  std::string name = "default";
  bool metrics = false;
  size_t workers = 4;
  int timeout_ms = 50;
  uint64_t seed = 42;
  double threshold = 0.3;
};

Parsed ParseArgs(std::vector<const char*> args) {
  Parsed p;
  FlagSet flags;
  flags.String("name", &p.name);
  flags.Bool("metrics", &p.metrics);
  flags.Uint("workers", &p.workers);
  flags.Uint("timeout-ms", &p.timeout_ms);
  flags.Uint("seed", &p.seed);
  flags.Double("threshold", &p.threshold);
  args.insert(args.begin(), "tool");
  p.status = flags.Parse(static_cast<int>(args.size()), args.data(), 1);
  return p;
}

/// The refusal for `args`: InvalidArgument, its message naming `names`.
void ExpectRefused(std::vector<const char*> args, const std::string& names) {
  Parsed p = ParseArgs(args);
  std::string joined;
  for (const char* a : args) joined += std::string(a) + " ";
  EXPECT_EQ(p.status.code(), StatusCode::kInvalidArgument) << joined;
  EXPECT_NE(p.status.message().find(names), std::string::npos)
      << joined << "-> " << p.status.ToString();
}

TEST(FlagSetTest, UnsetFlagsKeepTheirDefaults) {
  Parsed p = ParseArgs({});
  ASSERT_TRUE(p.status.ok());
  EXPECT_EQ(p.name, "default");
  EXPECT_FALSE(p.metrics);
  EXPECT_EQ(p.workers, 4u);
  EXPECT_EQ(p.timeout_ms, 50);
  EXPECT_EQ(p.seed, 42u);
  EXPECT_DOUBLE_EQ(p.threshold, 0.3);
}

TEST(FlagSetTest, EachKindTakesBothValueForms) {
  Parsed spaced = ParseArgs({"--name", "a b", "--workers", "8", "--timeout-ms",
                             "2147483647", "--seed", "18446744073709551615",
                             "--threshold", "0.25", "--metrics"});
  Parsed joined = ParseArgs({"--name=a b", "--workers=8",
                             "--timeout-ms=2147483647",
                             "--seed=18446744073709551615",
                             "--threshold=0.25", "--metrics"});
  for (const Parsed& p : {spaced, joined}) {
    ASSERT_TRUE(p.status.ok()) << p.status.ToString();
    EXPECT_EQ(p.name, "a b");
    EXPECT_TRUE(p.metrics);
    EXPECT_EQ(p.workers, 8u);
    EXPECT_EQ(p.timeout_ms, INT_MAX);
    EXPECT_EQ(p.seed, std::numeric_limits<uint64_t>::max());
    EXPECT_DOUBLE_EQ(p.threshold, 0.25);
  }
  // Only the first '=' splits: the rest belongs to the value.
  EXPECT_EQ(ParseArgs({"--name=k=v"}).name, "k=v");
  EXPECT_DOUBLE_EQ(ParseArgs({"--threshold", "0"}).threshold, 0.0);
  EXPECT_DOUBLE_EQ(ParseArgs({"--threshold", "1e-3"}).threshold, 0.001);
}

TEST(FlagSetTest, BoolFlagIsBareAndTakesNoValue) {
  Parsed p = ParseArgs({"--metrics", "--workers", "2"});
  ASSERT_TRUE(p.status.ok());
  EXPECT_TRUE(p.metrics);
  EXPECT_EQ(p.workers, 2u);
  ExpectRefused({"--metrics=1"}, "--metrics takes no value");
  // A bool never swallows the next word: "0" here is a stray argument.
  ExpectRefused({"--metrics", "0"}, "unexpected argument '0'");
}

TEST(FlagSetTest, RepeatedFlagKeepsItsLastValue) {
  Parsed p = ParseArgs({"--seed", "11", "--workers=3", "--seed", "12",
                        "--metrics", "--metrics"});
  ASSERT_TRUE(p.status.ok());
  EXPECT_EQ(p.seed, 12u);
  EXPECT_EQ(p.workers, 3u);
  EXPECT_TRUE(p.metrics);
}

TEST(FlagSetTest, RefusesUnknownFlagsAndStrayArguments) {
  ExpectRefused({"--wokers", "8"}, "unknown flag --wokers");
  ExpectRefused({"--wokers=8"}, "unknown flag --wokers");
  ExpectRefused({"--workers", "8", "extra"}, "unexpected argument 'extra'");
  ExpectRefused({"serve"}, "unexpected argument 'serve'");
  ExpectRefused({"-w", "8"}, "unexpected argument '-w'");
  ExpectRefused({"--"}, "unknown flag --");
}

TEST(FlagSetTest, RefusesAMissingValue) {
  ExpectRefused({"--workers"}, "--workers needs a value");
  ExpectRefused({"--workers", "--metrics"}, "--workers needs a value");
  ExpectRefused({"--workers="}, "--workers needs a value");
  ExpectRefused({"--name"}, "--name needs a value");
  ExpectRefused({"--name="}, "--name needs a value");
}

TEST(FlagSetTest, RefusesMalformedNegativeAndOverflowingIntegers) {
  for (const char* bad :
       {"-1", "4x", "0x10", " 4", "4 ", "+4", "1.5", "1e3", "abc",
        "18446744073709551616"}) {
    Parsed p = ParseArgs({"--workers", bad});
    EXPECT_EQ(p.status.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(p.status.message().find("--workers"), std::string::npos)
        << p.status.ToString();
    EXPECT_NE(p.status.message().find(bad), std::string::npos)
        << "the refusal quotes the value: " << p.status.ToString();
    EXPECT_EQ(p.workers, 4u) << "a refused value is not stored";
  }
  ExpectRefused({"--seed=18446744073709551616"}, "--seed");
  ExpectRefused({"--seed", "-1"}, "--seed");
}

TEST(FlagSetTest, IntegerMustFitTheFieldItSets) {
  ExpectRefused({"--timeout-ms", "2147483648"}, "--timeout-ms");
  ExpectRefused({"--timeout-ms", "4294967296"}, "--timeout-ms");
  Parsed p = ParseArgs({"--timeout-ms", "0"});
  ASSERT_TRUE(p.status.ok());
  EXPECT_EQ(p.timeout_ms, 0);
}

TEST(FlagSetTest, RefusesNonFiniteNegativeAndMalformedDoubles) {
  for (const char* bad :
       {"nan", "inf", "-inf", "1e400", "-0.5", "0x1p3", " 1", "abc", "1,5"}) {
    Parsed p = ParseArgs({"--threshold", bad});
    EXPECT_EQ(p.status.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(p.status.message().find("--threshold"), std::string::npos)
        << p.status.ToString();
    EXPECT_DOUBLE_EQ(p.threshold, 0.3) << bad;
  }
}

TEST(FlagSetTest, ParsingStartsAtFirst) {
  // A tool with a mode word (uctr_serve train|serve) parses after it.
  std::vector<const char*> argv = {"tool", "serve", "--workers", "6"};
  size_t workers = 0;
  FlagSet flags;
  flags.Uint("workers", &workers);
  ASSERT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data(), 2).ok());
  EXPECT_EQ(workers, 6u);
  EXPECT_FALSE(
      flags.Parse(static_cast<int>(argv.size()), argv.data(), 1).ok());
}

}  // namespace
}  // namespace uctr
