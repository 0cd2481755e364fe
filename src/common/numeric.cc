#include "common/numeric.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/string_util.h"

namespace uctr {

Result<uint64_t> ParseUint64(std::string_view text) {
  std::string s(text);
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
    return Status::ParseError("malformed integer '" + s + "'");
  }
  errno = 0;
  uint64_t value = std::strtoull(s.c_str(), nullptr, 10);
  if (errno == ERANGE) return Status::ParseError("integer overflow");
  return value;
}

namespace {

/// Digits with an optional fraction and exponent: "12", "1.5", ".5",
/// "3.", "1e3", "2.5E-4".
bool IsDecimal(std::string_view s) {
  auto is_digit = [](char c) {
    return std::isdigit(static_cast<unsigned char>(c)) != 0;
  };
  size_t i = 0;
  size_t digits = 0;
  for (; i < s.size() && is_digit(s[i]); ++i) ++digits;
  if (i < s.size() && s[i] == '.') {
    for (++i; i < s.size() && is_digit(s[i]); ++i) ++digits;
  }
  if (digits == 0) return false;
  if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
    ++i;
    if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
    size_t exponent = i;
    while (i < s.size() && is_digit(s[i])) ++i;
    if (i == exponent) return false;
  }
  return i == s.size();
}

}  // namespace

Result<double> ParseDoubleStrict(std::string_view text) {
  std::string s(text);
  std::string_view digits = s;
  if (!digits.empty() && digits.front() == '-') digits.remove_prefix(1);
  if (!IsDecimal(digits)) {
    return Status::ParseError("malformed float '" + s + "'");
  }
  errno = 0;
  double value = std::strtod(s.c_str(), nullptr);
  if (errno == ERANGE || !std::isfinite(value)) {
    return Status::ParseError("float out of range '" + s + "'");
  }
  return value;
}

std::optional<double> ParseNumber(std::string_view text) {
  std::string s = Trim(text);
  if (s.empty()) return std::nullopt;
  // FormatNumber's spellings of the non-finite values; strtod's other
  // forms (hex, "Infinity", "nan(...)", any case) are not cell numbers.
  const bool non_finite = s == "inf" || s == "-inf" || s == "nan";

  bool negative = false;
  // Accounting negatives: "(123)".
  if (s.front() == '(' && s.back() == ')') {
    negative = true;
    s = Trim(std::string_view(s).substr(1, s.size() - 2));
    if (s.empty()) return std::nullopt;
  }
  // Explicit sign, hoisted ahead of the currency/percent strips so signed
  // currency and percent forms ("-$5", "-€1,200", "+3%") parse. A '-'
  // composes multiplicatively with the accounting parentheses, matching
  // how strtod handled an inner sign before the hoist: "(-5)" stays +5.
  if (s.front() == '+' || s.front() == '-') {
    if (s.front() == '-') negative = !negative;
    s = Trim(std::string_view(s).substr(1));
    if (s.empty()) return std::nullopt;
    // At most one explicit sign ("--5" stays non-numeric).
    if (s.front() == '+' || s.front() == '-') return std::nullopt;
  }
  // Currency prefixes.
  for (std::string_view prefix : {"US$", "USD", "$", "€", "£", "¥"}) {
    if (StartsWith(s, prefix)) {
      s = Trim(std::string_view(s).substr(prefix.size()));
      break;
    }
  }
  if (s.empty()) return std::nullopt;
  // Percent suffix (value kept in percent units, as in FinQA tables).
  if (s.back() == '%') {
    s = Trim(std::string_view(s).substr(0, s.size() - 1));
    if (s.empty()) return std::nullopt;
  }
  // Strip thousands separators, validating that commas sit between digits.
  std::string cleaned;
  cleaned.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == ',') {
      bool digit_before =
          i > 0 && std::isdigit(static_cast<unsigned char>(s[i - 1]));
      bool digit_after = i + 1 < s.size() &&
                         std::isdigit(static_cast<unsigned char>(s[i + 1]));
      if (!digit_before || !digit_after) return std::nullopt;
      continue;
    }
    cleaned.push_back(s[i]);
  }
  if (!non_finite && !IsDecimal(cleaned)) return std::nullopt;

  char* end = nullptr;
  errno = 0;
  double value = std::strtod(cleaned.c_str(), &end);
  if (end != cleaned.c_str() + cleaned.size() || errno == ERANGE) {
    return std::nullopt;
  }
  return negative ? -value : value;
}

bool LooksNumeric(std::string_view text) {
  return ParseNumber(text).has_value();
}

std::string FormatNumber(double value, int max_decimals) {
  if (std::isnan(value)) return "nan";
  if (std::isinf(value)) return value > 0 ? "inf" : "-inf";
  double rounded = std::round(value);
  if (NearlyEqual(value, rounded, 1e-9, 1e-12) &&
      std::abs(rounded) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", rounded);
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", max_decimals, value);
  std::string out = buf;
  // Strip trailing zeros (but keep at least one decimal digit).
  size_t dot = out.find('.');
  if (dot != std::string::npos) {
    size_t last = out.find_last_not_of('0');
    if (last == dot) last = dot - 1;  // drop the dot too
    out.erase(last + 1);
  }
  return out;
}

bool NearlyEqual(double a, double b, double abs_tol, double rel_tol) {
  if (a == b) return true;
  // inf - inf is NaN and a tolerance scaled by inf is inf, so past this
  // point a non-finite operand would match nothing or everything.
  if (!std::isfinite(a) || !std::isfinite(b)) return false;
  double diff = std::abs(a - b);
  if (diff <= abs_tol) return true;
  double scale = std::max(std::abs(a), std::abs(b));
  return diff <= rel_tol * scale;
}

}  // namespace uctr
