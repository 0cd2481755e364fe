#ifndef UCTR_COMMON_NUMERIC_H_
#define UCTR_COMMON_NUMERIC_H_

#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/result.h"

namespace uctr {

/// \brief Attempts to read a numeric value from messy table text.
///
/// Accepts plain numbers ("42", "-3.5", "1e6"), thousands separators
/// ("1,234,567"), currency prefixes ("$1,234.50", "US$3"), percentages
/// ("12.5%", parsed as 12.5), and accounting negatives ("(1,234)" == -1234).
/// Returns std::nullopt when the text is not numeric. This is the single
/// numeric gateway used by type inference, executors, and extraction, so
/// financial tables (TAT-QA) behave consistently everywhere.
std::optional<double> ParseNumber(std::string_view text);

/// \brief Strict decimal u64 for machine-written files and flags: digits
/// only (no sign, space or separator); ParseError otherwise or on
/// overflow.
Result<uint64_t> ParseUint64(std::string_view text);

/// \brief Strict finite double for machine-written files and flags: an
/// optional '-' and decimal digits with an optional fraction and exponent
/// ("0.3", "-2", "1e-05"); ParseError on anything else (space, '+', hex,
/// "inf", "nan") and on a value outside the finite doubles' range.
Result<double> ParseDoubleStrict(std::string_view text);

/// \brief True when ParseNumber(text) succeeds.
bool LooksNumeric(std::string_view text);

/// \brief Renders a double compactly: integers without a decimal point,
/// otherwise up to `max_decimals` digits with trailing zeros stripped.
std::string FormatNumber(double value, int max_decimals = 4);

/// \brief The total order cells sort numbers by: exact value, with -0
/// tying +0, NaN after +inf and NaNs tying. Returns <0, 0, >0.
inline int OrderNumbers(double a, double b) {
  if (a < b) return -1;
  if (b < a) return 1;
  return static_cast<int>(std::isnan(a)) - static_cast<int>(std::isnan(b));
}

/// \brief Approximate equality with both absolute and relative tolerance,
/// the comparison used by denotation accuracy and executor equality
/// predicates. Operands that are == are equal (inf equals inf);
/// otherwise a non-finite operand equals nothing.
bool NearlyEqual(double a, double b, double abs_tol = 1e-6,
                 double rel_tol = 1e-6);

}  // namespace uctr

#endif  // UCTR_COMMON_NUMERIC_H_
