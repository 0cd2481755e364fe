#ifndef UCTR_TABLE_VALUE_H_
#define UCTR_TABLE_VALUE_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"

namespace uctr {

/// \brief Dynamic type of a table cell or an execution result.
enum class ValueType {
  kNull = 0,
  kString,
  kNumber,
  kBool,
};

const char* ValueTypeToString(ValueType type);

/// \brief A dynamically typed scalar: the currency of the whole library.
///
/// Table cells, program arguments, and executor outputs are all Values.
/// Numeric cells keep both the parsed double and the original surface text
/// ("$1,234.5") so NL generation can quote the table verbatim while
/// executors compare numerically.
class Value {
 public:
  /// Default-constructed Value is null.
  Value() : type_(ValueType::kNull) {}

  static Value Null() { return Value(); }
  static Value String(std::string text) {
    Value v;
    v.type_ = ValueType::kString;
    v.text_ = std::move(text);
    return v;
  }
  static Value Number(double number) {
    Value v;
    v.type_ = ValueType::kNumber;
    v.number_ = number;
    return v;
  }
  /// \brief Numeric value that remembers its original rendering.
  static Value NumberWithText(double number, std::string text) {
    Value v;
    v.type_ = ValueType::kNumber;
    v.number_ = number;
    v.text_ = std::move(text);
    return v;
  }
  static Value Bool(bool b) {
    Value v;
    v.type_ = ValueType::kBool;
    v.number_ = b ? 1.0 : 0.0;
    return v;
  }

  /// \brief Builds a Value from raw cell text: empty/"-"/"n/a" become null,
  /// numeric-looking text becomes a Number keeping the surface form,
  /// everything else a String.
  static Value FromText(std::string_view text);

  ValueType type() const { return type_; }
  bool is_null() const { return type_ == ValueType::kNull; }
  bool is_string() const { return type_ == ValueType::kString; }
  bool is_number() const { return type_ == ValueType::kNumber; }
  bool is_bool() const { return type_ == ValueType::kBool; }

  /// \brief Raw double; only meaningful when is_number() or is_bool().
  double number() const { return number_; }
  bool boolean() const { return number_ != 0.0; }
  /// \brief Original text; empty for pure numbers/bools built from doubles.
  const std::string& text() const { return text_; }

  /// \brief Human-readable rendering: surface text when available,
  /// otherwise a compact formatting of the number / "true" / "false" / "".
  std::string ToDisplayString() const&;
  /// \brief The same, moving the surface text out of a temporary (a cell
  /// Table::cell returned).
  std::string ToDisplayString() &&;

  /// \brief Numeric view: numbers and bools convert; strings convert when
  /// they parse as a number; null and other strings fail with TypeError.
  Result<double> ToNumber() const;

  /// \brief Semantic equality: number-vs-number compares numerically with
  /// tolerance; strings compare case-insensitively after trimming; a number
  /// equals a string if the string parses to the same number.
  bool Equals(const Value& other) const;

  /// \brief The one total order of cells, used by every sort, superlative
  /// and MIN/MAX: null < numbers < text, like SQLite's storage classes. A
  /// number is any value ToNumber() accepts, bools and numeric text
  /// included; numbers compare by exact value (OrderNumbers), text by
  /// ToLower(Trim(display)). Returns <0, 0, >0.
  int Order(const Value& other) const;

  /// \brief Comparison for range predicates: 0 when Equals(other), else
  /// Order(other), so a number NearlyEqual to `other` is neither less nor
  /// greater and `=`, `<=` and `>=` agree. Returns <0, 0, >0.
  int Compare(const Value& other) const;

 private:
  ValueType type_;
  double number_ = 0.0;
  std::string text_;
};

inline bool operator==(const Value& a, const Value& b) { return a.Equals(b); }

}  // namespace uctr

#endif  // UCTR_TABLE_VALUE_H_
