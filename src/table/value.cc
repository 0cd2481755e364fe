#include "table/value.h"

#include <utility>

#include "common/numeric.h"
#include "common/string_util.h"

namespace uctr {

const char* ValueTypeToString(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "null";
    case ValueType::kString:
      return "string";
    case ValueType::kNumber:
      return "number";
    case ValueType::kBool:
      return "bool";
  }
  return "unknown";
}

Value Value::FromText(std::string_view text) {
  std::string trimmed = Trim(text);
  if (trimmed.empty()) return Null();
  std::string lowered = ToLower(trimmed);
  if (lowered == "-" || lowered == "--" || lowered == "n/a" ||
      lowered == "na" || lowered == "none" || lowered == "null" ||
      lowered == "nil") {
    return Null();
  }
  if (lowered == "true" || lowered == "yes") return Bool(true);
  if (lowered == "false" || lowered == "no") return Bool(false);
  if (auto num = ParseNumber(trimmed)) {
    return NumberWithText(*num, trimmed);
  }
  return String(std::move(trimmed));
}

std::string Value::ToDisplayString() && {
  if (type_ == ValueType::kString ||
      (type_ == ValueType::kNumber && !text_.empty())) {
    return std::move(text_);
  }
  return std::as_const(*this).ToDisplayString();
}

std::string Value::ToDisplayString() const& {
  switch (type_) {
    case ValueType::kNull:
      return "";
    case ValueType::kString:
      return text_;
    case ValueType::kNumber:
      return text_.empty() ? FormatNumber(number_) : text_;
    case ValueType::kBool:
      return boolean() ? "true" : "false";
  }
  return "";
}

Result<double> Value::ToNumber() const {
  switch (type_) {
    case ValueType::kNumber:
    case ValueType::kBool:
      return number_;
    case ValueType::kString: {
      if (auto num = ParseNumber(text_)) return *num;
      return Status::TypeError("not numeric: '" + text_ + "'");
    }
    case ValueType::kNull:
      return Status::TypeError("null value has no numeric form");
  }
  return Status::Internal("unreachable");
}

bool Value::Equals(const Value& other) const {
  if (is_null() || other.is_null()) return is_null() && other.is_null();
  auto a = ToNumber();
  auto b = other.ToNumber();
  if (a.ok() && b.ok()) {
    return NearlyEqual(a.ValueOrDie(), b.ValueOrDie());
  }
  if (a.ok() != b.ok()) return false;
  return EqualsIgnoreCase(Trim(ToDisplayString()),
                          Trim(other.ToDisplayString()));
}

int Value::Order(const Value& other) const {
  if (is_null() || other.is_null()) {
    return static_cast<int>(other.is_null()) - static_cast<int>(is_null());
  }
  auto a = ToNumber();
  auto b = other.ToNumber();
  if (a.ok() != b.ok()) return a.ok() ? -1 : 1;
  if (a.ok()) return OrderNumbers(a.ValueOrDie(), b.ValueOrDie());
  const int cmp = ToLower(Trim(ToDisplayString()))
                      .compare(ToLower(Trim(other.ToDisplayString())));
  return (cmp > 0) - (cmp < 0);
}

int Value::Compare(const Value& other) const {
  return Equals(other) ? 0 : Order(other);
}

}  // namespace uctr
