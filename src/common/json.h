#ifndef UCTR_COMMON_JSON_H_
#define UCTR_COMMON_JSON_H_

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/result.h"

namespace uctr::json {

/// \brief A parsed JSON value: string, number, object, array, boolean,
/// or null.
///
/// Covers what the repo itself emits — dataset interchange in
/// gen/serialize and the serving wire protocol in src/serve, whose
/// responses carry booleans (`"degraded":true`, `"store_durable":false`).
/// Objects have string keys; numbers are doubles. Promoted out of
/// gen/serialize.cc so every layer shares one parser.
struct Value {
  using Object = std::map<std::string, Value>;
  using Array = std::vector<Value>;

  std::variant<std::string, double, Object, Array, bool, std::nullptr_t>
      repr;

  bool is_string() const { return std::holds_alternative<std::string>(repr); }
  bool is_number() const { return std::holds_alternative<double>(repr); }
  bool is_object() const { return std::holds_alternative<Object>(repr); }
  bool is_array() const { return std::holds_alternative<Array>(repr); }
  bool is_bool() const { return std::holds_alternative<bool>(repr); }
  bool is_null() const {
    return std::holds_alternative<std::nullptr_t>(repr);
  }

  const std::string& as_string() const { return std::get<std::string>(repr); }
  double as_number() const { return std::get<double>(repr); }
  const Object& as_object() const { return std::get<Object>(repr); }
  const Array& as_array() const { return std::get<Array>(repr); }
  bool as_bool() const { return std::get<bool>(repr); }
};

/// \brief Parses `text` as a single JSON value; trailing non-space content
/// is an error. Depth is limited (32) to bound adversarial nesting.
Result<Value> Parse(std::string_view text);

/// \brief Escapes and quotes `text` as a JSON string literal.
std::string Quote(std::string_view text);

/// \brief Required string field of an object, or ParseError.
Result<std::string> GetString(const Value::Object& obj,
                              const std::string& key);

/// \brief Optional string field: `fallback` when absent (wrong type is
/// still an error, reported by GetString at the call sites that require it).
std::string GetStringOr(const Value::Object& obj, const std::string& key,
                        std::string fallback);

/// \brief Required numeric field of an object, or ParseError.
Result<double> GetNumber(const Value::Object& obj, const std::string& key);

/// \brief Optional numeric field with a fallback.
double GetNumberOr(const Value::Object& obj, const std::string& key,
                   double fallback);

}  // namespace uctr::json

#endif  // UCTR_COMMON_JSON_H_
