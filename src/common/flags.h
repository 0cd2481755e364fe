#ifndef UCTR_COMMON_FLAGS_H_
#define UCTR_COMMON_FLAGS_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/numeric.h"
#include "common/status.h"

namespace uctr {

/// \brief A tool's command-line flags: each declared once, bound to the
/// variable it sets, then parsed in one strict pass.
///
/// A variable's value before Parse is its flag's default. Parse accepts
/// `--name value` and `--name=value`; a bool flag is bare (`--metrics`)
/// and sets its variable to true. A repeated flag keeps its last value.
/// Parse refuses, with an InvalidArgument naming the flag or argument: an
/// unknown flag, a stray positional argument, a missing or empty value, a
/// value on a bool flag, and a number that is malformed, negative, too
/// large for its variable or not finite.
class FlagSet {
 public:
  void String(std::string name, std::string* out);
  void Bool(std::string name, bool* out);
  /// A finite, non-negative number (ParseDoubleStrict).
  void Double(std::string name, double* out);
  /// A decimal integer from 0 to the largest value `Int` holds
  /// (ParseUint64).
  template <typename Int>
  void Uint(std::string name, Int* out) {
    static_assert(std::is_integral_v<Int>);
    constexpr uint64_t kMax =
        static_cast<uint64_t>(std::numeric_limits<Int>::max());
    Add(std::move(name), true, [out](std::string_view text) -> Status {
      auto value = ParseUint64(text);
      if (!value.ok() || *value > kMax) {
        return Status::InvalidArgument("expected an integer from 0 to " +
                                       std::to_string(kMax));
      }
      *out = static_cast<Int>(*value);
      return Status::OK();
    });
  }

  /// \brief Parses argv[first, argc) into the bound variables.
  Status Parse(int argc, const char* const* argv, int first) const;

 private:
  struct Flag {
    std::string name;
    bool takes_value;
    /// Stores a non-empty value; an error says what was expected.
    std::function<Status(std::string_view)> set;
  };

  void Add(std::string name, bool takes_value,
           std::function<Status(std::string_view)> set);

  std::vector<Flag> flags_;
};

}  // namespace uctr

#endif  // UCTR_COMMON_FLAGS_H_
