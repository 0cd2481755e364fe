#ifndef UCTR_COMMON_STRING_UTIL_H_
#define UCTR_COMMON_STRING_UTIL_H_

#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace uctr {

/// \brief Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

/// \brief Splits `s` on any amount of ASCII whitespace, dropping empties.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// \brief Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// \brief Removes leading/trailing ASCII whitespace.
std::string Trim(std::string_view s);

/// \brief ASCII lowercase copy.
std::string ToLower(std::string_view s);

/// \brief ASCII uppercase copy.
std::string ToUpper(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// \brief Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// \brief Replaces every occurrence of `from` (non-empty) with `to`.
std::string ReplaceAll(std::string_view s, std::string_view from,
                       std::string_view to);

/// \brief True if `needle` occurs in `haystack` ignoring ASCII case.
bool ContainsIgnoreCase(std::string_view haystack, std::string_view needle);

/// \brief Uppercases the first character (used by sentence realizers).
std::string Capitalize(std::string_view s);

/// \brief Levenshtein edit distance (used by fuzzy matching in extraction).
size_t EditDistance(std::string_view a, std::string_view b);

/// \brief Lowercased word tokens: alphanumeric runs; punctuation dropped
/// except that numbers keep '.', '-', '%', '$' and ',' inside digits so that
/// "$1,234.5" survives as one token.
std::vector<std::string> WordTokens(std::string_view s);

/// \brief Bag-of-tokens F1 between two strings (the SQuAD-style token
/// overlap used for answer matching and sentence similarity).
double TokenF1(std::string_view a, std::string_view b);

/// \brief TokenF1 over tokens already split by WordTokens, `sorted_b`
/// sorted ascending: bit for bit what TokenF1 gives the strings, whatever
/// the order of `a`.
double TokenF1(std::span<const std::string_view> a,
               std::span<const std::string> sorted_b);

}  // namespace uctr

#endif  // UCTR_COMMON_STRING_UTIL_H_
