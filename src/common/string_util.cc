#include "common/string_util.h"

#include <algorithm>
#include <cctype>

namespace uctr {

namespace {

bool IsSpace(char c) {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}

char LowerChar(char c) {
  return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
}

}  // namespace

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::vector<std::string> SplitWhitespace(std::string_view s) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && IsSpace(s[i])) ++i;
    size_t start = i;
    while (i < s.size() && !IsSpace(s[i])) ++i;
    if (i > start) out.emplace_back(s.substr(start, i - start));
  }
  return out;
}

std::string Trim(std::string_view s) {
  size_t begin = 0;
  size_t end = s.size();
  while (begin < end && IsSpace(s[begin])) ++begin;
  while (end > begin && IsSpace(s[end - 1])) --end;
  return std::string(s.substr(begin, end - begin));
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](char c) {
    return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  });
  return out;
}

std::string ToUpper(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](char c) {
    return static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  });
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (LowerChar(a[i]) != LowerChar(b[i])) return false;
  }
  return true;
}

std::string ReplaceAll(std::string_view s, std::string_view from,
                       std::string_view to) {
  if (from.empty()) return std::string(s);
  std::string out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(from, start);
    if (pos == std::string_view::npos) {
      out.append(s.substr(start));
      break;
    }
    out.append(s.substr(start, pos - start));
    out.append(to);
    start = pos + from.size();
  }
  return out;
}

bool ContainsIgnoreCase(std::string_view haystack, std::string_view needle) {
  if (needle.empty()) return true;
  if (needle.size() > haystack.size()) return false;
  for (size_t i = 0; i + needle.size() <= haystack.size(); ++i) {
    bool match = true;
    for (size_t j = 0; j < needle.size(); ++j) {
      if (LowerChar(haystack[i + j]) != LowerChar(needle[j])) {
        match = false;
        break;
      }
    }
    if (match) return true;
  }
  return false;
}

std::string Capitalize(std::string_view s) {
  std::string out(s);
  if (!out.empty()) {
    out[0] = static_cast<char>(std::toupper(static_cast<unsigned char>(out[0])));
  }
  return out;
}

std::vector<std::string> WordTokens(std::string_view s) {
  std::vector<std::string> out;
  size_t i = 0;
  auto is_alnum = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0;
  };
  auto is_digit = [](char c) {
    return std::isdigit(static_cast<unsigned char>(c)) != 0;
  };
  while (i < s.size()) {
    char c = s[i];
    if (is_alnum(c) || ((c == '$' || c == '-') && i + 1 < s.size() &&
                        is_digit(s[i + 1]))) {
      std::string tok;
      if (c == '$' || c == '-') {
        tok.push_back(c);
        ++i;
      }
      bool numeric = i < s.size() && is_digit(s[i]);
      while (i < s.size()) {
        char d = s[i];
        if (is_alnum(d)) {
          tok.push_back(LowerChar(d));
          ++i;
        } else if (numeric && (d == '.' || d == ',') && i + 1 < s.size() &&
                   is_digit(s[i + 1])) {
          tok.push_back(d);
          ++i;
        } else if (numeric && d == '%') {
          tok.push_back(d);
          ++i;
          break;
        } else {
          break;
        }
      }
      if (!tok.empty()) out.push_back(std::move(tok));
    } else {
      ++i;
    }
  }
  return out;
}

double TokenF1(std::string_view a, std::string_view b) {
  std::vector<std::string> ta = WordTokens(a);
  std::vector<std::string> sorted_b = WordTokens(b);
  std::sort(sorted_b.begin(), sorted_b.end());
  std::vector<std::string_view> views(ta.begin(), ta.end());
  return TokenF1(views, sorted_b);
}

double TokenF1(std::span<const std::string_view> a,
               std::span<const std::string> sorted_b) {
  if (a.empty() && sorted_b.empty()) return 1.0;
  if (a.empty() || sorted_b.empty()) return 0.0;
  // Multiset intersection size.
  size_t overlap = 0;
  std::vector<bool> used(sorted_b.size(), false);
  for (std::string_view t : a) {
    auto it = std::lower_bound(sorted_b.begin(), sorted_b.end(), t);
    while (it != sorted_b.end() && *it == t) {
      size_t idx = static_cast<size_t>(it - sorted_b.begin());
      if (!used[idx]) {
        used[idx] = true;
        ++overlap;
        break;
      }
      ++it;
    }
  }
  if (overlap == 0) return 0.0;
  double precision = static_cast<double>(overlap) / a.size();
  double recall = static_cast<double>(overlap) / sorted_b.size();
  return 2 * precision * recall / (precision + recall);
}

}  // namespace uctr
