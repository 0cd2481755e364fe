#include "common/json.h"

#include <cctype>
#include <cstdio>

#include "common/numeric.h"

namespace uctr::json {

std::string Quote(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Value> Parse() {
    UCTR_ASSIGN_OR_RETURN(Value v, ParseValue());
    SkipSpace();
    if (pos_ != text_.size()) {
      return Status::ParseError("trailing JSON content");
    }
    return v;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  Result<Value> ParseValue() {
    if (depth_ > 32) return Status::ParseError("JSON nested too deeply");
    SkipSpace();
    if (pos_ >= text_.size()) return Status::ParseError("unexpected end");
    char c = text_[pos_];
    if (c == '{') {
      ++depth_;
      auto r = ParseObject();
      --depth_;
      return r;
    }
    if (c == '[') {
      ++depth_;
      auto r = ParseArray();
      --depth_;
      return r;
    }
    if (c == '"') {
      UCTR_ASSIGN_OR_RETURN(std::string s, ParseString());
      Value v;
      v.repr = std::move(s);
      return v;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '-') {
      size_t start = pos_;
      if (c == '-') ++pos_;
      while (pos_ < text_.size() &&
             (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '.' || text_[pos_] == 'e' ||
              text_[pos_] == 'E' || text_[pos_] == '+' ||
              text_[pos_] == '-')) {
        ++pos_;
      }
      auto number = ParseNumber(text_.substr(start, pos_ - start));
      if (!number) {
        return Status::ParseError("malformed JSON number");
      }
      Value v;
      v.repr = *number;
      return v;
    }
    Value v;
    if (ConsumeLiteral("true")) {
      v.repr = true;
    } else if (ConsumeLiteral("false")) {
      v.repr = false;
    } else if (ConsumeLiteral("null")) {
      v.repr = nullptr;
    } else {
      return Status::ParseError("unsupported JSON token at offset " +
                                std::to_string(pos_));
    }
    return v;
  }

  /// Consumes `word` when the input continues with exactly it (case-
  /// sensitive, so `True` and the truncated `tru` stay errors).
  bool ConsumeLiteral(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  Result<std::string> ParseString() {
    if (text_[pos_] != '"') return Status::ParseError("expected string");
    ++pos_;
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) break;
        char esc = text_[pos_];
        switch (esc) {
          case '"':
            out += '"';
            break;
          case '\\':
            out += '\\';
            break;
          case '/':
            out += '/';
            break;
          case 'n':
            out += '\n';
            break;
          case 'r':
            out += '\r';
            break;
          case 't':
            out += '\t';
            break;
          case 'u': {
            if (pos_ + 4 >= text_.size()) {
              return Status::ParseError("bad \\u escape");
            }
            int code = 0;
            for (size_t k = 1; k <= 4; ++k) {
              char h = text_[pos_ + k];
              int digit;
              if (h >= '0' && h <= '9') digit = h - '0';
              else if (h >= 'a' && h <= 'f') digit = h - 'a' + 10;
              else if (h >= 'A' && h <= 'F') digit = h - 'A' + 10;
              else return Status::ParseError("bad \\u escape digit");
              code = code * 16 + digit;
            }
            out += static_cast<char>(code);  // control chars only
            pos_ += 4;
            break;
          }
          default:
            return Status::ParseError("unknown escape");
        }
        ++pos_;
      } else {
        out += c;
        ++pos_;
      }
    }
    return Status::ParseError("unterminated string");
  }

  Result<Value> ParseObject() {
    ++pos_;  // '{'
    Value::Object obj;
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      Value v;
      v.repr = std::move(obj);
      return v;
    }
    while (true) {
      SkipSpace();
      UCTR_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Status::ParseError("expected ':'");
      }
      ++pos_;
      UCTR_ASSIGN_OR_RETURN(Value value, ParseValue());
      obj.emplace(std::move(key), std::move(value));
      SkipSpace();
      if (pos_ >= text_.size()) return Status::ParseError("unterminated {");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        Value v;
        v.repr = std::move(obj);
        return v;
      }
      return Status::ParseError("expected ',' or '}'");
    }
  }

  Result<Value> ParseArray() {
    ++pos_;  // '['
    Value::Array arr;
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      Value v;
      v.repr = std::move(arr);
      return v;
    }
    while (true) {
      UCTR_ASSIGN_OR_RETURN(Value value, ParseValue());
      arr.push_back(std::move(value));
      SkipSpace();
      if (pos_ >= text_.size()) return Status::ParseError("unterminated [");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        Value v;
        v.repr = std::move(arr);
        return v;
      }
      return Status::ParseError("expected ',' or ']'");
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
  size_t depth_ = 0;
};

}  // namespace

Result<Value> Parse(std::string_view text) {
  return Parser(text).Parse();
}

Result<std::string> GetString(const Value::Object& obj,
                              const std::string& key) {
  auto it = obj.find(key);
  if (it == obj.end() || !it->second.is_string()) {
    return Status::ParseError("missing string field '" + key + "'");
  }
  return it->second.as_string();
}

std::string GetStringOr(const Value::Object& obj, const std::string& key,
                        std::string fallback) {
  auto it = obj.find(key);
  if (it == obj.end() || !it->second.is_string()) return fallback;
  return it->second.as_string();
}

Result<double> GetNumber(const Value::Object& obj, const std::string& key) {
  auto it = obj.find(key);
  if (it == obj.end() || !it->second.is_number()) {
    return Status::ParseError("missing numeric field '" + key + "'");
  }
  return it->second.as_number();
}

double GetNumberOr(const Value::Object& obj, const std::string& key,
                   double fallback) {
  auto it = obj.find(key);
  if (it == obj.end() || !it->second.is_number()) return fallback;
  return it->second.as_number();
}

}  // namespace uctr::json
