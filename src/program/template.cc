#include "program/template.h"

#include <set>

#include "common/string_util.h"

namespace uctr {

namespace {

Result<Placeholder> ParseSlot(const std::string& body) {
  // Placeholder bodies are compact identifiers; anything with spaces,
  // braces, or separators is program syntax, not a slot.
  if (body.find_first_of(" \t{};,()'") != std::string::npos) {
    return Status::ParseError("not a placeholder body");
  }
  Placeholder p;
  p.spelling = "{" + body + "}";
  if (body == "derive") {
    p.kind = Placeholder::Kind::kDerive;
    p.id = "derive";
    return p;
  }
  if (StartsWith(body, "ord")) {
    p.kind = Placeholder::Kind::kOrdinal;
    p.id = body;
    return p;
  }
  if (StartsWith(body, "r")) {
    p.kind = Placeholder::Kind::kRow;
    p.id = body;
    return p;
  }
  if (StartsWith(body, "v")) {
    size_t at = body.find('@');
    if (at == std::string::npos) {
      return Status::ParseError("value placeholder '" + body +
                                "' missing '@column'");
    }
    p.kind = Placeholder::Kind::kValue;
    p.id = body.substr(0, at);
    p.column_id = body.substr(at + 1);
    if (p.id.empty() || p.column_id.empty()) {
      return Status::ParseError("malformed value placeholder '" + body + "'");
    }
    return p;
  }
  if (StartsWith(body, "c")) {
    p.kind = Placeholder::Kind::kColumn;
    size_t colon = body.find(':');
    if (colon == std::string::npos) {
      p.id = body;
      return p;
    }
    p.id = body.substr(0, colon);
    std::string constraint = body.substr(colon + 1);
    p.has_type_constraint = true;
    if (constraint == "num" || constraint == "number") {
      p.column_type = ColumnType::kNumber;
    } else if (constraint == "text" || constraint == "string") {
      p.column_type = ColumnType::kText;
    } else {
      return Status::ParseError("unknown type constraint '" + constraint +
                                "'");
    }
    return p;
  }
  return Status::ParseError("unknown placeholder '" + body + "'");
}

}  // namespace

Result<ProgramTemplate> ProgramTemplate::Make(ProgramType type,
                                              std::string pattern,
                                              std::string reasoning_type,
                                              std::string derive_column_id) {
  ProgramTemplate t;
  t.type = type;
  t.pattern = std::move(pattern);
  t.reasoning_type = std::move(reasoning_type);
  t.derive_column_id = std::move(derive_column_id);

  // Logical-form patterns use literal `{`/`}` as program syntax, so a brace
  // pair only counts as a placeholder when its body parses as one
  // ("{c1}", "{v1@c1}", ...); all other braces pass through verbatim.
  std::set<std::string> seen;
  size_t i = 0;
  while (i < t.pattern.size()) {
    if (t.pattern[i] != '{') {
      ++i;
      continue;
    }
    size_t close = t.pattern.find('}', i);
    if (close == std::string::npos) break;
    std::string body = t.pattern.substr(i + 1, close - i - 1);
    Result<Placeholder> slot = ParseSlot(body);
    if (!slot.ok()) {
      ++i;  // literal brace
      continue;
    }
    Placeholder p = std::move(slot).ValueOrDie();
    if (!seen.count(p.spelling)) {
      seen.insert(p.spelling);
      t.placeholders.push_back(std::move(p));
    }
    i = close + 1;
  }
  // Validate that every value placeholder references a declared column.
  std::set<std::string> column_ids;
  for (const Placeholder& p : t.placeholders) {
    if (p.kind == Placeholder::Kind::kColumn) column_ids.insert(p.id);
  }
  for (const Placeholder& p : t.placeholders) {
    if (p.kind == Placeholder::Kind::kValue && !column_ids.count(p.column_id)) {
      return Status::ParseError("value placeholder '" + p.id +
                                "' references unknown column '" +
                                p.column_id + "'");
    }
  }
  if (!t.derive_column_id.empty() && !column_ids.count(t.derive_column_id)) {
    return Status::ParseError("derive_column_id '" + t.derive_column_id +
                              "' is not a column placeholder");
  }
  return t;
}

Result<std::string> ProgramTemplate::Fill(
    const std::map<std::string, std::string>& bindings) const {
  std::vector<std::string_view> texts;
  for (const Placeholder& p : placeholders) {
    auto it = bindings.find(p.id);
    if (it == bindings.end()) {
      return Status::InvalidArgument("missing binding for placeholder '" +
                                     p.id + "'");
    }
    texts.push_back(it->second);
  }
  return Fill(texts);
}

std::string ProgramTemplate::Fill(
    std::span<const std::string_view> texts) const {
  std::string out;
  size_t done = 0;  // pattern[0, done) is written
  // A spelling's body holds no '{', so the next '{' lies past a match.
  for (size_t open = pattern.find('{'); open != std::string::npos;
       open = pattern.find('{', open + 1)) {
    for (size_t p = 0; p < placeholders.size(); ++p) {
      const std::string& spelling = placeholders[p].spelling;
      if (pattern.compare(open, spelling.size(), spelling) == 0) {
        out.append(pattern, done, open - done).append(texts[p]);
        done = open + spelling.size();
        break;
      }
    }
  }
  out.append(pattern, done);
  return out;
}

bool ProgramTemplate::HasDerive() const {
  for (const Placeholder& p : placeholders) {
    if (p.kind == Placeholder::Kind::kDerive) return true;
  }
  return false;
}

std::vector<ProgramTemplate> DeduplicateTemplates(
    std::vector<ProgramTemplate> templates) {
  std::set<std::string> seen;
  std::vector<ProgramTemplate> out;
  for (auto& t : templates) {
    std::string key = std::string(ProgramTypeToString(t.type)) + "|" +
                      t.pattern;
    if (seen.insert(key).second) out.push_back(std::move(t));
  }
  return out;
}

}  // namespace uctr
