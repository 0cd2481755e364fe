#include "nlgen/nl_generator.h"

#include <cctype>

#include "common/numeric.h"
#include "common/string_util.h"
#include "nlgen/arith_realizer.h"
#include "nlgen/logic_realizer.h"
#include "nlgen/realize_util.h"
#include "nlgen/sql_realizer.h"

namespace uctr::nlgen {

namespace {

bool IsAlnum(char c) { return std::isalnum(static_cast<unsigned char>(c)) != 0; }
bool IsDigit(char c) { return std::isdigit(static_cast<unsigned char>(c)) != 0; }

// WordTokens splits `s` at `pos` for any text put there: the character
// before cannot start or continue a token ('$' and '-' start one before a
// digit, '.' and ',' continue a number) ...
bool SplitsBefore(std::string_view s, size_t pos) {
  if (pos == 0) return true;
  char c = s[pos - 1];
  return !IsAlnum(c) && c != '$' && c != '-' && c != '.' && c != ',';
}

// ... and the character after cannot continue one (a number takes '%',
// and '.' or ',' before a digit).
bool SplitsAfter(std::string_view s, size_t pos) {
  if (pos == s.size()) return true;
  char c = s[pos];
  if (IsAlnum(c) || c == '%') return false;
  if (c == '.' || c == ',') return pos + 1 == s.size() || !IsDigit(s[pos + 1]);
  return true;
}

}  // namespace

std::string PrintSlot(SlotPrint print, std::string_view text) {
  switch (print) {
    case SlotPrint::kVerbatim:
      return std::string(text);
    case SlotPrint::kSqlLiteral:
      return Value::FromText(text).ToDisplayString();
    case SlotPrint::kOrdinal:
      return OrdinalWord(static_cast<int>(ParseNumber(text).value_or(1)));
    case SlotPrint::kOperand: {
      std::string trimmed = Trim(text);
      if (std::optional<double> n = ParseNumber(trimmed)) {
        return FormatNumber(*n);
      }
      return trimmed;
    }
  }
  return std::string(text);
}

Result<std::string> NlGenerator::Realize(const ProgramTree& tree,
                                         Rng* rng) const {
  Rng* effective = config_.stochastic ? rng : nullptr;
  RealizeContext ctx(lexicon_, effective);

  std::string sentence;
  if (tree.type == ProgramType::kSql) {
    UCTR_ASSIGN_OR_RETURN(sentence, RealizeSql(tree.sql, ctx));
  } else if (tree.type == ProgramType::kLogicalForm) {
    UCTR_ASSIGN_OR_RETURN(sentence, RealizeLogic(*tree.logic, ctx));
  } else {
    UCTR_ASSIGN_OR_RETURN(sentence, RealizeArith(tree.arith, ctx));
  }
  if (effective != nullptr) {
    sentence = paraphraser_.Apply(sentence, effective);
  }
  return sentence;
}

Result<std::string> NlGenerator::Generate(const Program& program,
                                          Rng* rng) const {
  UCTR_ASSIGN_OR_RETURN(ProgramTree tree, ParseProgram(program));
  return Realize(tree, rng);
}

Result<std::string> NlGenerator::GenerateCanonical(
    const Program& program) const {
  return Generate(program, nullptr);
}

Result<OpenSentence> NlGenerator::RealizeOpen(
    const TemplateForm& form, std::span<const size_t> merged) const {
  std::vector<std::string_view> markers;
  std::vector<std::string> printed_markers;
  for (size_t p = 0; p < form.tmpl().placeholders.size(); ++p) {
    markers.push_back(form.marker(merged.empty() ? p : merged[p]));
    printed_markers.push_back(form.PrintedMarker(p));
  }
  UCTR_ASSIGN_OR_RETURN(std::string sentence,
                        Realize(form.Bind(markers), nullptr));
  OpenSentence out;
  auto fixed = [&](std::string_view segment) {
    for (std::string& t : WordTokens(segment)) {
      out.fixed_tokens.push_back(std::move(t));
    }
  };
  size_t start = 0;
  for (size_t i = 0; i < sentence.size();) {
    size_t hit = printed_markers.size();
    size_t len = 0;
    for (size_t p = 0; p < printed_markers.size(); ++p) {
      const std::string& m = printed_markers[p];
      if (m.size() > len && sentence.compare(i, m.size(), m) == 0) {
        hit = p;
        len = m.size();
      }
    }
    if (hit == printed_markers.size()) {
      ++i;
      continue;
    }
    if (!SplitsBefore(sentence, i) || !SplitsAfter(sentence, i + len)) {
      return Status::InvalidArgument("slot inside a word of '" + sentence +
                                     "'");
    }
    fixed(std::string_view(sentence).substr(start, i - start));
    out.slots.push_back(hit);
    i += len;
    start = i;
  }
  fixed(std::string_view(sentence).substr(start));
  // A marker the realizer changed (capitalized, say) would be counted as
  // a fixed word.
  for (const std::string& t : out.fixed_tokens) {
    for (const std::string& m : printed_markers) {
      if (t.find(ToLower(m)) != std::string::npos) {
        return Status::InvalidArgument("slot printed altered in '" +
                                       sentence + "'");
      }
    }
  }
  return out;
}

}  // namespace uctr::nlgen
