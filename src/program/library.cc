#include "program/library.h"

#include <cstdio>
#include <cstdlib>

namespace uctr {

namespace {

ProgramTemplate MustMake(ProgramType type, const char* pattern,
                         const char* reasoning, const char* derive_col = "") {
  auto r = ProgramTemplate::Make(type, pattern, reasoning, derive_col);
  if (!r.ok()) {
    std::fprintf(stderr, "builtin template invalid: %s (%s)\n", pattern,
                 r.status().ToString().c_str());
    std::abort();
  }
  return std::move(r).ValueOrDie();
}

}  // namespace

std::vector<ProgramTemplate> BuiltinSqlTemplates() {
  const ProgramType t = ProgramType::kSql;
  std::vector<ProgramTemplate> out;
  // Span lookup (equivalence).
  out.push_back(MustMake(
      t, "SELECT [{c1}] FROM w WHERE [{c2}] = '{v1@c2}'", "span"));
  // Conjunction of two conditions.
  out.push_back(MustMake(
      t, "SELECT [{c1}] FROM w WHERE [{c2}] = '{v1@c2}' AND [{c3}] = '{v2@c3}'",
      "conjunction"));
  // Superlatives via ORDER BY ... LIMIT 1 (the SQUALL idiom).
  out.push_back(MustMake(
      t, "SELECT [{c1}] FROM w ORDER BY [{c2:num}] DESC LIMIT 1", "superlative"));
  out.push_back(MustMake(
      t, "SELECT [{c1}] FROM w ORDER BY [{c2:num}] ASC LIMIT 1", "superlative"));
  // Counting.
  out.push_back(MustMake(
      t, "SELECT COUNT(*) FROM w WHERE [{c1}] = '{v1@c1}'", "count"));
  out.push_back(MustMake(
      t, "SELECT COUNT(*) FROM w WHERE [{c1:num}] > '{v1@c1}'", "count"));
  out.push_back(MustMake(
      t, "SELECT COUNT(*) FROM w WHERE [{c1:num}] < '{v1@c1}'", "count"));
  out.push_back(MustMake(
      t, "SELECT COUNT(DISTINCT [{c1}]) FROM w", "count"));
  // Aggregation.
  out.push_back(MustMake(t, "SELECT SUM([{c1:num}]) FROM w", "aggregation"));
  out.push_back(MustMake(t, "SELECT AVG([{c1:num}]) FROM w", "aggregation"));
  out.push_back(MustMake(t, "SELECT MAX([{c1:num}]) FROM w", "aggregation"));
  out.push_back(MustMake(t, "SELECT MIN([{c1:num}]) FROM w", "aggregation"));
  out.push_back(MustMake(
      t, "SELECT SUM([{c1:num}]) FROM w WHERE [{c2}] = '{v1@c2}'",
      "aggregation"));
  out.push_back(MustMake(
      t, "SELECT MAX([{c1:num}]) FROM w WHERE [{c2}] = '{v1@c2}'",
      "aggregation"));
  out.push_back(MustMake(
      t, "SELECT AVG([{c1:num}]) FROM w WHERE [{c2:num}] > '{v1@c2}'",
      "aggregation"));
  // Comparison spans.
  out.push_back(MustMake(
      t, "SELECT [{c1}] FROM w WHERE [{c2:num}] > '{v1@c2}'", "comparison"));
  out.push_back(MustMake(
      t, "SELECT [{c1}] FROM w WHERE [{c2:num}] < '{v1@c2}'", "comparison"));
  // Row-local sum / diff projections.
  out.push_back(MustMake(
      t, "SELECT [{c1:num}] - [{c2:num}] FROM w WHERE [{c3}] = '{v1@c3}'", "diff"));
  out.push_back(MustMake(
      t, "SELECT [{c1:num}] + [{c2:num}] FROM w WHERE [{c3}] = '{v1@c3}'", "sum"));
  return out;
}

std::vector<ProgramTemplate> BuiltinLogicTemplates() {
  const ProgramType t = ProgramType::kLogicalForm;
  std::vector<ProgramTemplate> out;
  // Unique-lookup claims ("the c2 of the row whose c1 is v1 is X").
  out.push_back(MustMake(
      t,
      "eq { hop { filter_eq { all_rows ; {c1} ; {v1@c1} } ; {c2} } ; "
      "{derive} }",
      "unique", "c2"));
  // Count claims.
  out.push_back(MustMake(
      t, "eq { count { filter_eq { all_rows ; {c1} ; {v1@c1} } } ; {derive} }",
      "count"));
  out.push_back(MustMake(
      t,
      "eq { count { filter_greater { all_rows ; {c1:num} ; {v1@c1} } } ; "
      "{derive} }",
      "count"));
  out.push_back(MustMake(
      t,
      "eq { count { filter_less { all_rows ; {c1:num} ; {v1@c1} } } ; "
      "{derive} }",
      "count"));
  // Superlative claims.
  out.push_back(MustMake(
      t, "eq { hop { argmax { all_rows ; {c1:num} } ; {c2} } ; {derive} }",
      "superlative", "c2"));
  out.push_back(MustMake(
      t, "eq { hop { argmin { all_rows ; {c1:num} } ; {c2} } ; {derive} }",
      "superlative", "c2"));
  out.push_back(MustMake(
      t, "eq { max { all_rows ; {c1:num} } ; {derive} }", "superlative"));
  out.push_back(MustMake(
      t, "eq { min { all_rows ; {c1:num} } ; {derive} }", "superlative"));
  // Ordinal claims.
  out.push_back(MustMake(
      t,
      "eq { hop { nth_argmax { all_rows ; {c1:num} ; {ord1} } ; {c2} } ; "
      "{derive} }",
      "ordinal", "c2"));
  out.push_back(MustMake(
      t,
      "eq { hop { nth_argmin { all_rows ; {c1:num} ; {ord1} } ; {c2} } ; "
      "{derive} }",
      "ordinal", "c2"));
  out.push_back(MustMake(
      t, "eq { nth_max { all_rows ; {c1:num} ; {ord1} } ; {derive} }",
      "ordinal"));
  // Aggregation claims (tolerant equality, as in LOGIC2TEXT).
  out.push_back(MustMake(
      t, "round_eq { sum { all_rows ; {c1:num} } ; {derive} }",
      "aggregation"));
  out.push_back(MustMake(
      t, "round_eq { avg { all_rows ; {c1:num} } ; {derive} }",
      "aggregation"));
  // Comparative claims between two rows (truth from execution).
  out.push_back(MustMake(
      t,
      "greater { hop { filter_eq { all_rows ; {c1} ; {v1@c1} } ; {c2:num} } "
      "; hop { filter_eq { all_rows ; {c1} ; {v2@c1} } ; {c2:num} } }",
      "comparative"));
  out.push_back(MustMake(
      t,
      "less { hop { filter_eq { all_rows ; {c1} ; {v1@c1} } ; {c2:num} } ; "
      "hop { filter_eq { all_rows ; {c1} ; {v2@c1} } ; {c2:num} } }",
      "comparative"));
  // Difference claims.
  out.push_back(MustMake(
      t,
      "round_eq { diff { hop { filter_eq { all_rows ; {c1} ; {v1@c1} } ; "
      "{c2:num} } ; hop { filter_eq { all_rows ; {c1} ; {v2@c1} } ; "
      "{c2:num} } } ; {derive} }",
      "comparative"));
  // Majority claims.
  out.push_back(MustMake(
      t, "most_eq { all_rows ; {c1} ; {v1@c1} }", "majority"));
  out.push_back(MustMake(
      t, "all_eq { all_rows ; {c1} ; {v1@c1} }", "majority"));
  out.push_back(MustMake(
      t, "most_greater { all_rows ; {c1:num} ; {v1@c1} }", "majority"));
  out.push_back(MustMake(
      t, "all_greater { all_rows ; {c1:num} ; {v1@c1} }", "majority"));
  out.push_back(MustMake(
      t, "all_less { all_rows ; {c1:num} ; {v1@c1} }", "majority"));
  out.push_back(MustMake(
      t, "most_greater_eq { all_rows ; {c1:num} ; {v1@c1} }", "majority"));
  // Uniqueness claims.
  out.push_back(MustMake(
      t, "only { filter_eq { all_rows ; {c1} ; {v1@c1} } }", "unique"));
  out.push_back(MustMake(
      t, "only { filter_greater { all_rows ; {c1:num} ; {v1@c1} } }",
      "unique"));
  // Conjunction.
  out.push_back(MustMake(
      t,
      "and { eq { count { filter_greater { all_rows ; {c1:num} ; {v1@c1} } } "
      "; {derive} } ; greater { max { all_rows ; {c1:num} } ; {v1@c1} } }",
      "conjunction"));
  return out;
}

std::vector<ProgramTemplate> BuiltinArithTemplates() {
  const ProgramType t = ProgramType::kArithmetic;
  std::vector<ProgramTemplate> out;
  // Change and percentage change between two periods (the FinQA staple).
  out.push_back(MustMake(
      t, "subtract({c1:num} of {r1}, {c2:num} of {r1})", "arithmetic"));
  out.push_back(MustMake(
      t,
      "subtract({c1:num} of {r1}, {c2:num} of {r1}), "
      "divide(#0, {c2:num} of {r1})",
      "arithmetic"));
  // Differences / ratios between two line items.
  out.push_back(MustMake(
      t, "subtract({c1:num} of {r1}, {c1:num} of {r2})", "arithmetic"));
  out.push_back(MustMake(
      t, "divide({c1:num} of {r1}, {c1:num} of {r2})", "arithmetic"));
  out.push_back(MustMake(
      t, "divide({c1:num} of {r1}, {c2:num} of {r1})", "arithmetic"));
  // Sums and two-point averages.
  out.push_back(MustMake(
      t, "add({c1:num} of {r1}, {c1:num} of {r2})", "arithmetic"));
  out.push_back(MustMake(
      t, "add({c1:num} of {r1}, {c1:num} of {r2}), divide(#0, const_2)",
      "arithmetic"));
  out.push_back(MustMake(
      t, "add({c1:num} of {r1}, {c2:num} of {r1}), divide(#0, const_2)",
      "arithmetic"));
  // Proportions scaled to percent.
  out.push_back(MustMake(
      t, "divide({c1:num} of {r1}, {c1:num} of {r2}), multiply(#0, const_100)",
      "arithmetic"));
  // Row/column aggregations.
  out.push_back(MustMake(t, "table_sum({r1})", "aggregation"));
  out.push_back(MustMake(t, "table_average({r1})", "aggregation"));
  out.push_back(MustMake(t, "table_max({r1})", "aggregation"));
  out.push_back(MustMake(t, "table_min({r1})", "aggregation"));
  // Comparisons.
  out.push_back(MustMake(
      t, "greater({c1:num} of {r1}, {c1:num} of {r2})", "comparison"));
  out.push_back(MustMake(
      t, "greater({c1:num} of {r1}, {c2:num} of {r1})", "comparison"));
  return out;
}

TemplateLibrary TemplateLibrary::Builtin() {
  std::vector<ProgramTemplate> templates = BuiltinSqlTemplates();
  for (auto& t : BuiltinLogicTemplates()) templates.push_back(std::move(t));
  for (auto& t : BuiltinArithTemplates()) templates.push_back(std::move(t));
  TemplateLibrary lib;
  for (const ProgramTemplate& t : DeduplicateTemplates(std::move(templates))) {
    if (Status added = lib.Add(t); !added.ok()) {
      std::fprintf(stderr, "builtin template has no form: %s (%s)\n",
                   t.pattern.c_str(), added.ToString().c_str());
      std::abort();
    }
  }
  return lib;
}

Status TemplateLibrary::Add(const ProgramTemplate& tmpl) {
  UCTR_ASSIGN_OR_RETURN(TemplateForm form, TemplateForm::Make(tmpl));
  forms_.push_back(std::move(form));
  return Status::OK();
}

std::vector<TemplateForm> TemplateLibrary::OfType(ProgramType type) const {
  std::vector<TemplateForm> out;
  for (const TemplateForm& form : forms_) {
    if (form.tmpl().type == type) out.push_back(form);
  }
  return out;
}

}  // namespace uctr
