#ifndef UCTR_PROGRAM_LIBRARY_H_
#define UCTR_PROGRAM_LIBRARY_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "program/template.h"
#include "program/template_form.h"

namespace uctr {

/// \brief SQUALL-style SQL query templates (question answering): span
/// lookup, superlatives, counting, aggregation, conjunction, sum/diff.
std::vector<ProgramTemplate> BuiltinSqlTemplates();

/// \brief LOGIC2TEXT logical-form templates (fact verification): lookup,
/// count, superlative, ordinal, aggregation, comparative, majority, unique,
/// and conjunction reasoning types.
std::vector<ProgramTemplate> BuiltinLogicTemplates();

/// \brief FinQA arithmetic-expression templates (numerical QA): change,
/// percentage change, ratio, sum/average of items, table aggregations,
/// numeric comparison.
std::vector<ProgramTemplate> BuiltinArithTemplates();

/// \brief The full template collection, one TemplateForm per template —
/// the repo's stand-in for the paper's template collection step over
/// SQUALL / LOGIC2TEXT / FinQA. A template is instantiated only through
/// its form.
class TemplateLibrary {
 public:
  /// \brief Library preloaded with all built-in templates (deduplicated).
  static TemplateLibrary Builtin();

  /// \brief Empty library to be populated via Add (e.g. by the templatizer).
  TemplateLibrary() = default;

  /// \brief Adds `tmpl`'s form; adds nothing and fails as
  /// TemplateForm::Make does when `tmpl` has no form.
  Status Add(const ProgramTemplate& tmpl);

  const std::vector<TemplateForm>& forms() const { return forms_; }

  /// \brief The forms of one program family's templates.
  std::vector<TemplateForm> OfType(ProgramType type) const;

  size_t size() const { return forms_.size(); }

 private:
  std::vector<TemplateForm> forms_;
};

}  // namespace uctr

#endif  // UCTR_PROGRAM_LIBRARY_H_
