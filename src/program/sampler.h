#ifndef UCTR_PROGRAM_SAMPLER_H_
#define UCTR_PROGRAM_SAMPLER_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "program/program.h"
#include "program/template_form.h"
#include "table/table.h"

namespace uctr {

/// \brief A template successfully instantiated and executed on a table.
struct SampledProgram {
  /// The template filled with `texts`: a rendering for output, which
  /// nothing parses.
  Program program;
  ExecResult result;  ///< Execution output (the answer / truth value).
  /// The text bound to each placeholder, in order: a header's or cell's
  /// own text, an ordinal, or a claim's derived value.
  std::vector<std::string> texts;
};

/// \brief Implements the paper's random sampling strategy (Section IV-C):
/// binds column placeholders to headers from the table schema (respecting
/// data types) and value placeholders to cells of the bound column, each as
/// its own text, then runs the template's plan with them and discards the
/// instantiation when execution fails or is empty. Plans come from
/// ir::PlanCache::Default(), one per (template, column positions).
class ProgramSampler {
 public:
  /// \param rng not owned; must outlive the sampler.
  explicit ProgramSampler(Rng* rng) : rng_(rng) {}

  /// \brief Random instantiation of `form` on `table` (templates without
  /// {derive}). For question-answering programs the answer is
  /// `result.values`; for bool-producing forms it is the truth value.
  Result<SampledProgram> Sample(const TemplateForm& form, const Table& table);

  /// \brief Instantiation of a fact-verification template carrying a
  /// {derive} slot. Implements the paper's strategy of executing the inner
  /// sub-template first (TemplateForm::RunDerive) and deriving the final
  /// argument from its result: with `target_true` the derived value is
  /// bound as is (a supported claim); otherwise it is corrupted (numeric
  /// perturbation, or a distractor value from `derive_column_id`) to yield
  /// a refuted claim. The returned result holds the *actual* truth value
  /// after corruption, so labels are always execution-consistent.
  Result<SampledProgram> SampleClaim(const TemplateForm& form,
                                     const Table& table, bool target_true);

 private:
  Result<std::vector<std::string>> BindPlaceholders(
      const ProgramTemplate& tmpl, const Table& table);

  Rng* rng_;
};

}  // namespace uctr

#endif  // UCTR_PROGRAM_SAMPLER_H_
