#ifndef UCTR_PROGRAM_SAMPLER_H_
#define UCTR_PROGRAM_SAMPLER_H_

#include <map>
#include <string>

#include "common/result.h"
#include "common/rng.h"
#include "program/program.h"
#include "program/template.h"
#include "table/table.h"

namespace uctr {

/// \brief A template successfully instantiated and executed on a table.
struct SampledProgram {
  Program program;
  ExecResult result;  ///< Execution output (the answer / truth value).
  std::map<std::string, std::string> bindings;
  std::string reasoning_type;
};

/// \brief Implements the paper's random sampling strategy (Section IV-C):
/// fills column placeholders from the table schema (respecting data types),
/// value placeholders from the bound column's cells, then executes the
/// program and discards it when execution fails or is empty.
class ProgramSampler {
 public:
  /// \param rng not owned; must outlive the sampler.
  explicit ProgramSampler(Rng* rng) : rng_(rng) {}

  /// \brief Random instantiation of `tmpl` on `table` (templates without
  /// {derive}). For question-answering programs the answer is
  /// `result.values`; for bool-producing forms it is the truth value.
  Result<SampledProgram> Sample(const ProgramTemplate& tmpl,
                                const Table& table);

  /// \brief Instantiation of a fact-verification template carrying a
  /// {derive} slot. Implements the paper's strategy of executing the inner
  /// sub-template first (lowered and run on the VM, like every program)
  /// and deriving the final argument from its result:
  /// with `target_true` the derived value is inserted verbatim (a supported
  /// claim); otherwise it is corrupted (numeric perturbation, or a
  /// distractor value from `derive_column_id`) to yield a refuted claim.
  /// The returned result holds the *actual* truth value after corruption,
  /// so labels are always execution-consistent.
  Result<SampledProgram> SampleClaim(const ProgramTemplate& tmpl,
                                     const Table& table, bool target_true);

 private:
  Result<std::map<std::string, std::string>> BindPlaceholders(
      const ProgramTemplate& tmpl, const Table& table);

  Rng* rng_;
};

}  // namespace uctr

#endif  // UCTR_PROGRAM_SAMPLER_H_
