#ifndef UCTR_MODEL_INTERPRETER_H_
#define UCTR_MODEL_INTERPRETER_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "gen/sample.h"
#include "nlgen/nl_generator.h"
#include "program/library.h"
#include "table/table.h"

namespace uctr::model {

/// \brief One candidate reading of a sentence as an executable program.
struct Interpretation {
  Program program;
  ExecResult result;
  std::map<std::string, std::string> bindings;
  size_t template_index = 0;  ///< into the interpreter's template list
  double score = 0.0;         ///< token-F1 of re-realization vs. input
};

/// \brief Inverse of the NL-Generator: maps a question/claim back to the
/// most plausible program over a table, by slot-binding every known
/// template against the sentence, executing the candidates, and scoring
/// each by re-realizing it canonically and measuring token overlap with
/// the input sentence.
///
/// This is the "reasoning" half of the model substrate: the trainable
/// models (VerifierModel / QaModel) learn how much to trust which
/// interpretations, mirroring program-enhanced verification models and
/// semantic-parsing QA models in the paper's related work.
///
/// Binding cost per request: RankAll tokenizes the sentence once and maps
/// its tokens to the table's token inventory (TableIndex::tokens(), built
/// once per table). Each column a slot binds is then scored once per call
/// by integer lookups over its cells' token ids and shared by every
/// template; no cell is tokenized per request.
class NlInterpreter {
 public:
  explicit NlInterpreter(std::vector<ProgramTemplate> templates);

  const std::vector<ProgramTemplate>& templates() const { return templates_; }

  /// \brief All executable interpretations, best first. `task` selects
  /// claim-style binding (with a derived compared-to value) or
  /// question-style binding. `exec` picks the execution path for every
  /// candidate program (compiled VM by default).
  std::vector<Interpretation> RankAll(
      const std::string& sentence, const Table& table, TaskType task,
      const ExecOptions& exec = ExecOptions()) const;

  /// \brief Best interpretation, or NotFound when nothing binds+executes.
  Result<Interpretation> Interpret(
      const std::string& sentence, const Table& table, TaskType task,
      const ExecOptions& exec = ExecOptions()) const;

  /// \brief Extracts the claimed value from a claim sentence (the phrase
  /// after the final copula, e.g. "... is 8." -> "8"). Empty if absent.
  static std::string ClaimedValue(const std::string& sentence);

 private:
  std::vector<ProgramTemplate> templates_;
  nlgen::NlGenerator canonical_generator_;
};

}  // namespace uctr::model

#endif  // UCTR_MODEL_INTERPRETER_H_
