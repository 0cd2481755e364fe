#ifndef UCTR_MODEL_INTERPRETER_H_
#define UCTR_MODEL_INTERPRETER_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "gen/sample.h"
#include "nlgen/nl_generator.h"
#include "program/library.h"
#include "program/template_form.h"
#include "table/table.h"

namespace uctr::model {

/// \brief One candidate reading of a sentence as an executable program:
/// a template plus the text bound to each of its slots.
struct Interpretation {
  Program program;  ///< the template filled with `bindings`, for output
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
/// Per request, RankAll reads the sentence once: its tokens, their ids in
/// the table's token inventory (TableIndex::tokens(), built once per
/// table), the ordinal and the claimed value. Each column a slot binds is
/// scored once per call by integer lookups over its cells' token ids, and
/// its candidate rows sorted once; no cell is tokenized per request.
///
/// Each template is parsed once, when the interpreter is built, into a
/// TemplateForm and its canonical sentence with the slots left open. A
/// candidate then runs the plan lowered once per (template, column
/// positions), with its bound texts as slot values, and is scored from the
/// open sentence's tokens plus its slots' — never by splicing the bindings
/// into program text, so a cell or claim that holds program syntax reads
/// as the value it is. A template whose slots do not each fill whole
/// program fields, or whose skeleton does not realize, has no candidates.
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
  /// A template prepared once: its form and open canonical sentence, or
  /// nullopt when it has no candidates.
  struct Prepared {
    TemplateForm form;
    nlgen::OpenSentence sentence;
  };

  std::vector<ProgramTemplate> templates_;
  nlgen::NlGenerator canonical_generator_;
  std::vector<std::optional<Prepared>> prepared_;
};

}  // namespace uctr::model

#endif  // UCTR_MODEL_INTERPRETER_H_
