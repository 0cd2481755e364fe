#ifndef UCTR_SERVE_ENGINE_H_
#define UCTR_SERVE_ENGINE_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "model/qa_model.h"
#include "model/verifier.h"
#include "table/table.h"

namespace uctr::serve {

/// \brief Model configuration for a serving engine. The template sets are
/// fixed by VerifierTemplates()/QaTemplates() so that weights trained by
/// `uctr_serve train` (or any caller of the same helpers) always match the
/// serving-side model shape.
struct EngineConfig {
  model::VerifierConfig verifier;
  model::QaConfig qa;
};

/// \brief Loads the trained verifier + QA models and the template library
/// once, then answers Verify/Answer requests from any number of threads.
///
/// Thread safety: both entry points are `const` and the engine is
/// immutable after Create. The underlying inference path was audited for
/// this PR: VerifierModel::Predict, QaModel::Predict, NlInterpreter,
/// FeatureExtractor, TextToTable, and LinearModel::Scores are all `const`
/// methods over state written only during construction/LoadWeights, with
/// no mutable members, caches, or globals — so concurrent calls are
/// data-race-free by construction. The one deliberate exception is the
/// per-table TableIndex (table/index.h): executors build its column
/// caches lazily behind std::call_once, so concurrent requests sharing a
/// const Table stay race-free while amortizing cell parsing. Workers
/// warm the index once at table load (Table::WarmIndex) and pass the
/// table by value below, which MOVES the warmed index into the request's
/// Sample instead of rebuilding it per template. Training (`Train`) is
/// NOT part of the serving API and must never run concurrently with
/// serving.
class InferenceEngine {
 public:
  /// \brief Builds the engine and restores weights. Either weight string
  /// may be empty, which leaves that model untrained (it still answers,
  /// using pure program interpretation); a non-empty string that fails
  /// validation is an error.
  static Result<InferenceEngine> Create(const EngineConfig& config,
                                        std::string_view verifier_weights,
                                        std::string_view qa_weights);

  /// \brief Verdict for `claim` over `table` (+ optional paragraph
  /// sentences): "Supported", "Refuted", or "Unknown". The rvalue
  /// overload moves the table in, carrying a warmed TableIndex with it;
  /// the lvalue overload BORROWS the table for the duration of the call —
  /// zero copy, zero index rebuild — which is how table_ref serving
  /// shares one registry-resident table across concurrent requests (the
  /// caller keeps the table alive, e.g. via the registry's shared_ptr).
  /// All four entry points take `exec`, the program execution options for
  /// this request: the server passes its plan cache here.
  std::string Verify(Table&& table, const std::string& claim,
                     const std::vector<std::string>& paragraph,
                     const ExecOptions& exec = ExecOptions()) const;
  std::string Verify(const Table& table, const std::string& claim,
                     const std::vector<std::string>& paragraph,
                     const ExecOptions& exec = ExecOptions()) const;

  /// \brief Answer display string for `question`; empty when the model
  /// abstains. Same table move/borrow contract as Verify.
  std::string Answer(Table&& table, const std::string& question,
                     const std::vector<std::string>& paragraph,
                     const ExecOptions& exec = ExecOptions()) const;
  std::string Answer(const Table& table, const std::string& question,
                     const std::vector<std::string>& paragraph,
                     const ExecOptions& exec = ExecOptions()) const;

  /// \brief The claim templates the serving verifier interprets with.
  static std::vector<ProgramTemplate> VerifierTemplates();
  /// \brief The question templates (SQL + arithmetic) the QA model uses.
  static std::vector<ProgramTemplate> QaTemplates();

 private:
  InferenceEngine(const EngineConfig& config);

  model::VerifierModel verifier_;
  model::QaModel qa_;
};

}  // namespace uctr::serve

#endif  // UCTR_SERVE_ENGINE_H_
