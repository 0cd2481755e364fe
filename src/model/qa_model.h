#ifndef UCTR_MODEL_QA_MODEL_H_
#define UCTR_MODEL_QA_MODEL_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "gen/sample.h"
#include "hybrid/text_to_table.h"
#include "model/features.h"
#include "model/interpreter.h"
#include "model/linear_model.h"
#include "program/template.h"

namespace uctr::model {

/// \brief Configuration of the question-answering model.
struct QaConfig {
  /// Answer from table evidence (program interpretation). Disabling yields
  /// the "Text-Span only" weak baseline of Table III.
  bool use_table = true;
  /// Use paragraph evidence: Text-To-Table expansion plus span fallback.
  /// Disabling yields the "Table-Cell only" weak baseline.
  bool use_text = true;
  /// Weight of the learned template prior. The prior enters
  /// multiplicatively — score = binding * (1 + weight * P(template)) — so
  /// it re-ranks comparably bound candidates but can never rescue a
  /// poorly bound one (a skewed prior, e.g. from single-template MQA-QG
  /// data, should not override clear binding evidence).
  double classifier_weight = 1.0;
  FeatureConfig features;
  TrainConfig train;
};

/// \brief The trainable QA model (the role TAGOP / TAPEX play in the
/// paper): a weakly supervised semantic parser. Candidate programs come
/// from slot-binding the template inventory against the question; a
/// learned template classifier (trained on whichever dataset it is given —
/// gold, UCTR synthetic, or MQA-QG) re-ranks the candidates; the best
/// candidate's execution result is the answer. A span-extraction fallback
/// covers questions whose answer lives in the paragraph.
///
/// Thread safety (audited for the serving subsystem): Predict and
/// PredictWithMargin are const over state written only by the constructor,
/// Train, and LoadWeights; there are no mutable members or lazy caches on
/// the inference path, so concurrent Predict calls are data-race-free.
/// (Unlike VerifierModel, the extractor here never points back into this
/// object — it is constructed with a null interpreter — so the default
/// copy/move are safe.) Train/LoadWeights must be externally serialized
/// against concurrent Predict calls.
class QaModel {
 public:
  QaModel(QaConfig config, std::vector<ProgramTemplate> question_templates);

  /// \brief Trains the template classifier with weak supervision: each
  /// training question is matched to the candidate programs that produce
  /// its gold answer. Repeated calls continue training (few-shot).
  /// Sample weights scale each example's gradient/loss contribution
  /// (1.0 = classic unweighted training); `epoch_losses`, when non-null,
  /// receives the per-epoch loss trajectory (see LinearModel::Train).
  void Train(const Dataset& data, Rng* rng,
             std::vector<double>* epoch_losses = nullptr);

  /// \brief Predicted answer display string; empty when the model abstains.
  std::string Predict(const Sample& sample) const;

  /// \brief A prediction plus the evidence of how decisive it was, for
  /// self-training confidence scoring (model::ScoreSample).
  struct Prediction {
    /// Same string Predict would return; empty when the model abstains.
    std::string answer;
    /// Combined score of the winning candidate minus the runner-up's
    /// (the runner-up of a lone candidate counts as 0, so unambiguous
    /// parses get a large margin). 0 for span-fallback answers and
    /// abstentions — those carry no program-level evidence.
    double margin = 0.0;
    /// True when a bound program produced the answer (margin meaningful).
    bool from_program = false;
  };

  Prediction PredictWithMargin(const Sample& sample) const;

  /// \brief Serializes the trained template classifier; restore with
  /// LoadWeights on a model built with the same templates and config.
  std::string SaveWeights() const;

  /// \brief Restores weights saved by SaveWeights. Returns an error
  /// Status on truncated/corrupt input or a template-count/dimension
  /// mismatch with this model's shape; on error the current classifier is
  /// left untouched (never a half-loaded model).
  Status LoadWeights(std::string_view text);

 private:
  /// Candidate interpretations over the sample's table, and over the
  /// text-expanded table when text evidence is enabled.
  std::vector<Interpretation> Candidates(const Sample& sample) const;

  /// Span-extraction fallback over the paragraph.
  std::string ExtractSpanAnswer(const Sample& sample) const;

  QaConfig config_;
  NlInterpreter interpreter_;
  FeatureExtractor extractor_;
  hybrid::TextToTable text_to_table_;
  LinearModel template_classifier_;
  bool trained_ = false;
};

/// \brief Numeric-tolerant answer comparison shared with the eval module.
bool AnswersMatch(const std::string& predicted, const std::string& gold);

}  // namespace uctr::model

#endif  // UCTR_MODEL_QA_MODEL_H_
