#ifndef UCTR_MODEL_VERIFIER_H_
#define UCTR_MODEL_VERIFIER_H_

#include <optional>
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

/// \brief Configuration of the fact-verification model.
struct VerifierConfig {
  /// 2 = Supported/Refuted (FEVEROUS protocol), 3 = +Unknown
  /// (SEM-TAB-FACTS protocol).
  int num_classes = 2;
  /// Integrate paragraph text into the table (Text-To-Table) before
  /// interpreting a claim — the model's joint table-text reasoning path.
  bool use_text_expansion = true;
  FeatureConfig features;
  TrainConfig train;
};

/// \brief The trainable fact-verification model (the role TAPAS and the
/// FEVEROUS baseline play in the paper): a linear classifier over lexical,
/// alignment, and program-interpretation features.
///
/// Training data decides everything else — the same architecture is
/// trained on gold data (supervised), UCTR synthetic data (unsupervised),
/// MQA-QG data (baseline), or a few labeled samples (few-shot).
/// Thread safety (audited for the serving subsystem): Predict and
/// Accuracy are const over state written only by the constructor, Train,
/// and LoadWeights — there are no mutable members, lazy caches, or
/// globals on the inference path (NlInterpreter, FeatureExtractor,
/// TextToTable, LinearModel are likewise const-correct). Concurrent
/// Predict calls are therefore data-race-free; Train/LoadWeights must be
/// externally serialized against them.
class VerifierModel {
 public:
  VerifierModel(VerifierConfig config,
                std::vector<ProgramTemplate> claim_templates);

  // The extractor holds a pointer to this object's interpreter, so the
  // compiler-generated move would leave it aimed at the source object
  // (dangling once the source dies). The move constructor re-links it;
  // nothing copies or assigns a model.
  VerifierModel(const VerifierModel&) = delete;
  VerifierModel& operator=(const VerifierModel&) = delete;
  VerifierModel(VerifierModel&& other) noexcept;
  VerifierModel& operator=(VerifierModel&&) = delete;

  /// \brief Trains (or continues training) on `data`. Sample weights
  /// scale each example's gradient/loss contribution (1.0 = classic
  /// unweighted training). When `epoch_losses` is non-null it receives
  /// the per-epoch loss trajectory (see LinearModel::Train).
  void Train(const Dataset& data, Rng* rng,
             std::vector<double>* epoch_losses = nullptr);

  Label Predict(const Sample& sample) const;

  /// \brief Softmax class probabilities for `sample`, indexed by
  /// LabelToClass order (Supported, Refuted[, Unknown]). The margin
  /// between the top two entries is the model's confidence signal for
  /// self-training (model::ScoreSample).
  std::vector<double> Probabilities(const Sample& sample) const;

  /// \brief Label accuracy over `data`.
  double Accuracy(const Dataset& data) const;

  /// \brief Serializes the trained classifier weights (the templates and
  /// config are code, not state). Restore with LoadWeights on a model
  /// built with the same config.
  std::string SaveWeights() const;

  /// \brief Restores weights saved by SaveWeights. Returns an error
  /// Status on truncated/corrupt input or a class-count/dimension
  /// mismatch with this model's config; on error the current weights are
  /// left untouched (never a half-loaded model).
  Status LoadWeights(std::string_view text);

 private:
  /// The sample with its paragraph folded into the table, or nullopt
  /// when no expansion applies — callers keep using the original Sample
  /// then, so the common no-paragraph serving path never copies a table.
  std::optional<Sample> WithTextEvidence(const Sample& sample) const;

  /// Points extractor_ at this object's interpreter_ (or null when
  /// interpreter features are disabled). Called after copy/move.
  void RelinkExtractor();

  VerifierConfig config_;
  NlInterpreter interpreter_;
  FeatureExtractor extractor_;
  hybrid::TextToTable text_to_table_;
  LinearModel model_;
};

}  // namespace uctr::model

#endif  // UCTR_MODEL_VERIFIER_H_
