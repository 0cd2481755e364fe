#ifndef UCTR_MODEL_LINEAR_MODEL_H_
#define UCTR_MODEL_LINEAR_MODEL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/rng.h"

namespace uctr::model {

/// \brief One sparse feature: hashed index and value.
struct Feature {
  uint32_t index = 0;
  float value = 1.0f;
};

using FeatureVector = std::vector<Feature>;

/// \brief A labeled training example. `weight` scales the example's
/// gradient and loss contribution (confidence-weighted self-training);
/// non-finite or non-positive weights are skipped during training. The
/// default 1.0 reproduces unweighted training bit-for-bit.
struct Example {
  FeatureVector features;
  int label = 0;
  float weight = 1.0f;
};

/// \brief Training hyper-parameters for the linear classifier.
struct TrainConfig {
  size_t epochs = 8;
  double learning_rate = 0.15;
  double l2 = 1e-6;
  bool shuffle = true;
};

/// \brief Multiclass logistic regression over hashed sparse features,
/// trained with AdaGrad SGD — the trainable core of every reasoning model
/// in this repo (the linear stand-in for the paper's fine-tuned
/// transformers; see DESIGN.md).
///
/// Weights are held per feature slot: a slot gets one row of
/// `num_classes` weights and one of AdaGrad sums the first time training
/// or a load touches it, so memory follows the slots in use, not `dim`.
/// A slot without a row weighs 0 in every class.
class LinearModel {
 public:
  /// \param num_classes >= 2, \param dim hashed feature space size.
  LinearModel(int num_classes, size_t dim);

  int num_classes() const { return num_classes_; }
  size_t dim() const { return dim_; }

  /// \brief Per-class scores (logits).
  std::vector<double> Scores(const FeatureVector& features) const;

  /// \brief Softmax probabilities.
  std::vector<double> Probabilities(const FeatureVector& features) const;

  /// \brief Argmax class.
  int Predict(const FeatureVector& features) const;

  /// \brief Runs AdaGrad SGD over `examples`. Repeated calls continue
  /// training from the current weights (used by few-shot fine-tuning).
  /// Returns the final-epoch weight-averaged loss; when `epoch_losses` is
  /// non-null it receives one entry per epoch (the full convergence
  /// trajectory — a caller can detect a diverging run by comparing the
  /// tail against the head instead of trusting one final number).
  double Train(const std::vector<Example>& examples, const TrainConfig& config,
               Rng* rng, std::vector<double>* epoch_losses = nullptr);

  /// \brief Serializes dimensions, non-zero weights, and AdaGrad state to
  /// a compact line-oriented text format (stable across builds), so a
  /// trained model can be stored and later resumed or served. Entries are
  /// flat indices `class * dim + slot`, ascending.
  std::string SaveToString() const;

  /// \brief Restores a model saved by SaveToString into this one. All or
  /// nothing: the whole file is validated first, and a truncated,
  /// corrupt, out-of-order, non-finite, or trailing-garbage file yields a
  /// ParseError; a well-formed file whose dimensions differ from this
  /// model's yields InvalidArgument. On any error the model is left
  /// untouched.
  Status LoadInPlace(std::string_view text);

 private:
  /// Offset of `slot`'s row in weights_ and adagrad_, appending a row of
  /// zeros the first time the slot is used. Appending may move both
  /// arrays, so no pointer into them outlives the next call.
  size_t Row(size_t slot);

  void Update(const Example& example, const std::vector<double>& probs,
              double learning_rate, double l2, double weight);

  int num_classes_;
  size_t dim_;
  std::vector<uint32_t> row_of_;  // per slot: its row, or kNoRow
  std::vector<float> weights_;    // rows x num_classes, row-major
  std::vector<float> adagrad_;    // accumulated squared gradients, same rows
};

}  // namespace uctr::model

#endif  // UCTR_MODEL_LINEAR_MODEL_H_
