#include "model/verifier.h"

namespace uctr::model {

namespace {

int LabelToClass(Label label) {
  switch (label) {
    case Label::kSupported:
      return 0;
    case Label::kRefuted:
      return 1;
    case Label::kUnknown:
      return 2;
  }
  return 0;
}

Label ClassToLabel(int c) {
  if (c == 0) return Label::kSupported;
  if (c == 1) return Label::kRefuted;
  return Label::kUnknown;
}

}  // namespace

VerifierModel::VerifierModel(VerifierConfig config,
                             std::vector<ProgramTemplate> claim_templates)
    : config_(config),
      interpreter_(std::move(claim_templates)),
      extractor_(config.features,
                 config.features.interpreter ? &interpreter_ : nullptr),
      model_(config.num_classes, config.features.dim) {}

void VerifierModel::RelinkExtractor() {
  extractor_.set_interpreter(config_.features.interpreter ? &interpreter_
                                                          : nullptr);
}

VerifierModel::VerifierModel(const VerifierModel& other)
    : config_(other.config_),
      interpreter_(other.interpreter_),
      extractor_(other.extractor_),
      text_to_table_(other.text_to_table_),
      model_(other.model_) {
  RelinkExtractor();
}

VerifierModel& VerifierModel::operator=(const VerifierModel& other) {
  if (this != &other) {
    config_ = other.config_;
    interpreter_ = other.interpreter_;
    extractor_ = other.extractor_;
    text_to_table_ = other.text_to_table_;
    model_ = other.model_;
    RelinkExtractor();
  }
  return *this;
}

VerifierModel::VerifierModel(VerifierModel&& other) noexcept
    : config_(std::move(other.config_)),
      interpreter_(std::move(other.interpreter_)),
      extractor_(std::move(other.extractor_)),
      text_to_table_(std::move(other.text_to_table_)),
      model_(std::move(other.model_)) {
  RelinkExtractor();
}

VerifierModel& VerifierModel::operator=(VerifierModel&& other) noexcept {
  if (this != &other) {
    config_ = std::move(other.config_);
    interpreter_ = std::move(other.interpreter_);
    extractor_ = std::move(other.extractor_);
    text_to_table_ = std::move(other.text_to_table_);
    model_ = std::move(other.model_);
    RelinkExtractor();
  }
  return *this;
}

std::optional<Sample> VerifierModel::WithTextEvidence(
    const Sample& sample) const {
  if (!config_.use_text_expansion || sample.paragraph.empty()) {
    return std::nullopt;
  }
  auto expanded = text_to_table_.Apply(sample.evidence_table(),
                                       sample.paragraph);
  if (!expanded.ok()) return std::nullopt;
  Sample out = sample;
  out.table = std::move(expanded).ValueOrDie();
  out.shared_table = nullptr;  // readers must see the expanded copy
  return out;
}

void VerifierModel::Train(const Dataset& data, Rng* rng,
                          std::vector<double>* epoch_losses) {
  std::vector<Example> examples;
  examples.reserve(data.size());
  for (const Sample& s : data.samples) {
    if (s.task != TaskType::kFactVerification) continue;
    int label = LabelToClass(s.label);
    if (label >= config_.num_classes) continue;  // Unknown in 2-way mode
    Example ex;
    std::optional<Sample> expanded = WithTextEvidence(s);
    ex.features = extractor_.Extract(expanded ? *expanded : s);
    ex.label = label;
    ex.weight = static_cast<float>(s.weight);
    examples.push_back(std::move(ex));
  }
  model_.Train(examples, config_.train, rng, epoch_losses);
}

Label VerifierModel::Predict(const Sample& sample) const {
  std::optional<Sample> expanded = WithTextEvidence(sample);
  FeatureVector features = extractor_.Extract(expanded ? *expanded : sample);
  return ClassToLabel(model_.Predict(features));
}

std::vector<double> VerifierModel::Probabilities(const Sample& sample) const {
  std::optional<Sample> expanded = WithTextEvidence(sample);
  FeatureVector features = extractor_.Extract(expanded ? *expanded : sample);
  return model_.Probabilities(features);
}

std::string VerifierModel::SaveWeights() const {
  return model_.SaveToString();
}

Status VerifierModel::LoadWeights(std::string_view text) {
  return model_.LoadInPlace(text);
}

double VerifierModel::Accuracy(const Dataset& data) const {
  size_t total = 0, correct = 0;
  for (const Sample& s : data.samples) {
    if (s.task != TaskType::kFactVerification) continue;
    if (LabelToClass(s.label) >= config_.num_classes) continue;
    ++total;
    if (Predict(s) == s.label) ++correct;
  }
  if (total == 0) return 0.0;
  return static_cast<double>(correct) / static_cast<double>(total);
}

}  // namespace uctr::model
