#include "model/qa_model.h"

#include <algorithm>

#include "common/numeric.h"
#include "common/string_util.h"

namespace uctr::model {

bool AnswersMatch(const std::string& predicted, const std::string& gold) {
  if (predicted.empty() || gold.empty()) {
    return predicted.empty() && gold.empty();
  }
  Value a = Value::FromText(predicted);
  Value b = Value::FromText(gold);
  if (a.Equals(b)) return true;
  // Percent-scale tolerance: 0.2005 vs 20.05(%) — accept a 100x factor
  // when both parse numerically (TAT-QA answer normalization).
  auto na = a.ToNumber();
  auto nb = b.ToNumber();
  if (na.ok() && nb.ok()) {
    double x = na.ValueOrDie();
    double y = nb.ValueOrDie();
    if (NearlyEqual(x * 100.0, y, 1e-6, 1e-6) ||
        NearlyEqual(x, y * 100.0, 1e-6, 1e-6)) {
      return true;
    }
    return false;
  }
  return EqualsIgnoreCase(Trim(predicted), Trim(gold));
}

QaModel::QaModel(QaConfig config,
                 std::vector<ProgramTemplate> question_templates)
    : config_(config),
      interpreter_(std::move(question_templates)),
      extractor_([&] {
        FeatureConfig fc = config.features;
        fc.interpreter = false;  // the classifier is purely lexical
        return fc;
      }(), nullptr),
      template_classifier_(
          std::max<int>(2,
                        static_cast<int>(interpreter_.templates().size())),
          config.features.dim) {}

std::vector<Interpretation> QaModel::Candidates(const Sample& sample) const {
  std::vector<Interpretation> out;
  if (config_.use_table) {
    out = interpreter_.RankAll(sample.sentence, sample.evidence_table(),
                               TaskType::kQuestionAnswering, sample.exec);
  }
  // Expansion reads the table too, so it needs both evidence kinds; the
  // Text-Span-only baseline (use_table = false) must not see cells.
  if (config_.use_table && config_.use_text && !sample.paragraph.empty()) {
    auto expanded = text_to_table_.Apply(sample.evidence_table(),
                                         sample.paragraph);
    if (expanded.ok()) {
      std::vector<Interpretation> more = interpreter_.RankAll(
          sample.sentence, expanded.ValueOrDie(),
          TaskType::kQuestionAnswering, sample.exec);
      for (Interpretation& interp : more) {
        // Slight preference for readings that use the joint evidence.
        interp.score += 0.05;
        out.push_back(std::move(interp));
      }
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Interpretation& a, const Interpretation& b) {
                     return a.score > b.score;
                   });
  return out;
}

std::string QaModel::ExtractSpanAnswer(const Sample& sample) const {
  if (!config_.use_text || sample.paragraph.empty()) return "";
  double best = -1.0;
  std::string best_sentence;
  for (const std::string& s : sample.paragraph) {
    double score = TokenF1(s, sample.sentence);
    if (score > best) {
      best = score;
      best_sentence = s;
    }
  }
  if (best_sentence.empty()) return "";
  // Prefer a number from the sentence that the question does not already
  // contain (the asked-for quantity); fall back to the trailing phrase.
  std::vector<std::string> q_tokens = WordTokens(sample.sentence);
  std::vector<std::string> s_tokens = WordTokens(best_sentence);
  for (auto it = s_tokens.rbegin(); it != s_tokens.rend(); ++it) {
    if (!LooksNumeric(*it)) continue;
    if (std::find(q_tokens.begin(), q_tokens.end(), *it) != q_tokens.end()) {
      continue;
    }
    return *it;
  }
  return NlInterpreter::ClaimedValue(best_sentence);
}

void QaModel::Train(const Dataset& data, Rng* rng,
                    std::vector<double>* epoch_losses) {
  std::vector<Example> examples;
  for (const Sample& s : data.samples) {
    if (s.task != TaskType::kQuestionAnswering) continue;
    std::vector<Interpretation> candidates = Candidates(s);
    // Weak supervision: the target class is the best-scoring candidate
    // whose execution reproduces the gold answer.
    int target = -1;
    for (const Interpretation& interp : candidates) {
      if (AnswersMatch(interp.result.ToDisplayString(), s.answer)) {
        target = static_cast<int>(interp.template_index);
        break;
      }
    }
    if (target < 0) continue;
    Example ex;
    ex.features = extractor_.Extract(s);
    ex.label = target;
    ex.weight = static_cast<float>(s.weight);
    examples.push_back(std::move(ex));
  }
  template_classifier_.Train(examples, config_.train, rng, epoch_losses);
  trained_ = trained_ || !examples.empty();
}

std::string QaModel::Predict(const Sample& sample) const {
  return PredictWithMargin(sample).answer;
}

QaModel::Prediction QaModel::PredictWithMargin(const Sample& sample) const {
  Prediction out;
  std::vector<Interpretation> candidates = Candidates(sample);
  if (candidates.empty()) {
    out.answer = ExtractSpanAnswer(sample);
    return out;  // span fallback or abstention: no program margin
  }
  out.from_program = true;

  if (!trained_) {
    out.answer = candidates.front().result.ToDisplayString();
    out.margin = candidates.front().score -
                 (candidates.size() > 1 ? candidates[1].score : 0.0);
    return out;
  }

  std::vector<double> prior =
      template_classifier_.Probabilities(extractor_.Extract(sample));
  // The learned prior disambiguates among *plausible* parses: only
  // candidates close to the best binding score compete, so a confident
  // prior can re-rank near-ties but never rescue a clearly worse binding.
  constexpr double kPlausibleMargin = 0.2;
  double top_binding = candidates.front().score;
  const Interpretation* best = nullptr;
  double best_score = -1.0;
  double second_score = 0.0;  // a lone candidate's runner-up counts as 0
  for (const Interpretation& interp : candidates) {
    if (interp.score < top_binding - kPlausibleMargin) continue;
    double p = interp.template_index < prior.size()
                   ? prior[interp.template_index]
                   : 0.0;
    double score = interp.score * (1.0 + config_.classifier_weight * p);
    if (score > best_score) {
      second_score = best_score < 0.0 ? 0.0 : best_score;
      best_score = score;
      best = &interp;
    } else if (score > second_score) {
      second_score = score;
    }
  }
  out.answer = best->result.ToDisplayString();
  out.margin = best_score - second_score;
  return out;
}

std::string QaModel::SaveWeights() const {
  return template_classifier_.SaveToString();
}

Status QaModel::LoadWeights(std::string_view text) {
  UCTR_RETURN_NOT_OK(template_classifier_.LoadInPlace(text));
  trained_ = true;
  return Status::OK();
}

}  // namespace uctr::model
