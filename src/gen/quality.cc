#include "gen/quality.h"

#include <cmath>
#include <set>

#include "common/string_util.h"

namespace uctr {

QualityReport AnalyzeDataset(const Dataset& dataset) {
  QualityReport report;
  report.samples = dataset.size();
  if (dataset.empty()) return report;

  std::set<std::string> distinct_sentences;
  std::set<std::string> word_types;
  size_t total_tokens = 0;
  size_t supported = 0, refuted = 0, fv = 0;
  size_t hybrid = 0;

  for (const Sample& s : dataset.samples) {
    distinct_sentences.insert(s.sentence);
    std::vector<std::string> tokens = WordTokens(s.sentence);
    total_tokens += tokens.size();
    for (std::string& t : tokens) word_types.insert(std::move(t));
    if (!s.reasoning_type.empty()) {
      report.reasoning_counts[s.reasoning_type]++;
    }
    if (s.task == TaskType::kFactVerification) {
      ++fv;
      if (s.label == Label::kSupported) ++supported;
      if (s.label == Label::kRefuted) ++refuted;
    }
    if (s.source != EvidenceSource::kTableOnly) ++hybrid;
  }

  double n = static_cast<double>(dataset.size());
  report.distinct_sentence_ratio = distinct_sentences.size() / n;
  report.mean_sentence_tokens = static_cast<double>(total_tokens) / n;
  report.type_token_ratio =
      total_tokens == 0
          ? 0.0
          : static_cast<double>(word_types.size()) / total_tokens;
  report.hybrid_fraction = hybrid / n;

  size_t tagged = 0;
  for (const auto& [tag, count] : report.reasoning_counts) tagged += count;
  double entropy = 0.0;
  for (const auto& [tag, count] : report.reasoning_counts) {
    double p = static_cast<double>(count) / static_cast<double>(tagged);
    entropy -= p * std::log2(p);
  }
  report.reasoning_entropy = entropy;

  if (fv > 0) {
    double ps = supported / static_cast<double>(fv);
    double pr = refuted / static_cast<double>(fv);
    report.label_balance = std::min(ps, pr) / 0.5;
  }
  return report;
}

}  // namespace uctr
