#ifndef UCTR_GEN_QUALITY_H_
#define UCTR_GEN_QUALITY_H_

#include <map>
#include <string>

#include "gen/sample.h"

namespace uctr {

/// \brief Diversity and balance statistics of a (synthetic) dataset — the
/// quantities behind the paper's claim of "sufficient and diverse
/// synthetic data with complex logic".
struct QualityReport {
  size_t samples = 0;

  /// Distinct sentences / samples (1.0 = no duplicates).
  double distinct_sentence_ratio = 0.0;
  /// Mean sentence length in word tokens.
  double mean_sentence_tokens = 0.0;
  /// Distinct word types / total tokens across all sentences
  /// (lexical diversity; higher = more varied surface forms).
  double type_token_ratio = 0.0;
  /// Shannon entropy (bits) of the reasoning-type distribution
  /// (0 = a single reasoning type, as in MQA-QG data).
  double reasoning_entropy = 0.0;
  /// Fact verification: min(P(Supported), P(Refuted)) / 0.5 in [0,1]
  /// (1 = perfectly balanced labels). 1.0 for QA datasets.
  double label_balance = 1.0;
  /// Share of samples whose evidence involves text (split/expand/text).
  double hybrid_fraction = 0.0;

  std::map<std::string, size_t> reasoning_counts;
};

/// \brief Computes the report over `dataset`.
QualityReport AnalyzeDataset(const Dataset& dataset);

}  // namespace uctr

#endif  // UCTR_GEN_QUALITY_H_
