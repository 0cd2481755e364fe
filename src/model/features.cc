#include "model/features.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/hash.h"
#include "common/numeric.h"
#include "common/string_util.h"
#include "table/index.h"

namespace uctr::model {

namespace {

/// Whether some x of `sorted` (ascending, NaN-free) is
/// NearlyEqual(n, x, 1e-6, 1e-6). An infinite n equals only itself. For
/// finite n any match lies within 1.000001e-6 * max(1, |n|) of n, so
/// scanning twice that window is exact.
bool ContainsNearly(const std::vector<double>& sorted, double n) {
  if (std::isnan(n)) return false;
  if (std::isinf(n)) return std::binary_search(sorted.begin(), sorted.end(), n);
  const double w = 2e-6 * std::max(1.0, std::abs(n));
  for (auto it = std::lower_bound(sorted.begin(), sorted.end(), n - w);
       it != sorted.end() && *it <= n + w; ++it) {
    if (NearlyEqual(n, *it, 1e-6, 1e-6)) return true;
  }
  return false;
}

}  // namespace

uint32_t HashFeature(std::string_view name) { return hash::Fnv1a32(name); }

void FeatureExtractor::Add(FeatureVector* out, std::string_view name,
                           float value) const {
  out->push_back(
      {static_cast<uint32_t>(HashFeature(name) % config_.dim), value});
}

void FeatureExtractor::AddLexical(const Sample& sample,
                                  FeatureVector* out) const {
  std::vector<std::string> tokens = WordTokens(sample.sentence);
  for (size_t i = 0; i < tokens.size(); ++i) {
    Add(out, "u:" + tokens[i]);
    if (i + 1 < tokens.size()) {
      Add(out, "b:" + tokens[i] + "_" + tokens[i + 1]);
    }
  }
  size_t bucket = std::min<size_t>(tokens.size() / 4, 8);
  Add(out, "len:" + std::to_string(bucket));
}

void FeatureExtractor::AddAlignment(const Sample& sample,
                                    FeatureVector* out) const {
  std::vector<std::string> tokens = WordTokens(sample.sentence);
  if (tokens.empty()) return;

  // The evidence table's words and numbers come from its token inventory;
  // the paragraph is per sample, so it is tokenized here.
  const TableIndex::TokenInventory& table_words =
      sample.evidence_table().index().tokens();
  std::set<std::string> text_tokens;
  std::vector<double> text_numbers;
  for (const std::string& s : sample.paragraph) {
    for (std::string& t : WordTokens(s)) {
      // NaN has no place in a sorted vector and never matches anyway.
      if (auto n = ParseNumber(t); n && !std::isnan(*n)) {
        text_numbers.push_back(*n);
      }
      text_tokens.insert(std::move(t));
    }
  }
  std::sort(text_numbers.begin(), text_numbers.end());

  size_t table_hits = 0, text_hits = 0;
  size_t num_match = 0, num_miss = 0;
  for (const std::string& t : tokens) {
    if (table_words.Find(t) != StringPool::kNotFound) {
      ++table_hits;
    }
    if (text_tokens.count(t)) ++text_hits;
    if (auto n = ParseNumber(t)) {
      bool matched = ContainsNearly(table_words.numbers, *n) ||
                     ContainsNearly(text_numbers, *n);
      (matched ? num_match : num_miss) += 1;
    }
  }
  double coverage = static_cast<double>(table_hits) / tokens.size();
  Add(out, "align:table_cov",
      static_cast<float>(coverage));
  Add(out, "align:table_cov_b" +
               std::to_string(static_cast<int>(coverage * 5)));
  Add(out, "align:text_cov",
      static_cast<float>(static_cast<double>(text_hits) / tokens.size()));
  Add(out, "align:num_match", static_cast<float>(num_match));
  Add(out, "align:num_miss", static_cast<float>(num_miss));
  if (num_miss > 0) Add(out, "align:has_num_miss");
  if (!sample.paragraph.empty()) Add(out, "align:has_text");
}

void FeatureExtractor::AddInterpreter(const Sample& sample,
                                      FeatureVector* out) const {
  if (interpreter_ == nullptr) return;
  auto interp = interpreter_->Interpret(sample.sentence,
                                        sample.evidence_table(),
                                        TaskType::kFactVerification,
                                        sample.exec);
  if (!interp.ok()) {
    Add(out, "interp:none");
    return;
  }
  const Interpretation& best = interp.ValueOrDie();
  Add(out, "interp:found");
  Add(out, "interp:score", static_cast<float>(best.score));
  bool verdict = best.result.scalar().boolean();
  // Verdict weighted by parse confidence: a confident parse saying "true"
  // is the strongest Supported signal the model can receive.
  Add(out, verdict ? "interp:true" : "interp:false",
      static_cast<float>(best.score));
  Add(out, verdict ? "interp:true_flag" : "interp:false_flag");
  if (best.score > 0.75) {
    Add(out, verdict ? "interp:true_hi" : "interp:false_hi");
  }
}

FeatureVector FeatureExtractor::Extract(const Sample& sample) const {
  FeatureVector out;
  Add(&out, "bias");
  if (config_.lexical) AddLexical(sample, &out);
  if (config_.alignment) AddAlignment(sample, &out);
  if (config_.interpreter &&
      sample.task == TaskType::kFactVerification) {
    AddInterpreter(sample, &out);
  }
  return out;
}

}  // namespace uctr::model
