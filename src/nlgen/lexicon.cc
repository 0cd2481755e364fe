#include "nlgen/lexicon.h"

#include "common/string_util.h"

namespace uctr::nlgen {

namespace {

Lexicon BuildDefault() {
  Lexicon lex;
  // Question openers.
  lex.Add("what_is", {"what is", "what was", "what's"});
  lex.Add("which", {"which", "what"});
  lex.Add("how_many", {"how many", "what is the number of",
                       "what is the count of"});
  // Superlatives.
  lex.Add("highest", {"highest", "largest", "greatest", "most", "top",
                      "maximum"});
  lex.Add("lowest", {"lowest", "smallest", "least", "minimum", "fewest"});
  // Aggregations.
  lex.Add("total", {"total", "combined", "overall", "sum of the"});
  lex.Add("average", {"average", "mean"});
  // Comparisons.
  lex.Add("greater_than", {"greater than", "higher than", "larger than",
                           "more than", "above"});
  lex.Add("less_than", {"less than", "lower than", "smaller than",
                        "fewer than", "below"});
  lex.Add("equal_to", {"equal to", "the same as"});
  lex.Add("about", {"about", "approximately", "around", "roughly"});
  // Claim verbs / connectors.
  lex.Add("is", {"is", "was"});
  lex.Add("are", {"are", "were"});
  lex.Add("has", {"has", "had", "records", "shows"});
  lex.Add("row_word", {"row", "entry", "record"});
  lex.Add("whose", {"whose", "with", "where the"});
  lex.Add("number_of", {"number of", "count of", "amount of"});
  lex.Add("there_are", {"there are", "a total of"});
  lex.Add("difference",
          {"difference", "gap", "change"});
  lex.Add("ratio", {"ratio", "proportion", "quotient"});
  lex.Add("percentage_change",
          {"percentage change", "percent change", "relative change"});
  lex.Add("from_to", {"from %1 to %2", "between %1 and %2"});
  lex.Add("increase", {"increase", "rise", "grow"});
  lex.Add("decrease", {"decrease", "decline", "drop"});
  // Majority.
  lex.Add("most_of", {"most of the", "the majority of the",
                      "more than half of the"});
  lex.Add("all_of", {"all of the", "every", "each of the"});
  lex.Add("only_one", {"only one", "exactly one", "just one"});

  return lex;
}

}  // namespace

const Lexicon& Lexicon::Default() {
  static const Lexicon& lex = *new Lexicon(BuildDefault());
  return lex;
}

void Lexicon::Add(const std::string& key,
                  std::vector<std::string> variants) {
  BuildSynonymIndex({variants});
  entries_[key] = std::move(variants);
}

std::string Lexicon::Canonical(const std::string& key) const {
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.empty()) return key;
  return it->second.front();
}

std::string Lexicon::Pick(const std::string& key, Rng* rng) const {
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.empty()) return key;
  return it->second[rng->Index(it->second.size())];
}

void Lexicon::BuildSynonymIndex(
    const std::vector<std::vector<std::string>>& groups) {
  for (const auto& group : groups) {
    // Only single-word variants participate in word-level substitution.
    std::vector<std::string> words;
    for (const auto& variant : group) {
      if (variant.find(' ') == std::string::npos &&
          variant.find('%') == std::string::npos) {
        words.push_back(ToLower(variant));
      }
    }
    if (words.size() < 2) continue;
    for (const auto& w : words) {
      auto& bucket = synonym_index_[w];
      for (const auto& other : words) {
        if (other != w) bucket.push_back(other);
      }
    }
  }
}

const std::vector<std::string>& Lexicon::SynonymGroup(
    const std::string& word) const {
  auto it = synonym_index_.find(ToLower(word));
  if (it == synonym_index_.end()) return empty_;
  return it->second;
}

}  // namespace uctr::nlgen
