#ifndef UCTR_NLGEN_LEXICON_H_
#define UCTR_NLGEN_LEXICON_H_

#include <map>
#include <string>
#include <vector>

#include "common/rng.h"

namespace uctr::nlgen {

/// \brief Phrase bank used by the surface realizers and the paraphraser.
///
/// Keys are semantic slots ("what_is", "highest", "number_of", ...); each
/// maps to interchangeable surface variants. The realizers ask for the
/// canonical (first) variant when determinism is wanted and a random
/// variant when generating diverse training text — the lexical half of the
/// diversity a fine-tuned BART/GPT-2 generator would provide.
class Lexicon {
 public:
  /// \brief The built-in English phrase bank.
  static const Lexicon& Default();

  Lexicon() = default;

  void Add(const std::string& key, std::vector<std::string> variants);

  /// \brief First variant; `key` itself when unknown.
  std::string Canonical(const std::string& key) const;

  /// \brief Uniformly random variant; `key` itself when unknown.
  std::string Pick(const std::string& key, Rng* rng) const;

  /// \brief Word-level synonym groups used by the paraphraser: for a
  /// surface word, the group of words it may be swapped with (empty when
  /// the word belongs to no group).
  const std::vector<std::string>& SynonymGroup(const std::string& word) const;

 private:
  std::map<std::string, std::vector<std::string>> entries_;
  std::map<std::string, std::vector<std::string>> synonym_index_;
  std::vector<std::string> empty_;

  void BuildSynonymIndex(const std::vector<std::vector<std::string>>& groups);
};

}  // namespace uctr::nlgen

#endif  // UCTR_NLGEN_LEXICON_H_
