#ifndef UCTR_NLGEN_NL_GENERATOR_H_
#define UCTR_NLGEN_NL_GENERATOR_H_

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "nlgen/lexicon.h"
#include "nlgen/paraphraser.h"
#include "program/program.h"
#include "program/template_form.h"

namespace uctr::nlgen {

/// \brief Configuration of the NL-Generator (Equation 3: f(P) -> L).
struct NlGeneratorConfig {
  /// When false, realization is fully deterministic (canonical phrases, no
  /// paraphrase noise) — one program always maps to one sentence.
  bool stochastic = true;
  ParaphraseConfig paraphrase;
};

/// \brief A template's canonical sentence with its slots left open: the
/// word tokens printed around the slots, and the placeholder printed at
/// each slot, in order. A binding's sentence has the tokens `fixed_tokens`
/// plus WordTokens(PrintSlot(...)) of each placeholder in `slots`: those of
/// the canonical sentence of the filled program, in another order.
struct OpenSentence {
  std::vector<std::string> fixed_tokens;
  std::vector<size_t> slots;
};

/// \brief The text the canonical realizer prints for `text` bound to a
/// slot printed as `print`.
std::string PrintSlot(SlotPrint print, std::string_view text);

/// \brief The paper's NL-Generator module: maps programs of all three types
/// into natural-language questions (SQL, arithmetic) or claims (logical
/// forms).
///
/// The paper fine-tunes GPT-2 / BART on program-NL pairs; this
/// implementation substitutes a compositional grammar-based realizer per
/// program family plus a stochastic paraphraser, which preserves the
/// program logic exactly while reproducing the surface diversity (and,
/// when configured, the occasional information loss) of a neural
/// generator. See DESIGN.md, "Substitutions".
class NlGenerator {
 public:
  explicit NlGenerator(NlGeneratorConfig config = {},
                       const Lexicon* lexicon = &Lexicon::Default())
      : config_(config),
        lexicon_(lexicon),
        paraphraser_(config.paraphrase, lexicon) {}

  /// \brief Realizes `tree` as a sentence: the one entry point of every
  /// generation. `rng` supplies the stochastic choices and may be null
  /// (forces deterministic output).
  Result<std::string> Realize(const ProgramTree& tree, Rng* rng) const;

  /// \brief Parses `program` and realizes it.
  Result<std::string> Generate(const Program& program, Rng* rng) const;

  /// \brief Deterministic (canonical) generation.
  Result<std::string> GenerateCanonical(const Program& program) const;

  /// \brief Realizes `form`'s skeleton canonically and opens it at each
  /// printed slot. With `merged` (one entry per placeholder), placeholder
  /// p holds the marker of placeholder merged[p]. Fails when the realizer
  /// does, or when a slot does not sit between token boundaries: its text
  /// could then merge with the words around it.
  Result<OpenSentence> RealizeOpen(const TemplateForm& form,
                                   std::span<const size_t> merged = {}) const;

 private:
  NlGeneratorConfig config_;
  const Lexicon* lexicon_;
  Paraphraser paraphraser_;
};

}  // namespace uctr::nlgen

#endif  // UCTR_NLGEN_NL_GENERATOR_H_
