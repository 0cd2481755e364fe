#include "model/interpreter.h"

#include <algorithm>
#include <optional>
#include <span>
#include <string_view>
#include <utility>

#include "common/string_util.h"
#include "ir/plan_cache.h"
#include "table/index.h"

namespace uctr::model {

namespace {

/// Ordinal mention in the sentence ("2nd", "third", ...), or 0.
int FindOrdinal(const std::vector<std::string>& tokens) {
  static const std::pair<const char*, int> kWords[] = {
      {"first", 1},  {"second", 2}, {"third", 3}, {"fourth", 4},
      {"fifth", 5},  {"1st", 1},    {"2nd", 2},   {"3rd", 3},
      {"4th", 4},    {"5th", 5},
  };
  for (const std::string& t : tokens) {
    for (const auto& [word, n] : kWords) {
      if (t == word) return n;
    }
  }
  return 0;
}

/// One RankAll call's view of its sentence against the table, shared by
/// every template the call tries: the sentence's tokens (as read, and
/// sorted for scoring), which inventory words they are, each header's
/// coverage, the ordinal and claimed value it mentions, and per column (on
/// first use) the rows whose cells the sentence covers at all.
class Linker {
 public:
  /// A non-null row whose cell shares a token with the sentence.
  struct Candidate {
    size_t row;
    double score;  ///< share of the cell's tokens found in the sentence
  };

  Linker(const std::string& sentence, const Table& table)
      : sentence_(sentence),
        table_(table),
        index_(table.index()),
        inventory_(index_.tokens()),
        tokens_(WordTokens(sentence)),
        sorted_tokens_(tokens_),
        candidates_(table.num_columns()) {
    std::sort(sorted_tokens_.begin(), sorted_tokens_.end());
    for (const std::string& t : tokens_) {
      uint32_t id = inventory_.Find(t);
      if (id != StringPool::kNotFound) {
        sentence_ids_.push_back(id);
      }
    }
    std::sort(sentence_ids_.begin(), sentence_ids_.end());
    sentence_ids_.erase(
        std::unique(sentence_ids_.begin(), sentence_ids_.end()),
        sentence_ids_.end());
    // Header words are in the inventory, so an id test is a word test.
    std::vector<uint32_t> ids;
    for (size_t c = 0; c < table.num_columns(); ++c) {
      ids.clear();
      for (const std::string& t : WordTokens(table.schema().column(c).name)) {
        ids.push_back(inventory_.Find(t));
      }
      header_scores_.push_back(Coverage(ids));
    }
  }

  const std::string& sentence() const { return sentence_; }
  const Table& table() const { return table_; }
  const TableIndex& index() const { return index_; }
  const std::vector<std::string>& sorted_tokens() const {
    return sorted_tokens_;
  }

  /// \brief Share of column `c`'s header tokens found in the sentence.
  double HeaderScore(size_t c) const { return header_scores_[c]; }

  /// \brief The rows of column `c` with a positive cell score, best first;
  /// tied rows stay in row order.
  const std::vector<Candidate>& Candidates(size_t c) {
    std::optional<std::vector<Candidate>>& rows = candidates_[c];
    if (!rows) {
      rows.emplace();
      for (size_t r = 0; r < table_.num_rows(); ++r) {
        double score = Coverage(inventory_.cell(r, c));
        if (score > 0.0) rows->push_back({r, score});
      }
      std::stable_sort(rows->begin(), rows->end(),
                       [](const Candidate& a, const Candidate& b) {
                         return a.score > b.score;
                       });
    }
    return *rows;
  }

  /// \brief The ordinal the sentence mentions ("2nd", "third", ...) as
  /// digits; empty when it mentions none.
  std::string_view Ordinal() {
    if (!ordinal_) {
      int n = FindOrdinal(tokens_);
      ordinal_ = n == 0 ? std::string() : std::to_string(n);
    }
    return *ordinal_;
  }

  /// \brief NlInterpreter::ClaimedValue of the sentence.
  std::string_view Claimed() {
    if (!claimed_) claimed_ = NlInterpreter::ClaimedValue(sentence_);
    return *claimed_;
  }

 private:
  /// Share of `ids` found in the sentence; duplicates count.
  double Coverage(std::span<const uint32_t> ids) const {
    if (ids.empty()) return 0.0;
    size_t hits = 0;
    for (uint32_t id : ids) {
      if (std::binary_search(sentence_ids_.begin(), sentence_ids_.end(), id)) {
        ++hits;
      }
    }
    return static_cast<double>(hits) / static_cast<double>(ids.size());
  }

  const std::string& sentence_;
  const Table& table_;
  const TableIndex& index_;
  const TableIndex::TokenInventory& inventory_;
  std::vector<std::string> tokens_;
  std::vector<std::string> sorted_tokens_;
  std::vector<uint32_t> sentence_ids_;  ///< sorted, distinct
  std::vector<double> header_scores_;
  std::vector<std::optional<std::vector<Candidate>>> candidates_;
  std::optional<std::string> ordinal_;
  std::optional<std::string> claimed_;
};

nlgen::NlGeneratorConfig CanonicalConfig() {
  nlgen::NlGeneratorConfig config;
  config.stochastic = false;
  return config;
}

}  // namespace

NlInterpreter::NlInterpreter(std::vector<ProgramTemplate> templates)
    : templates_(std::move(templates)),
      canonical_generator_(CanonicalConfig()) {
  prepared_.reserve(templates_.size());
  for (const ProgramTemplate& tmpl : templates_) {
    std::optional<Prepared>& prepared = prepared_.emplace_back();
    Result<TemplateForm> form = TemplateForm::Make(tmpl);
    if (!form.ok()) continue;
    Result<nlgen::OpenSentence> open = canonical_generator_.RealizeOpen(*form);
    if (!open.ok()) continue;
    prepared.emplace(Prepared{std::move(form).ValueOrDie(),
                              std::move(open).ValueOrDie()});
  }
}

std::string NlInterpreter::ClaimedValue(const std::string& sentence) {
  std::string lowered = ToLower(sentence);
  size_t pos = std::string::npos;
  size_t verb_len = 0;
  for (std::string_view verb : {" is ", " was ", " are ", " were "}) {
    size_t p = lowered.rfind(verb);
    if (p != std::string::npos && (pos == std::string::npos || p > pos)) {
      pos = p;
      verb_len = verb.size();
    }
  }
  if (pos == std::string::npos) return "";
  std::string tail = Trim(sentence.substr(pos + verb_len));
  // Strip hedges and negations that precede the value.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::string_view hedge :
         {"about ", "approximately ", "around ", "roughly ", "not ",
          "the same as ", "equal to "}) {
      if (tail.size() > hedge.size() &&
          EqualsIgnoreCase(tail.substr(0, hedge.size()), hedge)) {
        tail = Trim(tail.substr(hedge.size()));
        changed = true;
      }
    }
  }
  while (!tail.empty() &&
         (tail.back() == '.' || tail.back() == '?' || tail.back() == '!')) {
    tail.pop_back();
  }
  return Trim(tail);
}

namespace {

/// Slots already bound in one template: (column slot id, column) and
/// (group, cell display) pairs. Templates have a handful of slots.
struct Bound {
  std::vector<std::pair<std::string_view, size_t>> columns;
  std::vector<std::pair<std::string_view, std::string_view>> values;
};

/// The display text of the best-covered row of column `c` not yet bound in
/// `group`, now bound there; none when that row covers less than half.
/// Candidates come best first and tied rows in row order, so the first
/// unbound one is the strict maximum a scan in row order would keep.
std::optional<std::string_view> BindCell(Linker* linker, size_t c,
                                         std::string_view group,
                                         Bound* bound) {
  const TableIndex::Column& cache = linker->index().column(c);
  for (const Linker::Candidate& cand : linker->Candidates(c)) {
    const std::string_view display = cache.display(cand.row);
    std::pair<std::string_view, std::string_view> key(group, display);
    if (std::find(bound->values.begin(), bound->values.end(), key) !=
        bound->values.end()) {
      continue;
    }
    if (cand.score < 0.5) return std::nullopt;
    bound->values.push_back(key);
    return display;
  }
  return std::nullopt;
}

/// Binds one template's slots against the linked sentence: `texts` gets
/// the text bound to each placeholder, in order. False when a slot cannot
/// be filled.
bool BindTemplate(const ProgramTemplate& tmpl, TaskType task, Linker* linker,
                  std::vector<std::string_view>* texts) {
  const Table& table = linker->table();
  texts->clear();
  Bound bound;
  for (const Placeholder& p : tmpl.placeholders) {
    std::optional<std::string_view> text;
    switch (p.kind) {
      case Placeholder::Kind::kColumn: {
        double best = 0.0;
        size_t best_col = table.num_columns();
        for (size_t c = 0; c < table.num_columns(); ++c) {
          if (std::any_of(bound.columns.begin(), bound.columns.end(),
                          [c](const auto& b) { return b.second == c; })) {
            continue;
          }
          if (p.has_type_constraint &&
              table.schema().column(c).type != p.column_type) {
            continue;
          }
          double score = linker->HeaderScore(c);
          if (score > best) {
            best = score;
            best_col = c;
          }
        }
        if (best_col == table.num_columns() || best <= 0.0) return false;
        bound.columns.emplace_back(p.id, best_col);
        text = table.schema().column(best_col).name;
        break;
      }
      case Placeholder::Kind::kValue: {
        auto it = std::find_if(
            bound.columns.begin(), bound.columns.end(),
            [&p](const auto& b) { return b.first == p.column_id; });
        if (it == bound.columns.end()) return false;  // value before column
        text = BindCell(linker, it->second, p.column_id, &bound);
        break;
      }
      case Placeholder::Kind::kRow:
        if (table.num_columns() > 0) {
          text = BindCell(linker, 0, "__rows__", &bound);
        }
        break;
      case Placeholder::Kind::kOrdinal:
        text = linker->Ordinal();
        break;
      case Placeholder::Kind::kDerive:
        if (task == TaskType::kFactVerification) text = linker->Claimed();
        break;
    }
    if (!text || text->empty()) return false;
    texts->push_back(*text);
  }
  return true;
}

/// Bag-of-tokens F1 of the candidate's canonical sentence against the
/// request's: the open sentence's fixed tokens plus each printed slot's.
double Score(const TemplateForm& form, const nlgen::OpenSentence& open,
             std::span<const std::string_view> texts,
             std::span<const std::string> sorted_sentence) {
  std::vector<std::string> slot_tokens;
  for (size_t p : open.slots) {
    for (std::string& t : WordTokens(nlgen::PrintSlot(form.print(p),
                                                      texts[p]))) {
      slot_tokens.push_back(std::move(t));
    }
  }
  std::vector<std::string_view> tokens(open.fixed_tokens.begin(),
                                       open.fixed_tokens.end());
  tokens.insert(tokens.end(), slot_tokens.begin(), slot_tokens.end());
  return TokenF1(tokens, sorted_sentence);
}

/// For an arithmetic template, each placeholder's first placeholder whose
/// bound text is the same up to case; empty when all differ. The arithmetic
/// realizer compares rows and operands that way, so such a binding's
/// sentence comes from the skeleton with those markers merged.
std::vector<size_t> CaseEqualSlots(const ProgramTemplate& tmpl,
                                   std::span<const std::string_view> texts) {
  if (tmpl.type != ProgramType::kArithmetic) return {};
  std::vector<size_t> merged(texts.size());
  bool any = false;
  for (size_t p = 0; p < texts.size(); ++p) {
    merged[p] = p;
    for (size_t q = 0; q < p; ++q) {
      if (EqualsIgnoreCase(Trim(texts[q]), Trim(texts[p]))) {
        merged[p] = q;
        any = true;
        break;
      }
    }
  }
  if (!any) merged.clear();
  return merged;
}

}  // namespace

std::vector<Interpretation> NlInterpreter::RankAll(
    const std::string& sentence, const Table& table, TaskType task,
    const ExecOptions& exec) const {
  std::vector<Interpretation> out;
  std::optional<Linker> linker;  // built by the first template that reads
  ir::PlanCache& cache =
      exec.plan_cache != nullptr ? *exec.plan_cache : ir::PlanCache::Default();
  std::vector<std::string_view> texts;
  for (size_t i = 0; i < templates_.size(); ++i) {
    const ProgramTemplate& tmpl = templates_[i];
    // Claim templates only read claims, question templates only questions.
    bool is_claim_template = tmpl.type == ProgramType::kLogicalForm;
    if (is_claim_template != (task == TaskType::kFactVerification)) continue;
    if (!prepared_[i]) continue;
    const Prepared& prepared = *prepared_[i];

    if (!linker) linker.emplace(sentence, table);
    if (!BindTemplate(tmpl, task, &*linker, &texts)) continue;
    auto executed = prepared.form.Run(table, texts, cache);
    if (!executed.ok()) continue;

    double score;
    std::vector<size_t> merged = CaseEqualSlots(tmpl, texts);
    if (merged.empty()) {
      score = Score(prepared.form, prepared.sentence, texts,
                    linker->sorted_tokens());
    } else {
      auto open = canonical_generator_.RealizeOpen(prepared.form, merged);
      if (!open.ok()) continue;
      score = Score(prepared.form, *open, texts, linker->sorted_tokens());
    }

    Interpretation interp;
    for (size_t p = 0; p < texts.size(); ++p) {
      interp.bindings[tmpl.placeholders[p].id] = std::string(texts[p]);
    }
    auto filled = tmpl.Fill(interp.bindings);
    if (!filled.ok()) continue;
    interp.program.type = tmpl.type;
    interp.program.text = std::move(filled).ValueOrDie();
    interp.template_index = i;
    interp.result = std::move(executed).ValueOrDie();
    interp.score = score;
    out.push_back(std::move(interp));
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Interpretation& a, const Interpretation& b) {
                     return a.score > b.score;
                   });
  return out;
}

Result<Interpretation> NlInterpreter::Interpret(
    const std::string& sentence, const Table& table, TaskType task,
    const ExecOptions& exec) const {
  std::vector<Interpretation> ranked = RankAll(sentence, table, task, exec);
  if (ranked.empty()) {
    return Status::NotFound("no template binds and executes");
  }
  return ranked.front();
}

}  // namespace uctr::model
