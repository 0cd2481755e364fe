#include "model/interpreter.h"

#include <algorithm>
#include <optional>
#include <set>
#include <span>

#include "common/string_util.h"
#include "table/index.h"

namespace uctr::model {

namespace {

/// One RankAll call's view of its sentence against the table, shared by
/// every template the call tries: the sentence's tokens, which inventory
/// words they are, each header's coverage, and per column (on first use)
/// the rows whose cells the sentence covers at all.
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
        candidates_(table.num_columns()) {
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
  const std::vector<std::string>& tokens() const { return tokens_; }

  /// \brief Share of column `c`'s header tokens found in the sentence.
  double HeaderScore(size_t c) const { return header_scores_[c]; }

  /// \brief The rows of column `c` with a positive cell score, ascending.
  const std::vector<Candidate>& Candidates(size_t c) {
    std::optional<std::vector<Candidate>>& rows = candidates_[c];
    if (!rows) {
      rows.emplace();
      for (size_t r = 0; r < table_.num_rows(); ++r) {
        double score = Coverage(inventory_.cell(r, c));
        if (score > 0.0) rows->push_back({r, score});
      }
    }
    return *rows;
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
  std::vector<uint32_t> sentence_ids_;  ///< sorted, distinct
  std::vector<double> header_scores_;
  std::vector<std::optional<std::vector<Candidate>>> candidates_;
};

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

nlgen::NlGeneratorConfig CanonicalConfig() {
  nlgen::NlGeneratorConfig config;
  config.stochastic = false;
  return config;
}

}  // namespace

NlInterpreter::NlInterpreter(std::vector<ProgramTemplate> templates)
    : templates_(std::move(templates)),
      canonical_generator_(CanonicalConfig()) {}

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

/// The display string of the best-covered row of column `c` whose value is
/// not in `used`, inserted into `used`; none when no row reaches 0.5. Ties
/// go to the first row.
std::optional<std::string_view> BindCell(
    Linker* linker, size_t c, std::set<std::string, std::less<>>* used) {
  const TableIndex::Column& cache = linker->index().column(c);
  double best = 0.0;
  std::string_view best_value;
  for (const Linker::Candidate& cand : linker->Candidates(c)) {
    if (cand.score <= best) continue;
    const std::string_view display = cache.display(cand.row);
    if (used->count(display)) continue;
    best = cand.score;
    best_value = display;
  }
  if (best < 0.5) return std::nullopt;
  used->emplace(best_value);
  return best_value;
}

/// Binds one template's slots against the linked sentence; an error when
/// a slot cannot be filled.
Result<std::map<std::string, std::string>> BindTemplate(
    const ProgramTemplate& tmpl, TaskType task, Linker* linker) {
  const Table& table = linker->table();
  std::map<std::string, std::string> bindings;
  std::map<std::string, size_t> column_of;
  std::set<size_t> used_columns;
  // Per column id.
  std::map<std::string, std::set<std::string, std::less<>>> used_values;

  for (const Placeholder& p : tmpl.placeholders) {
    switch (p.kind) {
      case Placeholder::Kind::kColumn: {
        double best = 0.0;
        size_t best_col = table.num_columns();
        for (size_t c = 0; c < table.num_columns(); ++c) {
          if (used_columns.count(c)) continue;
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
        if (best_col == table.num_columns() || best <= 0.0) {
          return Status::NotFound("no column matches slot '" + p.id + "'");
        }
        used_columns.insert(best_col);
        column_of[p.id] = best_col;
        bindings[p.id] = table.schema().column(best_col).name;
        break;
      }
      case Placeholder::Kind::kValue: {
        auto it = column_of.find(p.column_id);
        if (it == column_of.end()) {
          return Status::Internal("value slot before its column slot");
        }
        std::optional<std::string_view> value =
            BindCell(linker, it->second, &used_values[p.column_id]);
        if (!value) {
          return Status::NotFound("no cell value matches slot '" + p.id +
                                  "'");
        }
        bindings[p.id] = *value;
        break;
      }
      case Placeholder::Kind::kRow: {
        std::optional<std::string_view> name =
            table.num_columns() == 0
                ? std::nullopt
                : BindCell(linker, 0, &used_values["__rows__"]);
        if (!name) {
          return Status::NotFound("no row name matches slot '" + p.id + "'");
        }
        bindings[p.id] = *name;
        break;
      }
      case Placeholder::Kind::kOrdinal: {
        int n = FindOrdinal(linker->tokens());
        if (n == 0) {
          return Status::NotFound("no ordinal mention in the sentence");
        }
        bindings[p.id] = std::to_string(n);
        break;
      }
      case Placeholder::Kind::kDerive: {
        if (task != TaskType::kFactVerification) {
          return Status::InvalidArgument(
              "derive slot only binds for claims");
        }
        std::string claimed = NlInterpreter::ClaimedValue(linker->sentence());
        if (claimed.empty()) {
          return Status::NotFound("no claimed value in the sentence");
        }
        bindings[p.id] = claimed;
        break;
      }
    }
  }
  return bindings;
}

}  // namespace

std::vector<Interpretation> NlInterpreter::RankAll(
    const std::string& sentence, const Table& table, TaskType task,
    const ExecOptions& exec) const {
  std::vector<Interpretation> out;
  std::optional<Linker> linker;  // built by the first template that reads
  for (size_t i = 0; i < templates_.size(); ++i) {
    const ProgramTemplate& tmpl = templates_[i];
    // Claim templates only read claims, question templates only questions.
    bool is_claim_template = tmpl.type == ProgramType::kLogicalForm;
    if (is_claim_template != (task == TaskType::kFactVerification)) continue;

    if (!linker) linker.emplace(sentence, table);
    auto bindings = BindTemplate(tmpl, task, &*linker);
    if (!bindings.ok()) continue;
    auto filled = tmpl.Fill(bindings.ValueOrDie());
    if (!filled.ok()) continue;

    Interpretation interp;
    interp.program.type = tmpl.type;
    interp.program.text = std::move(filled).ValueOrDie();
    interp.bindings = std::move(bindings).ValueOrDie();
    interp.template_index = i;

    auto executed = interp.program.Execute(table, exec);
    if (!executed.ok()) continue;
    interp.result = std::move(executed).ValueOrDie();

    auto re_realized = canonical_generator_.GenerateCanonical(interp.program);
    if (!re_realized.ok()) continue;
    interp.score = TokenF1(re_realized.ValueOrDie(), sentence);
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
