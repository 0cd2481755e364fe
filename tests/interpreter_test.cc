// Focused unit tests of NlInterpreter slot binding: type constraints,
// distinct-column assignment, value coverage thresholds, ordinals, and
// ranking behaviour, plus a seeded sweep that pins every ranked reading and
// feature vector over generated samples.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "common/string_util.h"
#include "datasets/corpus.h"
#include "gen/generator.h"
#include "ir/plan_cache.h"
#include "model/features.h"
#include "model/interpreter.h"
#include "nlgen/nl_generator.h"
#include "program/library.h"
#include "program/sampler.h"
#include "program/template.h"
#include "program/template_form.h"
#include "tests/test_util.h"

namespace uctr::model {
namespace {

using uctr::testing::MakeFinanceTable;
using uctr::testing::MakeNationsTable;

NlInterpreter SingleTemplate(const char* pattern, const char* reasoning = "",
                             ProgramType type = ProgramType::kLogicalForm) {
  auto tmpl = ProgramTemplate::Make(type, pattern, reasoning).ValueOrDie();
  return NlInterpreter({tmpl});
}

TEST(InterpreterBindingTest, TypeConstraintExcludesTextColumns) {
  Table t = MakeNationsTable();
  NlInterpreter interp = SingleTemplate(
      "eq { max { all_rows ; {c1:num} } ; {derive} }");
  // "nation" is mentioned but is a text column; "gold" must win.
  auto r = interp.Interpret("The highest gold in any nation is 10.", t,
                            TaskType::kFactVerification);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->bindings.at("c1"), "gold");
  EXPECT_TRUE(r->result.scalar().boolean());
}

TEST(InterpreterBindingTest, DistinctColumnsForDistinctSlots) {
  Table t = MakeNationsTable();
  NlInterpreter interp = SingleTemplate(
      "eq { hop { filter_eq { all_rows ; {c1} ; {v1@c1} } ; {c2} } ; "
      "{derive} }");
  auto r = interp.Interpret(
      "The silver of the row whose nation is china is 6.", t,
      TaskType::kFactVerification);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->bindings.at("c1"), "nation");
  EXPECT_EQ(r->bindings.at("c2"), "silver");
  EXPECT_NE(r->bindings.at("c1"), r->bindings.at("c2"));
}

TEST(InterpreterBindingTest, ValueMustBeMentioned) {
  Table t = MakeNationsTable();
  NlInterpreter interp = SingleTemplate(
      "eq { count { filter_eq { all_rows ; {c1} ; {v1@c1} } } ; {derive} }");
  // No cell value of any column appears in this sentence.
  auto r = interp.Interpret("The number of rows is 5.", t,
                            TaskType::kFactVerification);
  EXPECT_FALSE(r.ok());
}

TEST(InterpreterBindingTest, MultiTokenValueBinds) {
  Table t = MakeNationsTable();
  NlInterpreter interp = SingleTemplate(
      "eq { hop { filter_eq { all_rows ; {c1:text} ; {v1@c1} } ; {c2} } ; "
      "{derive} }");
  auto r = interp.Interpret(
      "The total of the row whose nation is united states is 30.", t,
      TaskType::kFactVerification);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->bindings.at("v1"), "united states");
  EXPECT_TRUE(r->result.scalar().boolean());
}

TEST(InterpreterBindingTest, OrdinalWordsBind) {
  Table t = MakeNationsTable();
  NlInterpreter interp = SingleTemplate(
      "eq { hop { nth_argmax { all_rows ; {c1:num} ; {ord1} } ; {c2} } ; "
      "{derive} }");
  auto r = interp.Interpret(
      "The nation with the 3rd highest total is japan.", t,
      TaskType::kFactVerification);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->bindings.at("ord1"), "3");
  EXPECT_TRUE(r->result.scalar().boolean());

  auto spelled = interp.Interpret(
      "The nation with the second highest total is china.", t,
      TaskType::kFactVerification);
  ASSERT_TRUE(spelled.ok());
  EXPECT_EQ(spelled->bindings.at("ord1"), "2");
}

TEST(InterpreterBindingTest, NoOrdinalMentionFailsOrdinalSlot) {
  Table t = MakeNationsTable();
  NlInterpreter interp = SingleTemplate(
      "eq { nth_max { all_rows ; {c1:num} ; {ord1} } ; {derive} }");
  EXPECT_FALSE(interp.Interpret("The highest gold is 10.", t,
                                TaskType::kFactVerification)
                   .ok());
}

TEST(InterpreterBindingTest, ClaimTemplatesIgnoreQuestions) {
  Table t = MakeNationsTable();
  NlInterpreter claims(BuiltinLogicTemplates());
  EXPECT_TRUE(claims
                  .RankAll("Which nation has the highest gold?", t,
                           TaskType::kQuestionAnswering)
                  .empty());
  NlInterpreter questions(BuiltinSqlTemplates());
  EXPECT_TRUE(questions
                  .RankAll("The gold of china is 8.", t,
                           TaskType::kFactVerification)
                  .empty());
}

TEST(InterpreterBindingTest, RankingPrefersBetterCoverage) {
  Table t = MakeNationsTable();
  NlInterpreter interp(BuiltinLogicTemplates());
  auto ranked = interp.RankAll(
      "The number of rows whose gold is greater than 5 is 2.", t,
      TaskType::kFactVerification);
  ASSERT_GE(ranked.size(), 2u);
  for (size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_GE(ranked[i - 1].score, ranked[i].score);
  }
  // The top reading is the count-greater template.
  EXPECT_NE(ranked[0].program.text.find("count"), std::string::npos);
  EXPECT_NE(ranked[0].program.text.find("filter_greater"),
            std::string::npos);
}

TEST(InterpreterBindingTest, MoneyValuesBindOnFinanceTables) {
  Table t = MakeFinanceTable();
  NlInterpreter interp = SingleTemplate(
      "eq { hop { filter_eq { all_rows ; {c1:text} ; {v1@c1} } ; {c2} } ; "
      "{derive} }");
  auto r = interp.Interpret(
      "The 2019 of the row whose item is gross profit is 400.5.", t,
      TaskType::kFactVerification);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->result.scalar().boolean());
}

TEST(InterpreterBindingTest, ClaimedValueHandlesHedgesAndNegation) {
  EXPECT_EQ(NlInterpreter::ClaimedValue("The total is about 30."), "30");
  EXPECT_EQ(NlInterpreter::ClaimedValue("The total is roughly 30."), "30");
  EXPECT_EQ(NlInterpreter::ClaimedValue("The total is not 30."), "30");
  EXPECT_EQ(NlInterpreter::ClaimedValue("The counts were 1 and it is 2!"),
            "2");
}

TEST(InterpreterBindingTest, EmptyTableYieldsNoInterpretations) {
  Table empty;
  NlInterpreter interp(BuiltinLogicTemplates());
  EXPECT_TRUE(interp
                  .RankAll("The gold of china is 8.", empty,
                           TaskType::kFactVerification)
                  .empty());
  // Row slots read the first column, which a columnless table lacks.
  NlInterpreter questions(BuiltinArithTemplates());
  EXPECT_TRUE(questions
                  .RankAll("What is the total of revenue?", empty,
                           TaskType::kQuestionAnswering)
                  .empty());
}

TEST(InterpreterBindingTest, DuplicateCellTokensCountTowardCoverage) {
  // "alpha gamma" covers 1/2 of its tokens, "alpha alpha beta" 2/3: every
  // occurrence of a sentence token counts, so the later row wins.
  Table t = Table::FromCsv("name,score\n"
                           "alpha gamma,1\n"
                           "alpha alpha beta,2\n")
                .ValueOrDie();
  NlInterpreter interp = SingleTemplate(
      "eq { hop { filter_eq { all_rows ; {c1:text} ; {v1@c1} } ; {c2} } ; "
      "{derive} }");
  auto r = interp.Interpret("The score of the row whose name is alpha is 2.",
                            t, TaskType::kFactVerification);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->bindings.at("v1"), "alpha alpha beta");
  EXPECT_TRUE(r->result.scalar().boolean());
}

TEST(InterpreterBindingTest, NullCellsNeverBind) {
  // "n/a" parses to a null cell: the sentence's "n" and "a" cannot reach it.
  Table t = Table::FromCsv("team,wins\n"
                           "n/a,4\n"
                           "falcons,7\n")
                .ValueOrDie();
  ASSERT_TRUE(t.cell(0, 0).is_null());
  NlInterpreter interp = SingleTemplate(
      "eq { hop { filter_eq { all_rows ; {c1:text} ; {v1@c1} } ; {c2} } ; "
      "{derive} }");
  EXPECT_TRUE(interp
                  .RankAll("The wins of the row whose team is n/a is 4.", t,
                           TaskType::kFactVerification)
                  .empty());
  auto r = interp.Interpret("The wins of the row whose team is falcons is 7.",
                            t, TaskType::kFactVerification);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->bindings.at("v1"), "falcons");
  EXPECT_TRUE(r->result.scalar().boolean());
}

TEST(InterpreterBindingTest, TiedRowsBindTheFirst) {
  // Both stations cover half their tokens; the comparison is strict, so
  // the first row keeps the slot.
  Table t = Table::FromCsv("station,riders\n"
                           "central north,5\n"
                           "central south,7\n")
                .ValueOrDie();
  NlInterpreter interp = SingleTemplate(
      "eq { hop { filter_eq { all_rows ; {c1:text} ; {v1@c1} } ; {c2} } ; "
      "{derive} }");
  auto r = interp.Interpret(
      "The riders of the row whose station is central is 5.", t,
      TaskType::kFactVerification);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->bindings.at("v1"), "central north");
  EXPECT_TRUE(r->result.scalar().boolean());
}

TEST(InterpreterBindingTest, ComparativeClaimsBindTwoDistinctValues) {
  Table t = MakeNationsTable();
  NlInterpreter interp = SingleTemplate(
      "greater { hop { filter_eq { all_rows ; {c1} ; {v1@c1} } ; {c2:num} } "
      "; hop { filter_eq { all_rows ; {c1} ; {v2@c1} } ; {c2:num} } }",
      "comparative");
  const std::string claim =
      "The gold of the row whose nation is china is greater than the gold "
      "of the row whose nation is japan.";
  auto r = interp.Interpret(claim, t, TaskType::kFactVerification);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->bindings.at("c1"), "nation");
  EXPECT_EQ(r->bindings.at("c2"), "gold");
  EXPECT_EQ(r->bindings.at("v1"), "china");
  EXPECT_EQ(r->bindings.at("v2"), "japan");
  EXPECT_TRUE(r->result.scalar().boolean());

  // The builtin comparative templates bind the same two values.
  NlInterpreter builtin(BuiltinLogicTemplates());
  size_t comparatives = 0;
  for (const Interpretation& reading :
       builtin.RankAll(claim, t, TaskType::kFactVerification)) {
    if (reading.bindings.count("v2") == 0) continue;
    ++comparatives;
    EXPECT_NE(reading.bindings.at("v1"), reading.bindings.at("v2"));
  }
  EXPECT_GT(comparatives, 0u);
}

TEST(InterpreterBindingTest, ArithmeticRowSlotsBindTwoDistinctRows) {
  Table t = MakeFinanceTable();
  NlInterpreter interp = SingleTemplate(
      "subtract({c1:num} of {r1}, {c1:num} of {r2})", "arithmetic",
      ProgramType::kArithmetic);
  // "revenue" and "cost of sales" both cover every token; the tie keeps
  // revenue for {r1}, and {r2} may not reuse it.
  auto r = interp.Interpret(
      "What is the difference between the 2019 of revenue and the 2019 of "
      "cost of sales?",
      t, TaskType::kQuestionAnswering);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->bindings.at("c1"), "2019");
  EXPECT_EQ(r->bindings.at("r1"), "revenue");
  EXPECT_EQ(r->bindings.at("r2"), "cost of sales");
  EXPECT_NEAR(r->result.scalar().number(), 400.5, 1e-9);
}

TEST(InterpreterBindingTest, HeaderOnlyTokensBindColumnsNotValues) {
  Table t = MakeNationsTable();
  // "gold" appears in a header and in no cell: it binds {c2} ...
  NlInterpreter lookup = SingleTemplate(
      "eq { hop { filter_eq { all_rows ; {c1:text} ; {v1@c1} } ; {c2} } ; "
      "{derive} }");
  auto r = lookup.Interpret("The gold of the row whose nation is china is 8.",
                            t, TaskType::kFactVerification);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->bindings.at("c2"), "gold");
  // ... but never a value slot.
  NlInterpreter count = SingleTemplate(
      "eq { count { filter_eq { all_rows ; {c1} ; {v1@c1} } } ; {derive} }");
  EXPECT_TRUE(count
                  .RankAll("The number of rows whose nation is gold is 1.", t,
                           TaskType::kFactVerification)
                  .empty());
}

// ------------------------------------------------------------ seeded sweep

/// Every sample the generator makes from the two fixtures and a few seeded
/// corpus tables (with paragraphs, so split and expanded evidence appear),
/// claims and questions alike.
std::vector<Sample> SweepSamples() {
  std::vector<TableWithText> inputs(2);
  inputs[0].table = MakeNationsTable();
  inputs[1].table = MakeFinanceTable();
  Rng corpus_rng(17);
  datasets::CorpusConfig corpus_config;
  corpus_config.num_tables = 4;
  for (TableWithText& entry :
       datasets::CorpusGenerator(corpus_config, &corpus_rng).Generate()) {
    inputs.push_back(std::move(entry));
  }
  TemplateLibrary lib = TemplateLibrary::Builtin();
  std::vector<Sample> out;
  for (TaskType task :
       {TaskType::kFactVerification, TaskType::kQuestionAnswering}) {
    Rng rng(task == TaskType::kFactVerification ? 5 : 6);
    GenerationConfig config;
    config.task = task;
    config.program_types =
        task == TaskType::kFactVerification
            ? std::vector<ProgramType>{ProgramType::kLogicalForm}
            : std::vector<ProgramType>{ProgramType::kSql,
                                       ProgramType::kArithmetic};
    config.samples_per_table = 12;
    Generator gen(config, &lib, &rng);
    for (const TableWithText& input : inputs) {
      for (Sample& s : gen.GenerateFromTable(input)) {
        out.push_back(std::move(s));
      }
    }
  }
  return out;
}

/// Folds one field into the digest; the NUL keeps fields from running
/// together.
void Fold(uint64_t* digest, std::string_view field) {
  *digest = hash::Fnv1a64(field, *digest);
  *digest = hash::Fnv1a64(std::string_view("\0", 1), *digest);
}

std::vector<ProgramTemplate> QuestionTemplates() {
  std::vector<ProgramTemplate> templates = BuiltinSqlTemplates();
  for (ProgramTemplate& t : BuiltinArithTemplates()) {
    templates.push_back(std::move(t));
  }
  return templates;
}

// The low 16 bits of each sweep sample's hash, in sample order, so a
// digest mismatch names the first sample whose readings changed. Binding
// templates directly changed one sample, #91 ("What was the 2019 of the
// row whose item is stockholders' equity?"): the three SQL readings whose
// literal holds the quote now parse, 11 -> 14 readings.
constexpr std::string_view kSweepSampleTags =
    "b7cc24f831adcc550f3769adcc2cd7dd653fcb8497a77f66e419274749ab6eae"
    "4578eeac6c0f386bbf1adc253bfc0866589800562da8795f806dcd6ca75d47d0"
    "b94ecef1e889def93e021565f0c4dbacd92c08ae26fdea765673b84d7778eb0b"
    "d2edb5710fc3c900fac28b706742dcc30e8f80c5c86834da2e24728ac0b2fb8e"
    "c34512198abe5437a84259bfc6b4d25c6789d500ef9fc5b4db6d665050c09eb6"
    "b9475f2dcec8a8f9bd5818806224eb69800e36fc692ec8677d6bbf6a6c7fceb3"
    "954a4596378f0f4d31d9afc9898a6679c6f69897a0c40069bac68834d4eebee5"
    "0e4aeb141f6fa8dd32fc5d3404ee8d789cd3407c8d6c126694966d4ff7388907"
    "e9cb41ba785adca373df84622ed1bd5df9ef7400819f51bb07b82afc2e089029";

TEST(InterpreterSweepTest, RankAllAndExtractDigestIsPinned) {
  NlInterpreter claims(BuiltinLogicTemplates());
  NlInterpreter questions(QuestionTemplates());
  FeatureExtractor extractor(FeatureConfig(), &claims);

  std::vector<Sample> samples = SweepSamples();
  ASSERT_GE(samples.size(), 100u);
  uint64_t digest = hash::kFnv64Basis;
  size_t readings = 0;
  std::string tags;
  std::vector<std::string> labels;
  for (const Sample& s : samples) {
    const NlInterpreter& interp =
        s.task == TaskType::kFactVerification ? claims : questions;
    uint64_t sample_hash = hash::kFnv64Basis;
    auto fold = [&](std::string_view field) {
      Fold(&digest, field);
      Fold(&sample_hash, field);
    };
    for (const Interpretation& r :
         interp.RankAll(s.sentence, s.evidence_table(), s.task)) {
      fold(std::to_string(r.template_index));
      fold(r.program.text);
      for (const auto& [slot, value] : r.bindings) {
        fold(slot);
        fold(value);
      }
      fold(std::to_string(std::bit_cast<uint64_t>(r.score)));
      fold(r.result.ToDisplayString());
      ++readings;
    }
    for (const Feature& f : extractor.Extract(s)) {
      fold(std::to_string(f.index));
      fold(std::to_string(std::bit_cast<uint32_t>(f.value)));
    }
    char tag[5];
    std::snprintf(tag, sizeof(tag), "%04x",
                  static_cast<unsigned>(sample_hash & 0xffff));
    tags += tag;
    labels.push_back(s.sentence);
  }
  size_t same = 0;
  while (same < labels.size() && 4 * same + 4 <= kSweepSampleTags.size() &&
         tags.compare(4 * same, 4, kSweepSampleTags.substr(4 * same, 4)) ==
             0) {
    ++same;
  }
  EXPECT_EQ(tags, kSweepSampleTags)
      << "first differing sample #" << same << ": "
      << (same < labels.size() ? labels[same] : "(past the end)");
  EXPECT_GT(readings, samples.size());
  EXPECT_EQ(digest, 0x09f7d50f66d0670eull)
      << std::hex << digest << std::dec << " over " << samples.size()
      << " samples, " << readings << " readings";
}

// ------------------------------------------------------- text-route reference
// RankAll as a text pipeline: bind every slot by rescanning the cells,
// splice the bindings into program text, execute it through the plan
// cache, re-realize it canonically and score that sentence with TokenF1.

int ReferenceOrdinal(const std::vector<std::string>& tokens) {
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

class ReferenceBinder {
 public:
  ReferenceBinder(const std::string& sentence, const Table& table)
      : sentence_(sentence), table_(table), tokens_(WordTokens(sentence)) {
    words_.insert(tokens_.begin(), tokens_.end());
  }

  /// The slot bindings, or nullopt when some slot cannot be filled.
  std::optional<std::map<std::string, std::string>> Bind(
      const ProgramTemplate& tmpl, TaskType task) const {
    std::map<std::string, std::string> bindings;
    std::map<std::string, size_t> column_of;
    std::set<size_t> used_columns;
    std::map<std::string, std::set<std::string>> used_values;
    for (const Placeholder& p : tmpl.placeholders) {
      switch (p.kind) {
        case Placeholder::Kind::kColumn: {
          double best = 0.0;
          size_t best_col = table_.num_columns();
          for (size_t c = 0; c < table_.num_columns(); ++c) {
            if (used_columns.count(c)) continue;
            if (p.has_type_constraint &&
                table_.schema().column(c).type != p.column_type) {
              continue;
            }
            double score =
                Coverage(WordTokens(table_.schema().column(c).name));
            if (score > best) {
              best = score;
              best_col = c;
            }
          }
          if (best_col == table_.num_columns()) return std::nullopt;
          used_columns.insert(best_col);
          column_of[p.id] = best_col;
          bindings[p.id] = table_.schema().column(best_col).name;
          break;
        }
        case Placeholder::Kind::kValue:
        case Placeholder::Kind::kRow: {
          bool row = p.kind == Placeholder::Kind::kRow;
          if (row && table_.num_columns() == 0) return std::nullopt;
          size_t c = row ? 0 : column_of.at(p.column_id);
          std::optional<std::string> value =
              BindCell(c, &used_values[row ? "__rows__" : p.column_id]);
          if (!value) return std::nullopt;
          bindings[p.id] = *value;
          break;
        }
        case Placeholder::Kind::kOrdinal: {
          int n = ReferenceOrdinal(tokens_);
          if (n == 0) return std::nullopt;
          bindings[p.id] = std::to_string(n);
          break;
        }
        case Placeholder::Kind::kDerive: {
          if (task != TaskType::kFactVerification) return std::nullopt;
          std::string claimed = NlInterpreter::ClaimedValue(sentence_);
          if (claimed.empty()) return std::nullopt;
          bindings[p.id] = claimed;
          break;
        }
      }
    }
    return bindings;
  }

 private:
  double Coverage(const std::vector<std::string>& tokens) const {
    if (tokens.empty()) return 0.0;
    size_t hits = 0;
    for (const std::string& t : tokens) hits += words_.count(t);
    return static_cast<double>(hits) / static_cast<double>(tokens.size());
  }

  /// The best-covered unused display text of column `c`; the first row
  /// wins ties, and nothing binds below half coverage.
  std::optional<std::string> BindCell(size_t c,
                                      std::set<std::string>* used) const {
    double best = 0.0;
    std::string best_value;
    for (size_t r = 0; r < table_.num_rows(); ++r) {
      Value v = table_.cell(r, c);
      if (v.is_null()) continue;
      std::string display = v.ToDisplayString();
      double score = Coverage(WordTokens(display));
      if (score <= best || used->count(display)) continue;
      best = score;
      best_value = display;
    }
    if (best < 0.5) return std::nullopt;
    used->insert(best_value);
    return best_value;
  }

  const std::string& sentence_;
  const Table& table_;
  std::vector<std::string> tokens_;
  std::set<std::string> words_;
};

std::vector<Interpretation> TextRouteRankAll(
    const std::vector<ProgramTemplate>& templates,
    const std::string& sentence, const Table& table, TaskType task) {
  static const nlgen::NlGenerator canonical = [] {
    nlgen::NlGeneratorConfig config;
    config.stochastic = false;
    return nlgen::NlGenerator(config);
  }();
  ReferenceBinder binder(sentence, table);
  std::vector<Interpretation> out;
  for (size_t i = 0; i < templates.size(); ++i) {
    const ProgramTemplate& tmpl = templates[i];
    bool is_claim_template = tmpl.type == ProgramType::kLogicalForm;
    if (is_claim_template != (task == TaskType::kFactVerification)) continue;
    auto bindings = binder.Bind(tmpl, task);
    if (!bindings) continue;
    auto filled = tmpl.Fill(*bindings);
    if (!filled.ok()) continue;
    Interpretation interp;
    interp.program.type = tmpl.type;
    interp.program.text = std::move(filled).ValueOrDie();
    interp.bindings = std::move(*bindings);
    interp.template_index = i;
    auto executed = interp.program.Execute(table);
    if (!executed.ok()) continue;
    interp.result = std::move(executed).ValueOrDie();
    auto realized = canonical.GenerateCanonical(interp.program);
    if (!realized.ok()) continue;
    interp.score = TokenF1(realized.ValueOrDie(), sentence);
    out.push_back(std::move(interp));
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Interpretation& a, const Interpretation& b) {
                     return a.score > b.score;
                   });
  return out;
}

/// Every field of a reading, as a comparable string: template, text,
/// bindings, score bits, result values and evidence rows.
std::string ReadingKey(const Interpretation& r) {
  std::string key = std::to_string(r.template_index);
  auto field = [&key](std::string_view text) {
    key.push_back('|');
    key.append(text);
  };
  field(r.program.text);
  for (const auto& [slot, value] : r.bindings) {
    field(slot);
    field(value);
  }
  field(std::to_string(std::bit_cast<uint64_t>(r.score)));
  for (const Value& v : r.result.values) {
    field(ValueTypeToString(v.type()));
    field(std::to_string(std::bit_cast<uint64_t>(v.number())));
    field(v.text());
  }
  for (size_t row : r.result.evidence_rows) field(std::to_string(row));
  return key;
}

bool BindsProgramSyntax(const Interpretation& r) {
  for (const auto& [slot, value] : r.bindings) {
    if (uctr::testing::HasProgramSyntax(r.program.type, value)) return true;
  }
  return false;
}

/// Compares RankAll with the text route on one sentence, over the readings
/// whose bindings hold no program syntax (where splicing text changed the
/// program, the two routes differ on purpose). Returns the number of
/// readings compared; `spliced` counts the readings left out.
size_t ExpectMatchesTextRoute(const NlInterpreter& interp,
                              const std::string& sentence, const Table& table,
                              TaskType task, const std::string& label,
                              size_t* spliced = nullptr) {
  std::vector<std::string> got;
  for (const Interpretation& r : interp.RankAll(sentence, table, task)) {
    if (BindsProgramSyntax(r)) {
      if (spliced != nullptr) ++*spliced;
      continue;
    }
    got.push_back(ReadingKey(r));
  }
  std::vector<std::string> want;
  for (const Interpretation& r :
       TextRouteRankAll(interp.templates(), sentence, table, task)) {
    if (!BindsProgramSyntax(r)) want.push_back(ReadingKey(r));
  }
  EXPECT_EQ(got, want) << label << ": " << sentence;
  return want.size();
}

/// A table shaped like perfbench's ref-1k tables: an entity column whose
/// names repeat a small pool with syllable suffixes, three numeric columns
/// (one in dollars) and a category.
Table RefShapedTable(Rng* rng, size_t rows) {
  static const char* kNames[] = {"amber", "birch", "cedar", "delta",
                                 "ember", "fjord", "grove", "harbor"};
  static const char* kSyllables[] = {"ka", "lo", "mi", "nu", "pe",
                                     "ri", "so", "tu", "va", "ze"};
  static const char* kRegions[] = {"north", "south", "east", "west"};
  std::vector<std::vector<std::string>> body;
  for (size_t i = 0; i < rows; ++i) {
    std::string name = kNames[i % std::size(kNames)];
    size_t k = i / std::size(kNames);
    if (k > 0) name += " ";
    for (; k > 0; k /= 10) name += kSyllables[k % 10];
    char money[32];
    std::snprintf(money, sizeof(money), "$%.1f",
                  rng->UniformDouble(10, 5000));
    body.push_back({name, std::to_string(rng->UniformInt(1, 900)), money,
                    std::to_string(rng->UniformInt(1800, 2020)),
                    kRegions[rng->Index(std::size(kRegions))]});
  }
  return Table::FromStrings({"station", "riders", "revenue", "opened",
                             "region"},
                            body, "stations")
      .ValueOrDie();
}

TEST(InterpreterReferenceTest, SweepSamplesMatchTheTextRoute) {
  NlInterpreter claims(BuiltinLogicTemplates());
  NlInterpreter questions(QuestionTemplates());
  size_t readings = 0;
  for (const Sample& s : SweepSamples()) {
    const NlInterpreter& interp =
        s.task == TaskType::kFactVerification ? claims : questions;
    readings += ExpectMatchesTextRoute(interp, s.sentence, s.evidence_table(),
                                       s.task, "sweep");
  }
  EXPECT_GT(readings, 1000u);
}

TEST(InterpreterReferenceTest, SampledSentencesOverGoldenTablesMatch) {
  NlInterpreter claims(BuiltinLogicTemplates());
  NlInterpreter questions(QuestionTemplates());
  static const TemplateLibrary library = TemplateLibrary::Builtin();
  const nlgen::NlGenerator generator;
  Rng table_rng(17);
  const auto tables = uctr::testing::GoldenTables(&table_rng);
  size_t sentences = 0;
  size_t readings = 0;
  for (size_t i = 0; i < tables.size(); ++i) {
    const auto& [name, table] = tables[i];
    for (size_t t = 0; t < library.forms().size(); ++t) {
      Rng rng((23ull << 32) | (i << 16) | t);
      ProgramSampler sampler(&rng);
      const TemplateForm& form = library.forms()[t];
      const ProgramTemplate& tmpl = form.tmpl();
      Result<SampledProgram> sampled =
          tmpl.HasDerive() ? sampler.SampleClaim(form, table, t % 2 == 0)
                           : sampler.Sample(form, table);
      if (!sampled.ok()) continue;
      std::vector<std::string_view> texts(sampled->texts.begin(),
                                          sampled->texts.end());
      auto sentence = generator.Realize(form.Bind(texts), &rng);
      if (!sentence.ok()) continue;
      bool claim = tmpl.type == ProgramType::kLogicalForm;
      ++sentences;
      readings += ExpectMatchesTextRoute(
          claim ? claims : questions, *sentence, table,
          claim ? TaskType::kFactVerification : TaskType::kQuestionAnswering,
          name + " template " + std::to_string(t));
    }
  }
  EXPECT_GT(sentences, 500u);
  EXPECT_GT(readings, 2000u);
}

TEST(InterpreterReferenceTest, ThousandRowTableMatchesTheTextRoute) {
  Rng rng(29);
  std::vector<TableWithText> inputs(1);
  inputs[0].table = RefShapedTable(&rng, 1000);
  NlInterpreter claims(BuiltinLogicTemplates());
  NlInterpreter questions(QuestionTemplates());
  TemplateLibrary lib = TemplateLibrary::Builtin();
  size_t readings = 0;
  for (TaskType task :
       {TaskType::kFactVerification, TaskType::kQuestionAnswering}) {
    GenerationConfig config;
    config.task = task;
    config.program_types =
        task == TaskType::kFactVerification
            ? std::vector<ProgramType>{ProgramType::kLogicalForm}
            : std::vector<ProgramType>{ProgramType::kSql,
                                       ProgramType::kArithmetic};
    config.samples_per_table = 24;
    Generator gen(config, &lib, &rng);
    for (const Sample& s : gen.GenerateFromTable(inputs[0])) {
      readings += ExpectMatchesTextRoute(
          task == TaskType::kFactVerification ? claims : questions,
          s.sentence, s.evidence_table(), s.task, "1000 rows");
    }
  }
  EXPECT_GT(readings, 100u);
}

// ------------------------------------------------------------ direct route

// RankAll scores a candidate from its template's canonical sentence,
// realized once with the slots left open; that is exact only if every
// slot sits between token boundaries. Every built-in template qualifies.
TEST(InterpreterDirectTest, EveryBuiltinTemplateRealizesWithOpenSlots) {
  nlgen::NlGeneratorConfig config;
  config.stochastic = false;
  const nlgen::NlGenerator canonical(config);
  const TemplateLibrary library = TemplateLibrary::Builtin();
  for (const TemplateForm& form : library.forms()) {
    Result<nlgen::OpenSentence> open = canonical.RealizeOpen(form);
    ASSERT_TRUE(open.ok()) << form.tmpl().pattern << ": "
                           << open.status().ToString();
    EXPECT_FALSE(open->fixed_tokens.empty()) << form.tmpl().pattern;
  }
}

// A {derive} claim's true value comes from its sibling subtree's own plan,
// cached apart from the template's plan for the same column positions:
// sampling claims and then reading them back through the one cache the
// sampler uses never serves either plan for the other.
TEST(InterpreterDirectTest, DeriveSiblingNeverSharesATemplatePlan) {
  std::vector<ProgramTemplate> templates;
  for (ProgramTemplate& tmpl : BuiltinLogicTemplates()) {
    if (tmpl.HasDerive()) templates.push_back(std::move(tmpl));
  }
  NlInterpreter claims(templates);
  std::vector<TemplateForm> forms;
  for (const ProgramTemplate& tmpl : templates) {
    forms.push_back(TemplateForm::Make(tmpl).ValueOrDie());
  }
  nlgen::NlGeneratorConfig config;
  config.stochastic = false;
  const nlgen::NlGenerator canonical(config);
  ExecOptions shared;
  shared.plan_cache = &ir::PlanCache::Default();  // the sampler's cache
  Rng rng(41);
  ProgramSampler sampler(&rng);
  size_t readings = 0;
  for (const Table& table :
       {MakeNationsTable(), uctr::testing::RandomTable(&rng, 9, 3)}) {
    for (const TemplateForm& form : forms) {
      for (bool target : {true, false}) {
        Result<SampledProgram> s = sampler.SampleClaim(form, table, target);
        if (!s.ok()) continue;
        std::vector<std::string_view> texts(s->texts.begin(),
                                            s->texts.end());
        Result<ExecResult> walked = form.Walk(table, texts);
        ASSERT_TRUE(walked.ok()) << s->program.text;
        EXPECT_EQ(s->result.ToDisplayString(), walked->ToDisplayString())
            << s->program.text;
        auto sentence = canonical.Realize(form.Bind(texts), nullptr);
        ASSERT_TRUE(sentence.ok()) << s->program.text;
        for (const Interpretation& r :
             claims.RankAll(*sentence, table, TaskType::kFactVerification,
                            shared)) {
          const TemplateForm& read = forms[r.template_index];
          std::vector<std::string_view> bound;
          for (const Placeholder& p : read.tmpl().placeholders) {
            bound.push_back(r.bindings.at(p.id));
          }
          Result<ExecResult> want = read.Walk(table, bound);
          ASSERT_TRUE(want.ok()) << r.program.text;
          EXPECT_EQ(r.result.ToDisplayString(), want->ToDisplayString())
              << r.program.text << " read from: " << *sentence;
          EXPECT_EQ(r.result.evidence_rows, want->evidence_rows)
              << r.program.text;
          ++readings;
        }
      }
    }
  }
  EXPECT_GT(readings, 50u);
}

// Template plans are keyed by template and column positions, so a second
// claim with other literals over the same table compiles nothing.
TEST(InterpreterDirectTest, OtherLiteralsReuseTemplatePlans) {
  NlInterpreter claims(BuiltinLogicTemplates());
  obs::MetricsRegistry metrics;
  ir::PlanCache cache(1024, 8, &metrics);
  ExecOptions exec;
  exec.plan_cache = &cache;
  Table t = MakeNationsTable();
  auto first = claims.RankAll("The gold of the row whose nation is china is 8.",
                              t, TaskType::kFactVerification, exec);
  const uint64_t compiles = metrics.counter("plan_compiles_total")->value();
  EXPECT_GT(compiles, 0u);
  auto second = claims.RankAll(
      "The gold of the row whose nation is japan is 5.", t,
      TaskType::kFactVerification, exec);
  ASSERT_EQ(second.size(), first.size());
  EXPECT_EQ(metrics.counter("plan_compiles_total")->value(), compiles);
  EXPECT_EQ(second[0].bindings.at("v1"), "japan");
}

// The arithmetic realizer compares row names up to case, so two rows
// named alike up to case phrase a change between them differently; the
// candidate's sentence then comes from the skeleton with their slots
// merged, and still scores as the text route does.
TEST(InterpreterDirectTest, CaseEqualRowsScoreAsTheTextRoute) {
  Table t = Table::FromCsv(
                "item,2019,2018\nRevenue,10,8\nrevenue,7,6\ncost,3,2\n",
                "finance")
                .ValueOrDie();
  NlInterpreter questions = SingleTemplate(
      "subtract({c1:num} of {r1}, {c1:num} of {r2})", "arithmetic",
      ProgramType::kArithmetic);
  const std::string question =
      "What is the difference in the revenue from 2019 to 2019?";
  size_t readings = ExpectMatchesTextRoute(
      questions, question, t, TaskType::kQuestionAnswering, "case-equal");
  EXPECT_EQ(readings, 1u);
  auto ranked = questions.RankAll(question, t, TaskType::kQuestionAnswering);
  ASSERT_EQ(ranked.size(), 1u);
  EXPECT_EQ(ranked[0].bindings.at("r1"), "Revenue");
  EXPECT_EQ(ranked[0].bindings.at("r2"), "revenue");
}

// One interpreter and one plan cache shared by threads: every thread
// reads the same readings a lone call does.
TEST(InterpreterDirectTest, ConcurrentRankAllSharesPlans) {
  NlInterpreter claims(BuiltinLogicTemplates());
  NlInterpreter questions(QuestionTemplates());
  ir::PlanCache cache(64, 4);
  ExecOptions exec;
  exec.plan_cache = &cache;
  std::vector<Sample> samples = SweepSamples();
  auto readings = [&](const Sample& s) {
    const NlInterpreter& interp =
        s.task == TaskType::kFactVerification ? claims : questions;
    std::vector<std::string> out;
    for (const Interpretation& r :
         interp.RankAll(s.sentence, s.evidence_table(), s.task, exec)) {
      out.push_back(ReadingKey(r));
    }
    return out;
  };
  std::vector<std::vector<std::string>> want;
  for (const Sample& s : samples) want.push_back(readings(s));
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t k = 0; k < 4; ++k) {
    threads.emplace_back([&, k] {
      for (size_t round = 0; round < 3; ++round) {
        for (size_t i = k; i < samples.size(); i += 2) {
          if (readings(samples[i]) != want[i]) ++mismatches;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

// ------------------------------------------------------------ splice probes
// Cell and claim text that holds program syntax, over the medal table: a
// binding is a value, so it reads as the same text without the syntax.

Table MedalsWith(const std::string& name) {
  Table t = MakeNationsTable();
  return Table::FromCsv(ReplaceAll(t.ToCsv(), "china", name), "medals")
      .ValueOrDie();
}

TEST(InterpreterProbeTest, QuoteInRowName) {
  NlInterpreter questions(QuestionTemplates());
  auto plain = questions.RankAll(
      "What is the gold of the row whose nation is obrien?",
      MedalsWith("obrien"), TaskType::kQuestionAnswering);
  auto quoted = questions.RankAll(
      "What is the gold of the row whose nation is o'brien?",
      MedalsWith("o'brien"), TaskType::kQuestionAnswering);
  ASSERT_EQ(plain.size(), 14u);
  ASSERT_EQ(quoted.size(), 14u);
  // The same readings with the same results; "o'brien" is two sentence
  // tokens, so their scores and order differ.
  auto readings = [](const std::vector<Interpretation>& ranked) {
    std::set<std::pair<size_t, std::string>> out;
    for (const Interpretation& r : ranked) {
      out.emplace(r.template_index, r.result.ToDisplayString());
    }
    return out;
  };
  EXPECT_EQ(readings(quoted), readings(plain));
  EXPECT_EQ(quoted[0].template_index, plain[0].template_index);
  EXPECT_EQ(quoted[0].program.text,
            "SELECT SUM([gold]) FROM w WHERE [nation] = 'o'brien'");
  EXPECT_EQ(quoted[0].result.ToDisplayString(), "8");
}

TEST(InterpreterProbeTest, BracesInRowName) {
  NlInterpreter claims(BuiltinLogicTemplates());
  auto ranked = claims.RankAll(
      "The gold of the row whose nation is x } ; y is 8.",
      MedalsWith("x } ; y"), TaskType::kFactVerification);
  ASSERT_FALSE(ranked.empty());
  EXPECT_EQ(ranked[0].template_index, 0u);  // the filter_eq lookup
  EXPECT_EQ(ranked[0].bindings.at("v1"), "x } ; y");
  EXPECT_TRUE(ranked[0].result.scalar().boolean());
}

TEST(InterpreterProbeTest, BraceInClaimTail) {
  NlInterpreter claims(BuiltinLogicTemplates());
  auto plain = claims.RankAll("The gold of the row whose nation is china is 8.",
                              MakeNationsTable(), TaskType::kFactVerification);
  auto braced =
      claims.RankAll("The gold of the row whose nation is china is 8 }.",
                     MakeNationsTable(), TaskType::kFactVerification);
  EXPECT_EQ(plain.size(), 19u);
  // The claimed value "8 }" is one literal, not the end of the form.
  ASSERT_EQ(braced.size(), 19u);
  EXPECT_EQ(braced[0].bindings.at("derive"), "8 }");
}

}  // namespace
}  // namespace uctr::model
