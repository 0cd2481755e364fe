// Focused unit tests of NlInterpreter slot binding: type constraints,
// distinct-column assignment, value coverage thresholds, ordinals, and
// ranking behaviour, plus a seeded sweep that pins every ranked reading and
// feature vector over generated samples.

#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "datasets/corpus.h"
#include "gen/generator.h"
#include "model/features.h"
#include "model/interpreter.h"
#include "program/library.h"
#include "program/template.h"
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

TEST(InterpreterSweepTest, RankAllAndExtractDigestIsPinned) {
  NlInterpreter claims(BuiltinLogicTemplates());
  std::vector<ProgramTemplate> question_templates = BuiltinSqlTemplates();
  for (ProgramTemplate& t : BuiltinArithTemplates()) {
    question_templates.push_back(std::move(t));
  }
  NlInterpreter questions(std::move(question_templates));
  FeatureExtractor extractor(FeatureConfig(), &claims);

  std::vector<Sample> samples = SweepSamples();
  ASSERT_GE(samples.size(), 100u);
  uint64_t digest = hash::kFnv64Basis;
  size_t readings = 0;
  for (const Sample& s : samples) {
    const NlInterpreter& interp =
        s.task == TaskType::kFactVerification ? claims : questions;
    for (const Interpretation& r :
         interp.RankAll(s.sentence, s.evidence_table(), s.task)) {
      Fold(&digest, std::to_string(r.template_index));
      Fold(&digest, r.program.text);
      for (const auto& [slot, value] : r.bindings) {
        Fold(&digest, slot);
        Fold(&digest, value);
      }
      Fold(&digest, std::to_string(std::bit_cast<uint64_t>(r.score)));
      Fold(&digest, r.result.ToDisplayString());
      ++readings;
    }
    for (const Feature& f : extractor.Extract(s)) {
      Fold(&digest, std::to_string(f.index));
      Fold(&digest, std::to_string(std::bit_cast<uint32_t>(f.value)));
    }
  }
  EXPECT_GT(readings, samples.size());
  EXPECT_EQ(digest, 0xc20dcfe9a09d61b1ull)
      << std::hex << digest << std::dec << " over " << samples.size()
      << " samples, " << readings << " readings";
}

}  // namespace
}  // namespace uctr::model
