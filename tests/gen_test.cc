#include <gtest/gtest.h>

#include <set>
#include <string_view>
#include <vector>

#include "common/string_util.h"
#include "gen/generator.h"
#include "gen/sample.h"
#include "ir/plan_cache.h"
#include "nlgen/nl_generator.h"
#include "program/library.h"
#include "program/sampler.h"
#include "tests/test_util.h"

namespace uctr {
namespace {

using testing::MakeFinanceTable;
using testing::MakeNationsTable;

TableWithText NationsInput() {
  TableWithText input;
  input.table = MakeNationsTable();
  input.paragraph = {
      "For the nation italy, the gold was 3, the silver was 4, the bronze "
      "was 5 and the total was 12.",
      "The games were held in the summer.",
  };
  return input;
}

TEST(GeneratorTest, QaSamplesHaveConsistentAnswers) {
  Rng rng(42);
  TemplateLibrary lib = TemplateLibrary::Builtin();
  GenerationConfig config;
  config.task = TaskType::kQuestionAnswering;
  config.program_types = {ProgramType::kSql};
  config.samples_per_table = 12;
  config.use_table_to_text = false;
  config.use_text_to_table = false;
  Generator gen(config, &lib, &rng);

  TableWithText input;
  input.table = MakeNationsTable();
  auto samples = gen.GenerateFromTable(input);
  ASSERT_GE(samples.size(), 8u);
  for (const Sample& s : samples) {
    EXPECT_EQ(s.task, TaskType::kQuestionAnswering);
    EXPECT_FALSE(s.sentence.empty());
    EXPECT_FALSE(s.answer.empty());
    EXPECT_EQ(s.source, EvidenceSource::kTableOnly);
    // The recorded answer re-derives from the program on the sample table.
    auto r = s.program.Execute(s.table);
    ASSERT_TRUE(r.ok()) << s.program.text;
    EXPECT_EQ(r->ToDisplayString(), s.answer);
  }
}

TEST(GeneratorTest, FactVerificationLabelsAreBalancedAndCorrect) {
  Rng rng(7);
  TemplateLibrary lib = TemplateLibrary::Builtin();
  GenerationConfig config;
  config.task = TaskType::kFactVerification;
  config.program_types = {ProgramType::kLogicalForm};
  config.samples_per_table = 40;
  config.use_table_to_text = false;
  config.use_text_to_table = false;
  Generator gen(config, &lib, &rng);

  TableWithText input;
  input.table = MakeNationsTable();
  auto samples = gen.GenerateFromTable(input);
  ASSERT_GE(samples.size(), 25u);
  size_t supported = 0;
  for (const Sample& s : samples) {
    // Label must equal the program's execution on the evidence table.
    auto r = s.program.Execute(s.table);
    ASSERT_TRUE(r.ok()) << s.program.text;
    Label expected =
        r->scalar().boolean() ? Label::kSupported : Label::kRefuted;
    EXPECT_EQ(s.label, expected) << s.sentence;
    if (s.label == Label::kSupported) ++supported;
  }
  // Both labels occur in reasonable proportion.
  EXPECT_GT(supported, samples.size() / 5);
  EXPECT_LT(supported, samples.size() * 4 / 5);
}

TEST(GeneratorTest, TableSplittingMovesEvidenceIntoText) {
  Rng rng(11);
  TemplateLibrary lib = TemplateLibrary::Builtin();
  GenerationConfig config;
  config.task = TaskType::kQuestionAnswering;
  config.program_types = {ProgramType::kSql};
  config.samples_per_table = 30;
  config.use_table_to_text = true;
  config.use_text_to_table = false;
  config.hybrid_fraction = 1.0;
  Generator gen(config, &lib, &rng);

  TableWithText input;
  input.table = MakeNationsTable();
  auto samples = gen.GenerateFromTable(input);
  size_t split = 0;
  for (const Sample& s : samples) {
    // A split sample lands in kTableSplit, or kTextOnly when its entire
    // evidence moved into the generated sentence.
    if (s.source != EvidenceSource::kTableSplit &&
        s.source != EvidenceSource::kTextOnly) {
      continue;
    }
    ++split;
    // The sub-table lost a row and the paragraph describes it.
    EXPECT_EQ(s.table.num_rows(), input.table.num_rows() - 1);
    ASSERT_EQ(s.paragraph.size(), 1u);
    EXPECT_FALSE(s.paragraph[0].empty());
    // The question is generally NOT answerable from the sub-table alone
    // with the same result; the program was executed on the full table.
    auto full = s.program.Execute(input.table);
    ASSERT_TRUE(full.ok());
    EXPECT_EQ(full->ToDisplayString(), s.answer);
  }
  EXPECT_GT(split, 5u);
}

TEST(GeneratorTest, TableExpansionUsesTextEvidence) {
  Rng rng(13);
  TemplateLibrary lib = TemplateLibrary::Builtin();
  GenerationConfig config;
  config.task = TaskType::kQuestionAnswering;
  config.program_types = {ProgramType::kSql};
  config.samples_per_table = 40;
  config.max_attempts = 30;
  config.use_table_to_text = false;
  config.use_text_to_table = true;
  config.hybrid_fraction = 1.0;
  Generator gen(config, &lib, &rng);

  auto samples = gen.GenerateFromTable(NationsInput());
  size_t expanded = 0;
  for (const Sample& s : samples) {
    if (s.source != EvidenceSource::kTableExpand) continue;
    ++expanded;
    // Evidence is the ORIGINAL table + paragraph; the program needs the
    // row that only exists in the expanded table.
    EXPECT_EQ(s.table.num_rows(), 5u);
    EXPECT_EQ(s.paragraph.size(), 2u);
  }
  EXPECT_GT(expanded, 3u);
}

TEST(GeneratorTest, UnknownSamplesComeFromEvidenceSwap) {
  Rng rng(17);
  TemplateLibrary lib = TemplateLibrary::Builtin();
  GenerationConfig config;
  config.task = TaskType::kFactVerification;
  config.program_types = {ProgramType::kLogicalForm};
  config.samples_per_table = 10;
  config.unknown_fraction = 0.3;
  config.use_table_to_text = false;
  config.use_text_to_table = false;
  Generator gen(config, &lib, &rng);

  TableWithText a;
  a.table = Table::FromCsv(MakeNationsTable().ToCsv(), "nations").ValueOrDie();
  TableWithText b;
  b.table = Table::FromCsv(MakeFinanceTable().ToCsv(), "finance").ValueOrDie();
  Dataset dataset = gen.GenerateDataset({a, b});
  EXPECT_GT(dataset.CountLabel(Label::kUnknown), 0u);
  EXPECT_GT(dataset.CountLabel(Label::kSupported), 0u);
  EXPECT_GT(dataset.CountLabel(Label::kRefuted), 0u);
}

TEST(GeneratorTest, SentencesAreUniquePerTable) {
  Rng rng(19);
  TemplateLibrary lib = TemplateLibrary::Builtin();
  GenerationConfig config;
  config.task = TaskType::kQuestionAnswering;
  config.program_types = {ProgramType::kSql, ProgramType::kArithmetic};
  config.samples_per_table = 20;
  Generator gen(config, &lib, &rng);

  TableWithText input;
  input.table = MakeFinanceTable();
  auto samples = gen.GenerateFromTable(input);
  std::set<std::string> sentences;
  for (const Sample& s : samples) sentences.insert(s.sentence);
  EXPECT_EQ(sentences.size(), samples.size());
}

TEST(GeneratorTest, ReasoningTypeDiversity) {
  Rng rng(23);
  TemplateLibrary lib = TemplateLibrary::Builtin();
  GenerationConfig config;
  config.task = TaskType::kFactVerification;
  config.program_types = {ProgramType::kLogicalForm};
  config.samples_per_table = 60;
  config.max_attempts = 20;
  Generator gen(config, &lib, &rng);

  TableWithText input;
  input.table = MakeNationsTable();
  auto samples = gen.GenerateFromTable(input);
  std::set<std::string> kinds;
  for (const Sample& s : samples) kinds.insert(s.reasoning_type);
  // Complex generation spans many reasoning types (the paper's key claim
  // vs. MQA-QG's single-row questions).
  EXPECT_GE(kinds.size(), 5u);
}

TEST(DatasetTest, SummaryCountsAreConsistent) {
  Rng rng(29);
  TemplateLibrary lib = TemplateLibrary::Builtin();
  GenerationConfig config;
  config.task = TaskType::kFactVerification;
  config.program_types = {ProgramType::kLogicalForm};
  config.samples_per_table = 10;
  Generator gen(config, &lib, &rng);

  TableWithText input;
  input.table = MakeNationsTable();
  Dataset d = gen.GenerateDataset({input});
  EXPECT_EQ(d.CountLabel(Label::kSupported) + d.CountLabel(Label::kRefuted) +
                d.CountLabel(Label::kUnknown),
            d.size());
}

TEST(GeneratorTest, MismatchedTaskAndProgramTypeYieldsNothing) {
  Rng rng(31);
  TemplateLibrary lib = TemplateLibrary::Builtin();
  GenerationConfig config;
  config.task = TaskType::kFactVerification;
  config.program_types = {ProgramType::kSql};  // wrong family
  config.samples_per_table = 5;
  Generator gen(config, &lib, &rng);
  TableWithText input;
  input.table = MakeNationsTable();
  EXPECT_TRUE(gen.GenerateFromTable(input).empty());
}

// ------------------------------------------------------ program syntax

// Headers and cells that hold each family's program syntax: a SQL quote
// and brackets, logic braces and semicolons, arithmetic parentheses and
// commas.
Table SyntaxTable() {
  return Table::FromStrings(
             {"name", "o'brien", "[x]", "x } ; y", "a (b), c"},
             {{"o'brien", "3", "7", "a (b), c", "1"},
              {"[x]", "5", "2", "x } ; y", "4"},
              {"x } ; y", "8", "9", "[x]", "6"},
              {"a (b), c", "1", "4", "o'brien", "2"}},
             "syntax")
      .ValueOrDie();
}

// Every built-in template samples on the syntax table as the headers and
// cells it binds: its result is the walker's over the tree with those
// texts in it, and its canonical sentence prints each of them.
TEST(SamplerSyntaxTest, ValuesWithProgramSyntaxSampleAsThemselves) {
  const Table table = SyntaxTable();
  const TemplateLibrary library = TemplateLibrary::Builtin();
  nlgen::NlGeneratorConfig canonical_config;
  canonical_config.stochastic = false;
  const nlgen::NlGenerator canonical(canonical_config);
  std::set<ProgramType> with_syntax;
  size_t sampled = 0;
  for (const TemplateForm& form : library.forms()) {
    const ProgramTemplate& tmpl = form.tmpl();
    auto open = canonical.RealizeOpen(form);
    ASSERT_TRUE(open.ok()) << tmpl.pattern;
    for (int trial = 0; trial < 12; ++trial) {
      Rng rng(1000 * trial + sampled);
      ProgramSampler sampler(&rng);
      Result<SampledProgram> s =
          tmpl.type == ProgramType::kLogicalForm
              ? sampler.SampleClaim(form, table, trial % 2 == 0)
              : sampler.Sample(form, table);
      if (!s.ok()) continue;
      ++sampled;
      std::vector<std::string_view> texts(s->texts.begin(), s->texts.end());
      for (std::string_view text : texts) {
        if (uctr::testing::HasProgramSyntax(tmpl.type, text)) {
          with_syntax.insert(tmpl.type);
        }
      }
      Result<ExecResult> walked = form.Walk(table, texts);
      ASSERT_TRUE(walked.ok()) << s->program.text;
      EXPECT_EQ(s->result.ToDisplayString(), walked->ToDisplayString())
          << s->program.text;
      EXPECT_EQ(s->result.evidence_rows, walked->evidence_rows)
          << s->program.text;
      auto sentence = canonical.Realize(form.Bind(texts), nullptr);
      ASSERT_TRUE(sentence.ok()) << s->program.text;
      for (size_t p : open->slots) {
        std::string printed = nlgen::PrintSlot(form.print(p), texts[p]);
        EXPECT_TRUE(ContainsIgnoreCase(*sentence, printed))
            << "'" << printed << "' missing from: " << *sentence;
      }
    }
  }
  EXPECT_GT(sampled, 200u);
  EXPECT_EQ(with_syntax.size(), 3u);  // every family bound syntax
}

}  // namespace
}  // namespace uctr
