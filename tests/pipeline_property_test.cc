// Property-based tests of the full generation pipeline: invariants every
// synthetic sample must satisfy, over random corpora and seeds.

#include <gtest/gtest.h>

#include <set>

#include "common/string_util.h"

#include "datasets/corpus.h"
#include "gen/generator.h"
#include "gen/serialize.h"
#include "hybrid/text_to_table.h"
#include "model/interpreter.h"
#include "nlgen/nl_generator.h"
#include "program/library.h"
#include "tests/test_util.h"

namespace uctr {
namespace {

class PipelinePropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  Rng rng_{GetParam()};

  std::vector<TableWithText> RandomCorpus(size_t n) {
    datasets::CorpusConfig config;
    config.domain = static_cast<datasets::Domain>(GetParam() % 3);
    config.num_tables = n;
    datasets::CorpusGenerator corpus(config, &rng_);
    return corpus.Generate();
  }
};

TEST_P(PipelinePropertyTest, EverySampleSatisfiesCoreInvariants) {
  auto corpus = RandomCorpus(3);
  TemplateLibrary lib = TemplateLibrary::Builtin();
  GenerationConfig config;
  config.task = TaskType::kFactVerification;
  config.program_types = {ProgramType::kLogicalForm};
  config.samples_per_table = 12;
  Generator gen(config, &lib, &rng_);
  Dataset data = gen.GenerateDataset(corpus);

  std::set<std::string> sentences;
  for (const Sample& s : data.samples) {
    // Non-empty essentials.
    EXPECT_FALSE(s.sentence.empty());
    EXPECT_FALSE(s.program.text.empty());
    EXPECT_GT(s.table.num_rows(), 0u);
    // Program provenance is syntactically valid.
    EXPECT_TRUE(ParseProgram(s.program).ok()) << s.program.text;
    // Labels are execution-consistent for samples whose evidence table is
    // the one the program ran on (table-only pipeline).
    if (s.source == EvidenceSource::kTableOnly) {
      auto r = s.program.Execute(s.table);
      ASSERT_TRUE(r.ok()) << s.program.text;
      EXPECT_EQ(s.label, r->scalar().boolean() ? Label::kSupported
                                               : Label::kRefuted);
    }
    // Evidence rows index into some table of at most corpus size.
    for (size_t row : s.evidence_rows) {
      EXPECT_LT(row, s.table.num_rows() + 2);  // +1 split row, +1 expand
    }
  }
}

TEST_P(PipelinePropertyTest, SplitSamplesRecoverableViaExpansion) {
  auto corpus = RandomCorpus(2);
  TemplateLibrary lib = TemplateLibrary::Builtin();
  GenerationConfig config;
  config.task = TaskType::kQuestionAnswering;
  config.program_types = {ProgramType::kSql};
  config.samples_per_table = 16;
  config.hybrid_fraction = 1.0;
  config.use_text_to_table = false;  // splitting only
  Generator gen(config, &lib, &rng_);
  Dataset data = gen.GenerateDataset(corpus);

  hybrid::TextToTable expand;
  size_t split_samples = 0, recovered = 0;
  for (const Sample& s : data.samples) {
    if (s.source != EvidenceSource::kTableSplit &&
        s.source != EvidenceSource::kTextOnly) {
      continue;
    }
    ++split_samples;
    ASSERT_EQ(s.paragraph.size(), 1u);
    // Folding the sentence back into the table must let the program
    // reproduce the recorded answer.
    auto merged = expand.Apply(s.table, s.paragraph);
    if (!merged.ok()) continue;
    auto r = s.program.Execute(merged.ValueOrDie());
    if (r.ok() && r->ToDisplayString() == s.answer) ++recovered;
  }
  if (split_samples > 0) {
    // The round trip works for the large majority (the describe sentence
    // may drop null cells, losing a value the program needs).
    EXPECT_GE(recovered * 10, split_samples * 7)
        << recovered << "/" << split_samples;
  }
}

TEST_P(PipelinePropertyTest, ExpandSamplesNeedTheText) {
  auto corpus = RandomCorpus(2);
  TemplateLibrary lib = TemplateLibrary::Builtin();
  GenerationConfig config;
  config.task = TaskType::kQuestionAnswering;
  config.program_types = {ProgramType::kSql};
  config.samples_per_table = 16;
  config.hybrid_fraction = 1.0;
  config.use_table_to_text = false;  // expansion only
  Generator gen(config, &lib, &rng_);
  Dataset data = gen.GenerateDataset(corpus);

  hybrid::TextToTable expand;
  for (const Sample& s : data.samples) {
    if (s.source != EvidenceSource::kTableExpand) continue;
    // The answer is reproducible on the expanded table.
    auto merged = expand.Apply(s.table, s.paragraph);
    ASSERT_TRUE(merged.ok());
    auto r = s.program.Execute(merged.ValueOrDie());
    ASSERT_TRUE(r.ok()) << s.program.text;
    EXPECT_EQ(r->ToDisplayString(), s.answer);
  }
}

TEST_P(PipelinePropertyTest, SerializationRoundTripsWholeDatasets) {
  auto corpus = RandomCorpus(2);
  TemplateLibrary lib = TemplateLibrary::Builtin();
  GenerationConfig config;
  config.task = GetParam() % 2 == 0 ? TaskType::kFactVerification
                                    : TaskType::kQuestionAnswering;
  config.program_types =
      config.task == TaskType::kFactVerification
          ? std::vector<ProgramType>{ProgramType::kLogicalForm}
          : std::vector<ProgramType>{ProgramType::kSql,
                                     ProgramType::kArithmetic};
  config.samples_per_table = 8;
  Generator gen(config, &lib, &rng_);
  Dataset original = gen.GenerateDataset(corpus);

  Dataset restored =
      DatasetFromJsonl(DatasetToJsonl(original)).ValueOrDie();
  ASSERT_EQ(restored.size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(restored.samples[i].sentence, original.samples[i].sentence);
    if (original.samples[i].task == TaskType::kQuestionAnswering) {
      EXPECT_EQ(restored.samples[i].answer, original.samples[i].answer);
    } else {
      // Fact verification serializes the label; the redundant textual
      // truth value is not part of the format.
      EXPECT_EQ(restored.samples[i].label, original.samples[i].label);
    }
    EXPECT_EQ(restored.samples[i].source, original.samples[i].source);
    EXPECT_EQ(restored.samples[i].table.ToCsv(),
              original.samples[i].table.ToCsv());
  }
}

TEST_P(PipelinePropertyTest, CanonicalClaimsInterpretConsistently) {
  // With deterministic NL, the interpreter must agree with the generated
  // label on a large majority of claims (the round trip underpinning the
  // verifier's program features).
  Table t = uctr::testing::RandomTable(&rng_, 7, 3);
  TemplateLibrary lib = TemplateLibrary::Builtin();
  GenerationConfig config;
  config.task = TaskType::kFactVerification;
  config.program_types = {ProgramType::kLogicalForm};
  config.samples_per_table = 25;
  config.nl.stochastic = false;
  Generator gen(config, &lib, &rng_);
  TableWithText input;
  input.table = t;
  auto samples = gen.GenerateFromTable(input);
  if (samples.size() < 10) GTEST_SKIP() << "table too degenerate";

  model::NlInterpreter interpreter(BuiltinLogicTemplates());
  size_t interpreted = 0, agree = 0;
  for (const Sample& s : samples) {
    auto r = interpreter.Interpret(s.sentence, t,
                                   TaskType::kFactVerification);
    if (!r.ok()) continue;
    ++interpreted;
    Label predicted = r->result.scalar().boolean() ? Label::kSupported
                                                   : Label::kRefuted;
    if (predicted == s.label) ++agree;
  }
  ASSERT_GT(interpreted, samples.size() / 2);
  EXPECT_GE(agree * 10, interpreted * 7)
      << agree << "/" << interpreted;
}

TEST_P(PipelinePropertyTest, GenerationPreservesBoundValuesWithoutNoise) {
  // With drop/typo noise off, every cell value and column name bound into
  // the program must survive into the generated sentence (the NL-Generator
  // is logic-preserving; only the paraphraser's drop noise may lose
  // content).
  Table t = uctr::testing::RandomTable(&rng_, 7, 3);
  TemplateLibrary lib = TemplateLibrary::Builtin();
  ProgramSampler sampler(&rng_);
  nlgen::NlGenerator generator;  // stochastic synonyms, no drops

  int checked = 0;
  for (const TemplateForm& form : lib.OfType(ProgramType::kLogicalForm)) {
    auto sampled = sampler.SampleClaim(form, t, rng_.Bernoulli(0.5));
    if (!sampled.ok()) continue;
    std::vector<std::string_view> texts(sampled->texts.begin(),
                                        sampled->texts.end());
    auto sentence = generator.Realize(form.Bind(texts), &rng_);
    ASSERT_TRUE(sentence.ok());
    ++checked;
    for (size_t p = 0; p < texts.size(); ++p) {
      const Placeholder& slot = form.tmpl().placeholders[p];
      const std::string& value = sampled->texts[p];
      if (value.empty()) continue;
      if (slot.kind != Placeholder::Kind::kValue &&
          slot.kind != Placeholder::Kind::kDerive) {
        continue;
      }
      EXPECT_TRUE(ContainsIgnoreCase(*sentence, value))
          << "'" << value << "' missing from: " << *sentence;
    }
  }
  EXPECT_GE(checked, 10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelinePropertyTest,
                         ::testing::Range<uint64_t>(0, 12));

}  // namespace
}  // namespace uctr
