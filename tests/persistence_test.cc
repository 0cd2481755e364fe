// Tests of model persistence: trained weights survive a save/load round
// trip with identical predictions.

#include <gtest/gtest.h>

#include "gen/generator.h"
#include "model/linear_model.h"
#include "model/qa_model.h"
#include "model/verifier.h"
#include "program/library.h"
#include "tests/test_util.h"

namespace uctr::model {
namespace {

using uctr::testing::MakeFinanceTable;
using uctr::testing::MakeNationsTable;

std::vector<Example> ToyExamples(Rng* rng, int n) {
  std::vector<Example> out;
  for (int i = 0; i < n; ++i) {
    bool positive = rng->Bernoulli(0.5);
    Example ex;
    ex.features.push_back({HashFeature(positive ? "pos" : "neg"), 1.0f});
    ex.features.push_back(
        {HashFeature("noise" + std::to_string(rng->UniformInt(0, 9))),
         1.0f});
    ex.label = positive ? 1 : 0;
    out.push_back(std::move(ex));
  }
  return out;
}

TEST(PersistenceTest, LinearModelRoundTripsExactly) {
  Rng rng(3);
  auto examples = ToyExamples(&rng, 150);
  LinearModel model(2, 1u << 12);
  TrainConfig config;
  model.Train(examples, config, &rng);

  std::string saved = model.SaveToString();
  LinearModel restored = LinearModel::LoadFromString(saved).ValueOrDie();
  EXPECT_EQ(restored.num_classes(), model.num_classes());
  EXPECT_EQ(restored.dim(), model.dim());
  for (const Example& ex : examples) {
    EXPECT_EQ(restored.Predict(ex.features), model.Predict(ex.features));
    auto p1 = model.Probabilities(ex.features);
    auto p2 = restored.Probabilities(ex.features);
    for (size_t c = 0; c < p1.size(); ++c) {
      EXPECT_NEAR(p1[c], p2[c], 1e-6);
    }
  }
}

TEST(PersistenceTest, ContinuedTrainingAfterLoadWorks) {
  Rng rng(5);
  auto examples = ToyExamples(&rng, 100);
  LinearModel model(2, 1u << 10);
  TrainConfig config;
  config.epochs = 2;
  model.Train(examples, config, &rng);
  LinearModel restored =
      LinearModel::LoadFromString(model.SaveToString()).ValueOrDie();
  // AdaGrad state survived, so continued training behaves sensibly.
  double before = restored.Evaluate(examples);
  restored.Train(examples, config, &rng);
  EXPECT_GE(restored.Evaluate(examples), before - 1e-9);
}

// Loading in place writes the same model LoadFromString builds, and a file
// that fails validation anywhere leaves the loaded-into model as it was.
TEST(PersistenceTest, LoadInPlaceMatchesLoadFromString) {
  Rng rng(7);
  auto examples = ToyExamples(&rng, 120);
  LinearModel trained(2, 1u << 10);
  trained.Train(examples, TrainConfig{}, &rng);
  const std::string saved = trained.SaveToString();

  LinearModel other(2, 1u << 10);
  other.Train(ToyExamples(&rng, 30), TrainConfig{}, &rng);
  const std::string before = other.SaveToString();
  ASSERT_NE(before, saved);
  ASSERT_TRUE(other.LoadInPlace(saved).ok());
  EXPECT_EQ(other.SaveToString(),
            LinearModel::LoadFromString(saved).ValueOrDie().SaveToString());
  EXPECT_EQ(other.SaveToString(), saved);

  LinearModel untouched(2, 1u << 10);
  untouched.Train(ToyExamples(&rng, 30), TrainConfig{}, &rng);
  const std::string kept = untouched.SaveToString();
  std::string corrupt = saved;
  corrupt.replace(corrupt.rfind('\n', corrupt.size() - 2) + 1,
                  std::string::npos, "oops\n");
  EXPECT_FALSE(untouched.LoadInPlace(corrupt).ok());
  EXPECT_FALSE(untouched.LoadInPlace(saved + "extra\n").ok());
  EXPECT_EQ(untouched.SaveToString(), kept);
  // A well-formed file of another shape is refused the same way.
  LinearModel wider(3, 1u << 10);
  EXPECT_EQ(untouched.LoadInPlace(wider.SaveToString()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(untouched.SaveToString(), kept);
}

TEST(PersistenceTest, LoadRejectsGarbage) {
  EXPECT_FALSE(LinearModel::LoadFromString("").ok());
  EXPECT_FALSE(LinearModel::LoadFromString("hello world").ok());
  EXPECT_FALSE(
      LinearModel::LoadFromString("uctr_linear_model v1\n2\n").ok());
  EXPECT_FALSE(LinearModel::LoadFromString(
                   "uctr_linear_model v1\n2 16\n1\n99 1.0\n0\n")
                   .ok());  // in range? 99 >= 2*16 -> out of range
}

// Every corruption mode of the hardened loader: the result is an error
// Status, never a crash and never a partially initialized model.
TEST(PersistenceTest, LoadRejectsCorruptAndTruncatedFiles) {
  Rng rng(13);
  LinearModel model(2, 16);
  model.Train(ToyExamples(&rng, 40), TrainConfig{}, &rng);
  std::string saved = model.SaveToString();

  // Truncation anywhere: drop the last line, or cut mid-file.
  std::string truncated = saved.substr(0, saved.rfind('\n', saved.size() - 2));
  EXPECT_FALSE(LinearModel::LoadFromString(truncated).ok());
  EXPECT_FALSE(LinearModel::LoadFromString(saved.substr(0, 40)).ok());

  // Trailing garbage / two files concatenated.
  EXPECT_FALSE(LinearModel::LoadFromString(saved + "extra\n").ok());
  EXPECT_FALSE(LinearModel::LoadFromString(saved + saved).ok());
  // Trailing blank lines are fine (editors add them).
  EXPECT_TRUE(LinearModel::LoadFromString(saved + "\n\n").ok());

  // Non-finite or malformed weight values.
  const char* kPrefix = "uctr_linear_model v1\n2 16\n";
  auto bad = [&](const std::string& body) {
    return LinearModel::LoadFromString(kPrefix + body).ok();
  };
  EXPECT_FALSE(bad("1\n3 nan\n0\n"));
  EXPECT_FALSE(bad("1\n3 inf\n0\n"));
  EXPECT_FALSE(bad("1\n3 1e999\n0\n"));
  EXPECT_FALSE(bad("1\n3 0.5x\n0\n"));
  EXPECT_FALSE(bad("1\n3.5 0.5\n0\n"));      // fractional index
  EXPECT_FALSE(bad("1\n-3 0.5\n0\n"));       // negative index
  EXPECT_FALSE(bad("2\n5 0.5\n2 0.5\n0\n")); // non-ascending indices
  EXPECT_FALSE(bad("2\n5 0.5\n5 0.5\n0\n")); // duplicate index
  EXPECT_FALSE(bad("99\n3 0.5\n0\n"));       // count exceeds matrix size
  EXPECT_FALSE(bad("1\n3 0.5\n1\n7 -0.5\n"));  // negative AdaGrad state
  EXPECT_TRUE(bad("1\n3 0.5\n1\n7 0.5\n"));    // well-formed control
  // Absurd dimensions are rejected before any allocation.
  EXPECT_FALSE(
      LinearModel::LoadFromString(
          "uctr_linear_model v1\n2 99999999999999\n0\n0\n")
          .ok());
}

TEST(PersistenceTest, FailedLoadLeavesModelUntouched) {
  Rng rng(17);
  TemplateLibrary lib = TemplateLibrary::Builtin();
  GenerationConfig config;
  config.task = TaskType::kFactVerification;
  config.program_types = {ProgramType::kLogicalForm};
  config.samples_per_table = 20;
  Generator gen(config, &lib, &rng);
  TableWithText input;
  input.table = MakeNationsTable();
  Dataset data;
  data.samples = gen.GenerateFromTable(input);

  VerifierConfig verifier_config;
  VerifierModel model(verifier_config, BuiltinLogicTemplates());
  model.Train(data, &rng);
  std::vector<Label> before;
  for (const Sample& s : data.samples) before.push_back(model.Predict(s));

  // A corrupt load fails cleanly and the trained weights still serve.
  std::string saved = model.SaveWeights();
  ASSERT_FALSE(model.LoadWeights(saved.substr(0, saved.size() / 2)).ok());
  ASSERT_FALSE(model.LoadWeights("garbage").ok());
  EXPECT_EQ(model.SaveWeights(), saved);
  for (size_t i = 0; i < data.samples.size(); ++i) {
    EXPECT_EQ(model.Predict(data.samples[i]), before[i]);
  }
}

TEST(PersistenceTest, VerifierWeightsRoundTrip) {
  Rng rng(7);
  TemplateLibrary lib = TemplateLibrary::Builtin();
  GenerationConfig config;
  config.task = TaskType::kFactVerification;
  config.program_types = {ProgramType::kLogicalForm};
  config.samples_per_table = 25;
  Generator gen(config, &lib, &rng);
  TableWithText input;
  input.table = MakeNationsTable();
  Dataset data;
  data.samples = gen.GenerateFromTable(input);

  VerifierConfig verifier_config;
  VerifierModel original(verifier_config, BuiltinLogicTemplates());
  original.Train(data, &rng);

  VerifierModel restored(verifier_config, BuiltinLogicTemplates());
  ASSERT_TRUE(restored.LoadWeights(original.SaveWeights()).ok());
  EXPECT_EQ(restored.SaveWeights(), original.SaveWeights());
  for (const Sample& s : data.samples) {
    EXPECT_EQ(restored.Predict(s), original.Predict(s));
  }

  // Mismatched configuration is rejected.
  VerifierConfig three_way = verifier_config;
  three_way.num_classes = 3;
  VerifierModel wrong(three_way, BuiltinLogicTemplates());
  EXPECT_FALSE(wrong.LoadWeights(original.SaveWeights()).ok());
}

TEST(PersistenceTest, QaWeightsRoundTrip) {
  Rng rng(11);
  TemplateLibrary lib = TemplateLibrary::Builtin();
  GenerationConfig config;
  config.task = TaskType::kQuestionAnswering;
  config.program_types = {ProgramType::kSql};
  config.samples_per_table = 25;
  Generator gen(config, &lib, &rng);
  TableWithText input;
  input.table = MakeNationsTable();
  Dataset data;
  data.samples = gen.GenerateFromTable(input);

  QaConfig qa_config;
  QaModel original(qa_config, BuiltinSqlTemplates());
  original.Train(data, &rng);

  QaModel restored(qa_config, BuiltinSqlTemplates());
  ASSERT_TRUE(restored.LoadWeights(original.SaveWeights()).ok());
  Table eval_table = MakeFinanceTable();
  for (const Sample& s : data.samples) {
    EXPECT_EQ(restored.Predict(s), original.Predict(s));
  }
}

}  // namespace
}  // namespace uctr::model
