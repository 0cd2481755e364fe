// Tests of model persistence: trained weights survive a save/load round
// trip with identical predictions.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>

#include "common/hash.h"
#include "datasets/corpus.h"
#include "gen/generator.h"
#include "model/linear_model.h"
#include "model/qa_model.h"
#include "model/verifier.h"
#include "program/library.h"
#include "tests/test_util.h"

namespace uctr::model {
namespace {

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

/// Share of `examples` whose label the model predicts.
double Accuracy(const LinearModel& model,
                const std::vector<Example>& examples) {
  size_t correct = 0;
  for (const Example& ex : examples) {
    if (model.Predict(ex.features) == ex.label) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(examples.size());
}

/// Loads `text` into a fresh model of the given shape.
Status LoadInto(int classes, size_t dim, std::string_view text) {
  LinearModel model(classes, dim);
  return model.LoadInPlace(text);
}

TEST(PersistenceTest, LinearModelRoundTripsExactly) {
  Rng rng(3);
  auto examples = ToyExamples(&rng, 150);
  LinearModel model(2, 1u << 12);
  TrainConfig config;
  model.Train(examples, config, &rng);

  std::string saved = model.SaveToString();
  LinearModel restored(2, 1u << 12);
  ASSERT_TRUE(restored.LoadInPlace(saved).ok());
  EXPECT_EQ(restored.SaveToString(), saved);
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
  LinearModel restored(2, 1u << 10);
  ASSERT_TRUE(restored.LoadInPlace(model.SaveToString()).ok());
  // AdaGrad state survived, so continued training behaves sensibly.
  double before = Accuracy(restored, examples);
  restored.Train(examples, config, &rng);
  EXPECT_GE(Accuracy(restored, examples), before - 1e-9);
}

// Loading into a trained model replaces its weights with the file's, and a
// file that fails validation anywhere leaves the model as it was.
TEST(PersistenceTest, LoadInPlaceReplacesTrainedModel) {
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
  EXPECT_EQ(other.SaveToString(), saved);
  for (const Example& ex : examples) {
    EXPECT_EQ(other.Scores(ex.features), trained.Scores(ex.features));
  }

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
  EXPECT_EQ(LoadInto(2, 16, "").code(), StatusCode::kParseError);
  EXPECT_EQ(LoadInto(2, 16, "hello world").code(), StatusCode::kParseError);
  EXPECT_EQ(LoadInto(2, 16, "uctr_linear_model v1\n2\n").code(),
            StatusCode::kParseError);
  // 99 >= 2 * 16: out of range.
  EXPECT_EQ(
      LoadInto(2, 16, "uctr_linear_model v1\n2 16\n1\n99 1.0\n0\n").code(),
      StatusCode::kParseError);
}

// Every corruption mode of the hardened loader: the result is an error
// Status, never a crash and never a partially initialized model.
TEST(PersistenceTest, LoadRejectsCorruptAndTruncatedFiles) {
  Rng rng(13);
  LinearModel model(2, 16);
  model.Train(ToyExamples(&rng, 40), TrainConfig{}, &rng);
  std::string saved = model.SaveToString();
  auto loads = [](std::string_view text) {
    return LoadInto(2, 16, text).ok();
  };

  // Truncation anywhere: drop the last line, or cut mid-file.
  std::string truncated = saved.substr(0, saved.rfind('\n', saved.size() - 2));
  EXPECT_FALSE(loads(truncated));
  EXPECT_FALSE(loads(saved.substr(0, 40)));

  // Trailing garbage / two files concatenated.
  EXPECT_FALSE(loads(saved + "extra\n"));
  EXPECT_FALSE(loads(saved + saved));
  // Trailing blank lines are fine (editors add them).
  EXPECT_TRUE(loads(saved + "\n\n"));

  // Non-finite or malformed weight values.
  const char* kPrefix = "uctr_linear_model v1\n2 16\n";
  auto bad = [&](const std::string& body) { return loads(kPrefix + body); };
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
  EXPECT_EQ(LoadInto(2, 16, "uctr_linear_model v1\n2 99999999999999\n0\n0\n")
                .code(),
            StatusCode::kParseError);
  // Large dimensions within the limits are refused by shape, without
  // building a model of that size.
  EXPECT_EQ(
      LoadInto(2, 16, "uctr_linear_model v1\n65536 268435456\n0\n0\n").code(),
      StatusCode::kInvalidArgument);
}

// A slot gets a row when either matrix has an entry for it: an AdaGrad sum
// beside a zero weight (slot 9) and a weight beside a zero sum (slot 5,
// class 0) both survive a round trip, byte for byte.
TEST(PersistenceTest, EntriesOfEitherMatrixRoundTrip) {
  const std::string text =
      "uctr_linear_model v1\n3 16\n"
      "2\n5 0.5\n37 -1.25\n"
      "2\n9 0.75\n21 2\n";
  LinearModel model(3, 16);
  ASSERT_TRUE(model.LoadInPlace(text).ok());
  EXPECT_EQ(model.SaveToString(), text);
  EXPECT_EQ(model.Scores({{5, 2.0f}}), (std::vector<double>{1.0, 0.0, -2.5}));
  EXPECT_EQ(model.Scores({{9, 2.0f}}), (std::vector<double>{0.0, 0.0, 0.0}));
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
  EXPECT_EQ(restored.SaveWeights(), original.SaveWeights());
  for (const Sample& s : data.samples) {
    EXPECT_EQ(restored.Predict(s), original.Predict(s));
  }
}

// ------------------------------------------------------------ pins

/// Folds a double's bits into `digest`.
void FoldBits(uint64_t* digest, double value) {
  char bytes[sizeof(value)];
  std::memcpy(bytes, &value, sizeof(value));
  *digest = hash::Fnv1a64(std::string_view(bytes, sizeof(bytes)), *digest);
}

std::string Hex(uint64_t value) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

/// Synthetic samples of `task` over a seeded corpus of tables with
/// paragraphs, so split and expanded evidence both appear: tables 0-7
/// train, tables 8-11 are held out.
struct PinSplit {
  Dataset train;
  Dataset held_out;
};

PinSplit PinDataset(TaskType task) {
  Rng corpus_rng(29);
  datasets::CorpusConfig corpus_config;
  corpus_config.num_tables = 12;
  std::vector<TableWithText> corpus =
      datasets::CorpusGenerator(corpus_config, &corpus_rng).Generate();
  GenerationConfig config;
  config.task = task;
  config.program_types =
      task == TaskType::kFactVerification
          ? std::vector<ProgramType>{ProgramType::kLogicalForm}
          : std::vector<ProgramType>{ProgramType::kSql,
                                     ProgramType::kArithmetic};
  config.samples_per_table = 12;
  TemplateLibrary lib = TemplateLibrary::Builtin();
  Rng rng(task == TaskType::kFactVerification ? 31 : 37);
  Generator gen(config, &lib, &rng);
  PinSplit split;
  for (size_t i = 0; i < corpus.size(); ++i) {
    Dataset& into = i < 8 ? split.train : split.held_out;
    for (Sample& s : gen.GenerateFromTable(corpus[i])) {
      into.samples.push_back(std::move(s));
    }
  }
  return split;
}

// The verifier's weights file, per-epoch losses and held-out probabilities,
// bit for bit: how the weights are laid out in memory must not move any of
// them.
TEST(LinearModelPinTest, VerifierWeightsAndProbabilitiesArePinned) {
  PinSplit data = PinDataset(TaskType::kFactVerification);
  ASSERT_GE(data.train.size(), 60u);
  ASSERT_GE(data.held_out.size(), 30u);
  VerifierModel model(VerifierConfig{}, BuiltinLogicTemplates());
  Rng rng(41);
  std::vector<double> losses, continued;
  model.Train(data.train, &rng, &losses);
  model.Train(data.train, &rng, &continued);

  const std::string weights = model.SaveWeights();
  uint64_t outputs = hash::kFnv64Basis;
  for (double loss : losses) FoldBits(&outputs, loss);
  for (double loss : continued) FoldBits(&outputs, loss);
  for (const Sample& s : data.held_out.samples) {
    for (double p : model.Probabilities(s)) FoldBits(&outputs, p);
  }
  EXPECT_EQ(weights.size(), 52941u);
  EXPECT_EQ(Hex(hash::Fnv1a64(weights)), "0x2e17bfa17eec2c5a");
  EXPECT_EQ(Hex(outputs), "0xc6bfca9bab102471");
}

// The QA template classifier (34 SQL and arithmetic templates): its weights
// file, per-epoch losses, and each held-out answer with its margin, which
// the classifier's probabilities decide.
TEST(LinearModelPinTest, QaWeightsAndMarginsArePinned) {
  PinSplit data = PinDataset(TaskType::kQuestionAnswering);
  ASSERT_GE(data.train.size(), 60u);
  ASSERT_GE(data.held_out.size(), 30u);
  std::vector<ProgramTemplate> templates = BuiltinSqlTemplates();
  for (ProgramTemplate& t : BuiltinArithTemplates()) {
    templates.push_back(std::move(t));
  }
  ASSERT_EQ(templates.size(), 34u);
  QaModel model(QaConfig{}, std::move(templates));
  Rng rng(43);
  std::vector<double> losses;
  model.Train(data.train, &rng, &losses);

  const std::string weights = model.SaveWeights();
  uint64_t outputs = hash::kFnv64Basis;
  for (double loss : losses) FoldBits(&outputs, loss);
  for (const Sample& s : data.held_out.samples) {
    QaModel::Prediction p = model.PredictWithMargin(s);
    outputs = hash::Fnv1a64(p.answer, outputs);
    FoldBits(&outputs, p.margin);
  }
  EXPECT_EQ(weights.size(), 753493u);
  EXPECT_EQ(Hex(hash::Fnv1a64(weights)), "0x34d83cabbb0e31e6");
  EXPECT_EQ(Hex(outputs), "0x86cfdc2581d42647");
}

}  // namespace
}  // namespace uctr::model
