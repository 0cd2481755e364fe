#include <gtest/gtest.h>

#include <cmath>

#include "gen/generator.h"
#include "model/features.h"
#include "model/interpreter.h"
#include "model/linear_model.h"
#include "model/qa_model.h"
#include "model/verifier.h"
#include "program/library.h"
#include "tests/test_util.h"

namespace uctr::model {
namespace {

using uctr::testing::MakeFinanceTable;
using uctr::testing::MakeNationsTable;

// ------------------------------------------------------------ LinearModel

/// Share of `examples` whose label the model predicts.
double Accuracy(const LinearModel& model,
                const std::vector<Example>& examples) {
  size_t correct = 0;
  for (const Example& ex : examples) {
    if (model.Predict(ex.features) == ex.label) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(examples.size());
}

TEST(LinearModelTest, LearnsSeparableProblem) {
  // Class = which of two indicator features is on.
  Rng rng(5);
  std::vector<Example> train;
  for (int i = 0; i < 200; ++i) {
    bool positive = rng.Bernoulli(0.5);
    Example ex;
    ex.features.push_back({HashFeature(positive ? "a" : "b"), 1.0f});
    ex.features.push_back({HashFeature("noise" + std::to_string(
                               rng.UniformInt(0, 20))), 1.0f});
    ex.label = positive ? 1 : 0;
    train.push_back(std::move(ex));
  }
  LinearModel model(2, 1u << 12);
  TrainConfig config;
  model.Train(train, config, &rng);
  EXPECT_GT(Accuracy(model, train), 0.95);
}

TEST(LinearModelTest, MulticlassProbabilitiesSumToOne) {
  LinearModel model(4, 1u << 10);
  FeatureVector f = {{1, 1.0f}, {2, 0.5f}};
  auto probs = model.Probabilities(f);
  double total = 0;
  for (double p : probs) total += p;
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_EQ(probs.size(), 4u);
}

TEST(LinearModelTest, ContinuedTrainingImproves) {
  Rng rng(7);
  std::vector<Example> train;
  for (int i = 0; i < 100; ++i) {
    bool positive = i % 2 == 0;
    Example ex;
    ex.features.push_back({HashFeature(positive ? "x" : "y"), 1.0f});
    ex.label = positive ? 1 : 0;
    train.push_back(std::move(ex));
  }
  LinearModel model(2, 1u << 10);
  TrainConfig config;
  config.epochs = 1;
  model.Train(train, config, &rng);
  double acc1 = Accuracy(model, train);
  model.Train(train, config, &rng);  // continue
  EXPECT_GE(Accuracy(model, train), acc1);
}

// A slot no example has touched weighs 0 in every class: it leaves finite
// scores as they are, and an infinite value on it makes every score NaN,
// as a stored 0 weight does (0 * inf).
TEST(LinearModelTest, UntrainedSlotScoresAsZeroWeight) {
  LinearModel model(3, 1u << 10);
  std::vector<Example> train = {{{{1, 1.0f}, {2, 0.5f}}, 0, 1.0f},
                                {{{3, 1.0f}}, 2, 1.0f}};
  model.Train(train, TrainConfig{}, nullptr);
  const FeatureVector trained = {{1, 1.0f}, {3, -2.0f}};
  const std::vector<double> scores = model.Scores(trained);
  ASSERT_NE(scores, std::vector<double>(3, 0.0));
  for (float value : {1.0f, -3.0f, 0.0f}) {
    FeatureVector with_untrained = trained;
    with_untrained.push_back({7, value});
    EXPECT_EQ(model.Scores(with_untrained), scores) << value;
  }
  for (const LinearModel& m : {model, LinearModel(3, 1u << 10)}) {
    for (double s : m.Scores({{1, 1.0f}, {7, INFINITY}})) {
      EXPECT_TRUE(std::isnan(s));
    }
  }
}

// An example holding one slot twice updates that slot's row twice, in the
// order of its features: the second update reads the first's weight and
// AdaGrad sum.
TEST(LinearModelTest, RepeatedSlotUpdatesItsRowTwiceInOrder) {
  TrainConfig config;
  config.epochs = 1;
  // The same update rule by hand, for class `c` of a 2-class model whose
  // probabilities start at 1/2 (all weights zero).
  auto expected = [&](int c, int label, std::vector<float> values) {
    float w = 0.0f, sum = 0.0f;
    for (float v : values) {
      double grad = (0.5 - (c == label ? 1.0 : 0.0)) * v * 1.0;
      grad += config.l2 * w;
      sum += static_cast<float>(grad * grad);
      double step = config.learning_rate /
                    (1e-6 + std::sqrt(static_cast<double>(sum)));
      w -= static_cast<float>(step * grad);
    }
    return static_cast<double>(w);
  };
  for (std::vector<float> values :
       {std::vector<float>{1.0f, 2.0f}, std::vector<float>{2.0f, 1.0f}}) {
    LinearModel model(2, 16);
    Example ex{{{5, values[0]}, {21, values[1]}}, 1, 1.0f};  // 21 % 16 == 5
    model.Train({ex}, config, nullptr);
    EXPECT_EQ(model.Scores({{5, 1.0f}}),
              (std::vector<double>{expected(0, 1, values),
                                   expected(1, 1, values)}));
  }
  EXPECT_NE(expected(0, 1, {1.0f, 2.0f}), expected(0, 1, {2.0f, 1.0f}));
}

// Copies share nothing: training a model on after copying it, into slots
// it had no rows for, leaves the copy's weights as they were, and the
// other way round.
TEST(LinearModelTest, CopyIsUnchangedByFurtherTraining) {
  Rng rng(19);
  auto batch = [&](int first_slot) {
    std::vector<Example> out;
    for (int i = 0; i < 40; ++i) {
      Example ex;
      ex.label = static_cast<int>(rng.UniformInt(0, 2));
      ex.features = {{static_cast<uint32_t>(first_slot + ex.label), 1.0f},
                     {static_cast<uint32_t>(first_slot + 3 + i % 5), 0.5f}};
      out.push_back(std::move(ex));
    }
    return out;
  };
  LinearModel model(3, 1u << 12);
  model.Train(batch(0), TrainConfig{}, &rng);
  LinearModel copy = model;
  const std::string saved = copy.SaveToString();
  model.Train(batch(100), TrainConfig{}, &rng);
  EXPECT_NE(model.SaveToString(), saved);
  EXPECT_EQ(copy.SaveToString(), saved);

  const std::string trained = model.SaveToString();
  copy.Train(batch(2000), TrainConfig{}, &rng);
  EXPECT_EQ(model.SaveToString(), trained);
}

// ------------------------------------------------------------ Interpreter

NlInterpreter ClaimInterpreter() {
  return NlInterpreter(BuiltinLogicTemplates());
}

NlInterpreter QuestionInterpreter() {
  auto templates = BuiltinSqlTemplates();
  for (auto& t : BuiltinArithTemplates()) templates.push_back(std::move(t));
  return NlInterpreter(std::move(templates));
}

TEST(InterpreterTest, ClaimedValueExtraction) {
  EXPECT_EQ(NlInterpreter::ClaimedValue("The gold of china is 8."), "8");
  EXPECT_EQ(NlInterpreter::ClaimedValue("The average gold is about 6."),
            "6");
  EXPECT_EQ(NlInterpreter::ClaimedValue(
                "The nation with the highest total is united states."),
            "united states");
  EXPECT_EQ(NlInterpreter::ClaimedValue("No copula here"), "");
}

TEST(InterpreterTest, InterpretsTrueClaimAsTrue) {
  Table t = MakeNationsTable();
  NlInterpreter interp = ClaimInterpreter();
  auto r = interp.Interpret(
      "The gold of the row whose nation is china is 8.", t,
      TaskType::kFactVerification);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->result.scalar().boolean());
  EXPECT_GT(r->score, 0.7);
}

TEST(InterpreterTest, InterpretsFalseClaimAsFalse) {
  Table t = MakeNationsTable();
  NlInterpreter interp = ClaimInterpreter();
  auto r = interp.Interpret(
      "The gold of the row whose nation is china is 11.", t,
      TaskType::kFactVerification);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->result.scalar().boolean());
}

TEST(InterpreterTest, InterpretsCountClaim) {
  Table t = MakeNationsTable();
  NlInterpreter interp = ClaimInterpreter();
  auto r = interp.Interpret(
      "The number of rows whose gold is greater than 5 is 2.", t,
      TaskType::kFactVerification);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->result.scalar().boolean());
}

TEST(InterpreterTest, AnswersSuperlativeQuestion) {
  Table t = MakeNationsTable();
  NlInterpreter interp = QuestionInterpreter();
  auto r = interp.Interpret("Which nation has the highest total?", t,
                            TaskType::kQuestionAnswering);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->result.ToDisplayString(), "united states");
}

TEST(InterpreterTest, AnswersLookupQuestion) {
  Table t = MakeNationsTable();
  NlInterpreter interp = QuestionInterpreter();
  auto r = interp.Interpret(
      "What is the silver of the row whose nation is japan?", t,
      TaskType::kQuestionAnswering);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->result.ToDisplayString(), "9");
}

TEST(InterpreterTest, AnswersArithmeticQuestion) {
  Table t = MakeFinanceTable();
  NlInterpreter interp = QuestionInterpreter();
  auto r = interp.Interpret(
      "By what percentage change did the revenue move from 2018 to 2019?",
      t, TaskType::kQuestionAnswering);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->result.scalar().number(), 0.2005, 1e-6);
}

TEST(InterpreterTest, FailsOnUnrelatedSentence) {
  Table t = MakeNationsTable();
  NlInterpreter interp = ClaimInterpreter();
  auto r = interp.Interpret("The weather in berlin is pleasant today.", t,
                            TaskType::kFactVerification);
  EXPECT_FALSE(r.ok());
}

TEST(InterpreterTest, GeneratedClaimsRoundTrip) {
  // Claims produced by the generator should be re-interpreted with the
  // label the generator assigned (canonical NL, no noise).
  Rng rng(3);
  TemplateLibrary lib = TemplateLibrary::Builtin();
  GenerationConfig config;
  config.task = TaskType::kFactVerification;
  config.program_types = {ProgramType::kLogicalForm};
  config.samples_per_table = 30;
  config.use_table_to_text = false;
  config.use_text_to_table = false;
  config.nl.stochastic = false;
  Generator gen(config, &lib, &rng);
  TableWithText input;
  input.table = MakeNationsTable();
  auto samples = gen.GenerateFromTable(input);
  ASSERT_GE(samples.size(), 15u);

  NlInterpreter interp = ClaimInterpreter();
  size_t agree = 0, interpreted = 0;
  for (const auto& s : samples) {
    auto r = interp.Interpret(s.sentence, s.table,
                              TaskType::kFactVerification);
    if (!r.ok()) continue;
    ++interpreted;
    Label predicted = r->result.scalar().boolean() ? Label::kSupported
                                                   : Label::kRefuted;
    if (predicted == s.label) ++agree;
  }
  ASSERT_GT(interpreted, samples.size() / 2);
  EXPECT_GT(static_cast<double>(agree) / interpreted, 0.8);
}

// --------------------------------------------------------------- Features

TEST(FeatureTest, HashIsStable) {
  EXPECT_EQ(HashFeature("abc"), HashFeature("abc"));
  EXPECT_NE(HashFeature("abc"), HashFeature("abd"));
  // Pinned: feature indices are persisted in weight files.
  EXPECT_EQ(HashFeature("abc"), 0x1a47e90bu);
}

TEST(FeatureTest, ExtractsLexicalAndAlignment) {
  FeatureConfig config;
  config.interpreter = false;
  FeatureExtractor extractor(config, nullptr);
  Sample s;
  s.task = TaskType::kFactVerification;
  s.table = MakeNationsTable();
  s.sentence = "The gold of china is 8.";
  FeatureVector f = extractor.Extract(s);
  EXPECT_GT(f.size(), 8u);  // bias + unigrams + bigrams + alignment
}

TEST(FeatureTest, NumericMismatchSignal) {
  FeatureConfig config;
  config.interpreter = false;
  config.lexical = false;
  FeatureExtractor extractor(config, nullptr);
  Sample good;
  good.task = TaskType::kFactVerification;
  good.table = MakeNationsTable();
  good.sentence = "china won 8 gold";  // 8 matches a cell
  Sample bad = good;
  bad.sentence = "china won 77 gold";  // 77 matches nothing

  auto has_miss = [&](const Sample& s) {
    FeatureVector f = extractor.Extract(s);
    uint32_t idx = HashFeature("align:has_num_miss") % config.dim;
    for (const Feature& feat : f) {
      if (feat.index == idx) return true;
    }
    return false;
  };
  EXPECT_FALSE(has_miss(good));
  EXPECT_TRUE(has_miss(bad));
}

/// The value of feature `name` in `f`, or -1 when it is absent.
float FeatureValue(const FeatureVector& f, std::string_view name,
                   const FeatureConfig& config) {
  uint32_t idx = HashFeature(name) % config.dim;
  for (const Feature& feat : f) {
    if (feat.index == idx) return feat.value;
  }
  return -1.0f;
}

/// Alignment features only, for `sentence` against `table` (+ paragraph).
FeatureVector AlignmentOf(const Table& table, const std::string& sentence,
                          std::vector<std::string> paragraph = {}) {
  FeatureConfig config;
  config.interpreter = false;
  config.lexical = false;
  FeatureExtractor extractor(config, nullptr);
  Sample s;
  s.task = TaskType::kFactVerification;
  s.table = table;
  s.paragraph = std::move(paragraph);
  s.sentence = sentence;
  return extractor.Extract(s);
}

TEST(FeatureTest, HeaderTokensCountTowardTableCoverage) {
  const FeatureConfig config;
  // "gold" and "nation" occur only in headers of the nations table.
  EXPECT_FLOAT_EQ(
      FeatureValue(AlignmentOf(MakeNationsTable(), "gold nation"),
                   "align:table_cov", config),
      1.0f);
  EXPECT_FLOAT_EQ(
      FeatureValue(AlignmentOf(MakeNationsTable(), "gold zebra"),
                   "align:table_cov", config),
      0.5f);
}

TEST(FeatureTest, NumberMatchUsesRelativeToleranceAtScale) {
  const FeatureConfig config;
  Table t = Table::FromCsv("name,population\ncapital,1000001\n").ValueOrDie();
  FeatureVector near = AlignmentOf(t, "it has 1000000.5 people");
  EXPECT_FLOAT_EQ(FeatureValue(near, "align:num_match", config), 1.0f);
  EXPECT_FLOAT_EQ(FeatureValue(near, "align:num_miss", config), 0.0f);
  FeatureVector far = AlignmentOf(t, "it has 1000003 people");
  EXPECT_FLOAT_EQ(FeatureValue(far, "align:num_match", config), 0.0f);
  EXPECT_FLOAT_EQ(FeatureValue(far, "align:num_miss", config), 1.0f);
}

// An inf token matches an inf cell, not a finite one, and an inf cell
// matches no finite token.
TEST(FeatureTest, InfTokenMatchesOnlyAnInfTableNumber) {
  const FeatureConfig config;
  FeatureVector finite = AlignmentOf(MakeNationsTable(), "china won inf gold");
  EXPECT_FLOAT_EQ(FeatureValue(finite, "align:num_match", config), 0.0f);
  EXPECT_FLOAT_EQ(FeatureValue(finite, "align:num_miss", config), 1.0f);
  Table t = Table::FromCsv("name,score\nalpha,inf\nbeta,5\n").ValueOrDie();
  FeatureVector inf = AlignmentOf(t, "alpha scored inf");
  EXPECT_FLOAT_EQ(FeatureValue(inf, "align:num_match", config), 1.0f);
  EXPECT_FLOAT_EQ(FeatureValue(inf, "align:num_miss", config), 0.0f);
  FeatureVector six = AlignmentOf(t, "alpha scored 6");
  EXPECT_FLOAT_EQ(FeatureValue(six, "align:num_match", config), 0.0f);
  EXPECT_FLOAT_EQ(FeatureValue(six, "align:num_miss", config), 1.0f);
}

// NaN must stay out of the number lists: in an ordered container it breaks
// the strict weak order, so the numbers inserted after it are lost.
TEST(FeatureTest, NanCellDoesNotHideOtherTableNumbers) {
  const FeatureConfig config;
  for (const char* csv : {"name,score\nalpha,nan\nbeta,5\n",
                          "name,score\nbeta,5\nalpha,nan\n"}) {
    Table t = Table::FromCsv(csv).ValueOrDie();
    ASSERT_TRUE(std::isnan(t.cell(0, 1).number()) ||
                std::isnan(t.cell(1, 1).number()));
    FeatureVector f = AlignmentOf(t, "the score of beta is 5");
    EXPECT_FLOAT_EQ(FeatureValue(f, "align:num_match", config), 1.0f) << csv;
    EXPECT_FLOAT_EQ(FeatureValue(f, "align:num_miss", config), 0.0f) << csv;
  }
}

TEST(FeatureTest, NanWordDoesNotHideOtherParagraphNumbers) {
  const FeatureConfig config;
  Table t = Table::FromCsv("name,score\nalpha,7\n").ValueOrDie();
  for (const char* paragraph :
       {"Nan scored 5 points.", "Bo scored 5 points."}) {
    FeatureVector f = AlignmentOf(t, "beta scored 5", {paragraph});
    EXPECT_FLOAT_EQ(FeatureValue(f, "align:num_match", config), 1.0f)
        << paragraph;
    EXPECT_FLOAT_EQ(FeatureValue(f, "align:num_miss", config), 0.0f)
        << paragraph;
  }
}

// ----------------------------------------------------- Verifier end-to-end

Dataset MakeClaimDataset(const Table& table, size_t n, uint64_t seed,
                         bool stochastic_nl) {
  Rng rng(seed);
  TemplateLibrary lib = TemplateLibrary::Builtin();
  GenerationConfig config;
  config.task = TaskType::kFactVerification;
  config.program_types = {ProgramType::kLogicalForm};
  config.samples_per_table = n;
  config.use_table_to_text = false;
  config.use_text_to_table = false;
  config.nl.stochastic = stochastic_nl;
  Generator gen(config, &lib, &rng);
  TableWithText input;
  input.table = table;
  Dataset d;
  d.samples = gen.GenerateFromTable(input);
  return d;
}

TEST(VerifierModelTest, TrainedModelBeatsChanceOnHeldOutTable) {
  Dataset train = MakeClaimDataset(MakeNationsTable(), 60, 1, true);
  Dataset test = MakeClaimDataset(MakeFinanceTable(), 40, 2, true);
  ASSERT_GE(train.size(), 30u);
  ASSERT_GE(test.size(), 15u);

  VerifierConfig config;
  config.train.epochs = 6;
  VerifierModel model(config, BuiltinLogicTemplates());
  Rng rng(9);
  model.Train(train, &rng);
  double acc = model.Accuracy(test);
  EXPECT_GT(acc, 0.6) << "accuracy " << acc;
}

TEST(VerifierModelTest, UntrainedModelIsChance) {
  Dataset test = MakeClaimDataset(MakeNationsTable(), 30, 3, true);
  VerifierConfig config;
  VerifierModel model(config, BuiltinLogicTemplates());
  double acc = model.Accuracy(test);
  EXPECT_LT(acc, 0.8);  // untrained weights: no better than guessing
}

// ----------------------------------------------------------- QA end-to-end

Dataset MakeQaDataset(const Table& table, size_t n, uint64_t seed) {
  Rng rng(seed);
  TemplateLibrary lib = TemplateLibrary::Builtin();
  GenerationConfig config;
  config.task = TaskType::kQuestionAnswering;
  config.program_types = {ProgramType::kSql};
  config.samples_per_table = n;
  config.use_table_to_text = false;
  config.use_text_to_table = false;
  Generator gen(config, &lib, &rng);
  TableWithText input;
  input.table = table;
  Dataset d;
  d.samples = gen.GenerateFromTable(input);
  return d;
}

TEST(QaModelTest, AnswersHeldOutQuestions) {
  Dataset train = MakeQaDataset(MakeNationsTable(), 40, 4);
  Dataset test = MakeQaDataset(MakeFinanceTable(), 25, 5);
  ASSERT_GE(test.size(), 10u);

  QaConfig config;
  QaModel model(config, BuiltinSqlTemplates());
  Rng rng(11);
  model.Train(train, &rng);
  size_t correct = 0;
  for (const Sample& s : test.samples) {
    if (AnswersMatch(model.Predict(s), s.answer)) ++correct;
  }
  double acc = static_cast<double>(correct) / test.size();
  EXPECT_GE(acc, 0.35) << "denotation accuracy " << acc;
}

TEST(QaModelTest, TextOnlyBaselineIsWeaker) {
  Dataset test = MakeQaDataset(MakeNationsTable(), 25, 6);
  QaConfig table_config;
  QaModel table_model(table_config, BuiltinSqlTemplates());
  QaConfig text_config;
  text_config.use_table = false;
  QaModel text_model(text_config, BuiltinSqlTemplates());

  size_t table_correct = 0, text_correct = 0;
  for (const Sample& s : test.samples) {
    if (AnswersMatch(table_model.Predict(s), s.answer)) ++table_correct;
    if (AnswersMatch(text_model.Predict(s), s.answer)) ++text_correct;
  }
  EXPECT_GT(table_correct, text_correct);
}

TEST(QaModelTest, AnswersMatchNumericTolerance) {
  EXPECT_TRUE(AnswersMatch("8", "8"));
  EXPECT_TRUE(AnswersMatch("$1,200.5", "1200.5"));
  EXPECT_TRUE(AnswersMatch("0.2005", "20.05"));  // percent scale
  EXPECT_TRUE(AnswersMatch("China", "china"));
  EXPECT_FALSE(AnswersMatch("8", "9"));
  EXPECT_FALSE(AnswersMatch("", "8"));
  EXPECT_TRUE(AnswersMatch("", ""));
}

}  // namespace
}  // namespace uctr::model
