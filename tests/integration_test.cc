// End-to-end integration tests: miniature versions of the paper's
// experiments asserting the qualitative findings (orderings), exercising
// every module together — corpus simulation, synthetic generation,
// baseline generation, model training, and evaluation.

#include <gtest/gtest.h>

#include "baselines/mqa_qg.h"
#include "baselines/random_baseline.h"
#include "datasets/benchmark.h"
#include "eval/metrics.h"
#include "model/qa_model.h"
#include "model/verifier.h"
#include "program/library.h"

namespace uctr {
namespace {

datasets::BenchmarkScale TinyScale() {
  datasets::BenchmarkScale scale;
  scale.unlabeled_tables = 12;
  scale.gold_train_tables = 10;
  scale.eval_tables = 10;
  scale.gold_samples_per_table = 6;
  scale.eval_samples_per_table = 6;
  return scale;
}

Dataset UctrSynthetic(const datasets::Benchmark& bench, Rng* rng) {
  static const TemplateLibrary& library = TemplateLibrary::Builtin();
  GenerationConfig config;
  config.task = bench.task;
  config.program_types = bench.program_types;
  config.samples_per_table = 10;
  config.use_table_to_text = bench.hybrid;
  config.use_text_to_table = bench.hybrid;
  config.hybrid_fraction = bench.hybrid ? 0.45 : 0.0;
  config.unknown_fraction = bench.num_classes >= 3 ? 0.1 : 0.0;
  config.nl = datasets::SyntheticNlProfile();
  Generator generator(config, &library, rng);
  return generator.GenerateDataset(bench.unlabeled);
}

TEST(IntegrationTest, UnsupervisedVerificationBeatsRandomAndMqaQg) {
  Rng rng(101);
  datasets::Benchmark bench = datasets::MakeFeverousSim(TinyScale(), &rng);
  ASSERT_GT(bench.gold_dev.size(), 20u);

  // UCTR.
  Dataset uctr = UctrSynthetic(bench, &rng);
  model::VerifierConfig config;
  model::VerifierModel uctr_model(config, BuiltinLogicTemplates());
  uctr_model.Train(uctr, &rng);
  double uctr_acc = uctr_model.Accuracy(bench.gold_dev);

  // MQA-QG.
  baselines::MqaQgConfig mqaqg_config;
  mqaqg_config.task = TaskType::kFactVerification;
  baselines::MqaQg mqaqg_gen(mqaqg_config, &rng);
  Dataset mqaqg = mqaqg_gen.GenerateDataset(bench.unlabeled);
  model::VerifierModel mqaqg_model(config, BuiltinLogicTemplates());
  mqaqg_model.Train(mqaqg, &rng);
  double mqaqg_acc = mqaqg_model.Accuracy(bench.gold_dev);

  // Random.
  baselines::RandomBaseline random(2, &rng);
  std::vector<Label> gold;
  for (const Sample& s : bench.gold_dev.samples) gold.push_back(s.label);
  double random_acc =
      eval::LabelAccuracy(random.PredictAll(gold.size()), gold);

  // Paper ordering (Table IV): UCTR > MQA-QG-ish > random.
  EXPECT_GT(uctr_acc, random_acc + 0.1);
  EXPECT_GT(uctr_acc, mqaqg_acc - 0.03);  // >= within noise
}

TEST(IntegrationTest, SyntheticPretrainingHelpsFewShot) {
  Rng rng(202);
  datasets::Benchmark bench = datasets::MakeWikiSqlSim(TinyScale(), &rng);
  auto templates = BuiltinSqlTemplates();
  Dataset uctr = UctrSynthetic(bench, &rng);

  // Few-shot only.
  Dataset fewshot;
  for (size_t i = 0; i < std::min<size_t>(20, bench.gold_train.size());
       ++i) {
    fewshot.samples.push_back(bench.gold_train.samples[i]);
  }
  model::QaConfig config;
  model::QaModel fewshot_model(config, templates);
  fewshot_model.Train(fewshot, &rng);

  // Synthetic pre-training + few-shot.
  model::QaModel pretrained(config, templates);
  pretrained.Train(uctr, &rng);
  pretrained.Train(fewshot, &rng);

  size_t fewshot_correct = 0, pretrained_correct = 0;
  for (const Sample& s : bench.gold_dev.samples) {
    if (model::AnswersMatch(fewshot_model.Predict(s), s.answer)) {
      ++fewshot_correct;
    }
    if (model::AnswersMatch(pretrained.Predict(s), s.answer)) {
      ++pretrained_correct;
    }
  }
  // Paper Figure 5 / few-shot rows: pre-training never hurts materially.
  EXPECT_GE(pretrained_correct + 2, fewshot_correct);
}

TEST(IntegrationTest, ThreeWayVerificationLearnsUnknown) {
  Rng rng(303);
  datasets::Benchmark bench =
      datasets::MakeSemTabFactsSim(TinyScale(), &rng);
  Dataset uctr = UctrSynthetic(bench, &rng);
  ASSERT_GT(uctr.CountLabel(Label::kUnknown), 0u);

  model::VerifierConfig config;
  config.num_classes = 3;
  model::VerifierModel verifier(config, BuiltinLogicTemplates());
  verifier.Train(uctr, &rng);

  // The model actually uses the third class on the dev set's unknowns.
  size_t predicted_unknown = 0, gold_unknown = 0, unknown_hits = 0;
  for (const Sample& s : bench.gold_dev.samples) {
    Label predicted = verifier.Predict(s);
    if (predicted == Label::kUnknown) ++predicted_unknown;
    if (s.label == Label::kUnknown) {
      ++gold_unknown;
      if (predicted == Label::kUnknown) ++unknown_hits;
    }
  }
  if (gold_unknown >= 3) {
    EXPECT_GT(predicted_unknown, 0u);
    EXPECT_GT(unknown_hits * 2, gold_unknown)
        << unknown_hits << "/" << gold_unknown;
  }
}

TEST(IntegrationTest, HybridOpsImproveHybridBuckets) {
  Rng rng(404);
  datasets::Benchmark bench = datasets::MakeTatQaSim(TinyScale(), &rng);
  static const TemplateLibrary& library = TemplateLibrary::Builtin();

  auto make_synthetic = [&](bool hybrid_ops) {
    GenerationConfig config;
    config.task = bench.task;
    config.program_types = bench.program_types;
    config.samples_per_table = 10;
    config.use_table_to_text = hybrid_ops;
    config.use_text_to_table = hybrid_ops;
    config.hybrid_fraction = hybrid_ops ? 0.5 : 0.0;
    Generator generator(config, &library, &rng);
    return generator.GenerateDataset(bench.unlabeled);
  };
  Dataset with_ops = make_synthetic(true);
  Dataset without_ops = make_synthetic(false);

  // The Table-To-Text / Text-To-Table operators produce the joint
  // table-text samples; without them none exist (ablation A5 vs A6).
  size_t hybrid_with = with_ops.CountSource(EvidenceSource::kTableSplit) +
                       with_ops.CountSource(EvidenceSource::kTableExpand) +
                       with_ops.CountSource(EvidenceSource::kTextOnly);
  size_t hybrid_without =
      without_ops.CountSource(EvidenceSource::kTableSplit) +
      without_ops.CountSource(EvidenceSource::kTableExpand) +
      without_ops.CountSource(EvidenceSource::kTextOnly);
  EXPECT_GT(hybrid_with, 10u);
  EXPECT_EQ(hybrid_without, 0u);
}

}  // namespace
}  // namespace uctr
