#include <gtest/gtest.h>

#include "arith/executor.h"
#include "arith/parser.h"
#include "arith/trace.h"
#include "baselines/mqa_qg.h"
#include "gen/generator.h"
#include "gen/quality.h"
#include "logic/parser.h"
#include "logic/trace.h"
#include "program/library.h"
#include "tests/test_util.h"

namespace uctr {
namespace {

using testing::MakeNationsTable;

// ----------------------------------------------------------------- Trace

TEST(TraceTest, RecordsPostOrderSteps) {
  Table t = MakeNationsTable();
  auto node = logic::Parse(
                  "eq { hop { filter_eq { all_rows ; nation ; china } ; "
                  "gold } ; 8 }")
                  .ValueOrDie();
  auto trace = logic::ExecuteWithTrace(*node, t).ValueOrDie();
  EXPECT_TRUE(trace.result.scalar().boolean());
  ASSERT_EQ(trace.steps.size(), 3u);  // filter_eq, hop, eq
  EXPECT_EQ(trace.steps[0].op, "filter_eq");
  EXPECT_EQ(trace.steps[0].output, "1 row(s)");
  EXPECT_EQ(trace.steps[1].op, "hop");
  EXPECT_EQ(trace.steps[1].output, "8");
  EXPECT_EQ(trace.steps[2].op, "eq");
  EXPECT_EQ(trace.steps[2].output, "true");
  // Depths decrease toward the root.
  EXPECT_GT(trace.steps[0].depth, trace.steps[1].depth);
  EXPECT_GT(trace.steps[1].depth, trace.steps[2].depth);
}

TEST(TraceTest, EmptyIntermediateViewIsLegitimate) {
  Table t = MakeNationsTable();
  auto node = logic::Parse(
                  "eq { count { filter_eq { all_rows ; nation ; narnia } } "
                  "; 0 }")
                  .ValueOrDie();
  auto trace = logic::ExecuteWithTrace(*node, t).ValueOrDie();
  EXPECT_TRUE(trace.result.scalar().boolean());
  EXPECT_EQ(trace.steps[0].output, "0 row(s)");
  EXPECT_EQ(trace.steps[1].output, "0");
}

TEST(TraceTest, ToStringRendersIndentedSteps) {
  Table t = MakeNationsTable();
  auto node =
      logic::Parse("eq { max { all_rows ; gold } ; 10 }").ValueOrDie();
  auto trace = logic::ExecuteWithTrace(*node, t).ValueOrDie();
  std::string rendered = trace.ToString();
  EXPECT_NE(rendered.find("=>  10"), std::string::npos);
  EXPECT_NE(rendered.find("=>  true"), std::string::npos);
}

TEST(TraceTest, PropagatesRealErrors) {
  Table t = MakeNationsTable();
  auto node =
      logic::Parse("eq { max { all_rows ; no_such_col } ; 1 }").ValueOrDie();
  EXPECT_FALSE(logic::ExecuteWithTrace(*node, t).ok());
}

// ----------------------------------------------------------- Arith trace

TEST(ArithTraceTest, StepChainIsVisible) {
  Table t = testing::MakeFinanceTable();
  auto expr = arith::Parse(
                  "subtract(2019 of revenue, 2018 of revenue), "
                  "divide(#0, 2018 of revenue)")
                  .ValueOrDie();
  auto trace = arith::ExecuteWithTrace(expr, t).ValueOrDie();
  ASSERT_EQ(trace.steps.size(), 2u);
  EXPECT_EQ(trace.steps[0].index, 0u);
  EXPECT_EQ(trace.steps[0].output, "200.5");
  EXPECT_NEAR(trace.result.scalar().number(), 0.2005, 1e-9);
  std::string rendered = trace.ToString();
  EXPECT_NE(rendered.find("#0: subtract"), std::string::npos);
  EXPECT_NE(rendered.find("#1: divide"), std::string::npos);
}

TEST(ArithTraceTest, PropagatesErrors) {
  Table t = testing::MakeFinanceTable();
  auto expr = arith::Parse("divide(1, 0)").ValueOrDie();
  EXPECT_FALSE(arith::ExecuteWithTrace(expr, t).ok());
}

TEST(ArithTraceTest, MatchesPlainExecution) {
  Table t = testing::MakeFinanceTable();
  auto expr = arith::Parse(
                  "add(2019 of revenue, 2018 of revenue), "
                  "divide(#0, const_2), multiply(#1, const_100)")
                  .ValueOrDie();
  auto plain = arith::Execute(expr, t).ValueOrDie();
  auto traced = arith::ExecuteWithTrace(expr, t).ValueOrDie();
  EXPECT_TRUE(plain.scalar().Equals(traced.result.scalar()));
  EXPECT_EQ(traced.steps.size(), 3u);
}

// --------------------------------------------------------------- Quality

Dataset UctrData(size_t n, uint64_t seed) {
  Rng rng(seed);
  TemplateLibrary lib = TemplateLibrary::Builtin();
  GenerationConfig config;
  config.task = TaskType::kFactVerification;
  config.program_types = {ProgramType::kLogicalForm};
  config.samples_per_table = n;
  Generator gen(config, &lib, &rng);
  TableWithText input;
  input.table = MakeNationsTable();
  return gen.GenerateDataset({input});
}

TEST(QualityTest, EmptyDatasetIsZeroed) {
  QualityReport report = AnalyzeDataset(Dataset{});
  EXPECT_EQ(report.samples, 0u);
  EXPECT_DOUBLE_EQ(report.reasoning_entropy, 0.0);
}

TEST(QualityTest, UctrDataIsDiverseAndBalanced) {
  QualityReport report = AnalyzeDataset(UctrData(50, 3));
  EXPECT_GT(report.samples, 25u);
  EXPECT_DOUBLE_EQ(report.distinct_sentence_ratio, 1.0);  // deduped
  EXPECT_GT(report.mean_sentence_tokens, 5.0);
  EXPECT_GT(report.reasoning_entropy, 1.5);  // many reasoning types
  EXPECT_GT(report.label_balance, 0.4);
}

TEST(QualityTest, MqaQgDataHasZeroReasoningEntropy) {
  Rng rng(5);
  baselines::MqaQgConfig config;
  config.task = TaskType::kFactVerification;
  config.samples_per_table = 20;
  baselines::MqaQg gen(config, &rng);
  TableWithText input;
  input.table = MakeNationsTable();
  Dataset data = gen.GenerateDataset({input});
  QualityReport report = AnalyzeDataset(data);
  // Every MQA-QG sample is the single "simple" reasoning type — exactly
  // the deficiency the paper highlights in Figure 2.
  EXPECT_DOUBLE_EQ(report.reasoning_entropy, 0.0);
  EXPECT_EQ(report.reasoning_counts.size(), 1u);

  // UCTR's entropy strictly dominates.
  QualityReport uctr = AnalyzeDataset(UctrData(20, 5));
  EXPECT_GT(uctr.reasoning_entropy, report.reasoning_entropy);
}

}  // namespace
}  // namespace uctr
