#include <gtest/gtest.h>

#include "eval/metrics.h"

namespace uctr::eval {
namespace {

TEST(MetricsTest, LabelAccuracy) {
  std::vector<Label> gold = {Label::kSupported, Label::kRefuted,
                             Label::kSupported, Label::kUnknown};
  std::vector<Label> pred = {Label::kSupported, Label::kSupported,
                             Label::kSupported, Label::kUnknown};
  EXPECT_DOUBLE_EQ(LabelAccuracy(pred, gold), 0.75);
  EXPECT_DOUBLE_EQ(LabelAccuracy({}, {}), 0.0);
  EXPECT_DOUBLE_EQ(LabelAccuracy({Label::kSupported}, gold), 0.0);  // size
}

TEST(MetricsTest, ExactMatchToleratesFormatting) {
  EXPECT_TRUE(ExactMatch("8", "8"));
  EXPECT_TRUE(ExactMatch("$1,200.5", "1200.5"));
  EXPECT_TRUE(ExactMatch("0.2005", "20.05"));  // percent scale
  EXPECT_TRUE(ExactMatch("China", "china"));
  EXPECT_FALSE(ExactMatch("7", "8"));
  EXPECT_FALSE(ExactMatch("", "8"));
}

// A gold inf is matched by the same infinity only, and a finite gold
// never by an infinity.
TEST(MetricsTest, ExactMatchOfInfinity) {
  EXPECT_TRUE(ExactMatch("inf", "inf"));
  EXPECT_TRUE(ExactMatch("-inf", "-inf"));
  EXPECT_FALSE(ExactMatch("5", "inf"));
  EXPECT_FALSE(ExactMatch("-inf", "inf"));
  EXPECT_FALSE(ExactMatch("inf", "1e300"));
}

TEST(MetricsTest, NumeracyF1AllOrNothingForNumbers) {
  EXPECT_DOUBLE_EQ(NumeracyF1("8", "8"), 1.0);
  EXPECT_DOUBLE_EQ(NumeracyF1("8.01", "8"), 0.0);  // close is not credit
  // Textual answers get token-level partial credit.
  double f1 = NumeracyF1("united states of america", "united states");
  EXPECT_GT(f1, 0.5);
  EXPECT_LT(f1, 1.0);
}

TEST(MetricsTest, AnswerEmF1Averages) {
  EmF1 r = AnswerEmF1({"8", "wrong", "united states"},
                      {"8", "7", "united states"});
  EXPECT_NEAR(r.em, 2.0 / 3.0, 1e-9);
  EXPECT_GE(r.f1, r.em);  // F1 dominates EM
}

TEST(MetricsTest, DenotationAccuracy) {
  EXPECT_DOUBLE_EQ(
      DenotationAccuracy({"a", "b", "$3"}, {"a", "c", "3"}), 2.0 / 3.0);
}

TEST(MetricsTest, ThreeWayMicroF1EqualsAccuracy) {
  std::vector<Label> gold = {Label::kSupported, Label::kRefuted,
                             Label::kUnknown, Label::kUnknown};
  std::vector<Label> pred = {Label::kSupported, Label::kUnknown,
                             Label::kUnknown, Label::kRefuted};
  EXPECT_DOUBLE_EQ(ThreeWayMicroF1(pred, gold), 0.5);
}

TEST(MetricsTest, FeverousScoreBoundedByAccuracyAndRecall) {
  Rng rng(5);
  std::vector<bool> correct(1000, true);
  double score = FeverousScore(correct, 0.25, &rng);
  EXPECT_NEAR(score, 0.25, 0.05);  // all labels right: score ~= recall
  std::vector<bool> half(1000);
  for (size_t i = 0; i < half.size(); ++i) half[i] = i % 2 == 0;
  double score_half = FeverousScore(half, 0.25, &rng);
  EXPECT_NEAR(score_half, 0.125, 0.04);
  EXPECT_DOUBLE_EQ(FeverousScore({}, 0.25, &rng), 0.0);
}

TEST(MetricsTest, FeverousScoreExpectationWithNullRng) {
  // Null rng yields the exact expectation rather than a sampled score.
  std::vector<bool> correct = {true, true, false, false};
  EXPECT_DOUBLE_EQ(FeverousScore(correct, 0.5, nullptr), 0.25);
  EXPECT_DOUBLE_EQ(FeverousScore(correct, 1.0, nullptr), 0.5);
  EXPECT_DOUBLE_EQ(FeverousScore({}, 0.5, nullptr), 0.0);
}

}  // namespace
}  // namespace uctr::eval
