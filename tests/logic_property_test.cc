// Property-based tests of the logical-form executor: algebraic identities
// between operators must hold on arbitrary tables.

#include <gtest/gtest.h>

#include "common/numeric.h"
#include "logic/executor.h"
#include "logic/parser.h"
#include "program/auto_generator.h"
#include "program/sampler.h"
#include "tests/test_util.h"

namespace uctr::logic {
namespace {

class LogicPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  Rng rng_{GetParam()};

  Value Exec(const std::string& lf, const Table& t) {
    auto r = ExecuteLogicalForm(lf, t);
    EXPECT_TRUE(r.ok()) << lf << " -> " << r.status();
    return r.ok() ? r->scalar() : Value::Null();
  }

  std::string RandomNumericColumn(const Table& t) {
    return t.schema().column(1 + rng_.Index(t.num_columns() - 1)).name;
  }
};

TEST_P(LogicPropertyTest, NthMaxOneEqualsMax) {
  Table t = uctr::testing::RandomTable(&rng_);
  std::string col = RandomNumericColumn(t);
  Value nth = Exec("nth_max { all_rows ; " + col + " ; 1 }", t);
  Value max = Exec("max { all_rows ; " + col + " }", t);
  EXPECT_TRUE(nth.Equals(max));
  Value nth_min = Exec("nth_min { all_rows ; " + col + " ; 1 }", t);
  Value min = Exec("min { all_rows ; " + col + " }", t);
  EXPECT_TRUE(nth_min.Equals(min));
}

TEST_P(LogicPropertyTest, ArgmaxHopEqualsMax) {
  Table t = uctr::testing::RandomTable(&rng_);
  std::string col = RandomNumericColumn(t);
  Value via_argmax =
      Exec("hop { argmax { all_rows ; " + col + " } ; " + col + " }", t);
  Value direct = Exec("max { all_rows ; " + col + " }", t);
  EXPECT_TRUE(via_argmax.Equals(direct));
}

TEST_P(LogicPropertyTest, FilterPartitionsCountsNoNulls) {
  Table t = uctr::testing::RandomTable(&rng_);
  std::string col = RandomNumericColumn(t);
  std::string v = std::to_string(rng_.UniformInt(0, 50));
  double eq = Exec("count { filter_eq { all_rows ; " + col + " ; " + v +
                       " } }",
                   t)
                  .number();
  double ne = Exec("count { filter_not_eq { all_rows ; " + col + " ; " + v +
                       " } }",
                   t)
                  .number();
  EXPECT_DOUBLE_EQ(eq + ne, static_cast<double>(t.num_rows()));

  double gt = Exec("count { filter_greater { all_rows ; " + col + " ; " + v +
                       " } }",
                   t)
                  .number();
  double le = Exec("count { filter_less_eq { all_rows ; " + col + " ; " + v +
                       " } }",
                   t)
                  .number();
  EXPECT_DOUBLE_EQ(gt + le, static_cast<double>(t.num_rows()));
}

TEST_P(LogicPropertyTest, FiltersCommute) {
  Table t = uctr::testing::RandomTable(&rng_, 0, 3);
  std::string c1 = t.schema().column(1).name;
  std::string c2 = t.schema().column(2).name;
  std::string v1 = std::to_string(rng_.UniformInt(10, 40));
  std::string v2 = std::to_string(rng_.UniformInt(10, 40));
  double ab = Exec("count { filter_greater { filter_less { all_rows ; " +
                       c1 + " ; " + v1 + " } ; " + c2 + " ; " + v2 + " } }",
                   t)
                  .number();
  double ba = Exec("count { filter_less { filter_greater { all_rows ; " +
                       c2 + " ; " + v2 + " } ; " + c1 + " ; " + v1 + " } }",
                   t)
                  .number();
  EXPECT_DOUBLE_EQ(ab, ba);
}

TEST_P(LogicPropertyTest, GreaterAntisymmetricWithLess) {
  Table t = uctr::testing::RandomTable(&rng_);
  std::string col = RandomNumericColumn(t);
  std::string a = "max { all_rows ; " + col + " }";
  std::string b = "avg { all_rows ; " + col + " }";
  bool greater = Exec("greater { " + a + " ; " + b + " }", t).boolean();
  bool less_swapped = Exec("less { " + b + " ; " + a + " }", t).boolean();
  EXPECT_EQ(greater, less_swapped);
}

TEST_P(LogicPropertyTest, MajorityImpliesCountThreshold) {
  Table t = uctr::testing::RandomTable(&rng_);
  std::string col = RandomNumericColumn(t);
  std::string v = std::to_string(rng_.UniformInt(0, 50));
  bool most =
      Exec("most_greater { all_rows ; " + col + " ; " + v + " }", t)
          .boolean();
  double matching = Exec("count { filter_greater { all_rows ; " + col +
                             " ; " + v + " } }",
                         t)
                        .number();
  EXPECT_EQ(most, matching * 2 > static_cast<double>(t.num_rows()));
}

TEST_P(LogicPropertyTest, AllImpliesMost) {
  Table t = uctr::testing::RandomTable(&rng_);
  std::string col = RandomNumericColumn(t);
  std::string v = std::to_string(rng_.UniformInt(0, 20));
  bool all = Exec("all_greater_eq { all_rows ; " + col + " ; " + v + " }", t)
                 .boolean();
  bool most =
      Exec("most_greater_eq { all_rows ; " + col + " ; " + v + " }", t)
          .boolean();
  if (all && t.num_rows() >= 1) {
    EXPECT_TRUE(most);
  }
}

TEST_P(LogicPropertyTest, SumEqualsAvgTimesCount) {
  Table t = uctr::testing::RandomTable(&rng_);
  std::string col = RandomNumericColumn(t);
  double sum = Exec("sum { all_rows ; " + col + " }", t).number();
  double avg = Exec("avg { all_rows ; " + col + " }", t).number();
  EXPECT_TRUE(NearlyEqual(sum, avg * static_cast<double>(t.num_rows())))
      << sum << " vs " << avg * t.num_rows();
}

TEST_P(LogicPropertyTest, OnlyMatchesCountOne) {
  Table t = uctr::testing::RandomTable(&rng_);
  std::string col = RandomNumericColumn(t);
  std::string v = std::to_string(rng_.UniformInt(0, 50));
  std::string filter =
      "filter_eq { all_rows ; " + col + " ; " + v + " }";
  bool only = Exec("only { " + filter + " }", t).boolean();
  double count = Exec("count { " + filter + " }", t).number();
  EXPECT_EQ(only, count == 1.0);
}

TEST_P(LogicPropertyTest, RandomClaimsRoundTripThroughToString) {
  // Auto-generated templates instantiated on random tables give arbitrary
  // deep programs; re-parsing their canonical rendering must preserve the
  // execution result.
  Table t = uctr::testing::RandomTable(&rng_, 8, 3);
  AutoGenConfig config;
  AutoTemplateGenerator gen(config, &rng_);
  ProgramSampler sampler(&rng_);
  int checked = 0;
  for (int i = 0; i < 30 && checked < 8; ++i) {
    auto form = TemplateForm::Make(gen.Propose());
    if (!form.ok()) continue;
    auto sampled = sampler.SampleClaim(*form, t, i % 2 == 0);
    if (!sampled.ok()) continue;
    ++checked;
    auto node = Parse(sampled->program.text).ValueOrDie();
    auto reparsed = Parse(node->ToString()).ValueOrDie();
    auto r1 = Execute(*node, t).ValueOrDie();
    auto r2 = Execute(*reparsed, t).ValueOrDie();
    EXPECT_TRUE(r1.scalar().Equals(r2.scalar())) << node->ToString();
  }
  EXPECT_GE(checked, 3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LogicPropertyTest,
                         ::testing::Range<uint64_t>(0, 20));

}  // namespace
}  // namespace uctr::logic
