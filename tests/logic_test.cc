#include <gtest/gtest.h>

#include "logic/executor.h"
#include "logic/parser.h"
#include "tests/test_util.h"

namespace uctr::logic {
namespace {

using uctr::testing::MakeFinanceTable;
using uctr::testing::MakeNationsTable;

Value Exec(const std::string& lf, const Table& t) {
  return ExecuteLogicalForm(lf, t).ValueOrDie().scalar();
}

// ---------------------------------------------------------------- Parser

TEST(LogicParserTest, ParsesNestedForm) {
  auto node = Parse(
      "eq { hop { filter_eq { all_rows ; nation ; china } ; gold } ; 8 }")
                  .ValueOrDie();
  EXPECT_EQ(node->name, "eq");
  ASSERT_EQ(node->args.size(), 2u);
  EXPECT_EQ(node->args[0]->name, "hop");
  EXPECT_TRUE(node->args[1]->is_literal);
  EXPECT_EQ(node->args[1]->name, "8");
}

TEST(LogicParserTest, LiteralsWithSpaces) {
  auto node =
      Parse("filter_eq { all_rows ; nation ; united states }").ValueOrDie();
  EXPECT_EQ(node->args[2]->name, "united states");
}

TEST(LogicParserTest, ToStringRoundTrips) {
  const char* lf =
      "eq { count { filter_greater { all_rows ; gold ; 5 } } ; 2 }";
  auto node = Parse(lf).ValueOrDie();
  auto again = Parse(node->ToString()).ValueOrDie();
  EXPECT_EQ(node->ToString(), again->ToString());
}

TEST(LogicParserTest, CloneIsDeep) {
  auto node = Parse("eq { hop { all_rows ; gold } ; 1 }").ValueOrDie();
  auto clone = node->Clone();
  clone->args[1]->name = "2";
  EXPECT_EQ(node->args[1]->name, "1");
}

TEST(LogicParserTest, RejectsMalformed) {
  EXPECT_FALSE(Parse("eq { a ; b").ok());
  EXPECT_FALSE(Parse("").ok());
  EXPECT_FALSE(Parse("eq { a ; b } trailing").ok());
}

// -------------------------------------------------------------- Executor

TEST(LogicExecTest, FilterHopEq) {
  Table t = MakeNationsTable();
  Value v = Exec(
      "eq { hop { filter_eq { all_rows ; nation ; china } ; gold } ; 8 }", t);
  EXPECT_TRUE(v.boolean());
  Value f = Exec(
      "eq { hop { filter_eq { all_rows ; nation ; china } ; gold } ; 9 }", t);
  EXPECT_FALSE(f.boolean());
}

TEST(LogicExecTest, CountAndComparisonFilters) {
  Table t = MakeNationsTable();
  EXPECT_DOUBLE_EQ(
      Exec("count { filter_greater { all_rows ; gold ; 5 } }", t).number(),
      2.0);
  EXPECT_DOUBLE_EQ(
      Exec("count { filter_less_eq { all_rows ; gold ; 5 } }", t).number(),
      3.0);
  EXPECT_DOUBLE_EQ(
      Exec("count { filter_not_eq { all_rows ; nation ; china } }", t)
          .number(),
      4.0);
  EXPECT_DOUBLE_EQ(Exec("count { filter_all { all_rows ; gold } }", t).number(),
                   5.0);
}

TEST(LogicExecTest, SuperlativesAndOrdinals) {
  Table t = MakeNationsTable();
  EXPECT_EQ(Exec("hop { argmax { all_rows ; total } ; nation }", t)
                .ToDisplayString(),
            "united states");
  EXPECT_EQ(Exec("hop { argmin { all_rows ; total } ; nation }", t)
                .ToDisplayString(),
            "france");
  EXPECT_EQ(Exec("hop { nth_argmax { all_rows ; total ; 2 } ; nation }", t)
                .ToDisplayString(),
            "china");
  EXPECT_DOUBLE_EQ(Exec("max { all_rows ; gold }", t).number(), 10.0);
  EXPECT_DOUBLE_EQ(Exec("nth_min { all_rows ; gold ; 2 }", t).number(), 5.0);
}

TEST(LogicExecTest, AggregationsAndDiff) {
  Table t = MakeNationsTable();
  EXPECT_DOUBLE_EQ(Exec("sum { all_rows ; gold }", t).number(), 30.0);
  EXPECT_DOUBLE_EQ(Exec("avg { all_rows ; bronze }", t).number(), 7.0);
  EXPECT_DOUBLE_EQ(
      Exec("diff { hop { filter_eq { all_rows ; nation ; china } ; gold } ; "
           "hop { filter_eq { all_rows ; nation ; japan } ; gold } }",
           t)
          .number(),
      3.0);
}

TEST(LogicExecTest, MajorityOperators) {
  Table t = MakeNationsTable();
  EXPECT_TRUE(Exec("most_greater { all_rows ; total ; 13.5 }", t).boolean());
  EXPECT_FALSE(Exec("most_greater { all_rows ; total ; 20 }", t).boolean());
  EXPECT_TRUE(Exec("all_greater { all_rows ; total ; 10 }", t).boolean());
  EXPECT_FALSE(Exec("all_greater { all_rows ; total ; 14 }", t).boolean());
  EXPECT_TRUE(
      Exec("most_eq { filter_eq { all_rows ; gold ; 5 } ; gold ; 5 }", t)
          .boolean());
}

TEST(LogicExecTest, OnlyAndBooleanConnectives) {
  Table t = MakeNationsTable();
  EXPECT_TRUE(Exec("only { filter_greater { all_rows ; gold ; 8 } }", t)
                  .boolean());
  EXPECT_FALSE(Exec("only { filter_greater { all_rows ; gold ; 4 } }", t)
                   .boolean());
  EXPECT_TRUE(
      Exec("and { greater { 3 ; 2 } ; less { 2 ; 3 } }", t).boolean());
  EXPECT_FALSE(
      Exec("and { greater { 3 ; 2 } ; less { 3 ; 2 } }", t).boolean());
  EXPECT_TRUE(Exec("not { eq { 1 ; 2 } }", t).boolean());
}

TEST(LogicExecTest, RoundEqTolerance) {
  Table t = MakeNationsTable();
  EXPECT_TRUE(Exec("round_eq { avg { all_rows ; gold } ; 6 }", t).boolean());
  EXPECT_TRUE(
      Exec("round_eq { avg { all_rows ; bronze } ; 7.05 }", t).boolean());
  EXPECT_FALSE(
      Exec("round_eq { avg { all_rows ; gold } ; 8 }", t).boolean());
}

TEST(LogicExecTest, EvidenceRowsTracked) {
  Table t = MakeNationsTable();
  auto r = ExecuteLogicalForm(
               "eq { hop { filter_eq { all_rows ; nation ; japan } ; gold } "
               "; 5 }",
               t)
               .ValueOrDie();
  ASSERT_EQ(r.evidence_rows.size(), 1u);
  EXPECT_EQ(r.evidence_rows[0], 2u);
}

TEST(LogicExecTest, WorksOnFinanceTable) {
  Table t = MakeFinanceTable();
  EXPECT_TRUE(
      Exec("eq { hop { filter_eq { all_rows ; item ; revenue } ; 2019 } ; "
           "$1,200.5 }",
           t)
          .boolean());
}

TEST(LogicExecTest, ErrorsOnBadPrograms) {
  Table t = MakeNationsTable();
  EXPECT_FALSE(ExecuteLogicalForm("bogus_op { all_rows ; x }", t).ok());
  EXPECT_FALSE(ExecuteLogicalForm("hop { all_rows }", t).ok());  // arity
  EXPECT_FALSE(
      ExecuteLogicalForm("max { all_rows ; no_such_column }", t).ok());
  // Ordinal beyond view size.
  EXPECT_FALSE(
      ExecuteLogicalForm("nth_max { all_rows ; gold ; 99 }", t).ok());
  // Superlative over empty view.
  EXPECT_FALSE(
      ExecuteLogicalForm(
          "max { filter_eq { all_rows ; nation ; narnia } ; gold }", t)
          .ok());
}

}  // namespace
}  // namespace uctr::logic
