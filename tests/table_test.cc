#include <gtest/gtest.h>

#include <limits>

#include "table/exec_result.h"
#include "table/table.h"
#include "table/value.h"
#include "tests/test_util.h"

namespace uctr {
namespace {

using testing::MakeFinanceTable;
using testing::MakeNationsTable;

// ----------------------------------------------------------------- Value

TEST(ValueTest, FromTextInference) {
  EXPECT_TRUE(Value::FromText("").is_null());
  EXPECT_TRUE(Value::FromText("n/a").is_null());
  EXPECT_TRUE(Value::FromText("-").is_null());
  EXPECT_TRUE(Value::FromText("42").is_number());
  EXPECT_TRUE(Value::FromText("$1,200.5").is_number());
  EXPECT_TRUE(Value::FromText("true").is_bool());
  EXPECT_TRUE(Value::FromText("hello world").is_string());
}

TEST(ValueTest, NumberKeepsSurfaceText) {
  Value v = Value::FromText(" $1,200.50 ");
  ASSERT_TRUE(v.is_number());
  EXPECT_DOUBLE_EQ(v.number(), 1200.5);
  EXPECT_EQ(v.ToDisplayString(), "$1,200.50");
}

TEST(ValueTest, SemanticEquality) {
  EXPECT_TRUE(Value::FromText("$1,200.5").Equals(Value::Number(1200.5)));
  EXPECT_TRUE(Value::String("China").Equals(Value::String("china")));
  EXPECT_FALSE(Value::Number(1).Equals(Value::String("one")));
  EXPECT_TRUE(Value::Null().Equals(Value::Null()));
  EXPECT_FALSE(Value::Null().Equals(Value::Number(0)));
}

TEST(ValueTest, CompareNumericAndString) {
  EXPECT_LT(Value::Number(2).Compare(Value::Number(10)), 0);
  EXPECT_GT(Value::String("zebra").Compare(Value::String("Apple")), 0);
  EXPECT_LT(Value::Null().Compare(Value::Number(0)), 0);
  // String "30" vs number 24 compares numerically.
  EXPECT_GT(Value::String("30").Compare(Value::Number(24)), 0);
}

// The one order: null < numbers < text; numbers by exact value, -0
// tying +0 and NaN after +inf; text by its trimmed lower-case form.
// Compare, for range predicates, reads a NearlyEqual pair as equal.
TEST(ValueTest, OrderIsOneTotalOrder) {
  const double inf = std::numeric_limits<double>::infinity();
  const Value nan = Value::FromText("nan");
  EXPECT_LT(Value::Null().Order(Value::Number(-inf)), 0);
  EXPECT_LT(Value::Number(inf).Order(nan), 0);
  EXPECT_EQ(nan.Order(nan), 0);
  EXPECT_LT(nan.Order(Value::String("")), 0);
  EXPECT_LT(Value::Number(10).Order(Value::String("5x")), 0);
  EXPECT_LT(Value::String("9").Order(Value::Number(10)), 0);
  EXPECT_LT(Value::Bool(true).Order(Value::String("a")), 0);
  EXPECT_EQ(Value::Number(-0.0).Order(Value::Number(0.0)), 0);
  EXPECT_EQ(Value::String(" Apple").Order(Value::String("apple ")), 0);
  EXPECT_LT(Value::Number(4000004).Order(Value::Number(4000007)), 0);
  EXPECT_EQ(Value::Number(4000004).Compare(Value::Number(4000007)), 0);
  EXPECT_LT(Value::Number(4000004).Compare(Value::Number(4000011)), 0);
  EXPECT_EQ(Value::Number(inf).Compare(Value::Number(inf)), 0);
  EXPECT_LT(Value::Number(1e300).Compare(Value::Number(inf)), 0);
  EXPECT_TRUE(Value::Number(inf).Equals(Value::FromText("inf")));
  EXPECT_FALSE(Value::Number(1e300).Equals(Value::Number(inf)));
}

TEST(ValueTest, ToNumberConversions) {
  EXPECT_DOUBLE_EQ(Value::FromText("12.5%").ToNumber().ValueOrDie(), 12.5);
  EXPECT_FALSE(Value::String("abc").ToNumber().ok());
  EXPECT_FALSE(Value::Null().ToNumber().ok());
  EXPECT_DOUBLE_EQ(Value::Bool(true).ToNumber().ValueOrDie(), 1.0);
}

// ----------------------------------------------------------------- Table

TEST(TableTest, FromCsvBasics) {
  Table t = MakeNationsTable();
  EXPECT_EQ(t.num_rows(), 5u);
  EXPECT_EQ(t.num_columns(), 5u);
  EXPECT_EQ(t.schema().column(0).name, "nation");
  EXPECT_EQ(t.cell(0, 0).ToDisplayString(), "united states");
  EXPECT_DOUBLE_EQ(t.cell(1, 1).number(), 8.0);
}

TEST(TableTest, CsvQuotedFields) {
  auto t = Table::FromCsv(
      "a,b\n\"x, y\",\"he said \"\"hi\"\"\"\n").ValueOrDie();
  EXPECT_EQ(t.cell(0, 0).ToDisplayString(), "x, y");
  EXPECT_EQ(t.cell(0, 1).ToDisplayString(), "he said \"hi\"");
}

TEST(TableTest, CsvRoundTrip) {
  Table t = MakeFinanceTable();
  auto again = Table::FromCsv(t.ToCsv()).ValueOrDie();
  ASSERT_EQ(again.num_rows(), t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      EXPECT_TRUE(again.cell(r, c).Equals(t.cell(r, c)))
          << "cell " << r << "," << c;
    }
  }
}

TEST(TableTest, TypeInference) {
  Table t = MakeNationsTable();
  EXPECT_EQ(t.schema().column(0).type, ColumnType::kText);
  EXPECT_EQ(t.schema().column(1).type, ColumnType::kNumber);
  EXPECT_EQ(t.schema().column(4).type, ColumnType::kNumber);
}

TEST(TableTest, TypeInferenceToleratesFootnote) {
  auto t = Table::FromCsv(
      "name,value\na,1\nb,2\nc,3\nd,4\ne,5\nf,6\ng,7\nh,8\ni,9\nj,see note\n")
      .ValueOrDie();
  // 9/10 numeric cells: still a numeric column.
  EXPECT_EQ(t.schema().column(1).type, ColumnType::kNumber);
}

TEST(TableTest, ColumnIndexCaseInsensitiveAndFuzzy) {
  Table t = MakeNationsTable();
  EXPECT_EQ(t.ColumnIndex("GOLD").ValueOrDie(), 1u);
  EXPECT_EQ(t.ColumnIndex("silver").ValueOrDie(), 2u);
  EXPECT_FALSE(t.ColumnIndex("platinum").ok());
}

TEST(TableTest, RowIndexByName) {
  Table t = MakeFinanceTable();
  EXPECT_EQ(t.RowIndexByName("revenue").ValueOrDie(), 0u);
  EXPECT_EQ(t.RowIndexByName("Stockholders' Equity").ValueOrDie(), 3u);
  EXPECT_FALSE(t.RowIndexByName("dividends").ok());
}

TEST(TableTest, SubTableAndWithoutRow) {
  Table t = MakeNationsTable();
  Table without = t.WithoutRow(0);
  EXPECT_EQ(without.num_rows(), 4u);
  EXPECT_EQ(without.cell(0, 0).ToDisplayString(), "china");
  EXPECT_EQ(without.name(), "medals");
  // The source's schema is kept, not re-inferred.
  Table finance = MakeFinanceTable();
  Table rest = finance.WithoutRow(3);
  EXPECT_EQ(rest.ToCsv(),
            "item,2019,2018\n"
            "revenue,\"$1,200.5\",\"$1,000.0\"\n"
            "cost of sales,800,700\n"
            "gross profit,400.5,300\n");
  EXPECT_EQ(rest.schema().Fingerprint(), finance.schema().Fingerprint());
  // Out of range removes nothing.
  EXPECT_EQ(t.WithoutRow(99).ToCsv(), t.ToCsv());
}

TEST(TableTest, LinearizeMentionsHeadersAndCells) {
  Table t = MakeNationsTable();
  std::string lin = t.Linearize();
  EXPECT_NE(lin.find("col: nation is united states"), std::string::npos);
  EXPECT_NE(lin.find("col: total is 30"), std::string::npos);
}

TEST(TableTest, MarkdownRender) {
  Table t = MakeNationsTable();
  std::string md = t.ToMarkdown();
  EXPECT_NE(md.find("| nation |"), std::string::npos);
  EXPECT_NE(md.find("| china |"), std::string::npos);
}

TEST(TableTest, EmptyCsvFails) {
  EXPECT_FALSE(Table::FromCsv("").ok());
}

TEST(TableTest, RaggedRowFails) {
  EXPECT_FALSE(Table::FromCsv("a,b\n1\n").ok());
}

// ------------------------------------------------------------- RowMarks

TEST(RowMarksTest, YieldsDistinctRowsAscendingAcrossWords) {
  RowMarks marks(130);
  EXPECT_TRUE(marks.Rows().empty());
  marks.Mark(std::vector<size_t>{129, 64, 0, 63, 64});
  marks.Mark(65);
  marks.Mark(0);
  marks.Mark(std::vector<size_t>{});
  EXPECT_EQ(marks.Rows(), (std::vector<size_t>{0, 63, 64, 65, 129}));

  RowMarks none(0);
  none.Mark(std::vector<size_t>{});
  EXPECT_TRUE(none.Rows().empty());
}

}  // namespace
}  // namespace uctr
