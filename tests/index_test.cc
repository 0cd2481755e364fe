// Differential tests for the lazily built per-table index (table/index.h).
//
// The TableIndex contract is bit-identical execution: for every program the
// runtime path (Program::Execute — the compiled plan on the VM, which reads
// through the index) must produce exactly the same outcome as the
// reference row scan of the tree-walk executors — same status code and
// message on errors, same values (type and display text), the same
// evidence rows, and the same tie-breaking row order. These tests execute
// fixture query suites and randomized tables through both and compare the
// outcomes field by field, including after mutations invalidate the
// cached index and under concurrent first-touch builds. The token
// inventory's lifecycle (lazy build, invalidation, moves and copies,
// concurrent first touch through RankAll and Extract) is checked too.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "logic/executor.h"
#include "model/features.h"
#include "model/interpreter.h"
#include "program/library.h"
#include "program/program.h"
#include "sql/executor.h"
#include "table/index.h"
#include "table/table.h"
#include "tests/test_util.h"

namespace uctr {
namespace {

// The medal fixture used across the executor test suites: text rows with
// duplicate values (tie-breaking), a numeric tie in `total`, and a null.
const char kMedalCsv[] =
    "nation,gold,silver,bronze,total\n"
    "Norway,16,8,13,37\n"
    "Germany,12,10,5,27\n"
    "Canada,4,8,14,26\n"
    "USA,8,10,9,27\n"
    "Sweden,8,5,5,18\n"
    "Austria,4,8,5,17\n"
    "Italy,2,7,,9\n";

Table MedalTable() { return Table::FromCsv(kMedalCsv).ValueOrDie(); }

// Currency/percent formatting plus nulls: ToNumber parses "$1,234" and
// "12%", so the numeric cache must agree with per-cell parsing exactly.
Table FinanceTable() {
  return Table::FromCsv(
             "item,fy2019,fy2020,growth\n"
             "revenue,\"$1,234\",\"$2,468\",100%\n"
             "cost,\"$800\",\"$900\",12.5%\n"
             "margin,\"$434\",\"$1,568\",-\n"
             "headcount,25,31,24%\n")
      .ValueOrDie();
}

std::string DescribeOutcome(const Result<ExecResult>& r) {
  if (!r.ok()) {
    return "status{" + r.status().ToString() + "}";
  }
  std::string out = "ok{values=[";
  for (size_t i = 0; i < r->values.size(); ++i) {
    if (i > 0) out += "|";
    const Value& v = r->values[i];
    out += std::string(ValueTypeToString(v.type())) + ":" +
           v.ToDisplayString();
  }
  out += "] evidence=[";
  for (size_t i = 0; i < r->evidence_rows.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(r->evidence_rows[i]);
  }
  return out + "]}";
}

Result<ExecResult> Execute(ProgramType type, const std::string& text,
                       const Table& table) {
  return Program{type, text}.Execute(table);
}

// Executes `query` on the runtime path and on the scan walker and requires
// the outcomes to match field for field. The scan runs on a fresh copy of
// the table so the runtime path can never warm state the scan reads
// (copies deliberately do not share the cached index).
void ExpectSqlIdentical(const Table& table, const std::string& query) {
  Table scan_copy = table;
  auto indexed = Execute(ProgramType::kSql, query, table);
  auto scanned = sql::ExecuteQuery(query, scan_copy);
  EXPECT_EQ(DescribeOutcome(indexed), DescribeOutcome(scanned))
      << "sql query diverged: " << query;
}

void ExpectLogicIdentical(const Table& table, const std::string& form) {
  Table scan_copy = table;
  auto indexed = Execute(ProgramType::kLogicalForm, form, table);
  auto scanned = logic::ExecuteLogicalForm(form, scan_copy);
  EXPECT_EQ(DescribeOutcome(indexed), DescribeOutcome(scanned))
      << "logical form diverged: " << form;
}

const std::vector<std::string>& SqlQuerySuite() {
  static const std::vector<std::string> kQueries = {
      // Equality predicates: hash-index path (text) and numeric path.
      "SELECT total FROM w WHERE nation = 'Germany'",
      "SELECT nation FROM w WHERE gold = 8",
      "SELECT nation FROM w WHERE total = 27",
      "SELECT nation FROM w WHERE nation = 'Atlantis'",
      "SELECT nation FROM w WHERE nation != 'USA'",
      // Range predicates over the numeric cache.
      "SELECT nation FROM w WHERE gold > 5",
      "SELECT nation FROM w WHERE gold >= 8",
      "SELECT nation FROM w WHERE silver < 8",
      "SELECT nation FROM w WHERE bronze <= 5",
      // Conjunctions, including an empty intermediate row set.
      "SELECT nation FROM w WHERE gold > 5 AND silver = 10",
      "SELECT nation FROM w WHERE gold > 100 AND silver = 10",
      // Ordering (both directions; `total` ties 27-27 check stability)
      // and limits.
      "SELECT nation FROM w ORDER BY total DESC",
      "SELECT nation FROM w ORDER BY total ASC",
      "SELECT nation, total FROM w ORDER BY total DESC LIMIT 3",
      "SELECT nation FROM w WHERE gold >= 4 ORDER BY nation ASC LIMIT 4",
      // Aggregates, with and without predicates; bronze has a null.
      "SELECT COUNT(nation) FROM w",
      "SELECT COUNT(bronze) FROM w",
      "SELECT COUNT(DISTINCT silver) FROM w",
      "SELECT COUNT(DISTINCT nation) FROM w WHERE gold >= 4",
      "SELECT SUM(total) FROM w",
      "SELECT SUM(bronze) FROM w WHERE gold < 10",
      "SELECT AVG(silver) FROM w",
      "SELECT MIN(total) FROM w",
      "SELECT MAX(total) FROM w",
      "SELECT MAX(total) FROM w WHERE gold < 10",
      "SELECT MIN(nation) FROM w",
      // Error parity: unknown columns in every clause position.
      "SELECT ghost FROM w",
      "SELECT nation FROM w WHERE ghost = 1",
      "SELECT nation FROM w ORDER BY ghost",
      "SELECT SUM(ghost) FROM w",
      // Type-error parity: aggregating a text column.
      "SELECT SUM(nation) FROM w",
      "SELECT AVG(nation) FROM w WHERE gold > 5",
  };
  return kQueries;
}

const std::vector<std::string>& LogicFormSuite() {
  static const std::vector<std::string> kForms = {
      // Row selection.
      "hop { filter_eq { all_rows ; nation ; Germany } ; total }",
      "count { filter_eq { all_rows ; silver ; 8 } }",
      "count { filter_not_eq { all_rows ; nation ; USA } }",
      "count { filter_greater { all_rows ; gold ; 5 } }",
      "count { filter_less_eq { all_rows ; bronze ; 5 } }",
      "count { filter_all { all_rows ; bronze } }",
      // Superlatives and ordinals (27-27 tie in total).
      "hop { argmax { all_rows ; total } ; nation }",
      "hop { argmin { all_rows ; total } ; nation }",
      "hop { nth_argmax { all_rows ; total ; 2 } ; nation }",
      "hop { nth_argmax { all_rows ; total ; 3 } ; nation }",
      "hop { nth_argmin { all_rows ; silver ; 2 } ; nation }",
      "max { all_rows ; gold }",
      "min { all_rows ; bronze }",
      "nth_max { all_rows ; total ; 2 }",
      "nth_min { all_rows ; total ; 3 }",
      // Aggregates over views (bronze includes a null).
      "sum { all_rows ; total }",
      "avg { all_rows ; silver }",
      "sum { filter_greater { all_rows ; gold ; 5 } ; total }",
      "avg { filter_eq { all_rows ; silver ; 8 } ; gold }",
      // Majority / comparison wrappers.
      "most_greater { all_rows ; gold ; 3 }",
      "most_eq { all_rows ; silver ; 8 }",
      "all_greater { all_rows ; total ; 5 }",
      "eq { count { filter_greater { all_rows ; gold ; 5 } } ; 3 }",
      "diff { max { all_rows ; total } ; min { all_rows ; total } }",
      "greater { hop { filter_eq { all_rows ; nation ; Norway } ; gold } ; "
      "hop { filter_eq { all_rows ; nation ; Sweden } ; gold } }",
      // Superlative on a filtered (subset) view.
      "hop { argmax { filter_greater { all_rows ; silver ; 7 } ; total } ; "
      "nation }",
      // Error parity: missing column / missing row value.
      "max { all_rows ; ghost }",
      "hop { filter_eq { all_rows ; nation ; Atlantis } ; gold }",
      "sum { all_rows ; nation }",
  };
  return kForms;
}

TEST(IndexDifferentialTest, SqlFixtureSuiteMatchesScan) {
  Table medals = MedalTable();
  for (const std::string& query : SqlQuerySuite()) {
    ExpectSqlIdentical(medals, query);
  }
}

TEST(IndexDifferentialTest, SqlFinanceSuiteMatchesScan) {
  Table finance = FinanceTable();
  for (const char* query : {
           "SELECT fy2020 FROM w WHERE item = 'revenue'",
           "SELECT item FROM w WHERE fy2019 = 1234",
           "SELECT item FROM w WHERE fy2019 > 500 ORDER BY fy2020 DESC",
           "SELECT SUM(fy2020) FROM w",
           "SELECT COUNT(growth) FROM w",
           "SELECT COUNT(DISTINCT growth) FROM w",
           "SELECT MAX(growth) FROM w",
           "SELECT AVG(growth) FROM w",
       }) {
    ExpectSqlIdentical(finance, query);
  }
}

TEST(IndexDifferentialTest, LogicFixtureSuiteMatchesScan) {
  Table medals = MedalTable();
  for (const std::string& form : LogicFormSuite()) {
    ExpectLogicIdentical(medals, form);
  }
}

TEST(IndexDifferentialTest, EmptyAndDegenerateTables) {
  Table empty = Table::FromCsv("a,b\n").ValueOrDie();
  ExpectSqlIdentical(empty, "SELECT a FROM w WHERE b = 1");
  ExpectSqlIdentical(empty, "SELECT MAX(a) FROM w");
  // Scan parity on zero rows: a bad column in the second condition is
  // never resolved because no row survives the first.
  ExpectSqlIdentical(empty, "SELECT a FROM w WHERE a = 1 AND ghost = 2");
  ExpectLogicIdentical(empty, "count { all_rows }");
  ExpectLogicIdentical(empty, "max { all_rows ; a }");

  Table nulls = Table::FromCsv("x,y\n,\n,\n").ValueOrDie();
  ExpectSqlIdentical(nulls, "SELECT COUNT(x) FROM w");
  ExpectSqlIdentical(nulls, "SELECT x FROM w WHERE y = 0");
  ExpectLogicIdentical(nulls, "count { filter_all { all_rows ; x } }");
}

// Cells whose display text, normalized text and surface text disagree:
// texts that differ only in case or surrounding whitespace, equal numbers
// with different surface text, a text-less number beside the string "5"
// in one mixed column, an empty string, bools and nulls. Built from
// Values, so the whitespace and the text-less number survive.
Table DisagreeingTextTable() {
  const Value null = Value::Null();
  auto s = [](const char* text) { return Value::String(text); };
  auto n = [](double x, const char* text) {
    return Value::NumberWithText(x, text);
  };
  return Table::FromValues(
      "w", {"name", "word", "amount", "mixed", "flag"},
      {s("Apple"),     s("Apple"),   n(5, "5"),   Value::Number(5),  Value::Bool(true),
       s("apple"),     s("apple"),   n(5, "5.0"), s("5"),            Value::Bool(false),
       s(" apple "),   s(" apple "), n(5, "$5"),  s("apple"),        null,
       s("Apple pie"), s("banana"),  Value::Number(7), s(""),        Value::Bool(true),
       null,           s(""),        null,        Value::Bool(true), Value::Bool(false),
       s(""),          null,         n(-2, "-2"), null,              Value::Bool(true),
       Value::Number(5), s("Banana"), n(5, "5"),  s(" Apple"),       null});
}

TEST(IndexDifferentialTest, DisagreeingTextMatchesScan) {
  const Table t = DisagreeingTextTable();
  for (const char* col : {"name", "word", "amount", "mixed", "flag"}) {
    const std::string c = col;
    ExpectSqlIdentical(t, "SELECT COUNT(DISTINCT " + c + ") FROM w");
    ExpectSqlIdentical(t, "SELECT COUNT(DISTINCT " + c + ") FROM w WHERE " +
                              c + " != 'apple'");
    ExpectSqlIdentical(t, "SELECT MIN(" + c + ") FROM w");
    ExpectSqlIdentical(t, "SELECT MAX(" + c + ") FROM w");
    for (const char* dir : {" ASC", " DESC"}) {
      ExpectSqlIdentical(t, "SELECT name FROM w ORDER BY " + c + dir);
      ExpectSqlIdentical(t, "SELECT name FROM w WHERE flag = 1 ORDER BY " +
                                c + dir + " LIMIT 3");
    }
    for (const char* literal : {"'apple'", "'APPLE'", "' apple '", "''",
                                "'5'", "5", "'$5'", "'5.0'", "'true'", "1",
                                "'banana'", "'b'"}) {
      for (const char* op : {" = ", " != ", " < "}) {
        ExpectSqlIdentical(t, "SELECT name FROM w WHERE " + c + op + literal);
      }
      ExpectSqlIdentical(t, "SELECT name FROM w WHERE amount = 5 AND " + c +
                                " = " + literal);
    }
    for (const char* literal : {"apple", "APPLE", "5", "5.0", "$5", "true",
                                "banana", "b"}) {
      const std::string eq =
          "filter_eq { all_rows ; " + c + " ; " + literal + " }";
      ExpectLogicIdentical(t, "count { " + eq + " }");
      ExpectLogicIdentical(t, "hop { " + eq + " ; name }");
      ExpectLogicIdentical(t, "count { filter_not_eq { all_rows ; " + c +
                                  " ; " + literal + " } }");
      ExpectLogicIdentical(t, "count { filter_eq { filter_eq { all_rows ; "
                              "flag ; 1 } ; " + c + " ; " + literal + " } }");
    }
    for (const char* op : {"argmax", "argmin"}) {
      ExpectLogicIdentical(t, std::string("hop { ") + op + " { all_rows ; " +
                                  c + " } ; name }");
      ExpectLogicIdentical(t, std::string("hop { ") + op +
                                  " { filter_eq { all_rows ; flag ; 1 } ; " +
                                  c + " } ; word }");
    }
  }
  // COUNT(DISTINCT) counts display strings: Apple, apple and " apple "
  // are three, and the text-less 5 and the string "5" are one.
  auto count = [&t](const char* col) {
    auto r = Execute(ProgramType::kSql,
                     std::string("SELECT COUNT(DISTINCT ") + col + ") FROM w",
                     t);
    return r.ok() ? r->ToDisplayString() : r.status().ToString();
  };
  EXPECT_EQ(count("word"), "6");
  EXPECT_EQ(count("amount"), "5");
  EXPECT_EQ(count("mixed"), "5");
  EXPECT_EQ(count("flag"), "2");
}

// Row names match exactly after trimming and case folding, first row
// first; then by a unique substring either way round. A blank name
// matches the first null or empty cell.
TEST(RowIndexByNameTest, DisagreeingTextRowNames) {
  const Table t = DisagreeingTextTable();
  auto row = [&t](const char* name) -> std::string {
    auto r = t.RowIndexByName(name);
    return r.ok() ? std::to_string(*r) : "none";
  };
  EXPECT_EQ(row("Apple"), "0");
  EXPECT_EQ(row("APPLE"), "0");
  EXPECT_EQ(row("  apple "), "0");
  EXPECT_EQ(row("apple PIE"), "3");
  EXPECT_EQ(row("5"), "6");
  EXPECT_EQ(row(""), "4");
  EXPECT_EQ(row("pie"), "3");           // substring of one name
  EXPECT_EQ(row("an apple pie!"), "none");  // holds three names
  EXPECT_EQ(row("ppl"), "none");        // in four names
  EXPECT_EQ(row("banana"), "none");
}

// A column holds each distinct display once, and each distinct norm once
// with its rank; rows point at their display, and only text rows post.
TEST(IndexLayoutTest, EachDistinctTextOncePerColumn) {
  const Table t = DisagreeingTextTable();
  const TableIndex::Column& word = t.index().column(1);
  std::vector<std::string> displays, norms;
  for (uint32_t id = 0; id < word.displays.size(); ++id) {
    displays.emplace_back(word.displays.at(id));
  }
  for (uint32_t k = 0; k < word.norms.size(); ++k) {
    norms.emplace_back(word.norms.at(k));
  }
  std::sort(displays.begin(), displays.end());
  EXPECT_EQ(displays, (std::vector<std::string>{"", " apple ", "Apple",
                                                "Banana", "apple", "banana"}));
  EXPECT_EQ(norms, (std::vector<std::string>{"", "apple", "banana"}));
  for (size_t r = 0; r < t.num_rows(); ++r) {
    EXPECT_EQ(word.display(r), t.cell(r, 1).ToDisplayString()) << r;
    EXPECT_EQ(word.norm(r), ToLower(Trim(word.display(r)))) << r;
  }
  const uint32_t apple = word.FindNorm("apple");
  ASSERT_NE(apple, StringPool::kNotFound);
  EXPECT_EQ(std::vector<uint32_t>(
                word.posting_rows.begin() + word.posting_begin[apple],
                word.posting_rows.begin() + word.posting_begin[apple + 1]),
            (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_EQ(word.FindNorm("Apple"), StringPool::kNotFound);  // not a norm
  // Numbers have ranks but never post: equal numbers may differ in text.
  const TableIndex::Column& amount = t.index().column(2);
  EXPECT_EQ(amount.displays.size(), 6u);  // "", 5, 5.0, $5, 7, -2
  EXPECT_TRUE(amount.posting_rows.empty());
  EXPECT_NE(amount.FindNorm("$5"), StringPool::kNotFound);
}

// Randomized tables: mixed-type columns (numeric text like "7", currency,
// plain words, nulls) with heavy duplication so equality and tie-breaking
// paths all fire. Every query from a fixed suite must agree between the
// runtime path and the scan on every sampled table.
TEST(IndexDifferentialTest, RandomizedTablesMatchScan) {
  Rng rng(20240817);
  const std::vector<std::string> words = {"alpha", "beta",  "gamma",
                                          "delta", "Alpha", "BETA"};
  for (int trial = 0; trial < 25; ++trial) {
    size_t rows = 1 + rng.Index(14);
    std::vector<std::vector<std::string>> cells;
    for (size_t r = 0; r < rows; ++r) {
      std::vector<std::string> row(4);
      row[0] = words[rng.Index(words.size())];
      row[1] = rng.Bernoulli(0.15)
                   ? ""
                   : std::to_string(static_cast<int>(rng.Index(6)));
      row[2] = rng.Bernoulli(0.2)
                   ? words[rng.Index(words.size())]
                   : "$" + std::to_string(100 * (1 + rng.Index(5)));
      row[3] = std::to_string(static_cast<int>(rng.Index(4))) + "." +
               std::to_string(static_cast<int>(rng.Index(10)));
      cells.push_back(std::move(row));
    }
    Table t =
        Table::FromStrings({"name", "score", "amount", "ratio"}, cells)
            .ValueOrDie();
    for (const char* query : {
             "SELECT score FROM w WHERE name = 'alpha'",
             "SELECT name FROM w WHERE score = 3",
             "SELECT name FROM w WHERE amount = 300",
             "SELECT name FROM w WHERE ratio > 1.5 ORDER BY score DESC",
             "SELECT name FROM w ORDER BY amount ASC",
             "SELECT name FROM w ORDER BY name DESC LIMIT 3",
             "SELECT COUNT(DISTINCT name) FROM w",
             "SELECT SUM(score) FROM w",
             "SELECT SUM(amount) FROM w",
             "SELECT MIN(amount) FROM w",
             "SELECT MAX(name) FROM w",
             "SELECT AVG(ratio) FROM w WHERE score >= 2",
         }) {
      ExpectSqlIdentical(t, query);
    }
    for (const char* form : {
             "count { filter_eq { all_rows ; name ; alpha } }",
             "hop { argmax { all_rows ; ratio } ; name }",
             "hop { nth_argmin { all_rows ; ratio ; 2 } ; name }",
             "sum { all_rows ; score }",
             "most_eq { all_rows ; name ; beta }",
         }) {
      ExpectLogicIdentical(t, form);
    }
  }
}

// One cell from one of four generators, each a shape a tolerant
// comparison does not order: a chain of numbers each within
// NearlyEqual's tolerance of the next (kind 0), numbers beside text (1),
// nan and inf among small integers (2), and integers above four million,
// where the relative tolerance spans about four units (3). One cell in
// ten is null.
std::string GeneratedCell(Rng* rng, int kind) {
  if (rng->Bernoulli(0.1)) return "";
  switch (kind) {
    case 0: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.7f",
                    1.0 + static_cast<double>(rng->Index(8)) * 4e-7);
      return buf;
    }
    case 1: {
      static const char* const kText[] = {"5x", "1a", "b"};
      return rng->Bernoulli(0.5) ? std::to_string(rng->Index(13))
                                 : kText[rng->Index(3)];
    }
    case 2: {
      static const char* const kOdd[] = {"nan", "inf", "-inf",
                                         "1",   "2",   "3"};
      return kOdd[rng->Index(6)];
    }
    default:
      return std::to_string(4000000 + rng->Index(12));
  }
}

// Columns of each generator's cells. Cells have one order (Value::Order:
// numbers exactly, before text), so on each the cached sorted permutation
// must be the walker's stable sort, ascending and descending. Every
// superlative and ORDER BY runs over the full view, which reads the
// permutation, and a filtered one, which the VM sorts.
TEST(IndexDifferentialTest, NearEqualMixedAndNanColumnsMatchScan) {
  Rng rng(20261017);
  for (int kind = 0; kind < 4; ++kind) {
    for (int trial = 0; trial < 250; ++trial) {
      std::vector<std::vector<std::string>> cells;
      const size_t rows = 2 + rng.Index(8);
      for (size_t r = 0; r < rows; ++r) {
        cells.push_back({"r" + std::to_string(r),
                         rng.Bernoulli(0.5) ? "yes" : "no",
                         GeneratedCell(&rng, kind)});
      }
      Table t = Table::FromStrings({"name", "keep", "x"}, cells).ValueOrDie();
      for (const std::string view :
           {"all_rows", "filter_eq { all_rows ; keep ; yes }"}) {
        for (const std::string op : {"argmax", "argmin"}) {
          ExpectLogicIdentical(t,
                               "hop { " + op + " { " + view + " ; x } ; name }");
          ExpectLogicIdentical(
              t, "hop { nth_" + op + " { " + view + " ; x ; 2 } ; name }");
        }
        for (const std::string op : {"max", "min"}) {
          ExpectLogicIdentical(t, op + " { " + view + " ; x }");
          ExpectLogicIdentical(t, "nth_" + op + " { " + view + " ; x ; 2 }");
        }
      }
      for (const std::string where : {"", " WHERE keep = 'yes'"}) {
        for (const std::string dir : {" ASC", " DESC"}) {
          const std::string query = "SELECT name FROM w" + where +
                                    " ORDER BY x" + dir;
          ExpectSqlIdentical(t, query);
          ExpectSqlIdentical(t, query + " LIMIT 2");
        }
      }
    }
  }
}

// Value::Order is a strict weak order, which std::stable_sort requires of
// every comparator it is given: irreflexive, asymmetric and transitive,
// with transitive incomparability. The cells are the adversarial golden
// table's, those the four generators above draw, and -0/+0, bools, empty
// and whitespace-only text. CompareRows over a one-column table of the
// same cells must give the order's sign for every pair.
TEST(CellOrderTest, OrderIsAStrictWeakOrder) {
  std::vector<Value> cells = {
      Value::Null(),         Value::Number(0.0),
      Value::Number(-0.0),   Value::NumberWithText(-0.0, "-0"),
      Value::Bool(true),     Value::Bool(false),
      Value::String(""),     Value::String("  "),
      Value::String(" \t "), Value::String("0"),
  };
  const Table adversarial = uctr::testing::AdversarialTable(9);
  for (size_t r = 0; r < adversarial.num_rows(); ++r) {
    for (size_t c = 0; c < adversarial.num_columns(); ++c) {
      cells.push_back(adversarial.cell(r, c));
    }
  }
  Rng rng(20261019);
  for (int kind = 0; kind < 4; ++kind) {
    for (int draw = 0; draw < 200; ++draw) {
      cells.push_back(Value::FromText(GeneratedCell(&rng, kind)));
    }
  }
  // Each distinct (type, display) cell once, first appearance first.
  std::set<std::pair<ValueType, std::string>> seen;
  std::vector<Value> distinct;
  for (const Value& v : cells) {
    if (seen.emplace(v.type(), v.ToDisplayString()).second) {
      distinct.push_back(v);
    }
  }
  const size_t n = distinct.size();
  ASSERT_GT(n, 60u);
  std::vector<int> order(n * n);
  for (size_t a = 0; a < n; ++a) {
    for (size_t b = 0; b < n; ++b) {
      const int cmp = distinct[a].Order(distinct[b]);
      order[a * n + b] = (cmp > 0) - (cmp < 0);
    }
  }
  auto text = [&distinct](size_t i) {
    return std::string(ValueTypeToString(distinct[i].type())) + ":'" +
           distinct[i].ToDisplayString() + "'";
  };
  size_t failures = 0;
  auto fail = [&failures](const std::string& what) {
    if (failures++ < 5) ADD_FAILURE() << what;
  };
  for (size_t a = 0; a < n; ++a) {
    if (order[a * n + a] != 0) fail(text(a) + " is not equivalent to itself");
    for (size_t b = 0; b < n; ++b) {
      if (order[a * n + b] != -order[b * n + a]) {
        fail(text(a) + " and " + text(b) + " order both ways");
      }
      for (size_t c = 0; c < n; ++c) {
        const int ab = order[a * n + b], bc = order[b * n + c];
        const int ac = order[a * n + c];
        if (ab < 0 && bc < 0 && ac >= 0) {
          fail(text(a) + " < " + text(b) + " < " + text(c) + " but not " +
               text(a) + " < " + text(c));
        }
        if (ab == 0 && bc == 0 && ac != 0) {
          fail(text(a) + " ~ " + text(b) + " ~ " + text(c) + " but not " +
               text(a) + " ~ " + text(c));
        }
      }
    }
  }
  EXPECT_EQ(failures, 0u);
  const Table column = Table::FromValues("w", {"x"}, distinct);
  const TableIndex::Column& col = column.index().column(0);
  for (size_t a = 0; a < n; ++a) {
    for (size_t b = 0; b < n; ++b) {
      const int cmp = TableIndex::CompareRows(col, a, b);
      EXPECT_EQ((cmp > 0) - (cmp < 0), order[a * n + b])
          << text(a) << " vs " << text(b);
    }
  }
}

// Two literal columns a tolerant comparison does not order: 4000007 is
// within NearlyEqual's tolerance of both others, which are not of each
// other; and 10 > 9 as numbers while "10" < "5x" < "9" as strings. In the
// one order numbers compare exactly and come before text, so the maxima
// are 4000011 and 5x, and the VM still answers as the walker.
TEST(IndexDifferentialTest, LiteralColumnsWithoutAUniqueOrder) {
  for (const auto& [csv, max] :
       {std::pair<const char*, const char*>{
            "name,x\na,4000007\nb,4000011\nc,4000004\n", "4000011"},
        {"name,x\na,10\nb,9\nc,5x\n", "5x"}}) {
    Table t = Table::FromCsv(csv).ValueOrDie();
    for (const std::string form : {
             "max { all_rows ; x }",
             "min { all_rows ; x }",
             "nth_max { all_rows ; x ; 2 }",
             "nth_min { all_rows ; x ; 2 }",
             "hop { argmax { all_rows ; x } ; name }",
             "hop { argmin { all_rows ; x } ; name }",
             "hop { nth_argmax { all_rows ; x ; 3 } ; name }",
         }) {
      ExpectLogicIdentical(t, form);
    }
    for (const std::string query : {
             "SELECT name FROM w ORDER BY x ASC",
             "SELECT name FROM w ORDER BY x DESC",
             "SELECT x FROM w ORDER BY x DESC LIMIT 1",
         }) {
      ExpectSqlIdentical(t, query);
    }
    auto answer = Execute(ProgramType::kLogicalForm, "max { all_rows ; x }", t);
    ASSERT_TRUE(answer.ok());
    EXPECT_EQ(answer->ToDisplayString(), max);
  }
}

// Infinite cells equal only the same infinity, and a range predicate
// against inf holds for every smaller cell. Each form runs on the walker
// and the VM; the answers and evidence rows are pinned.
TEST(IndexDifferentialTest, InfinityEqualsOnlyItself) {
  const Table t =
      Table::FromCsv("name,x\na,inf\nb,1\nc,inf\nd,-inf\n").ValueOrDie();
  for (const auto& [form, outcome] :
       std::vector<std::pair<std::string, std::string>>{
           {"count { filter_eq { all_rows ; x ; inf } }",
            "ok{values=[number:2] evidence=[0,2]}"},
           {"hop { filter_eq { all_rows ; x ; inf } ; name }",
            "ok{values=[string:a] evidence=[0]}"},
           {"count { filter_less { all_rows ; x ; inf } }",
            "ok{values=[number:2] evidence=[1,3]}"},
           {"eq { max { all_rows ; x } ; inf }",
            "ok{values=[bool:true] evidence=[0,1,2,3]}"},
       }) {
    ExpectLogicIdentical(t, form);
    EXPECT_EQ(DescribeOutcome(Execute(ProgramType::kLogicalForm, form, t)),
              outcome)
        << form;
  }
}

// Tables built with MedalTable's content after successive edits: a
// renamed row, a new maximum, an appended row and an appended column.
// Each is a new table with its own index, and must match the scan path.
TEST(IndexDifferentialTest, EditedContentMatchesScan) {
  std::string csv = ReplaceAll(ReplaceAll(kMedalCsv, "Germany", "Wakanda"),
                               "Sweden,8,5,5,18", "Sweden,8,5,5,99");
  Table edited = Table::FromCsv(csv).ValueOrDie();
  auto renamed = Execute(
      ProgramType::kSql, "SELECT total FROM w WHERE nation = 'Germany'",
      edited);
  // The executor's no-match policy is an EmptyResult status.
  ASSERT_FALSE(renamed.ok());
  EXPECT_EQ(renamed.status().code(), StatusCode::kEmptyResult);
  ExpectSqlIdentical(edited, "SELECT total FROM w WHERE nation = 'Wakanda'");
  auto max = Execute(ProgramType::kLogicalForm,
                     "hop { argmax { all_rows ; total } ; nation }", edited);
  ASSERT_TRUE(max.ok());
  EXPECT_EQ(max->ToDisplayString(), "Sweden");
  ExpectLogicIdentical(edited, "hop { argmax { all_rows ; total } ; nation }");

  csv += "Norway,1,2,3,6\n";
  Table appended = Table::FromCsv(csv).ValueOrDie();
  ExpectSqlIdentical(appended, "SELECT total FROM w WHERE nation = 'Norway'");
  ExpectSqlIdentical(appended, "SELECT COUNT(DISTINCT nation) FROM w");

  Table widened =
      Table::FromCsv(ReplaceAll(ReplaceAll(csv, "\n", ",1\n"),
                                "total,1\n", "total,rank\n"))
          .ValueOrDie();
  ASSERT_EQ(widened.num_columns(), 6u);
  ExpectSqlIdentical(widened, "SELECT nation FROM w WHERE rank = 1");
  ExpectLogicIdentical(widened, "sum { all_rows ; rank }");
}

// Tables never change, so copies and moves share one index; a table
// built anew over the same cells builds its own.
TEST(IndexInvalidationTest, CopiesRebuildMovesCarry) {
  Table t = MedalTable();
  t.WarmIndex();
  const TableIndex* warmed = &t.index();

  Table copy = t;
  EXPECT_EQ(&copy.index(), warmed);
  ExpectSqlIdentical(copy, "SELECT total FROM w WHERE nation = 'Canada'");

  Table moved = std::move(t);
  EXPECT_EQ(&moved.index(), warmed);
  ExpectSqlIdentical(moved, "SELECT total FROM w WHERE nation = 'Canada'");

  Table rebuilt(moved.columns());
  EXPECT_NE(&rebuilt.index(), warmed);
  ExpectSqlIdentical(rebuilt, "SELECT total FROM w WHERE nation = 'Canada'");
}

// Concurrent first-touch: many threads execute programs against one
// shared const Table whose index has NOT been warmed, so the lazy
// per-column std::call_once builds race. Run under
// `UCTR_SANITIZE=thread scripts/check.sh index_test` to let TSan check
// the synchronization; in any build mode the results must match the scan.
TEST(IndexConcurrencyTest, SharedConstTableAcrossThreads) {
  Table t = MedalTable();
  const std::string query =
      "SELECT nation FROM w WHERE gold >= 4 ORDER BY total DESC";
  auto expected = sql::ExecuteQuery(query, t);
  ASSERT_TRUE(expected.ok());
  const std::string want = DescribeOutcome(expected);

  constexpr int kThreads = 8;
  std::vector<std::string> got(kThreads);
  {
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      workers.emplace_back([&t, &query, &got, i] {
        auto r = Execute(ProgramType::kSql, query, t);
        got[i] = DescribeOutcome(r);
      });
    }
    for (std::thread& w : workers) w.join();
  }
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(got[i], want) << "thread " << i;
  }
}

// Threads each take a copy of one table nobody has warmed and race the
// shared index's first build: the column caches, with their dictionaries,
// and the token inventory.
// Every thread must see what a table with its own index answers.
TEST(IndexConcurrencyTest, CopiesRaceTheSharedIndexFirstBuild) {
  const Table original = MedalTable();
  const std::vector<std::string> queries = {
      "SELECT nation FROM w WHERE gold >= 4 ORDER BY total DESC",
      "SELECT total FROM w WHERE nation = 'Canada'",
      "SELECT COUNT(DISTINCT silver) FROM w"};
  auto run = [&queries](const Table& table) {
    std::string out;
    for (const std::string& q : queries) {
      out += DescribeOutcome(Execute(ProgramType::kSql, q, table)) + "\n";
    }
    // Row lookups read the first column's dictionaries.
    out += std::to_string(table.RowIndexByName(" sweden").ValueOrDie()) +
           std::string(table.index().column(0).display(5)) + "\n";
    return out + std::to_string(table.index().tokens().words.size());
  };
  const std::string want = run(Table(original.columns()));

  constexpr int kThreads = 8;
  std::vector<std::string> got(kThreads);
  std::vector<const TableIndex*> indexes(kThreads);
  std::atomic<int> ready{0};
  {
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      workers.emplace_back([&, i] {
        Table copy = original;
        ready.fetch_add(1);
        while (ready.load() < kThreads) std::this_thread::yield();
        got[i] = run(copy);
        indexes[i] = &copy.index();
      });
    }
    for (std::thread& w : workers) w.join();
  }
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(got[i], want) << "thread " << i;
    EXPECT_EQ(indexes[i], &original.index()) << "thread " << i;
  }
}

// ----------------------------------------------------------- token inventory

// Everything a caller reads from RankAll and Extract, as one string.
std::string DescribeLinking(const std::vector<model::Interpretation>& ranked,
                            const model::FeatureVector& features) {
  std::string out;
  char buf[64];
  for (const model::Interpretation& r : ranked) {
    std::snprintf(buf, sizeof(buf), "%zu|%.17g|", r.template_index, r.score);
    out += buf + r.program.text + "|" + r.result.ToDisplayString() + "|";
    for (const auto& [slot, value] : r.bindings) {
      out += slot + "=" + value + ",";
    }
    out += "\n";
  }
  for (const model::Feature& f : features) {
    std::snprintf(buf, sizeof(buf), "%u:%.9g ", f.index, f.value);
    out += buf;
  }
  return out;
}

// Concurrent first touch of the token inventory: eight threads rank and
// extract against one shared const Table nobody has warmed, so the
// inventory's call_once and the column caches' race. Each thread must see
// what a single thread sees on its own copy.
TEST(TokenInventoryTest, SharedConstTableFirstTouchAcrossThreads) {
  const Table shared = MedalTable();
  model::NlInterpreter interp(BuiltinLogicTemplates());
  model::FeatureExtractor extractor(model::FeatureConfig(), &interp);
  const std::string claim = "The gold of the row whose nation is Canada is 4.";
  auto link = [&](const Table& table) {
    Sample s;
    s.task = TaskType::kFactVerification;
    s.shared_table = &table;
    s.sentence = claim;
    return DescribeLinking(
        interp.RankAll(claim, table, TaskType::kFactVerification),
        extractor.Extract(s));
  };
  const Table alone(shared.columns());  // its own index
  const std::string want = link(alone);
  ASSERT_NE(want.find("v1=Canada"), std::string::npos) << want;

  constexpr int kThreads = 8;
  std::vector<std::string> got(kThreads);
  std::atomic<int> ready{0};
  {
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      workers.emplace_back([&, i] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) std::this_thread::yield();
        got[i] = link(shared);
      });
    }
    for (std::thread& w : workers) w.join();
  }
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(got[i], want) << "thread " << i;
  }
}

// A table built with edited content tokenizes that content: a renamed
// row, an appended row and an appended column.
TEST(TokenInventoryTest, BuiltFromEditedContent) {
  using Inventory = TableIndex::TokenInventory;
  constexpr uint32_t kNotFound = StringPool::kNotFound;
  EXPECT_EQ(MedalTable().index().tokens().Find("wakanda"), kNotFound);

  std::string csv = ReplaceAll(kMedalCsv, "Germany", "Wakanda");
  Table renamed = Table::FromCsv(csv).ValueOrDie();
  const Inventory& tokens = renamed.index().tokens();
  EXPECT_NE(tokens.Find("wakanda"), kNotFound);
  EXPECT_EQ(tokens.Find("germany"), kNotFound);
  ASSERT_EQ(tokens.cell(1, 0).size(), 1u);
  EXPECT_EQ(tokens.words.at(tokens.cell(1, 0)[0]), "wakanda");
  model::NlInterpreter interp(BuiltinLogicTemplates());
  auto read = interp.Interpret(
      "The gold of the row whose nation is Wakanda is 12.", renamed,
      TaskType::kFactVerification);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->bindings.at("v1"), "Wakanda");

  csv += "Atlantis,77,1,1,79\n";
  Table appended = Table::FromCsv(csv).ValueOrDie();
  const Inventory& more = appended.index().tokens();
  EXPECT_NE(more.Find("atlantis"), kNotFound);
  EXPECT_TRUE(
      std::binary_search(more.numbers.begin(), more.numbers.end(), 77.0));

  Table widened =
      Table::FromCsv(ReplaceAll(ReplaceAll(csv, "\n", ",wombat\n"),
                                "total,wombat\n", "total,mascot\n"))
          .ValueOrDie();
  const Inventory& wide = widened.index().tokens();
  EXPECT_NE(wide.Find("mascot"), kNotFound);  // a header word
  ASSERT_EQ(wide.cell(widened.num_rows() - 1, 5).size(), 1u);
  EXPECT_EQ(wide.words.at(wide.cell(widened.num_rows() - 1, 5)[0]),
            "wombat");
}

// Copies and moves share the inventory with the index; a table built anew
// over the same cells builds an equal one of its own.
TEST(TokenInventoryTest, MovesKeepTheInventoryCopiesBuildTheirOwn) {
  Table t = MedalTable();
  const TableIndex::TokenInventory* built = &t.index().tokens();

  Table copy = t;
  EXPECT_EQ(&copy.index().tokens(), built);

  Table rebuilt(t.columns());
  const TableIndex::TokenInventory& own = rebuilt.index().tokens();
  EXPECT_NE(&own, built);
  ASSERT_EQ(own.words.size(), built->words.size());
  for (uint32_t id = 0; id < own.words.size(); ++id) {
    EXPECT_EQ(own.words.at(id), built->words.at(id)) << id;
  }
  EXPECT_EQ(own.cell_begin, built->cell_begin);
  EXPECT_EQ(own.ids, built->ids);
  EXPECT_EQ(own.numbers, built->numbers);

  Table moved = std::move(t);
  EXPECT_EQ(&moved.index().tokens(), built);
}

// RowIndexByName now reads the cached first column; exact, substring, and
// error behavior must be unchanged.
TEST(RowIndexByNameTest, IndexedLookupKeepsSemantics) {
  Table t = MedalTable();
  EXPECT_EQ(t.RowIndexByName("germany").ValueOrDie(), 1u);
  EXPECT_EQ(t.RowIndexByName("  USA  ").ValueOrDie(), 3u);
  EXPECT_EQ(t.RowIndexByName("swed").ValueOrDie(), 4u);  // substring
  EXPECT_FALSE(t.RowIndexByName("Atlantis").ok());
  // A table built with another name in that row finds it there.
  Table renamed =
      Table::FromCsv(ReplaceAll(kMedalCsv, "Germany", "Prussia")).ValueOrDie();
  EXPECT_EQ(renamed.RowIndexByName("Prussia").ValueOrDie(), 1u);
  EXPECT_FALSE(renamed.RowIndexByName("Germany").ok());
}

}  // namespace
}  // namespace uctr
