#ifndef UCTR_TESTS_TEST_UTIL_H_
#define UCTR_TESTS_TEST_UTIL_H_

#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "program/program.h"
#include "table/table.h"

namespace uctr::testing {

/// A small Wikipedia-style relational table used across the test suite.
inline Table MakeNationsTable() {
  const std::string csv =
      "nation,gold,silver,bronze,total\n"
      "united states,10,12,8,30\n"
      "china,8,6,10,24\n"
      "japan,5,9,4,18\n"
      "germany,5,3,6,14\n"
      "france,2,4,7,13\n";
  return Table::FromCsv(csv, "medals").ValueOrDie();
}

/// A TAT-QA-style financial table: first column is the row name.
inline Table MakeFinanceTable() {
  const std::string csv =
      "item,2019,2018\n"
      "revenue,\"$1,200.5\",\"$1,000.0\"\n"
      "cost of sales,800,700\n"
      "gross profit,400.5,300\n"
      "stockholders' equity,\"2,500\",\"2,000\"\n";
  return Table::FromCsv(csv, "financials").ValueOrDie();
}

/// A random relational table for property tests: a text entity column
/// plus `numeric_cols` integer columns, no nulls, distinct entity names.
inline Table RandomTable(Rng* rng, size_t rows = 0, size_t numeric_cols = 0) {
  if (rows == 0) rows = static_cast<size_t>(rng->UniformInt(3, 10));
  if (numeric_cols == 0) {
    numeric_cols = static_cast<size_t>(rng->UniformInt(2, 4));
  }
  std::vector<std::string> header = {"name"};
  for (size_t c = 0; c < numeric_cols; ++c) {
    header.push_back("metric" + std::to_string(c + 1));
  }
  std::vector<std::vector<std::string>> data;
  for (size_t r = 0; r < rows; ++r) {
    std::vector<std::string> row = {"entity" + std::to_string(r)};
    for (size_t c = 0; c < numeric_cols; ++c) {
      row.push_back(std::to_string(rng->UniformInt(0, 50)));
    }
    data.push_back(std::move(row));
  }
  return Table::FromStrings(header, data, "random").ValueOrDie();
}

/// A table whose columns hold the cell shapes executors treat specially:
/// nulls, a near-equal chain, nan and inf, text beside numbers, currency
/// and percent surface text, and yes/no bools.
inline Table AdversarialTable(size_t rows) {
  std::vector<std::vector<std::string>> cells;
  for (size_t r = 0; r < rows; ++r) {
    const std::string n = std::to_string(r);
    cells.push_back({
        r == 3 ? "n/a" : "item " + n,
        r % 4 == 1 ? "$1,234.5" : "$" + std::to_string(100 * r + 5),
        std::to_string(r * 7 % 40) + "%",
        r % 9 == 4   ? "nan"
        : r % 9 == 6 ? "inf"
        : r % 9 == 7 ? "-inf"
                     : "1.00000" + std::to_string(r % 10),
        r % 5 == 2 ? "" : (r % 2 == 0 ? "yes" : "no"),
        r % 3 == 0 ? "unknown" : std::to_string(r * 11 % 17),
        r % 4 == 0 ? std::to_string(r) : "-",
    });
  }
  return Table::FromStrings(
             {"name", "amount", "share", "ratio", "flag", "mixed", "sparse"},
             cells, "adversarial")
      .ValueOrDie();
}

// The golden corpus: the fixtures, random tables of 3-10 rows and of 63,
// 64, 65, 129 and 1000 rows, two adversarial tables (one crossing a
// 64-row word) and, last, a table with one integer -0 cell.
inline std::vector<std::pair<std::string, Table>> GoldenTables(Rng* rng) {
  std::vector<std::pair<std::string, Table>> tables;
  tables.emplace_back("nations", MakeNationsTable());
  tables.emplace_back("finance", MakeFinanceTable());
  for (size_t rows : {3, 4, 5, 6, 7, 8, 9, 10, 63, 64, 65, 129, 1000}) {
    tables.emplace_back("random-" + std::to_string(rows),
                        RandomTable(rng, rows));
  }
  tables.emplace_back("adversarial-9", AdversarialTable(9));
  tables.emplace_back("adversarial-70", AdversarialTable(70));
  tables.emplace_back(
      "negative-zero",
      Table::FromCsv("name,b,c\nx,-0,3\ny,5,-2\nz,7,4\n", "nz").ValueOrDie());
  return tables;
}

/// Whether `text`, spliced into a program of `type`, can change its
/// structure: quotes and brackets in SQL, braces and semicolons in logical
/// forms, and in arithmetic parentheses, commas, " of " (which splits a
/// cell reference) and a leading '#' or "const_" (a step or a constant).
inline bool HasProgramSyntax(ProgramType type, std::string_view text) {
  switch (type) {
    case ProgramType::kSql:
      return text.find_first_of("'[]") != std::string_view::npos;
    case ProgramType::kLogicalForm:
      return text.find_first_of("{};") != std::string_view::npos;
    case ProgramType::kArithmetic: {
      std::string name = ToLower(Trim(text));
      return name.find_first_of("(),") != std::string::npos ||
             (" " + name + " ").find(" of ") != std::string::npos ||
             StartsWith(name, "#") || StartsWith(name, "const_");
    }
  }
  return false;
}

}  // namespace uctr::testing

#endif  // UCTR_TESTS_TEST_UTIL_H_
