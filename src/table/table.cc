#include "table/table.h"

#include <algorithm>

#include "common/string_util.h"
#include "fault/fault.h"

namespace uctr {

Table::Table(ColumnarTable columns)
    : body_(std::make_shared<const Body>(std::move(columns))) {}

const Table::Body& Table::EmptyBody() {
  static const Body empty{ColumnarTable()};
  return empty;
}

void Table::WarmIndex() const { index().Warm(); }

namespace {

/// Parses one CSV record starting at `*pos`; advances past the trailing
/// newline. RFC-4180 quoting: fields may be wrapped in double quotes, with
/// "" as an escaped quote.
std::vector<std::string> ParseCsvRecord(std::string_view csv, size_t* pos) {
  std::vector<std::string> fields;
  std::string field;
  bool in_quotes = false;
  size_t i = *pos;
  while (i < csv.size()) {
    char c = csv[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < csv.size() && csv[i + 1] == '"') {
          field.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field.push_back(c);
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(std::move(field));
      field.clear();
    } else if (c == '\n' || c == '\r') {
      // Consume \r\n or \n.
      if (c == '\r' && i + 1 < csv.size() && csv[i + 1] == '\n') ++i;
      ++i;
      break;
    } else {
      field.push_back(c);
    }
    ++i;
  }
  fields.push_back(std::move(field));
  *pos = i;
  return fields;
}

bool NeedsCsvQuoting(std::string_view s) {
  return s.find_first_of(",\"\n\r") != std::string_view::npos;
}

std::string CsvQuote(std::string_view s) {
  if (!NeedsCsvQuoting(s)) return std::string(s);
  std::string out = "\"";
  out += ReplaceAll(s, "\"", "\"\"");
  out += "\"";
  return out;
}

}  // namespace

Result<Table> Table::FromCsv(std::string_view csv, std::string name) {
  // Injection site for corrupt-evidence drills: chaos schedules force
  // parse failures here to prove loaders and serving degrade instead of
  // aborting a whole batch on one poison table.
  UCTR_RETURN_NOT_OK(UCTR_FAULT_POINT("table.from_csv"));
  size_t pos = 0;
  if (csv.empty()) return Status::ParseError("empty CSV input");
  std::vector<std::string> header = ParseCsvRecord(csv, &pos);
  std::vector<std::vector<std::string>> rows;
  while (pos < csv.size()) {
    std::vector<std::string> record = ParseCsvRecord(csv, &pos);
    if (record.size() == 1 && Trim(record[0]).empty()) continue;
    rows.push_back(std::move(record));
  }
  return FromStrings(header, rows, std::move(name));
}

Result<Table> Table::FromStrings(
    const std::vector<std::string>& header,
    const std::vector<std::vector<std::string>>& rows, std::string name) {
  if (header.empty()) return Status::ParseError("table has no columns");
  std::vector<std::string> names;
  names.reserve(header.size());
  for (const std::string& h : header) {
    names.push_back(Trim(h));
    if (names.back().empty()) return Status::ParseError("empty column header");
  }
  std::vector<Value> cells;
  cells.reserve(rows.size() * header.size());
  for (const auto& raw : rows) {
    if (raw.size() != header.size()) {
      return Status::ParseError("row width " + std::to_string(raw.size()) +
                                " != header width " +
                                std::to_string(header.size()));
    }
    for (const std::string& cell : raw) cells.push_back(Value::FromText(cell));
  }
  return FromValues(std::move(name), names, cells);
}

Table Table::FromValues(std::string name,
                        const std::vector<std::string>& header,
                        const std::vector<Value>& cells) {
  const size_t width = header.size();
  const size_t rows = width == 0 ? 0 : cells.size() / width;
  Schema schema;
  for (size_t c = 0; c < width; ++c) {
    size_t numbers = 0, bools = 0, non_null = 0;
    for (size_t r = 0; r < rows; ++r) {
      const Value& v = cells[r * width + c];
      if (v.is_null()) continue;
      ++non_null;
      if (v.is_number()) ++numbers;
      if (v.is_bool()) ++bools;
    }
    ColumnType type = ColumnType::kText;
    if (non_null > 0) {
      // A column is numeric when (almost) every populated cell is numeric;
      // one stray footnote cell should not demote a financial column.
      if (numbers * 10 >= non_null * 9) {
        type = ColumnType::kNumber;
      } else if (bools == non_null) {
        type = ColumnType::kBool;
      }
    }
    schema.AddColumn({header[c], type});
  }
  return Table(ColumnarTable::Build(std::move(name), std::move(schema), rows,
                                    cells));
}

Result<size_t> Table::RowIndexByName(std::string_view row_name) const {
  if (num_columns() == 0) return Status::NotFound("table has no columns");
  // Row names live in the first column; read them from the index cache so
  // repeated lookups (arithmetic programs resolve one per operand) never
  // re-materialize ToDisplayString() per row. A row's norm is
  // ToLower(Trim(display)), so matching it is
  // EqualsIgnoreCase(Trim(display), wanted); null rows display "".
  const TableIndex::Column& names = index().column(0);
  const size_t rows = num_rows();
  std::string wanted = Trim(row_name);
  if (uint32_t k = names.FindNorm(ToLower(wanted));
      k != StringPool::kNotFound) {
    for (size_t r = 0; r < rows; ++r) {
      if (names.rank(r) == k) return r;
    }
  }
  size_t found = rows;
  int hits = 0;
  for (size_t r = 0; r < rows; ++r) {
    const std::string_view display = names.display(r);
    if (!display.empty() && (ContainsIgnoreCase(display, wanted) ||
                             ContainsIgnoreCase(wanted, display))) {
      found = r;
      ++hits;
    }
  }
  if (hits == 1) return found;
  return Status::NotFound("no row named '" + std::string(row_name) + "'");
}

Table Table::WithoutRow(size_t r) const {
  std::vector<Value> cells;
  cells.reserve(num_rows() * num_columns());
  size_t rows = 0;
  for (size_t i = 0; i < num_rows(); ++i) {
    if (i == r) continue;
    for (size_t c = 0; c < num_columns(); ++c) cells.push_back(cell(i, c));
    ++rows;
  }
  return Table(ColumnarTable::Build(name(), schema(), rows, cells));
}

std::string Table::ToCsv() const {
  std::string out;
  for (size_t c = 0; c < num_columns(); ++c) {
    if (c > 0) out += ',';
    out += CsvQuote(schema().column(c).name);
  }
  out += '\n';
  for (size_t r = 0; r < num_rows(); ++r) {
    for (size_t c = 0; c < num_columns(); ++c) {
      if (c > 0) out += ',';
      out += CsvQuote(cell(r, c).ToDisplayString());
    }
    out += '\n';
  }
  return out;
}

std::string Table::ToMarkdown() const {
  std::string out = "|";
  for (size_t c = 0; c < num_columns(); ++c) {
    out += " " + schema().column(c).name + " |";
  }
  out += "\n|";
  for (size_t c = 0; c < num_columns(); ++c) out += " --- |";
  out += "\n";
  for (size_t r = 0; r < num_rows(); ++r) {
    out += "|";
    for (size_t c = 0; c < num_columns(); ++c) {
      out += " " + cell(r, c).ToDisplayString() + " |";
    }
    out += "\n";
  }
  return out;
}

std::string Table::Linearize(size_t max_rows) const {
  std::string out;
  size_t limit = std::min(max_rows, num_rows());
  for (size_t r = 0; r < limit; ++r) {
    if (r > 0) out += " | ";
    for (size_t c = 0; c < num_columns(); ++c) {
      if (c > 0) out += " ; ";
      out += "col: " + schema().column(c).name + " is " +
             cell(r, c).ToDisplayString();
    }
  }
  return out;
}

}  // namespace uctr
