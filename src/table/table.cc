#include "table/table.h"

#include <algorithm>

#include "common/string_util.h"
#include "fault/fault.h"
#include "table/index.h"

namespace uctr {

Table::Table() = default;

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)), schema_(std::move(schema)) {}

Table::Table(const Table& other)
    : name_(other.name_),
      schema_(other.schema_),
      rows_(other.rows_) {}

Table& Table::operator=(const Table& other) {
  if (this == &other) return *this;
  name_ = other.name_;
  schema_ = other.schema_;
  rows_ = other.rows_;
  InvalidateIndex();
  return *this;
}

Table::Table(Table&& other) noexcept
    : name_(std::move(other.name_)),
      schema_(std::move(other.schema_)),
      rows_(std::move(other.rows_)),
      index_(std::move(other.index_)) {
  if (index_) index_->RebindTable(this);
}

Table& Table::operator=(Table&& other) noexcept {
  if (this == &other) return *this;
  name_ = std::move(other.name_);
  schema_ = std::move(other.schema_);
  rows_ = std::move(other.rows_);
  index_ = std::move(other.index_);
  if (index_) index_->RebindTable(this);
  return *this;
}

Table::~Table() = default;

const TableIndex& Table::index() const {
  std::lock_guard<std::mutex> lock(index_mu_);
  if (!index_) index_ = std::make_unique<TableIndex>(this);
  return *index_;
}

void Table::WarmIndex() const { index().Warm(); }

void Table::InvalidateIndex() {
  std::lock_guard<std::mutex> lock(index_mu_);
  index_.reset();
}

const char* ColumnTypeToString(ColumnType type) {
  switch (type) {
    case ColumnType::kText:
      return "text";
    case ColumnType::kNumber:
      return "number";
    case ColumnType::kBool:
      return "bool";
  }
  return "unknown";
}

Result<size_t> Schema::ColumnIndex(std::string_view name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (EqualsIgnoreCase(columns_[i].name, name)) return i;
  }
  // Fallback: unique substring match, tolerating lossy NL round-trips.
  size_t found = columns_.size();
  int hits = 0;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (ContainsIgnoreCase(columns_[i].name, name) ||
        ContainsIgnoreCase(name, columns_[i].name)) {
      found = i;
      ++hits;
    }
  }
  if (hits == 1) return found;
  return Status::NotFound("no column named '" + std::string(name) + "'");
}

bool Schema::HasColumn(std::string_view name) const {
  return ColumnIndex(name).ok();
}

uint64_t Schema::Fingerprint() const {
  // FNV-1a streamed over "name \x1f type \x1e" per column: the identity
  // the compiled-plan cache keys on.
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const char* p, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      h ^= static_cast<unsigned char>(p[i]);
      h *= 1099511628211ULL;
    }
  };
  for (const ColumnSpec& col : columns_) {
    mix(col.name.data(), col.name.size());
    char tail[2] = {'\x1f',
                    static_cast<char>('0' + static_cast<int>(col.type))};
    mix(tail, 2);
    char sep = '\x1e';
    mix(&sep, 1);
  }
  return h;
}

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
  Schema schema;
  for (const std::string& h : header) {
    std::string trimmed = Trim(h);
    if (trimmed.empty()) return Status::ParseError("empty column header");
    schema.AddColumn({trimmed, ColumnType::kText});
  }
  Table table(std::move(name), std::move(schema));
  for (const auto& raw : rows) {
    if (raw.size() != header.size()) {
      return Status::ParseError("row width " + std::to_string(raw.size()) +
                                " != header width " +
                                std::to_string(header.size()));
    }
    Row row;
    row.reserve(raw.size());
    for (const std::string& cell : raw) row.push_back(Value::FromText(cell));
    table.rows_.push_back(std::move(row));
  }
  table.InferColumnTypes();
  return table;
}

std::vector<Value> Table::ColumnValues(size_t c) const {
  std::vector<Value> out;
  out.reserve(rows_.size());
  for (const Row& r : rows_) out.push_back(r[c]);
  return out;
}

Result<size_t> Table::RowIndexByName(std::string_view row_name) const {
  if (num_columns() == 0) return Status::NotFound("table has no columns");
  // Row names live in the first column; read them from the index cache so
  // repeated lookups (arithmetic programs resolve one per operand) never
  // re-materialize ToDisplayString() per row. Semantics are unchanged:
  // norm[r] == ToLower(Trim(display)) makes the first loop exactly the old
  // EqualsIgnoreCase(Trim(display), wanted) test.
  const TableIndex::Column& names = index().column(0);
  std::string wanted = Trim(row_name);
  std::string wanted_norm = ToLower(wanted);
  for (size_t r = 0; r < rows_.size(); ++r) {
    if (names.norm[r] == wanted_norm) return r;
  }
  size_t found = rows_.size();
  int hits = 0;
  for (size_t r = 0; r < rows_.size(); ++r) {
    const std::string& display = names.display[r];
    if (!display.empty() && (ContainsIgnoreCase(display, wanted) ||
                             ContainsIgnoreCase(wanted, display))) {
      found = r;
      ++hits;
    }
  }
  if (hits == 1) return found;
  return Status::NotFound("no row named '" + std::string(row_name) + "'");
}

Result<Value> Table::CellByNames(std::string_view row_name,
                                 std::string_view col_name) const {
  UCTR_ASSIGN_OR_RETURN(size_t r, RowIndexByName(row_name));
  UCTR_ASSIGN_OR_RETURN(size_t c, ColumnIndex(col_name));
  return rows_[r][c];
}

Status Table::AppendRow(Row row) {
  if (row.size() != num_columns()) {
    return Status::InvalidArgument(
        "row width " + std::to_string(row.size()) + " != schema width " +
        std::to_string(num_columns()));
  }
  rows_.push_back(std::move(row));
  InvalidateIndex();
  return Status::OK();
}

Status Table::AppendColumn(const std::string& name, const Value& fill) {
  std::string trimmed = Trim(name);
  if (trimmed.empty()) {
    return Status::InvalidArgument("empty column header");
  }
  for (size_t c = 0; c < num_columns(); ++c) {
    if (EqualsIgnoreCase(schema_.column(c).name, trimmed)) {
      return Status::InvalidArgument("duplicate column '" + trimmed + "'");
    }
  }
  schema_.AddColumn({trimmed, ColumnType::kText});
  for (Row& row : rows_) row.push_back(fill);
  InferColumnTypes();
  InvalidateIndex();
  return Status::OK();
}

Table Table::SubTable(const std::vector<size_t>& row_indices) const {
  Table out(name_, schema_);
  for (size_t r : row_indices) {
    if (r < rows_.size()) out.rows_.push_back(rows_[r]);
  }
  return out;
}

Table Table::WithoutRow(size_t r) const {
  Table out(name_, schema_);
  for (size_t i = 0; i < rows_.size(); ++i) {
    if (i != r) out.rows_.push_back(rows_[i]);
  }
  return out;
}

void Table::InferColumnTypes() {
  for (size_t c = 0; c < num_columns(); ++c) {
    size_t numbers = 0, bools = 0, non_null = 0;
    for (const Row& row : rows_) {
      const Value& v = row[c];
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
    schema_.mutable_column(c)->type = type;
  }
}

std::vector<size_t> Table::ColumnsOfType(ColumnType type) const {
  std::vector<size_t> out;
  for (size_t c = 0; c < num_columns(); ++c) {
    if (schema_.column(c).type == type) out.push_back(c);
  }
  return out;
}

std::string Table::ToCsv() const {
  std::string out;
  for (size_t c = 0; c < num_columns(); ++c) {
    if (c > 0) out += ',';
    out += CsvQuote(schema_.column(c).name);
  }
  out += '\n';
  for (const Row& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out += ',';
      out += CsvQuote(row[c].ToDisplayString());
    }
    out += '\n';
  }
  return out;
}

std::string Table::ToMarkdown() const {
  std::string out = "|";
  for (size_t c = 0; c < num_columns(); ++c) {
    out += " " + schema_.column(c).name + " |";
  }
  out += "\n|";
  for (size_t c = 0; c < num_columns(); ++c) out += " --- |";
  out += "\n";
  for (const Row& row : rows_) {
    out += "|";
    for (const Value& v : row) out += " " + v.ToDisplayString() + " |";
    out += "\n";
  }
  return out;
}

std::string Table::Linearize(size_t max_rows) const {
  std::string out;
  size_t limit = std::min(max_rows, rows_.size());
  for (size_t r = 0; r < limit; ++r) {
    if (r > 0) out += " | ";
    for (size_t c = 0; c < num_columns(); ++c) {
      if (c > 0) out += " ; ";
      out += "col: " + schema_.column(c).name + " is " +
             rows_[r][c].ToDisplayString();
    }
  }
  return out;
}

}  // namespace uctr
