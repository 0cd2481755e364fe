#include "hybrid/text_to_table.h"

#include <algorithm>

#include "common/string_util.h"

namespace uctr::hybrid {

namespace {

/// Case-insensitive find; npos when absent.
size_t FindCi(const std::string& haystack, const std::string& needle) {
  std::string h = ToLower(haystack);
  std::string n = ToLower(needle);
  return h.find(n);
}

/// Extracts the value phrase that follows a column-header mention:
/// skips connectives ("was", "is", "of", ...) and reads up to the next
/// clause boundary (",", " and ", end of sentence).
std::string ValueAfter(const std::string& sentence, size_t pos) {
  std::string tail = sentence.substr(pos);
  // Skip leading connective words.
  static const char* kConnectives[] = {"is",    "was",   "were", "are",
                                       "of",    "at",    "about",
                                       "approximately", "a", "an", "the"};
  while (true) {
    tail = Trim(tail);
    bool skipped = false;
    for (const char* w : kConnectives) {
      std::string word(w);
      if (EqualsIgnoreCase(tail.substr(0, word.size()), word) &&
          (tail.size() == word.size() || tail[word.size()] == ' ')) {
        tail = tail.substr(word.size());
        skipped = true;
        break;
      }
    }
    if (!skipped) break;
  }
  // Read up to a clause boundary.
  size_t end = tail.size();
  for (std::string_view boundary : {", ", " and ", ". ", "; "}) {
    size_t p = tail.find(boundary);
    if (p != std::string::npos) end = std::min(end, p);
  }
  std::string value = Trim(tail.substr(0, end));
  // Drop a trailing period.
  while (!value.empty() && (value.back() == '.' || value.back() == ',')) {
    value.pop_back();
  }
  return Trim(value);
}

/// Heuristic subject recovery: handles the sentence shapes produced by the
/// corpus generators and the Table-To-Text operator.
std::string ExtractSubject(const std::string& sentence,
                           const std::string& first_header) {
  std::string s = Trim(sentence);
  // "For the <header> <name>, ..." (DescribeEnt shape).
  if (EqualsIgnoreCase(s.substr(0, std::min<size_t>(8, s.size())),
                       "for the ")) {
    std::string rest = s.substr(8);
    if (EqualsIgnoreCase(rest.substr(0, std::min(first_header.size(),
                                                 rest.size())),
                         first_header)) {
      rest = Trim(rest.substr(first_header.size()));
    }
    size_t comma = rest.find(',');
    if (comma != std::string::npos) return Trim(rest.substr(0, comma));
  }
  // "<name> was/is/had/recorded/reported ..." — subject up to the verb.
  std::string lowered = ToLower(s);
  size_t cut = std::string::npos;
  for (std::string_view verb :
       {" was ", " is ", " were ", " are ", " had ", " recorded ",
        " reported ", " stood "}) {
    size_t p = lowered.find(verb);
    if (p != std::string::npos) cut = std::min(cut, p);
  }
  if (cut == std::string::npos) return "";
  std::string subject = Trim(s.substr(0, cut));
  // Strip leading determiners and frame phrases ("In 2019, the ...").
  size_t comma = subject.rfind(", ");
  if (comma != std::string::npos) subject = Trim(subject.substr(comma + 2));
  for (std::string_view det : {"the ", "The ", "a ", "A "}) {
    if (subject.size() > det.size() &&
        subject.substr(0, det.size()) == det) {
      subject = Trim(subject.substr(det.size()));
      break;
    }
  }
  return subject;
}

}  // namespace

Result<ExtractedRecord> TextToTable::ExtractRecord(
    const Table& table, const std::vector<std::string>& sentences) const {
  if (table.num_columns() < 2) {
    return Status::InvalidArgument("table too narrow for extraction");
  }
  ExtractedRecord best;
  size_t best_hits = 0;

  for (size_t i = 0; i < sentences.size(); ++i) {
    const std::string& sentence = sentences[i];
    ExtractedRecord record;
    record.source_sentence = i;
    record.row_name =
        ExtractSubject(sentence, table.schema().column(0).name);
    if (record.row_name.empty()) continue;

    for (size_t c = 1; c < table.num_columns(); ++c) {
      const std::string& header = table.schema().column(c).name;
      size_t pos = FindCi(sentence, header);
      if (pos == std::string::npos) continue;
      std::string value = ValueAfter(sentence, pos + header.size());
      if (value.empty()) continue;
      // Numeric columns only accept numeric values; this rejects header
      // mentions that are not assignments.
      if (table.schema().column(c).type == ColumnType::kNumber &&
          !Value::FromText(value).is_number()) {
        continue;
      }
      record.fields[header] = value;
    }
    if (record.fields.size() > best_hits) {
      best_hits = record.fields.size();
      best = std::move(record);
    }
  }
  if (best_hits == 0) {
    return Status::NotFound("no sentence yields an extractable record");
  }
  return best;
}

Result<Table> TextToTable::Expand(const Table& table,
                                  const ExtractedRecord& record) const {
  if (record.fields.empty()) {
    return Status::InvalidArgument("record has no fields");
  }

  // Section III-B: integration needs a shared row name OR shared column
  // names. Schema-guided extraction always shares columns; externally
  // built records may instead share only the row name, in which case
  // their new columns are appended to the schema.
  Result<size_t> existing = table.RowIndexByName(record.row_name);
  Schema schema = table.schema();
  for (const auto& [column, value] : record.fields) {
    if (schema.HasColumn(column)) continue;
    if (!existing.ok()) {
      return Status::NotFound("record column '" + column +
                              "' not in the table schema and no shared "
                              "row name to integrate through");
    }
    std::string trimmed = Trim(column);
    if (trimmed.empty()) {
      return Status::InvalidArgument("empty column header");
    }
    for (const ColumnSpec& spec : schema.columns()) {
      if (EqualsIgnoreCase(spec.name, trimmed)) {
        return Status::InvalidArgument("duplicate column '" + trimmed + "'");
      }
    }
    schema.AddColumn({trimmed, ColumnType::kText});
  }

  // The output's cells, row after row; appended columns start null.
  const size_t width = schema.num_columns();
  std::vector<Value> cells;
  cells.reserve((table.num_rows() + 1) * width);
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < width; ++c) {
      cells.push_back(c < table.num_columns() ? table.cell(r, c) : Value());
    }
  }
  if (existing.ok()) {
    // Shared row name: merge, filling only missing cells.
    const size_t r = existing.ValueOrDie();
    size_t filled = 0;
    for (const auto& [column, value] : record.fields) {
      Value& cell = cells[r * width + schema.ColumnIndex(column).ValueOrDie()];
      if (cell.is_null()) {
        cell = Value::FromText(value);
        ++filled;
      }
    }
    if (filled == 0) {
      return Status::EmptyResult(
          "record adds no new information to the table");
    }
  } else {
    // New row name: append a record row.
    const size_t row = cells.size();
    cells.resize(row + width);
    cells[row] = Value::String(record.row_name);
    for (const auto& [column, value] : record.fields) {
      cells[row + schema.ColumnIndex(column).ValueOrDie()] =
          Value::FromText(value);
    }
  }
  std::vector<std::string> header;
  for (const ColumnSpec& spec : schema.columns()) header.push_back(spec.name);
  return Table::FromValues(table.name(), header, cells);
}

Result<Table> TextToTable::Apply(
    const Table& table, const std::vector<std::string>& sentences) const {
  UCTR_ASSIGN_OR_RETURN(ExtractedRecord record,
                        ExtractRecord(table, sentences));
  return Expand(table, record);
}

}  // namespace uctr::hybrid
