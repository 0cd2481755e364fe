#include "hybrid/table_to_text.h"

#include "common/string_util.h"
#include "nlgen/realize_util.h"
#include "table/index.h"

namespace uctr::hybrid {

bool SentenceCoversRow(const Table& table, size_t row,
                       const std::string& sentence) {
  // Cached display strings: ApplyToEvidence probes many candidate rows of
  // the same table, so cells render once instead of once per probe.
  const TableIndex& index = table.index();
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const TableIndex::Column& cache = index.column(c);
    if (cache.is_null[row]) continue;
    if (!ContainsIgnoreCase(sentence, cache.display(row))) return false;
  }
  return true;
}

Result<std::string> TableToText::DescribeRow(const Table& table, size_t row,
                                             Rng* rng) const {
  if (row >= table.num_rows()) {
    return Status::OutOfRange("row " + std::to_string(row) +
                              " out of range");
  }
  if (table.num_columns() < 2) {
    return Status::InvalidArgument("table too narrow to describe a row");
  }
  nlgen::RealizeContext ctx(lexicon_, rng);

  const std::string subject = table.cell(row, 0).ToDisplayString();
  const std::string& subject_header = table.schema().column(0).name;
  if (subject.empty()) {
    return Status::EmptyResult("row has no name in the first column");
  }

  // "For the <header> <name>, the <col> was <val>, the <col> was <val> and
  // the <col> was <val>."
  std::string sentence =
      "for the " + subject_header + " " + subject + ", ";
  std::vector<std::string> clauses;
  for (size_t c = 1; c < table.num_columns(); ++c) {
    const Value& v = table.cell(row, c);
    if (v.is_null()) continue;
    clauses.push_back("the " + table.schema().column(c).name + " " +
                      ctx.Pick("is") + " " + v.ToDisplayString());
  }
  if (clauses.empty()) {
    return Status::EmptyResult("row has no populated cells to describe");
  }
  for (size_t i = 0; i < clauses.size(); ++i) {
    if (i > 0) {
      sentence += (i + 1 == clauses.size()) ? " and " : ", ";
    }
    sentence += clauses[i];
  }
  return nlgen::FinishSentence(std::move(sentence), '.');
}

Result<TableToTextResult> TableToText::Apply(const Table& table, size_t row,
                                             Rng* rng) const {
  UCTR_ASSIGN_OR_RETURN(std::string sentence, DescribeRow(table, row, rng));
  // The paper's filter: discard conversions that lose table information.
  if (!SentenceCoversRow(table, row, sentence)) {
    return Status::EmptyResult(
        "generated sentence lost information from the row");
  }
  TableToTextResult result;
  result.sentence = std::move(sentence);
  result.sub_table = table.WithoutRow(row);
  result.source_row = row;
  return result;
}

Result<TableToTextResult> TableToText::ApplyToEvidence(
    const Table& table, const std::vector<size_t>& candidate_rows,
    Rng* rng) const {
  if (candidate_rows.empty()) {
    return Status::InvalidArgument("no candidate rows to describe");
  }
  // Keep at least one row in the sub-table: never split a 1-row table.
  if (table.num_rows() < 2) {
    return Status::InvalidArgument("table too small to split");
  }
  std::vector<size_t> shuffled = candidate_rows;
  if (rng != nullptr) rng->Shuffle(&shuffled);
  Status last = Status::EmptyResult("no describable candidate row");
  for (size_t row : shuffled) {
    if (row >= table.num_rows()) continue;
    auto r = Apply(table, row, rng);
    if (r.ok()) return r;
    last = r.status();
  }
  return last;
}

}  // namespace uctr::hybrid
